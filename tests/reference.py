"""Slow, independent references that the tests check ``ocot.projections`` against:
a Dykstra projector over the explicit inequalities, a multiplier-reconstruction
KKT verifier, and a dense least-squares solve of the marginal projection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ocot import OrderedVariates
from ocot.errors import ShapeMismatch


def pgd_project(
    X: np.ndarray,
    oc: OrderedVariates,
    tol: float = 1e-10,
    max_cycles: int = 200_000,
) -> np.ndarray:
    """Project onto the order cone by Dykstra's cyclic corrections.

    Works over the explicit halfspaces (every tail cell below the chain
    bottom, the chain links, and the non-negative orthant), so it shares no
    machinery with the closed-form projection it is used to validate. At
    its cycle cap it fails the calling test with an AssertionError.
    """
    if tol < 1e-12:
        tol = 1e-12
    X = np.asarray(X, dtype=float)
    m, n = X.shape
    oc.check_bounds(m, n)
    if oc.k == 0:
        return np.maximum(X, 0.0)

    flat = lambda i, j: i * n + j
    top = flat(*oc.pairs[0])
    pairs_flat = [flat(i, j) for i, j in oc.pairs]
    halfspaces = [(flat(p, q), top) for p, q in zip(*np.where(oc.tail_mask(m, n)))]
    halfspaces += [(pairs_flat[ell], pairs_flat[ell + 1]) for ell in range(oc.k - 1)]

    y = X.ravel().copy()
    mem = [np.zeros_like(y) for _ in range(len(halfspaces) + 1)]
    for _ in range(max_cycles):
        y_prev = y.copy()
        for s, (lo, hi) in enumerate(halfspaces):
            w_lo = y[lo] + mem[s][lo]
            w_hi = y[hi] + mem[s][hi]
            gap = w_lo - w_hi
            if gap > 0.0:
                y[lo] = w_lo - gap / 2.0
                y[hi] = w_hi + gap / 2.0
            else:
                y[lo] = w_lo
                y[hi] = w_hi
            mem[s][lo] = w_lo - y[lo]
            mem[s][hi] = w_hi - y[hi]
        w = y + mem[-1]
        y = np.maximum(w, 0.0)
        mem[-1] = w - y
        change = float(np.max(np.abs(y - y_prev)))
        viol = max((float(y[lo] - y[hi]) for lo, hi in halfspaces), default=0.0)
        if change <= tol * 0.1 and viol <= tol and y.min() >= -tol:
            return y.reshape(m, n)
    raise AssertionError(f"Dykstra did not stabilize within {max_cycles} cycles")


@dataclass(frozen=True)
class KKTReport:
    """Max violation per optimality-condition family for an order-cone projection."""

    feasibility: float
    sign: float
    complementarity: float
    tol: float

    @property
    def max_violation(self) -> float:
        return max(self.feasibility, self.sign, self.complementarity)

    @property
    def ok(self) -> bool:
        return self.max_violation <= self.tol


def kkt_verify(
    X: np.ndarray, X_hat: np.ndarray, oc: OrderedVariates, tol: float = 1e-8
) -> KKTReport:
    """Check the optimality system of the order-cone projection at X_hat.

    The tail multipliers are recovered from the stationarity rows via
    positive/negative parts of X - X_hat; the chain multipliers follow by
    back-substitution with the top link pinned at zero. Stationarity then
    holds identically and all defect shows up in the feasibility, sign, and
    complementary-slackness families reported here.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(X_hat, dtype=float)
    if X.shape != Y.shape:
        raise ShapeMismatch(f"shapes {X.shape} and {Y.shape} differ")
    m, n = X.shape
    oc.check_bounds(m, n)
    k = oc.k

    mask = oc.tail_mask(m, n) if k else np.ones((m, n), dtype=bool)
    tail_X = X[mask]
    tail_Y = Y[mask]
    lam = np.maximum(tail_X - tail_Y, 0.0)
    delta = np.maximum(tail_Y - tail_X, 0.0)

    feas = max(0.0, float(-Y.min()))
    sign = 0.0
    comp = float(np.max(np.abs(delta * tail_Y))) if tail_Y.size else 0.0
    if k == 0 and tail_Y.size:
        # Orthant-only projection leaves no home for a positive lam; any mass
        # there is a stationarity defect, reported with the slackness family.
        comp = max(comp, float(lam.max()))

    if k:
        chain_Y = np.array([Y[i, j] for i, j in oc.pairs])
        chain_X = np.array([X[i, j] for i, j in oc.pairs])
        y_top = chain_Y[0]
        feas = max(feas, float(np.max(tail_Y - y_top)) if tail_Y.size else 0.0)
        if k > 1:
            feas = max(feas, float(np.max(chain_Y[:-1] - chain_Y[1:])))
        comp = max(comp, float(np.max(np.abs(lam * (tail_Y - y_top)))) if tail_Y.size else 0.0)

        # eta[ell] multiplies the link chain[ell] <= chain[ell+1]; the
        # stationarity rows give eta by back-substitution from the top.
        eta = np.zeros(k)  # eta[k-1] stays 0 by convention; unused for k = 1
        for ell in range(k - 1, 0, -1):
            eta[ell - 1] = chain_Y[ell] - chain_X[ell] + eta[ell]
        delta_top = y_top - chain_X[0] + eta[0] - float(lam.sum())
        sign = max(sign, float(np.max(-eta[: k - 1])) if k > 1 else 0.0)
        sign = max(sign, -delta_top)
        comp = max(comp, abs(delta_top * y_top))
        if k > 1:
            comp = max(comp, float(np.max(np.abs(eta[: k - 1] * (chain_Y[1:] - chain_Y[:-1])))))
    return KKTReport(
        feasibility=max(0.0, feas),
        sign=max(0.0, sign),
        complementarity=comp,
        tol=tol,
    )


def c1_project_dense(X: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Marginal projection via a dense least-squares solve of the KKT system.

    The optimality system [[I, A^T], [A, 0]] [Y; lam] = [X; a; b] with the
    dense, rank-deficient constraint matrix A is reduced to its Schur
    complement, A A^T lam = A X - [a; b], which is solved by least squares;
    then Y = X - A^T lam, unique whatever null-space part lam carries. Ground
    truth for the closed-form projector at O((m + n) m n) cost.
    """
    X = np.asarray(X, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = X.shape
    mn = m * n
    A = np.zeros((m + n, mn))
    for i in range(m):
        A[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        A[m + j, j::n] = 1.0
    x = X.ravel()
    lam, *_ = np.linalg.lstsq(A @ A.T, A @ x - np.concatenate([a, b]), rcond=None)
    return (x - A.T @ lam).reshape(m, n)
