"""Exact Euclidean projections onto the two constraint sets of the splitting.

C1 is the affine set of matrices with prescribed row/column sums (no sign
constraint); its projector is a closed form costing one pass of matrix-vector
work. C2 is the order cone: non-negative matrices whose constrained cells sit
at fixed descending-rank positions above everything else; its projector is an
extended pool-adjacent-violators sweep over the constrained chain with a
threshold function that pools the top tail cells into the bottom of the chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OrderedVariates, Problem
from .errors import EmptyConstraints, NoZero, ShapeMismatch, UnequalMass


def project_c1(problem: Problem, X: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {Y : Y 1 = a, Y^T 1 = b}.

    Checks the shape and the equal-mass condition, then applies
    ``project_marginals`` into a fresh array. Exact marginals on output,
    idempotent.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != problem.shape:
        raise ShapeMismatch(f"matrix has shape {X.shape}, expected {problem.shape}")
    mass_a, mass_b = float(problem.a.sum()), float(problem.b.sum())
    if abs(mass_a - mass_b) > 1e-8:
        raise UnequalMass(f"sum(a) = {mass_a!r} != sum(b) = {mass_b!r}")
    return project_marginals(X, problem.a, problem.b, np.empty(X.shape))


def project_marginals(W: np.ndarray, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Closed-form marginal projection of ``W`` written into ``out``.

    Corrects each row by its sum defect spread over the columns, each column
    likewise, and removes the double-counted total-mass defect. O(mn); all
    sums are taken before ``out`` is written, so ``out`` may be ``W``. This is
    the one kernel behind ``project_c1`` and the solver's marginal step.
    """
    m, n = W.shape
    add_reduce = np.add.reduce  # what ndarray.sum calls, without its Python wrapper
    row_defect = (a - add_reduce(W, axis=1)) / n
    col_defect = (b - add_reduce(W, axis=0)) / m
    total_defect = (float(add_reduce(a, axis=None)) - float(add_reduce(W, axis=None))) / (m * n)
    np.add(W, row_defect[:, None], out=out)
    out += col_defect[None, :]
    out -= total_defect
    return out


# The top-K prefix path beats one full stable sort once the tail is about
# eight times longer than K (random tails from 8x6 to 100x100, K = m + n);
# below that the fixed cost of partition and selection dominates.
PREFIX_MIN_RATIO = 10


class PrefixExhausted(Exception):
    """A lookup reached the end of a truncated evaluator's prefix.

    The pooled count it would return, or the piece holding a threshold root,
    depends on tail cells outside the prefix; the caller rebuilds with a
    longer prefix.
    """


@dataclass(slots=True)
class ThresholdEvaluator:
    """Evaluation of the top-block threshold over a ranked tail prefix.

    ``sorted_tail`` holds the largest unconstrained cell values descending:
    the whole tail when ``complete``, otherwise only a top prefix of it, which
    costs O(N) to select instead of O(N log N) to sort all N tail cells.
    ``x_top`` is the bottom-of-chain cell value. ``breakpoints[s-1]`` is the
    dual value at which the pooled prefix grows from s-1 to s cells; it is
    non-decreasing, so lookup is a bisection.
    A truncated evaluator raises ``PrefixExhausted`` rather than answer a
    lookup whose pooled count reaches the end of its prefix.
    """

    sorted_tail: np.ndarray
    x_top: float
    prefix_sums: np.ndarray
    breakpoints: np.ndarray
    complete: bool

    @classmethod
    def from_values(cls, x_top: float, tail, top_k: int | None = None) -> "ThresholdEvaluator":
        """Sort the ``tail`` values descending and build the breakpoints.

        Only values are ranked, not cells: equal values are interchangeable in
        every sum, and the projection writes the tail by clipping. With
        ``top_k`` set and a tail at least ``PREFIX_MIN_RATIO`` times longer,
        only the values at or above the (top_k+1)-th largest are sorted; they
        are exactly the head of the full ranking, so every sum and breakpoint
        over them is bit-identical to the full one.
        """
        tail = np.asarray(tail, dtype=float).ravel()
        N = tail.size
        if top_k is not None and N >= PREFIX_MIN_RATIO * top_k:
            pivot = np.partition(tail, N - top_k - 1)[N - top_k - 1]
            srt = np.sort(tail[tail >= pivot])[::-1]
        else:
            srt = np.sort(tail)[::-1]
        R = srt.size
        prefix = np.empty(R + 1)
        prefix[0] = 0.0
        srt.cumsum(out=prefix[1:])
        brk = prefix[1:] + x_top
        brk -= np.arange(2.0, R + 2.0) * srt
        np.maximum.accumulate(brk, out=brk)  # monotone in exact arithmetic
        return cls(
            sorted_tail=srt,
            x_top=float(x_top),
            prefix_sums=prefix,
            breakpoints=brk,
            complete=R == N,
        )


def threshold_T(ev: ThresholdEvaluator, eta: float) -> tuple[float, int]:
    """The clamped pooled average T(eta) and the pooled tail count t(eta).

    t counts the tail cells merged with the (dual-shifted) bottom chain cell;
    it is the number of breakpoints at or below eta, which also covers the
    empty-candidate convention (pool every tail cell above the shifted top).
    """
    t = int(ev.breakpoints.searchsorted(eta, side="right"))
    if not ev.complete and t == ev.breakpoints.size:
        raise PrefixExhausted(f"pooled count reaches the {t}-cell prefix")
    tau = (ev.x_top - eta + ev.prefix_sums[t]) / (t + 1)
    return max(tau, 0.0), t


def solve_eta(ev: ThresholdEvaluator, q: int, delta_2q: float, T0: float | None = None) -> float:
    """Root of T(eta) = delta_2q + eta / (q - 1) for eta >= 0.

    T is piecewise linear and non-increasing while the right side increases,
    so the root is unique when T(0) >= delta_2q. The residual is evaluated at
    every breakpoint in one pass; the count of breakpoints at or below zero or
    still above the line is the pooled count t on the root's piece. There
    T = max((c_t - eta) / (t + 1), 0), the larger of two decreasing lines, so
    the root is the larger of their two roots. ``T0`` is T(0) when the
    caller already holds it; otherwise it is evaluated here.
    """
    if q < 2:
        raise NoZero(f"q = {q} < 2")
    if T0 is None:
        T0 = threshold_T(ev, 0.0)[0]
    r0 = T0 - delta_2q
    if r0 < 0.0:
        if r0 > -1e-9 * max(1.0, abs(T0), abs(delta_2q)):
            return 0.0
        raise NoZero(f"T(0) already below the line by {-r0!r}")

    brk = ev.breakpoints
    s = brk.searchsorted(brk, side="right")  # t at each breakpoint, as in threshold_T
    T = np.maximum((ev.x_top - brk + ev.prefix_sums[s]) / (s + 1), 0.0)
    t = int(np.count_nonzero((brk <= 0.0) | (T - delta_2q - brk * (1.0 / (q - 1)) >= 0.0)))
    if t == brk.size and not ev.complete:
        raise PrefixExhausted(f"threshold root lies past the {t}-cell prefix")
    c_t = ev.x_top + ev.prefix_sums[t]  # tau hits zero at eta = c_t
    root = max((q - 1) * (c_t - (t + 1) * delta_2q) / (t + q), -delta_2q * (q - 1))
    lo = max(brk[t - 1], 0.0) if t else 0.0
    hi = brk[t] if t < brk.size else np.inf
    return float(min(max(root, lo), hi)) + 0.0


@dataclass
class BlockPartition:
    """Pool-adjacent-violators working state over the constrained chain.

    Boundaries are 0-based chain slots; ``val`` is strictly increasing across
    blocks on exit (equal neighbours coalesce). ``eta_tilde`` is the last dual
    value solved for the bottom block (0.0 when never solved), and
    ``threshold_T`` at it gives the bottom block's value ``val[0]`` and the
    count of tail cells pooled into that block.
    """

    le: list[int]
    ri: list[int]
    val: list[float]
    eta_tilde: float

    @property
    def B(self) -> int:
        return len(self.val)


def epava_blocks(chain: np.ndarray, ev: ThresholdEvaluator) -> BlockPartition:
    """Run the extended PAVA sweep over the chain values.

    ``chain[0]`` is the bottom slot whose block value is the tail-aware
    threshold; higher slots start as singleton blocks and coalesce downward
    whenever monotonicity fails. Merging into the bottom block re-solves the
    threshold equation with the running mean of the other merged slots.
    """
    chain = np.asarray(chain, dtype=float)
    k = chain.size
    add_reduce = np.add.reduce  # slice means as ndarray.mean computes them: sum / count
    eta_tilde = 0.0
    le = [0]
    ri = [0]
    T0 = threshold_T(ev, 0.0)[0]  # every merge's root search starts from T(0)
    val = [T0]
    for ell in range(1, k):
        le.append(ell)
        ri.append(ell)
        val.append(float(chain[ell]))
        while len(val) >= 2 and val[-1] <= val[-2]:
            q = ri[-1]
            if len(val) == 2:
                delta = float(add_reduce(chain[1 : q + 1])) / q  # slots 1..q join the bottom block
                eta_tilde = solve_eta(ev, q + 1, delta, T0)
                val[0] = threshold_T(ev, eta_tilde)[0]
                ri[0] = q
            else:
                val[-2] = float(add_reduce(chain[le[-2] : q + 1])) / (q + 1 - le[-2])
                ri[-2] = q
            le.pop()
            ri.pop()
            val.pop()
    return BlockPartition(le=le, ri=ri, val=val, eta_tilde=eta_tilde)


class OrderConeProjector:
    """Reusable projector onto the order cone of a fixed constraint list.

    Precomputes the constrained and the unconstrained flat indices, so each
    call is ``ThresholdEvaluator.from_values`` (a top-``top_k`` prefix of the
    tail on large tails, else one tail sort) plus the linear chain sweep and
    one clip of the whole matrix; the solver re-projects every round.
    ``top_k`` starts at m + n and doubles, for the rest of this projector's
    life, whenever the pooled count reaches the end of the prefix.
    """

    def __init__(self, oc: OrderedVariates, m: int, n: int):
        if oc.k == 0:
            raise EmptyConstraints("order cone with k = 0 is the orthant; clamp instead")
        oc.check_bounds(m, n)
        self.oc = oc
        self.shape = (m, n)
        self.chain_flat = np.array([i * n + j for i, j in oc.pairs])
        self.tail_flat = np.flatnonzero(oc.tail_mask(m, n).ravel())
        self.top_k = m + n

    def __call__(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape != self.shape:
            raise ShapeMismatch(f"matrix has shape {X.shape}, expected {self.shape}")
        if out is None:
            out = np.empty(self.shape)
        elif out.shape != self.shape:
            raise ShapeMismatch(f"out buffer has shape {out.shape}, expected {self.shape}")
        elif not out.flags["C_CONTIGUOUS"]:
            raise ValueError("out buffer must be C-contiguous")
        x = X.ravel()
        chain = x[self.chain_flat]
        tail = x[self.tail_flat]
        while True:
            ev = ThresholdEvaluator.from_values(chain[0], tail, self.top_k)
            try:
                blocks = epava_blocks(chain, ev)
                break
            except PrefixExhausted:
                self.top_k *= 2

        # The pooled tail cells are the ones at or above the bottom block's
        # value T and take T; every other tail cell lies below T and takes
        # max(x, 0). So min(max(x, 0), T) writes the whole tail without
        # ranking positions, and the chain's block values overwrite their cells.
        flat = out.reshape(-1)
        np.maximum(x, 0.0, out=flat)
        np.minimum(flat, blocks.val[0], out=flat)
        for lo, hi, v in zip(blocks.le, blocks.ri, blocks.val):
            flat[self.chain_flat[lo : hi + 1]] = v
        return out


def project_c2_epava(X: np.ndarray, oc: OrderedVariates) -> np.ndarray:
    """Euclidean projection onto the order cone (k >= 1).

    Tail cells pooled into the bottom of the chain take the threshold value,
    the remaining tail cells are clamped at zero, and the chain takes its
    block values. Output satisfies the full ordering and non-negativity
    exactly.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got {X.ndim}-d input")
    return OrderConeProjector(oc, *X.shape)(X)
