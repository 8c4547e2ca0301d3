"""Problem data, validation, objective, and the explicit feasible construction.

Index conventions: everything in this package is 0-based. An order constraint
list ``pairs`` stores the constrained cells from the *bottom* of the chain up,
i.e. ``pairs[0]`` is the lowest-ranked constrained cell and ``pairs[-1]`` must
occupy the topmost position of the plan. File formats list pairs
most-important-first; use :meth:`OrderedVariates.from_ranked` for those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CapacityViolated,
    NegativeEntry,
    NonFiniteCost,
    NotNormalized,
    OrderCheckFailed,
    RepeatedIndices,
    ShapeMismatch,
)

NORMALIZATION_TOL = 1e-9


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Problem:
    """A balanced transport instance: marginals ``a``, ``b`` and costs ``D``.

    Instances are immutable and safe to share across threads. Use
    :func:`validate_problem` to construct one from untrusted data; direct
    construction performs only dtype coercion.
    """

    a: np.ndarray
    b: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _readonly(np.atleast_1d(self.a)))
        object.__setattr__(self, "b", _readonly(np.atleast_1d(self.b)))
        object.__setattr__(self, "D", _readonly(np.atleast_2d(self.D)))

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)


@dataclass(frozen=True)
class OrderedVariates:
    """The constrained cells, stored bottom-of-chain first.

    ``pairs[ell]`` holds the (row, col) cell pinned to descending-rank
    position ``k - ell`` among all plan entries; the empty tuple means
    unconstrained transport.
    """

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        norm = tuple((int(i), int(j)) for i, j in self.pairs)
        if len(set(norm)) != len(norm):
            raise RepeatedIndices(f"duplicate constrained cells in {norm}")
        object.__setattr__(self, "pairs", norm)

    @classmethod
    def from_ranked(cls, ranked_pairs: Sequence[Sequence[int]]) -> "OrderedVariates":
        """Build from a most-important-first listing (the file-format order)."""
        return cls(tuple((int(i), int(j)) for i, j in reversed(list(ranked_pairs))))

    def ranked(self) -> list[tuple[int, int]]:
        """Most-important-first listing, as used in files and reports."""
        return list(reversed(self.pairs))

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def rows(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.pairs)

    @property
    def cols(self) -> tuple[int, ...]:
        return tuple(j for _, j in self.pairs)

    @property
    def rows_cols_distinct(self) -> bool:
        """True iff no row index repeats and no column index repeats."""
        return len(set(self.rows)) == self.k and len(set(self.cols)) == self.k

    def check_bounds(self, m: int, n: int) -> None:
        for i, j in self.pairs:
            if not (0 <= i < m and 0 <= j < n):
                raise ShapeMismatch(
                    f"constrained cell ({i}, {j}) outside a {m}x{n} plan"
                )

    def extended(self, pair: tuple[int, int]) -> "OrderedVariates":
        """A child constraint list with ``pair`` appended at the bottom of the chain."""
        return OrderedVariates(((int(pair[0]), int(pair[1])),) + self.pairs)

    def tail_mask(self, m: int, n: int) -> np.ndarray:
        """Boolean (m, n) mask of the unconstrained cells V."""
        mask = np.ones((m, n), dtype=bool)
        for i, j in self.pairs:
            mask[i, j] = False
        return mask


@dataclass(frozen=True)
class TransportPlan:
    """Solver output: the marginal-feasible iterate X with its order-feasible twin Z.

    X has exact row/column sums; Z satisfies the order constraints exactly and
    is non-negative. The gap between the two is what the residuals measure.
    """

    X: np.ndarray
    Z: np.ndarray
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "X", _readonly(self.X))
        object.__setattr__(self, "Z", _readonly(self.Z))


@dataclass(frozen=True)
class MembershipReport:
    """Constraint-violation magnitudes of a candidate plan (all >= 0)."""

    row_sum_error: float
    col_sum_error: float
    negativity: float
    order_violation: float
    tol: float

    @property
    def max_violation(self) -> float:
        return max(
            self.row_sum_error, self.col_sum_error, self.negativity, self.order_violation
        )

    @property
    def ok(self) -> bool:
        return self.max_violation <= self.tol


def validate_problem(a, b, D, renormalize: bool = False) -> Problem:
    """Validate raw marginals and costs and return an immutable Problem.

    Marginal sums may deviate from 1 by at most 1e-9; larger deviations are
    rejected unless ``renormalize`` is set, in which case the vectors are
    divided by their sums. Costs must be non-negative and finite.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    D = np.asarray(D, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or D.ndim != 2:
        raise ShapeMismatch(
            f"expected 1-d a, 1-d b, 2-d D; got {a.ndim}-d, {b.ndim}-d, {D.ndim}-d"
        )
    if D.shape != (a.size, b.size):
        raise ShapeMismatch(f"D has shape {D.shape}, expected {(a.size, b.size)}")
    if not np.all(np.isfinite(D)):
        raise NonFiniteCost("cost matrix contains non-finite entries")
    if np.any(D < 0):
        raise NegativeEntry("cost matrix contains negative entries")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NotNormalized("marginals contain non-finite entries")
    if np.any(a < 0) or np.any(b < 0):
        raise NegativeEntry("marginals contain negative entries")
    for name, v in (("a", a), ("b", b)):
        s = float(v.sum())
        if abs(s - 1.0) > NORMALIZATION_TOL:
            if not renormalize:
                raise NotNormalized(f"sum({name}) = {s!r} deviates from 1 by more than 1e-9")
            if s <= 0.0:
                raise NotNormalized(f"sum({name}) = {s!r} cannot be renormalized")
            v = v / s
        if name == "a":
            a = v
        else:
            b = v
    return Problem(a=a, b=b, D=D)


def objective(problem: Problem, X: np.ndarray) -> float:
    """Transport cost trace(D^T X) = sum_ij D_ij X_ij."""
    X = np.asarray(X, dtype=float)
    if X.shape != problem.shape:
        raise ShapeMismatch(f"plan has shape {X.shape}, expected {problem.shape}")
    return float(np.sum(problem.D * X))


def feasible_point(problem: Problem, oc: OrderedVariates, c) -> np.ndarray:
    """Explicit member of the constrained polytope from chain values ``c``.

    ``c[ell]`` is the mass placed on ``oc.pairs[ell]``; the unconstrained cells
    receive the product of the residual marginals divided by the residual mass
    alpha = 1 - sum(c). The construction is guaranteed feasible only when the
    sufficient check max_V a_p b_q / alpha <= c[0] <= ... <= c[k-1] passes;
    a violated inequality is reported in the raised error.
    """
    oc.check_bounds(problem.m, problem.n)
    if not oc.rows_cols_distinct:
        raise RepeatedIndices("feasible construction requires distinct rows and columns")
    c = np.asarray(c, dtype=float).ravel()
    if c.size != oc.k:
        raise ShapeMismatch(f"got {c.size} chain values for k = {oc.k}")
    a, b = problem.a, problem.b
    m, n = problem.shape

    for ell, (i, j) in enumerate(oc.pairs):
        cap = float(min(a[i], b[j]))
        if not (-1e-15 <= c[ell] <= cap + 1e-15):
            raise CapacityViolated(
                f"c[{ell}] = {float(c[ell])!r} outside [0, min(a[{i}], b[{j}])] = [0, {cap!r}]"
            )
    alpha = 1.0 - float(c.sum())
    if alpha < -1e-12:
        raise CapacityViolated(f"chain values total {float(c.sum())!r} > 1")
    alpha = max(alpha, 0.0)

    row_resid = a.copy()
    col_resid = b.copy()
    for ell, (i, j) in enumerate(oc.pairs):
        row_resid[i] -= c[ell]
        col_resid[j] -= c[ell]

    if alpha > 0.0:
        plan = np.outer(row_resid, col_resid) / alpha
    else:
        plan = np.zeros((m, n))
    for ell, (i, j) in enumerate(oc.pairs):
        plan[i, j] = c[ell]

    if oc.k:
        for ell in range(oc.k - 1):
            if c[ell] > c[ell + 1]:
                raise OrderCheckFailed(
                    f"chain values out of order: c[{ell}] = {float(c[ell])!r} > "
                    f"c[{ell + 1}] = {float(c[ell + 1])!r}"
                )
        mask = oc.tail_mask(m, n)
        prod = np.outer(a, b)
        if np.any(mask):
            pq = np.unravel_index(np.argmax(np.where(mask, prod, -np.inf)), (m, n))
            if alpha > 0.0:
                bound = float(prod[pq] / alpha)
            else:
                bound = np.inf if prod[pq] > 0.0 else 0.0
            if bound > c[0]:
                raise OrderCheckFailed(
                    f"a[{pq[0]}]*b[{pq[1]}]/alpha = {bound!r} exceeds lowest chain value "
                    f"c[0] = {float(c[0])!r}"
                )
    return plan


def check_membership(
    problem: Problem, oc: OrderedVariates, X: np.ndarray, tol: float = 1e-12
) -> MembershipReport:
    """Measure how far X is from the constrained polytope; never raises."""
    X = np.asarray(X, dtype=float)
    if X.shape != problem.shape:
        raise ShapeMismatch(f"plan has shape {X.shape}, expected {problem.shape}")
    row_err = float(np.max(np.abs(X.sum(axis=1) - problem.a)))
    col_err = float(np.max(np.abs(X.sum(axis=0) - problem.b)))
    negativity = float(max(0.0, -X.min()))

    order_violation = 0.0
    if oc.k:
        oc.check_bounds(*problem.shape)
        chain = np.array([X[i, j] for i, j in oc.pairs])
        mask = oc.tail_mask(*problem.shape)
        if np.any(mask):
            order_violation = max(order_violation, float(np.max(X[mask]) - chain[0]))
        if oc.k > 1:
            order_violation = max(order_violation, float(np.max(chain[:-1] - chain[1:])))
        order_violation = max(0.0, order_violation)
    return MembershipReport(
        row_sum_error=row_err,
        col_sum_error=col_err,
        negativity=negativity,
        order_violation=order_violation,
        tol=tol,
    )
