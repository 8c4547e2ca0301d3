"""Admissible lower bounds for the order-constrained transport optimum.

The bound pins every constrained cell at a common level x, decouples the
marginal constraints row-by-row (and column-by-column), and solves each row
as a continuous packing problem in closed form. Both decoupled branches are
convex piecewise-linear in x, so each is minimized exactly by evaluating at
its breakpoints; the final bound is the larger branch minimum. One array
kernel evaluates the closed form for every row at every breakpoint, with
+inf where a row cannot hold its budget at that x.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import OrderedVariates, Problem
from .errors import Infeasible, RepeatedIndices

_FEAS_SLACK = 1e-12


def _pack(srt: np.ndarray, prefix: np.ndarray, u: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Greedy closed form over arrays: the cheapest items fill to u first.

    ``srt`` holds rows of sorted costs and ``prefix`` their running sums
    (leading 0); ``u`` is the grid of per-item caps and ``alpha`` the budgets,
    one row per cost row, broadcasting against ``u``. Returns a (rows, grid)
    array, +inf where a budget is negative or exceeds the capacity u*n.
    """
    n = srt.shape[1]
    a = np.maximum(alpha, 0.0)  # budgets within the slack below 0 count as 0
    cap = u * n
    over = (n == 0) | (u < 0.0) | (a - cap > _FEAS_SLACK * np.maximum(1.0, a))
    infeasible = (alpha < -_FEAS_SLACK) | ((a > 0.0) & over)
    zero = (a == 0.0) | (u == 0.0)
    out = np.zeros(infeasible.shape)
    if n:
        a = np.minimum(a, cap)
        ell = np.clip(a // np.where(u > 0.0, u, 1.0), 0, n)
        idx = ell.astype(np.intp)
        row = np.arange(srt.shape[0])[:, None]
        full = u * prefix[row, idx]
        part = full + (a - ell * u) * srt[row, np.minimum(idx, n - 1)]
        out = np.where(ell < n, part, full)
    out[zero] = 0.0
    out[infeasible] = np.inf
    return out


def _sorted_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row sorted, and its running sums with a leading 0."""
    srt = np.sort(rows, axis=1, kind="stable")
    prefix = np.zeros((srt.shape[0], srt.shape[1] + 1))
    np.cumsum(srt, axis=1, out=prefix[:, 1:])
    return srt, prefix


def packing(costs, u: float, alpha: float) -> float:
    """Optimal value of the continuous packing problem (Infeasible if u*n < alpha)."""
    srt, prefix = _sorted_rows(np.asarray(costs, dtype=float).reshape(1, -1))
    value = float(_pack(srt, prefix, np.array(float(u)), np.array([[float(alpha)]]))[0, 0])
    if value == np.inf:
        raise Infeasible(f"budget {alpha!r} infeasible under cap {u!r} on {srt.shape[1]} items")
    return value


@dataclass(frozen=True)
class PiecewiseBound:
    """One branch of the bound: G*x + L(x) tabulated on its breakpoint grid.

    ``xs`` carries the range endpoints plus every constituent inflection in
    between, so the exact minimum of the convex piecewise-linear branch is
    ``min(values)``.
    """

    xs: np.ndarray
    values: np.ndarray

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    @property
    def argmin_x(self) -> float:
        return float(self.xs[int(np.argmin(self.values))])


@dataclass(frozen=True)
class BoundReport:
    value: float
    row_branch: PiecewiseBound | None
    col_branch: PiecewiseBound | None


def _branch_values(
    D: np.ndarray, marg: np.ndarray, chain: np.ndarray, caps: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """Sum of one branch's row values at each x in ``xs`` (+inf where infeasible).

    ``chain`` lists (row, excluded column) bottom-of-chain first, ``caps`` the
    chain cells' own caps. A free row packs its budget under per-cell cap x.
    A chain row holds y in its cell and packs the rest into the other cells:
    the bottom cell is pinned at y = x (its tail budget is exact there); a
    cell higher up takes y in [max(x, budget - (n-1)x), cap], and the
    cheapest split leaves the other cells every unit costing less than its
    own (convex in y, so the interior optimum clamps to the interval).
    """
    rows, cols = chain.T
    n = D.shape[1]
    free = np.ones(marg.size, dtype=bool)
    free[rows] = False
    free_values = _pack(*_sorted_rows(D[free]), xs, marg[free, None])

    others = np.ones((rows.size, n), dtype=bool)
    others[np.arange(rows.size), cols] = False
    srt, prefix = _sorted_rows(D[rows][others].reshape(rows.size, n - 1))
    cost = D[rows, cols][:, None]
    budget = marg[rows, None]
    y_lo = np.maximum(xs, budget[1:] - (n - 1) * xs)
    y_hi = caps[1:, None]
    cheap = (srt[1:] < cost[1:]).sum(axis=1)[:, None]
    y_upper = np.minimum(np.maximum(budget[1:] - xs * cheap, np.minimum(y_lo, y_hi)), y_hi)
    y = np.concatenate([xs[None, :], y_upper])
    chain_values = cost * y + _pack(srt, prefix, xs, budget - y)
    chain_values[1:][y_lo > y_hi + _FEAS_SLACK] = np.inf
    # cumsum adds the rows one at a time in this order (sum may pair them up)
    rows_values = np.concatenate([np.zeros((1, xs.size)), free_values, chain_values])
    return np.cumsum(rows_values, axis=0)[-1]


def _branch(
    D: np.ndarray, marg: np.ndarray, other_marg: np.ndarray, chain: np.ndarray
) -> PiecewiseBound | None:
    """Build and tabulate one decoupled branch (rows; transpose for columns).

    The grid holds the range endpoints and every inflection of a row value
    in between: budget / i for all rows, and (budget - cap) / i for chain
    cells above the bottom. Returns None when the feasible x-range is empty.
    """
    rows, cols = chain.T
    caps = np.minimum(marg[rows], other_marg[cols])
    lo = float(marg.max()) / D.shape[1]
    hi = float(caps.min(initial=marg.max()))
    if lo > hi + _FEAS_SLACK:
        return None
    budgets = np.concatenate([marg, marg[rows[1:]] - caps[1:]])
    kinks = budgets[:, None] / np.arange(1, D.shape[1] + 1)
    xs = np.sort(np.concatenate([[lo, hi], kinks[(kinks > lo) & (kinks < hi)]]))
    xs = xs[np.concatenate([[True], xs[1:] > xs[:-1]])]  # np.unique would import numpy.ma
    values = _branch_values(D, marg, chain, caps, xs)
    keep = np.isfinite(values)
    if not np.any(keep):
        return None
    return PiecewiseBound(xs=xs[keep], values=values[keep])


def lower_bound_detail(problem: Problem, oc: OrderedVariates) -> BoundReport:
    """Both branch tables plus the final bound (max of the branch minima)."""
    if not oc.rows_cols_distinct:
        raise RepeatedIndices("the bound requires distinct constrained rows and columns")
    oc.check_bounds(*problem.shape)
    chain = np.array(oc.pairs, dtype=np.intp).reshape(-1, 2)
    row_branch = _branch(problem.D, problem.a, problem.b, chain)
    col_branch = _branch(problem.D.T, problem.b, problem.a, chain[:, ::-1])
    candidates = [br.min_value for br in (row_branch, col_branch) if br is not None]
    if not candidates:
        warnings.warn(
            "both bound branches have empty ranges; returning -inf", RuntimeWarning
        )
        value = -np.inf
    else:
        value = max(candidates)
    return BoundReport(value=value, row_branch=row_branch, col_branch=col_branch)


def lower_bound(problem: Problem, oc: OrderedVariates) -> float:
    """Admissible lower bound on the constrained optimum (-inf if both ranges empty)."""
    return lower_bound_detail(problem, oc).value
