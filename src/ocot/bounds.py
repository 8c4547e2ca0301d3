"""Admissible lower bounds for the order-constrained transport optimum.

The bound pins every constrained cell at a common level x, decouples the
marginal constraints row-by-row (and column-by-column), and solves each row
as a continuous packing problem in closed form. Both decoupled branches are
convex piecewise-linear in x, so each is minimized exactly by evaluating at
its breakpoints; the final bound is the larger branch minimum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import OrderedVariates, Problem
from .errors import Infeasible, RepeatedIndices

_FEAS_SLACK = 1e-12


def _packing_sorted(
    sorted_costs: np.ndarray, prefix: np.ndarray, u: float, alpha: float
) -> float:
    """Greedy closed form on pre-sorted costs: cheapest items fill to u first."""
    n = sorted_costs.size
    if alpha < 0.0:
        if alpha < -_FEAS_SLACK:
            raise Infeasible(f"negative budget {alpha!r}")
        alpha = 0.0
    if alpha == 0.0:
        return 0.0
    if n == 0:
        raise Infeasible("positive budget with no items")
    if u < 0.0:
        raise Infeasible(f"negative capacity {u!r}")
    cap = u * n
    if alpha > cap:
        if alpha - cap > _FEAS_SLACK * max(1.0, alpha):
            raise Infeasible(f"budget {alpha!r} exceeds total capacity {cap!r}")
        alpha = cap
    if u == 0.0:
        return 0.0  # alpha was clipped to 0 above
    ell = int(alpha // u)
    if ell >= n:
        return float(u * prefix[n])
    return float(u * prefix[ell] + (alpha - ell * u) * sorted_costs[ell])


def packing(costs, u: float, alpha: float) -> float:
    """Optimal value of the continuous packing problem (Infeasible if u*n < alpha)."""
    srt = np.sort(np.asarray(costs, dtype=float).ravel(), kind="stable")
    return _packing_sorted(srt, np.concatenate([[0.0], np.cumsum(srt)]), float(u), float(alpha))


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


def _upper_cell_row(
    srt: np.ndarray,
    prefix: np.ndarray,
    budget: float,
    cell_cost: float,
    cap: float,
    x: float,
) -> float:
    """Exact row value for a chain cell above the bottom of the chain.

    The cell holds some y in [max(x, budget - (n-1)x), cap] and the remaining
    budget packs into the other cells under per-cell cap x; the cheapest split
    assigns the tail every unit whose packing cost is below the cell's own.
    Convex in y, so the interior optimum clamps to the interval.
    """
    n_other = srt.size
    y_lo = max(x, budget - n_other * x)
    y_hi = cap
    if y_lo > y_hi + _FEAS_SLACK:
        raise Infeasible(f"chain cell cannot hold its range at x = {x!r}")
    y_lo = min(y_lo, y_hi)
    cheap = int(np.searchsorted(srt, cell_cost, side="left"))
    y_star = min(max(budget - x * cheap, y_lo), y_hi)
    return cell_cost * y_star + _packing_sorted(srt, prefix, x, budget - y_star)


def _branch(
    D: np.ndarray,
    marg: np.ndarray,
    other_size: int,
    chain: list[tuple[int, int, float]],
    other_marg: np.ndarray,
) -> PiecewiseBound | None:
    """Build and tabulate one decoupled branch (rows; transpose for columns).

    ``chain`` lists (row, excluded column, cell cost) bottom-of-chain first.
    The bottom cell is pinned at x (its tail budget is exact there); cells
    higher up are minimized over their own value. Returns None when the
    feasible x-range is empty.
    """
    m = marg.size
    caps = {}
    for row, col, _ in chain:
        caps[row] = float(min(marg[row], other_marg[col]))
    lo = float(marg.max()) / other_size
    hi = float(marg.max())
    if chain:
        hi = min(hi, min(caps.values()))
    if lo > hi + _FEAS_SLACK:
        return None

    chain_rows = {row for row, _, _ in chain}
    mu_terms = []  # (sorted costs, prefix, budget)
    for p in range(m):
        if p in chain_rows:
            continue
        srt = np.sort(D[p], kind="stable")
        mu_terms.append((srt, np.concatenate([[0.0], np.cumsum(srt)]), float(marg[p])))
    chain_terms = []  # (sorted costs, prefix, budget, cell cost, cap, is_bottom)
    for ell, (row, col, cost) in enumerate(chain):
        srt = np.sort(np.delete(D[row], col), kind="stable")
        chain_terms.append(
            (
                srt,
                np.concatenate([[0.0], np.cumsum(srt)]),
                float(marg[row]),
                cost,
                caps[row],
                ell == 0,
            )
        )

    points = {lo, hi}

    def add(x: float):
        if lo < x < hi:
            points.add(float(x))

    for p in range(m):
        for i in range(1, other_size + 1):
            add(marg[p] / i)
    for row, col, _ in chain[1:]:
        for i in range(1, other_size + 1):
            add((marg[row] - caps[row]) / i)
    xs = np.array(sorted(points))

    values = np.empty(xs.size)
    for idx, x in enumerate(xs):
        total = 0.0
        try:
            for srt, prefix, budget in mu_terms:
                total += _packing_sorted(srt, prefix, x, budget)
            for srt, prefix, budget, cost, cap, is_bottom in chain_terms:
                if is_bottom:
                    total += cost * x + _packing_sorted(srt, prefix, x, budget - x)
                else:
                    total += _upper_cell_row(srt, prefix, budget, cost, cap, x)
        except Infeasible:
            total = np.inf
        values[idx] = total
    keep = np.isfinite(values)
    if not np.any(keep):
        return None
    return PiecewiseBound(xs=xs[keep], values=values[keep])


def lower_bound_detail(problem: Problem, oc: OrderedVariates) -> BoundReport:
    """Both branch tables plus the final bound (max of the branch minima)."""
    if not oc.rows_cols_distinct:
        raise RepeatedIndices("the bound requires distinct constrained rows and columns")
    oc.check_bounds(*problem.shape)
    D = problem.D

    row_branch = _branch(
        D,
        problem.a,
        problem.n,
        [(i, j, float(D[i, j])) for i, j in oc.pairs],
        problem.b,
    )
    col_branch = _branch(
        D.T,
        problem.b,
        problem.m,
        [(j, i, float(D[i, j])) for i, j in oc.pairs],
        problem.a,
    )
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
