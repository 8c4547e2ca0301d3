"""Output checks, computed apart from the program.

Optima come from HiGHS through ``scipy.optimize.linprog``; ``ocot`` does not
use scipy. Order, marginal and colour checks are plain numpy written here.
Each check takes plain data and returns a list of error strings, empty when
the output passes.

Constraint lists are given most-important-first (``ranked``), as in the
program's files: ``ranked[0]`` is the top of the chain, ``ranked[-1]`` its
bottom, and every unconstrained cell lies at or below the bottom.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# Worst relative objective error against HiGHS measured at the commit that
# defined the benchmark, and the tolerance each workload applies. solve-large's
# is wide because of the absolute stopping rule in admm.solve (see the FOUND
# line in CHANGES.md); the others come from converged search candidates.
OBJECTIVE_TOL = {"solve-large": 0.3, "esnli-search": 0.01, "color-transfer": 0.01}
MARGINAL_TOL = 1e-9
BOUND_SLACK = 1e-9  # relative, for bound <= optimum
RGB_MAX_SQ = 3 * 255.0**2


class LPCache:
    """HiGHS optima of order-constrained transport LPs, one per constraint set."""

    def __init__(self, a: np.ndarray, b: np.ndarray, D: np.ndarray):
        self.D = D
        m, n = D.shape
        self.A_eq = sp.vstack(
            [sp.kron(sp.eye(m), np.ones((1, n))), sp.kron(np.ones((1, m)), sp.eye(n))]
        ).tocsr()
        self.b_eq = np.concatenate([a, b])
        self.cache: dict[tuple, float | None] = {}
        self.seconds = 0.0  # time spent in HiGHS

    def optimum(self, ranked) -> float | None:
        """The LP optimum, or None when the constraint set is infeasible."""
        key = tuple(tuple(int(v) for v in p) for p in ranked)
        if key not in self.cache:
            start = perf_counter()
            self.cache[key] = self._solve(key)
            self.seconds += perf_counter() - start
        return self.cache[key]

    def _solve(self, ranked) -> float | None:
        m, n = self.D.shape
        chain = [i * n + j for i, j in ranked]  # top first
        rows, cols, vals = [], [], []
        # x[lower] - x[upper] <= 0 down the chain, then tail - bottom <= 0
        for r, (upper, lower) in enumerate(zip(chain, chain[1:])):
            rows += [r, r]
            cols += [lower, upper]
            vals += [1.0, -1.0]
        A_ub = b_ub = None
        if chain:
            start = len(chain) - 1
            tail = np.setdiff1d(np.arange(m * n), chain)
            r = np.arange(start, start + tail.size)
            rows = np.concatenate([np.array(rows, dtype=int), r, r])
            cols = np.concatenate([np.array(cols, dtype=int), tail, np.full(tail.size, chain[-1])])
            vals = np.concatenate([vals, np.ones(tail.size), -np.ones(tail.size)])
            A_ub = sp.csr_matrix((vals, (rows, cols)), shape=(start + tail.size, m * n))
            b_ub = np.zeros(A_ub.shape[0])
        res = linprog(
            self.D.ravel(), A_ub=A_ub, b_ub=b_ub, A_eq=self.A_eq, b_eq=self.b_eq,
            bounds=(0, None), method="highs",
        )
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"HiGHS status {res.status} on {ranked}: {res.message}")
        return float(res.fun)


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-12)


def order_violations(Z: np.ndarray, ranked) -> list[str]:
    """Exact checks: Z >= 0, the chain descends from the top, the tail sits below it."""
    errors = []
    if Z.min() < 0.0:
        errors.append(f"Z has a negative entry {Z.min()!r}")
    chain = np.array([Z[i, j] for i, j in ranked])
    if np.any(chain[1:] > chain[:-1]):
        errors.append("Z breaks the order along the chain")
    tail = np.ones(Z.shape, dtype=bool)
    for i, j in ranked:
        tail[i, j] = False
    if chain.size and tail.any() and Z[tail].max() > chain[-1]:
        errors.append(f"Z has a tail cell {Z[tail].max()!r} above the chain bottom {chain[-1]!r}")
    return errors


def check_objective(objective: float, optimum: float | None, tol: float, what: str) -> list[str]:
    if optimum is None:
        return [f"{what}: constraint set is LP-infeasible"]
    err = relative_error(objective, optimum)
    if not err <= tol:
        return [f"{what}: objective {objective!r} is {err:.3%} from HiGHS {optimum!r} (tol {tol:.2%})"]
    return []


def check_solve(item, out: dict, lp: LPCache, tol: float) -> list[str]:
    errors = []
    if out["termination"] != "tol":
        errors.append(f"termination {out['termination']!r}, not 'tol'")
    X = out["X"]
    row = np.abs(X.sum(axis=1) - item.a).max()
    col = np.abs(X.sum(axis=0) - item.b).max()
    if not max(row, col) <= MARGINAL_TOL:
        errors.append(f"marginal error rows {row:.3g}, cols {col:.3g} > {MARGINAL_TOL}")
    errors += order_violations(out["Z"], item.ranked)
    errors += check_objective(out["objective"], lp.optimum(item.ranked), tol, "plan")
    return errors


def check_search(out: dict, lp: LPCache, tol: float, solver_tol: float, max_iters: int) -> list[str]:
    errors = []
    objectives = [c["objective"] for c in out["candidates"]]
    if objectives != sorted(objectives):
        errors.append(f"candidates out of ascending order: {objectives}")
    for rank, cand in enumerate(out["candidates"], 1):
        what = f"candidate {rank} {cand['ranked']}"
        if not cand["primal_residual"] <= solver_tol or cand["iterations"] >= max_iters:
            errors.append(
                f"{what}: not converged (residual {cand['primal_residual']:.3g}, "
                f"{cand['iterations']} iterations)"
            )
        errors += check_objective(cand["objective"], lp.optimum(cand["ranked"]), tol, what)
    for node in out["bounds"]:
        opt = lp.optimum(node["ranked"])
        if opt is not None and node["bound"] > opt + BOUND_SLACK * max(1.0, abs(opt)):
            errors.append(f"bound {node['bound']!r} above HiGHS optimum {opt!r} for {node['ranked']}")
    return errors


def color_problem(item) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Marginals and costs rebuilt from the segment tables' values."""
    a = item.src_weights / item.src_weights.sum()
    b = item.tgt_weights / item.tgt_weights.sum()
    diff = item.src_rgb[:, None, :] - item.tgt_rgb[None, :, :]
    return a, b, np.sum(diff * diff, axis=2) / RGB_MAX_SQ


def check_color(item, out: dict, lp: LPCache, tol: float, solver_tol: float) -> list[str]:
    """Objectives against HiGHS; mapped colours inside the box of the target colours.

    A mapped colour is sum_j X_ij t_j / a_i over the plan's row i. X has exact
    row sums, and a converged plan is within ``solver_tol`` (Frobenius) of a
    non-negative Z, so its negative entries in a row sum to at most
    sqrt(n) * solver_tol. The colour can then leave the box by at most
    (box width) * sqrt(n) * solver_tol / a_i per channel; that is the slack.
    """
    errors = []
    if not out["candidates"]:
        errors.append("no candidates")
    a, _, _ = color_problem(item)
    lo, hi = item.tgt_rgb.min(axis=0), item.tgt_rgb.max(axis=0)
    reach = (hi - lo) * np.sqrt(item.tgt_rgb.shape[0]) * solver_tol
    for cand in out["candidates"]:
        ranked = [(int(s[1:]), int(t[1:])) for s, t in cand["constraints"]]
        what = f"candidate {cand['rank']} {ranked}"
        errors += check_objective(cand["objective"], lp.optimum(ranked), tol, what)
        for i, row in enumerate(cand["mapping"]):
            rgb = np.array([row["r"], row["g"], row["b"]])
            slack = reach / a[i]
            if np.any(rgb < lo - slack) or np.any(rgb > hi + slack):
                errors.append(f"{what}: segment {row['segment_id']} maps to {rgb} outside the target box")
    return errors


def check_all(workload: str, items: list, outputs: list) -> tuple[list[str], list[float]]:
    """Check every output that is not None (a failed operation).

    Returns the errors and, per operation, the seconds HiGHS took for its LPs.
    """
    import ocot

    tol = OBJECTIVE_TOL[workload]
    solver = ocot.SolverConfig()
    errors, highs_s = [], []
    for op, (item, out) in enumerate(zip(items, outputs)):
        if out is None:
            continue
        if workload == "solve-large":
            lp = LPCache(item.a, item.b, item.D)
            found = check_solve(item, out, lp, tol)
        elif workload == "esnli-search":
            lp = LPCache(item.a, item.b, item.D)
            found = check_search(out, lp, tol, solver.tol, solver.max_iters)
        else:
            lp = LPCache(*color_problem(item))
            found = check_color(item, out, lp, tol, solver.tol)
        errors += [f"operation {op}: {line}" for line in found]
        highs_s.append(lp.seconds)
    return errors, highs_s
