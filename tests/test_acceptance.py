"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance is pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from conftest import random_variates, uniform_problem
from ocot import (
    OrderedVariates,
    SearchConfig,
    SolverConfig,
    branch_and_bound,
    check_membership,
    feasible_point,
    lower_bound,
    packing,
    solve,
    validate_problem,
)
from ocot.errors import OrderCheckFailed
from ocot.oracle import lp_solve_oc
from ocot.projections import project_c1, project_c2_epava
from reference import c1_project_dense, kkt_verify, pgd_project
from test_bounds import packing_lp


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def corollary_holds(m: int, n: int, k: int) -> bool:
    return k < max(m, n) and min(m, n) >= 1.0 / (1.0 - k / max(m, n))


def test_criterion_1_solver_accuracy_vs_oracle():
    rng = np.random.default_rng(2027)
    gaps = []
    start = time.perf_counter()
    for _ in range(100):
        k = int(rng.choice([0, 1, 2, 4]))
        lo = max(4, k + 1)
        m = int(rng.integers(lo, 9))
        n = int(rng.integers(lo, 9))
        while k > 0 and not corollary_holds(m, n, k):
            m = int(rng.integers(lo, 9))
            n = int(rng.integers(lo, 9))
        problem = uniform_problem(rng, m, n)
        oc = random_variates(rng, m, n, k) if k else OrderedVariates()
        plan, _ = solve(problem, oc, SolverConfig())  # stock defaults
        optimum, _ = lp_solve_oc(problem, oc)
        gaps.append(abs(plan.objective - optimum) / max(abs(optimum), 1e-12))
    elapsed = time.perf_counter() - start
    gaps = np.array(gaps)
    ok = gaps.mean() <= 0.01 and gaps.max() <= 0.03 and elapsed < 120
    report(
        "1",
        ok,
        f"mean gap {100 * gaps.mean():.4f}% (<=1%), max {100 * gaps.max():.4f}% (<=3%), "
        f"{elapsed:.1f}s (<120s)",
    )


def test_criterion_2_analytic_instance():
    start = time.perf_counter()
    problem = validate_problem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    plan, _ = solve(problem, OrderedVariates(((0, 1),)), SolverConfig())
    elapsed = time.perf_counter() - start
    obj_ok = abs(plan.objective - 0.5) <= 1e-3
    plan_ok = np.max(np.abs(plan.X - 0.25)) <= 1e-3
    report(
        "2",
        obj_ok and plan_ok and elapsed < 1.0,
        f"objective {plan.objective:.6f} (0.5 +/- 1e-3), max entry dev "
        f"{np.max(np.abs(plan.X - 0.25)):.2e} (<=1e-3), {elapsed:.2f}s (<1s)",
    )


def test_criterion_3_epava_vs_projection_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_dev = 0.0
    worst_kkt = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, min(m, n, 3) + 1))
        oc = random_variates(rng, m, n, k)
        X = rng.uniform(-1.0, 1.0, size=(m, n))
        Y = project_c2_epava(X, oc)
        worst_dev = max(worst_dev, float(np.max(np.abs(Y - pgd_project(X, oc, tol=1e-10)))))
        worst_kkt = max(worst_kkt, kkt_verify(X, Y, oc).max_violation)
    elapsed = time.perf_counter() - start
    ok = worst_dev <= 1e-6 and worst_kkt <= 1e-8 and elapsed < 60
    report(
        "3",
        ok,
        f"max dev vs oracle {worst_dev:.2e} (<=1e-6), max KKT {worst_kkt:.2e} (<=1e-8), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_4_marginal_projection():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst_sum = 0.0
    worst_idem = 0.0
    worst_kkt = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a = rng.random(m) + 0.05
        a /= a.sum()
        b = rng.random(n) + 0.05
        b /= b.sum()
        problem = validate_problem(a, b, rng.random((m, n)))
        X = rng.uniform(-1.0, 1.0, (m, n))
        Y = project_c1(problem, X)
        worst_sum = max(
            worst_sum,
            float(np.max(np.abs(Y.sum(axis=1) - a))),
            float(np.max(np.abs(Y.sum(axis=0) - b))),
        )
        worst_idem = max(worst_idem, float(np.max(np.abs(project_c1(problem, Y) - Y))))
        worst_kkt = max(worst_kkt, float(np.max(np.abs(Y - c1_project_dense(X, a, b)))))
    elapsed = time.perf_counter() - start
    ok = worst_sum <= 1e-10 and worst_idem <= 1e-10 and worst_kkt <= 1e-8 and elapsed < 30
    report(
        "4",
        ok,
        f"max sum err {worst_sum:.2e} (<=1e-10), idempotence {worst_idem:.2e} (<=1e-10), "
        f"vs dense KKT {worst_kkt:.2e} (<=1e-8), {elapsed:.1f}s (<30s)",
    )


def test_criterion_5_bound_admissibility_and_packing():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    violations = 0
    for _ in range(100):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(3, 7))
        problem = uniform_problem(rng, m, n)
        oc = random_variates(rng, m, n, int(rng.integers(1, 3)))
        value = lower_bound(problem, oc)
        optimum, _ = lp_solve_oc(problem, oc)
        if value > optimum + 1e-9:
            violations += 1
    worst_pack = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        costs = rng.uniform(0.0, 3.0, n)
        u = float(rng.uniform(0.05, 1.2))
        alpha = float(rng.uniform(0.0, min(1.0, u * n)))
        worst_pack = max(worst_pack, abs(packing(costs, u, alpha) - packing_lp(costs, u, alpha)))
    elapsed = time.perf_counter() - start
    ok = violations == 0 and worst_pack <= 1e-10 and elapsed < 60
    report(
        "5",
        ok,
        f"admissibility violations {violations}/100 (need 0), packing vs LP "
        f"{worst_pack:.2e} (<=1e-10), {elapsed:.1f}s (<60s)",
    )


def test_criterion_6_pruning_equivalence():
    rng = np.random.default_rng(909)
    solver_cfg = SolverConfig(tol=1e-6, max_iters=30_000)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(20):
        m = int(rng.integers(4, 6))
        n = int(rng.integers(4, 6))
        problem = uniform_problem(rng, m, n)
        k2 = int(rng.integers(1, 4))
        k3 = int(rng.integers(1, 3))
        base = dict(tau1=0.6, tau2=1.0, k1=5000, k2=k2, k3=k3)
        on = branch_and_bound(problem, SearchConfig(prune=True, **base), solver_cfg)
        off = branch_and_bound(problem, SearchConfig(prune=False, **base), solver_cfg)
        got_on = [(o, v) for o, v, _, __ in on.candidates.entries]
        got_off = [(o, v) for o, v, _, __ in off.candidates.entries]
        same = len(got_on) == len(got_off) and all(
            va == vb and abs(oa - ob) <= 1e-6
            for (oa, va), (ob, vb) in zip(got_on, got_off)
        )
        mismatches += 0 if same else 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 300
    report(
        "6",
        ok,
        f"mismatched candidate sets {mismatches}/20 (need 0), {elapsed:.1f}s (<300s)",
    )


def test_criterion_7_scaling_trend():
    # cell counts double at every step, ending at the 100x100 ceiling
    grid = [(10, 10), (10, 20), (20, 20), (20, 40), (25, 50), (50, 50), (50, 100), (100, 100)]
    iters = 60
    times = []
    rng = np.random.default_rng(505)
    for m, n in grid:
        problem = uniform_problem(rng, m, n)
        oc = random_variates(rng, m, n, 1)
        cfg = SolverConfig(max_iters=iters, tol=1e-30)
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            plan, _ = solve(problem, oc, cfg)
            best = min(best, (time.perf_counter() - start) / plan.iterations)
        times.append(best)
    worst_ratio = 0.0
    for (m1, n1), (m2, n2), t1, t2 in zip(grid, grid[1:], times, times[1:]):
        doublings = np.log2((m2 * n2) / (m1 * n1))
        worst_ratio = max(worst_ratio, (t2 / t1) ** (1.0 / doublings))
    ok = worst_ratio <= 2.5
    report(
        "7",
        ok,
        f"worst per-doubling time ratio {worst_ratio:.2f} (<=2.5) across grid up to 100x100",
    )


def test_criterion_8_feasibility_constructor():
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 11))
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, min(m, n)))
        if not corollary_holds(m, n, k):
            k = 1
            if not corollary_holds(m, n, k):
                continue
        problem = uniform_problem(rng, m, n)
        oc = random_variates(rng, m, n, k)
        plan = feasible_point(problem, oc, np.full(k, min(1.0 / m, 1.0 / n)))
        worst = max(worst, check_membership(problem, oc, plan).max_violation)
    raised = 0
    for _ in range(20):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        problem = uniform_problem(rng, m, n)
        oc = random_variates(rng, m, n, 1)
        try:
            feasible_point(problem, oc, [1.0 / (2 * m * n)])  # too small to dominate
        except OrderCheckFailed:
            raised += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and raised == 20 and elapsed < 10
    report(
        "8",
        ok,
        f"max membership violation {worst:.2e} (<=1e-12), order-check raises {raised}/20, "
        f"{elapsed:.1f}s (<10s)",
    )
