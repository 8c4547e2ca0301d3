import math
from collections import namedtuple

import numpy as np
import pytest

from conftest import random_variates, uniform_problem
from ocot import OrderedVariates, SolverConfig, check_membership, solve, validate_problem
import ocot.admm
from ocot.admm import (
    CERT_PERIOD, CUTOFF_MARGIN, GAP, POLISH_WIDTH, bound_at, certified_lower_bound, fitted_potentials,
)
from ocot.errors import Infeasible, InvalidConfig, ShapeMismatch
from ocot.oracle import lp_solve_oc
from ocot.projections import OrderConeProjector, polish, project_c1, project_c2_epava

TIGHT = SolverConfig(tol=1e-7, max_iters=30_000)
SMALL = range(3, 9)  # sides of the small random instances


def small_instances(rng, count=50):
    """(problem, chain, rho) on 3-8 sides with Dirichlet(1) marginals."""
    for _ in range(count):
        m = int(rng.integers(3, 9))
        n = int(rng.integers(3, 9))
        a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
        p = validate_problem(a, b, rng.random((m, n)))
        oc = random_variates(rng, m, n, int(rng.integers(1, min(m, n) + 1)))
        yield p, oc, float(rng.uniform(0.1, 10.0))


def feasible_at_size(rng, side, count, uniform):
    """``count`` (problem, chain, LP optimum) on side x side grids, or on
    m x n grids with m and n drawn from ``side`` when it is a range, with k
    in 0-4 (at most min(m, n)), Dirichlet(2) or uniform marginals;
    LP-infeasible draws are skipped."""
    found = []
    while len(found) < count:
        if isinstance(side, range):
            m, n = (int(rng.integers(side.start, side.stop)) for _ in range(2))
        else:
            m = n = side
        if uniform:
            a, b = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
        else:
            a, b = rng.dirichlet(np.full(m, 2.0)), rng.dirichlet(np.full(n, 2.0))
        p = validate_problem(a, b, rng.random((m, n)))
        oc = random_variates(rng, m, n, min(int(rng.integers(0, 5)), m, n))
        try:
            found.append((p, oc, lp_solve_oc(p, oc)[0]))
        except Infeasible:
            continue
    return found


Round = namedtuple("Round", "X Z M primal dual objective")


def kernel_rounds(p, oc, cfg):
    """The rounds of ``solve`` written out from the public kernels, from
    Z = M = 0 to the residual rule or ``cfg.max_iters``: each round's
    iterates, its primal and dual residual and its objective <D, X>."""
    Z = np.zeros(p.shape)
    M = np.zeros(p.shape)
    rounds = []
    for _ in range(cfg.max_iters):
        X = project_c1(p, Z - M - p.D / cfg.rho)
        Z_new = project_c2_epava(X + M, oc)
        M = M + X - Z_new
        primal = float(np.linalg.norm(X - Z_new))
        dual = cfg.rho * float(np.linalg.norm(Z_new - Z))
        Z = Z_new
        rounds.append(Round(X, Z, M, primal, dual, float(np.vdot(p.D, X))))
        if primal <= cfg.tol and dual <= cfg.tol:
            break
    return rounds


def assert_rounds_match_kernels(p, oc, cfg):
    """``solve`` against its rounds written out from the public kernels.

    The written-out rounds end on the residual rule only. A solve may
    certify sooner on a polished plan, but the polish never writes M, so its
    scaled dual is the written-out M of its last round. With the polish
    switched off, as for a solve that ends before a polished plan certifies
    its gap, the plan and trace match the last written-out round bit for bit."""
    rounds = kernel_rounds(p, oc, cfg)
    plan, trace = solve(p, oc, cfg)
    assert plan.iterations <= len(rounds)
    assert np.array_equal(trace.scaled_dual, rounds[plan.iterations - 1].M)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ocot.admm, "polish", lambda *args: None)
        plan, trace = solve(p, oc, cfg)
    last = rounds[-1]
    assert plan.iterations == len(rounds)
    assert np.array_equal(plan.X, last.X)
    assert np.array_equal(plan.Z, last.Z)
    assert np.array_equal(trace.scaled_dual, last.M)
    assert plan.primal_residual == last.primal
    assert plan.dual_residual == last.dual


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho": 0.0}, {"rho": -1.0}, {"tol": 0.0}, {"max_iters": 0},
            {"rho": float("inf")}, {"tol": float("inf")}, {"max_iters": 2.5},
            # booleans and non-numbers are not numbers, whatever Python casts
            {"max_iters": True}, {"rho": True}, {"tol": "1e-4"}, {"rho": None},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidConfig):
            SolverConfig(**kwargs)

    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.rho == 3.0
        assert cfg.max_iters == 10_000
        assert cfg.tol == 1e-4

    def test_default_rho_saves_rounds_on_64_per_side(self):
        # four 64x64 uniform instances, each pinning the cheapest cell of k
        # random rows in distinct columns: the default rho must converge in
        # at most 0.7 of the rounds rho = 1 takes on them in total
        rng = np.random.default_rng(64)
        rounds = {1.0: 0, SolverConfig().rho: 0}
        for k in (1, 4, 1, 4):
            p = uniform_problem(rng, 64, 64)
            rows = rng.choice(64, size=k, replace=False)
            cols: list[int] = []
            for i in rows:
                cols.append(next(int(j) for j in np.argsort(p.D[i], kind="stable") if j not in cols))
            oc = OrderedVariates.from_ranked(list(zip(rows.tolist(), cols)))
            for rho in rounds:
                plan, trace = solve(p, oc, SolverConfig(rho=rho))
                assert trace.termination == "tol"
                rounds[rho] += plan.iterations
        assert rounds[SolverConfig().rho] <= 0.7 * rounds[1.0]


class TestSolve:
    def test_unconstrained_symmetric(self, symmetric_2x2):
        plan, trace = solve(symmetric_2x2)
        assert trace.termination == "tol"
        assert plan.objective == pytest.approx(0.0, abs=1e-3)
        np.testing.assert_allclose(plan.X, [[0.5, 0.0], [0.0, 0.5]], atol=1e-3)

    def test_forced_top_antidiagonal(self, symmetric_2x2):
        plan, trace = solve(symmetric_2x2, OrderedVariates(((0, 1),)))
        assert plan.objective == pytest.approx(0.5, abs=1e-3)
        assert trace.upper_bound == plan.objective  # a certified gap stop
        np.testing.assert_allclose(plan.X, np.full((2, 2), 0.25), atol=1e-3)

    def test_random_vs_lp_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            p = uniform_problem(rng, 6, 6)
            oc = random_variates(rng, 6, 6, int(rng.integers(1, 3)))
            plan, _ = solve(p, oc)
            opt, _ = lp_solve_oc(p, oc)
            assert abs(plan.objective - opt) <= 0.01 * max(abs(opt), 1e-12)

    def test_iterate_feasibility_split(self):
        rng = np.random.default_rng(32)
        p = uniform_problem(rng, 5, 5)
        oc = random_variates(rng, 5, 5, 2)
        plan, _ = solve(p, oc)
        # X carries exact marginals, Z exact ordering; the gap is the residual
        assert np.max(np.abs(plan.X.sum(axis=1) - p.a)) <= 1e-10
        assert np.max(np.abs(plan.X.sum(axis=0) - p.b)) <= 1e-10
        z_report = check_membership(p, oc, plan.Z)
        assert z_report.order_violation == 0.0
        assert z_report.negativity == 0.0
        assert np.linalg.norm(plan.X - plan.Z) <= plan.primal_residual + 1e-12

    def test_objective_consistency(self, symmetric_2x2):
        plan, _ = solve(symmetric_2x2, OrderedVariates(((0, 1),)))
        assert plan.objective == pytest.approx(float(np.sum(symmetric_2x2.D * plan.X)), rel=1e-12)

    def test_max_iters_termination_on_infeasible(self):
        # skewed marginals with the small cell forced on top: the two sets
        # cannot meet, the solver reports the plateau instead of failing
        p = validate_problem([0.9, 0.1], [0.9, 0.1], np.ones((2, 2)))
        plan, trace = solve(p, OrderedVariates(((1, 1),)), SolverConfig(max_iters=500))
        assert trace.termination == "max_iters"
        assert plan.iterations == 500
        assert plan.primal_residual > 1e-3
        assert trace.upper_bound is None

    def test_one_step_runs_the_public_kernels(self):
        # from Z = M = 0 the first X is the marginal projection of -D/rho and
        # the first Z the order-cone projection of that X, bit for bit; every
        # later round repeats that arithmetic, so the public kernels written
        # out as a loop reproduce 40 rounds and their trace exactly
        rng = np.random.default_rng(33)
        for p, oc, rho in small_instances(rng):
            plan, _ = solve(p, oc, SolverConfig(rho=rho, max_iters=1))
            assert np.array_equal(plan.X, project_c1(p, -p.D / rho))
            assert np.array_equal(plan.Z, project_c2_epava(plan.X, oc))
            for variates in (oc, OrderedVariates()):
                assert_rounds_match_kernels(p, variates, SolverConfig(rho=rho, max_iters=40))
        # 64x64 with k = 4: the positive-tail evaluator, and merges into the
        # bottom block that re-solve the threshold equation
        p = uniform_problem(rng, 64, 64)
        assert_rounds_match_kernels(p, random_variates(rng, 64, 64, 4), SolverConfig(max_iters=40))

    def test_infinite_cutoff_runs_the_plain_rounds(self):
        # the cutoff path evaluates the bound every CERT_PERIOD rounds but
        # must never touch the iterates, so an unreachable cutoff changes nothing
        for p, oc, rho in small_instances(np.random.default_rng(33)):
            cfg = SolverConfig(rho=rho, max_iters=10 * CERT_PERIOD)
            for variates in (oc, OrderedVariates()):
                plain_plan, plain = solve(p, variates, cfg)
                cut_plan, cut = solve(p, variates, cfg, cutoff=math.inf)
                assert cut.termination == plain.termination != "dominated"
                assert cut_plan.iterations == plain_plan.iterations
                assert np.array_equal(cut_plan.X, plain_plan.X)
                assert np.array_equal(cut_plan.Z, plain_plan.Z)
                assert np.array_equal(cut.scaled_dual, plain.scaled_dual)
                assert cut_plan.dual_residual == plain_plan.dual_residual
                assert cut.lower_bound == plain.lower_bound

    def test_cutoff_below_the_optimum_ends_dominated(self):
        rng = np.random.default_rng(35)
        p = uniform_problem(rng, 6, 6)
        oc = random_variates(rng, 6, 6, 2)
        opt, _ = lp_solve_oc(p, oc)
        plan, trace = solve(p, oc, SolverConfig(tol=1e-8), cutoff=0.9 * opt)
        assert trace.termination == "dominated"
        assert trace.upper_bound is None
        assert plan.iterations % CERT_PERIOD == 0
        assert 0.9 * opt * (1.0 + CUTOFF_MARGIN) < trace.lower_bound <= opt * (1.0 + 1e-9)
        full, _ = solve(p, oc, SolverConfig(tol=1e-8))
        assert plan.iterations < full.iterations


def dirichlet_chains(seeds, side=6, k=3):
    """(problem, chain) on side x side grids with Dirichlet(2) marginals, one per seed."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        a, b = rng.dirichlet(np.full(side, 2.0)), rng.dirichlet(np.full(side, 2.0))
        yield validate_problem(a, b, rng.random((side, side))), random_variates(rng, side, side, k)


def polish_at(p, cone, Z, M, rho=SolverConfig().rho):
    """``polish`` of Z as the solver runs it, from the potentials fitted to M."""
    return polish(Z, p.a, p.b, cone, POLISH_WIDTH * Z.max(), p.D, fitted_potentials(p.D, M, rho))


class TestGapStop:
    def test_gap_stopped_plans_are_certified_against_highs(self):
        # the polished plan is feasible, so its cost bounds the optimum from
        # above, as the certified bound does from below, within GAP
        rng = np.random.default_rng(2020)
        stopped = total = 0
        for side in (5, 8, 16, 32, 64):
            for uniform in (True, False):
                for p, oc, opt in feasible_at_size(rng, side, 2, uniform):
                    plan, trace = solve(p, oc, SolverConfig(max_iters=3000))
                    total += 1
                    if trace.upper_bound is None:
                        continue
                    stopped += 1
                    slack = 1e-9 * max(abs(opt), 1e-12)
                    assert trace.termination == "tol"
                    assert trace.lower_bound <= opt + slack
                    assert opt <= trace.upper_bound + slack
                    assert trace.upper_bound == plan.objective
                    assert trace.upper_bound - trace.lower_bound <= GAP * abs(trace.lower_bound)
                    assert np.abs(plan.X.sum(axis=1) - p.a).max() <= 1e-12
                    assert np.abs(plan.X.sum(axis=0) - p.b).max() <= 1e-12
                    assert np.array_equal(plan.Z, project_c2_epava(plan.X, oc))
                    assert plan.primal_residual == pytest.approx(np.linalg.norm(plan.X - plan.Z), abs=1e-15)
        assert stopped >= 0.6 * total

    def test_polish_rejects_a_wrong_active_set(self):
        # after 16 rounds Z is far from the optimum, and its active set has
        # no plan meeting the marginals, order and sign; nor has a converged
        # Z whose top chain cell is raised past the active-set width
        for p, oc in dirichlet_chains(range(4)):
            cone = OrderConeProjector(oc, *p.shape)
            early, trace = solve(p, oc, SolverConfig(max_iters=16))
            assert polish_at(p, cone, early.Z, trace.scaled_dual) is None
        for p, oc in dirichlet_chains((1, 2, 5)):
            cone = OrderConeProjector(oc, *p.shape)
            plan, trace = solve(p, oc)
            assert trace.upper_bound is not None
            Z = np.array(plan.Z)
            assert polish_at(p, cone, Z, trace.scaled_dual) is not None
            Z[oc.pairs[-1]] += 2.0 * POLISH_WIDTH * Z.max()
            assert polish_at(p, cone, Z, trace.scaled_dual) is None

    def test_without_a_certified_polish_the_rounds_are_the_plain_ones(self, monkeypatch):
        # a polish that never certifies leaves the residual rule: the solve
        # runs the kernels' rounds to both residuals under tol
        monkeypatch.setattr(ocot.admm, "polish", lambda *args: None)
        for p, oc in dirichlet_chains((1, 2, 5)):
            plan, trace = solve(p, oc)
            assert trace.termination == "tol" and trace.upper_bound is None
            assert plan.primal_residual <= SolverConfig().tol
            assert_rounds_match_kernels(p, oc, SolverConfig(max_iters=plan.iterations))

class TestDualPolish:
    def test_bound_at_the_polished_potentials_is_below_the_optimum(self):
        # weak duality holds at any potentials, the polished ones included,
        # at every stage of a solve; a converged polish reaches the optimum
        rng = np.random.default_rng(2024)
        polished = exact = 0
        for uniform in (False, True):
            for p, oc, opt in feasible_at_size(rng, SMALL, 60, uniform):
                cone = OrderConeProjector(oc, *p.shape)
                ceiling = opt + 1e-9 * max(abs(opt), 1e-12)
                for cfg in (*(SolverConfig(max_iters=it) for it in (16, 64, 200)), SolverConfig()):
                    plan, trace = solve(p, oc, cfg)
                    assert trace.lower_bound <= ceiling
                    found = polish_at(p, cone, plan.Z, trace.scaled_dual)
                    if found is None:
                        continue
                    X, u, v = found
                    polished += 1
                    bound = bound_at(p, cone, u, v)
                    assert bound <= ceiling
                    exact += opt - bound <= 1e-9 * max(abs(opt), 1e-12)
        assert polished >= 200 and exact >= 100

    def test_polished_potentials_are_nearest_the_fitted_ones(self):
        # (u, v) solve the complementary-slackness equations of the polished
        # plan, so a.u + b.v is its cost. Shifting u up and v down by the same
        # t leaves every u_i + v_j, so it moves the point of that solution set
        # nearest the fitted potentials by the same shift; a least-norm
        # solution that ignored them would not move.
        rng = np.random.default_rng(77)
        for uniform in (False, True):
            for p, oc, _ in feasible_at_size(rng, SMALL, 20, uniform):
                cone = OrderConeProjector(oc, *p.shape)
                plan, trace = solve(p, oc)
                if trace.upper_bound is None:
                    continue
                fitted = fitted_potentials(p.D, trace.scaled_dual, SolverConfig().rho)
                eps = POLISH_WIDTH * plan.Z.max()
                found = polish(plan.Z, p.a, p.b, cone, eps, p.D, fitted)
                assert found is not None
                X, u, v = found
                cost = float(np.vdot(p.D, X))
                assert p.a @ u + p.b @ v == pytest.approx(cost, rel=1e-12, abs=1e-15)
                t = 0.25
                shifted = polish(plan.Z, p.a, p.b, cone, eps, p.D, (fitted[0] + t, fitted[1] - t))
                assert np.array_equal(shifted[0], X)
                np.testing.assert_allclose(shifted[1], u + t, rtol=0, atol=1e-12)
                np.testing.assert_allclose(shifted[2], v - t, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("uniform", [False, True])
    def test_a_solve_certifies_at_its_first_optimal_polish(self, monkeypatch, uniform):
        # at an optimal active set the polished potentials are dual optimal,
        # so the bound meets the polished cost and the solve stops there;
        # earlier accepted polishes are feasible plans above the optimum.
        # Uniform marginals make the active sets degenerate, and there the
        # potentials must be the ones nearest the fitted, not any solution.
        accepted = []

        def recording(*args):
            found = polish(*args)
            if found is not None:
                accepted.append(found[0])
            return found

        monkeypatch.setattr(ocot.admm, "polish", recording)
        rng = np.random.default_rng(11)
        certified = at_first = 0
        for p, oc, opt in feasible_at_size(rng, SMALL, 40, uniform):
            accepted.clear()
            plan, trace = solve(p, oc)
            scale = max(abs(opt), 1e-12)
            optimal = [i for i, X in enumerate(accepted) if np.vdot(p.D, X) - opt <= 1e-9 * scale]
            if not optimal:
                continue
            assert trace.upper_bound is not None
            assert len(accepted) == optimal[0] + 1
            assert trace.upper_bound - trace.lower_bound <= 1e-12 * abs(trace.upper_bound)
            certified += 1
            at_first += len(accepted) == 1
        assert certified >= 20 and at_first >= 0.75 * certified

    def test_a_gap_stop_never_reports_lb_above_ub(self, monkeypatch):
        # an exact bound can round a few ulps above the polished cost; UB is
        # at least the optimum, so the reported bound is the smaller of the two
        raw = []

        def recording(*args):
            raw.append(bound_at(*args))
            return raw[-1]

        monkeypatch.setattr(ocot.admm, "bound_at", recording)
        rng = np.random.default_rng(12)
        rounded = 0
        for _ in range(60):
            m, n = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            p = uniform_problem(rng, m, n)
            k = int(rng.integers(0, min(m, n, 4) + 1))
            raw.clear()
            _, trace = solve(p, random_variates(rng, m, n, k))
            if trace.upper_bound is None:
                continue
            assert trace.lower_bound <= trace.upper_bound
            if max(raw[-2:]) > trace.upper_bound:
                rounded += 1
                assert trace.lower_bound == trace.upper_bound
        assert rounded >= 5


class TestWarmStart:
    def test_wrong_shaped_start_raises(self, symmetric_2x2):
        good, bad = np.zeros((2, 2)), np.zeros((2, 3))
        for start in ((bad, good), (good, bad), (good, np.zeros(4))):
            with pytest.raises(ShapeMismatch):
                solve(symmetric_2x2, OrderedVariates(((0, 1),)), start=start)

    def test_start_is_not_mutated(self):
        rng = np.random.default_rng(41)
        p = uniform_problem(rng, 6, 5)
        child_oc = random_variates(rng, 6, 5, 2)  # pairs run bottom first
        cfg = SolverConfig(max_iters=50)
        parent, parent_trace = solve(p, OrderedVariates(child_oc.pairs[1:]), cfg)
        Z, M = parent.Z.copy(), parent_trace.scaled_dual.copy()
        child, _ = solve(p, child_oc, cfg, start=(parent.Z, parent_trace.scaled_dual))
        assert np.array_equal(parent.Z, Z)
        assert np.array_equal(parent_trace.scaled_dual, M)
        assert not np.shares_memory(child.Z, parent.Z)

    def test_converged_start_stops_at_once(self):
        # a start converged well inside tol on the same constraint set is
        # near the fixed point, so the first round's residuals clear tol, or
        # the second's. (A start from a solve that stopped just under tol can
        # take a few rounds: the residuals are not monotone.)
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = uniform_problem(rng, 6, 6)
            oc = random_variates(rng, 6, 6, int(rng.integers(0, 3)))
            plan, trace = solve(p, oc, TIGHT)
            assert trace.termination == "tol"
            again, again_trace = solve(p, oc, start=(plan.Z, trace.scaled_dual))
            assert again_trace.termination == "tol"
            assert again.iterations <= 2

    def test_warm_child_reaches_the_lp_optimum(self):
        # a child chain (parent plus one cell at the bottom) started from its
        # parent's final (Z, M) converges to its own optimum, within the
        # tolerance of the cold test_random_vs_lp_oracle
        rng = np.random.default_rng(43)
        for _ in range(20):
            m, n = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            p = uniform_problem(rng, m, n)
            child = random_variates(rng, m, n, int(rng.integers(1, min(m, n) + 1)))
            parent_plan, parent_trace = solve(p, OrderedVariates(child.pairs[1:]))
            plan, trace = solve(p, child, start=(parent_plan.Z, parent_trace.scaled_dual))
            opt, _ = lp_solve_oc(p, child)
            assert trace.termination == "tol"
            assert abs(plan.objective - opt) <= 0.01 * max(abs(opt), 1e-12)


class TestConvergenceBehaviour:
    def test_windowed_primal_mean_non_increasing(self):
        rng = np.random.default_rng(123)
        for _ in range(8):
            m = int(rng.integers(4, 9))
            n = int(rng.integers(4, 9))
            k = int(rng.integers(0, 3))
            p = uniform_problem(rng, m, n)
            oc = random_variates(rng, m, n, k) if k else OrderedVariates()
            plan, _ = solve(p, oc)
            rounds = kernel_rounds(p, oc, SolverConfig(max_iters=plan.iterations))
            r = np.array([rnd.primal for rnd in rounds])
            means = [r[i : i + 100].mean() for i in range(0, r.size - 99, 100)]
            for left, right in zip(means, means[1:]):
                assert right <= left

    def test_ergodic_average_halves(self, symmetric_2x2):
        # O(1/t) decay of the averaged objective on the analytic instance;
        # past exact stationarity the remaining iterates are constant
        oc = OrderedVariates(((0, 1),))
        plan, _ = solve(symmetric_2x2, oc, SolverConfig(max_iters=2000, tol=1e-30))
        rounds = kernel_rounds(symmetric_2x2, oc, SolverConfig(max_iters=plan.iterations, tol=1e-30))
        objs = np.array([rnd.objective for rnd in rounds])
        if objs.size < 2000:
            assert rounds[-1].primal == 0.0 and rounds[-1].dual == 0.0
            objs = np.concatenate([objs, np.full(2000 - objs.size, objs[-1])])
        avg = np.cumsum(objs) / np.arange(1, objs.size + 1)
        e1000 = abs(avg[999] - 0.5)
        e2000 = abs(avg[1999] - 0.5)
        assert e2000 <= 1.5 * (e1000 / 2.0)


class TestCertifiedLowerBound:
    def test_below_the_lp_optimum_and_tight_at_convergence(self):
        # weak duality: whatever the dual iterate, the bound never exceeds the
        # optimum; at default tol it sits within 1e-3 of it (about 4e-4 worst
        # here). LP-infeasible chains still get a finite bound, without raising.
        rng = np.random.default_rng(7)
        feasible = infeasible = 0
        for _ in range(120):
            m = int(rng.integers(3, 7))
            n = int(rng.integers(3, 7))
            a, b = rng.dirichlet(np.full(m, 2.0)), rng.dirichlet(np.full(n, 2.0))
            p = validate_problem(a, b, rng.random((m, n)))
            k = min(int(rng.integers(0, 4)), m, n)
            oc = random_variates(rng, m, n, k) if k else OrderedVariates()
            try:
                opt, _ = lp_solve_oc(p, oc)
            except Infeasible:
                infeasible += 1
                _, trace = solve(p, oc, SolverConfig(max_iters=200))
                assert math.isfinite(trace.lower_bound)
                continue
            feasible += 1
            _, trace = solve(p, oc)
            scale = max(abs(opt), 1e-12)
            assert trace.lower_bound <= opt + 1e-9 * scale
            if trace.termination == "tol":
                assert opt - trace.lower_bound <= 1e-3 * scale
            for max_iters in (1, 16, 100):
                _, early = solve(p, oc, SolverConfig(max_iters=max_iters))
                assert early.lower_bound <= opt + 1e-9 * scale
        assert feasible >= 50 and infeasible >= 20

    @pytest.mark.parametrize("side", [16, 32, 64])
    def test_below_the_lp_optimum_at_size(self, side):
        # the weak-duality half of the test above, past the small sizes; most
        # Dirichlet solves here end at the iteration cap, far from the optimum
        rng = np.random.default_rng(side)
        for uniform in (False, True):
            for p, oc, opt in feasible_at_size(rng, side, 2, uniform):
                ceiling = opt + 1e-9 * max(abs(opt), 1e-12)
                for cfg in (*(SolverConfig(max_iters=it) for it in (1, 16, 100)), SolverConfig()):
                    assert solve(p, oc, cfg)[1].lower_bound <= ceiling

    @pytest.mark.xfail(
        strict=True,
        reason="the stopping rule is absolute: at 32 per side most Dirichlet(2) "
        "solves reach the iteration cap, and one that stops on tol can sit more "
        "than 1e-3 above its certified bound",
    )
    def test_tight_at_convergence_at_32_per_side(self):
        rng = np.random.default_rng(32)
        for p, oc, opt in feasible_at_size(rng, 32, 3, uniform=False):
            _, trace = solve(p, oc)
            assert trace.termination == "tol"
            assert opt - trace.lower_bound <= 1e-3 * max(abs(opt), 1e-12)

    def test_generators_are_the_up_sets(self):
        # m(C) is the least mean of C over the up-closed cell sets of the
        # order; on small grids, enumerate every cell subset and keep those.
        # Any dual iterate gives a valid bound, so M is just random here.
        rng = np.random.default_rng(36)
        for _ in range(40):
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
            p = validate_problem(a, b, rng.random((m, n)))
            k = int(rng.integers(0, min(m, n) + 1))
            oc = random_variates(rng, m, n, k) if k else OrderedVariates()
            M, rho = rng.standard_normal((m, n)), float(rng.uniform(0.1, 10.0))
            G = p.D + rho * M
            u = G.mean(axis=1)
            v = (G - u[:, None]).mean(axis=0)
            C = (p.D - u[:, None] - v).ravel()
            chain = [i * n + j for i, j in oc.pairs]  # bottom first
            least = math.inf
            for bits in range(1, 2 ** (m * n)):
                cells = [c for c in range(m * n) if bits >> c & 1]
                held = [c in cells for c in chain]
                if any(lo and not hi for lo, hi in zip(held, held[1:])):
                    continue  # a chain cell without the one above it
                if any(c not in chain for c in cells) and not all(held):
                    continue  # a tail cell without the whole chain
                least = min(least, C[cells].mean())
            cone = OrderConeProjector(oc, m, n)
            want = p.a @ u + p.b @ v + p.a.sum() * least
            assert certified_lower_bound(p, M, rho, cone) == pytest.approx(want, rel=1e-12, abs=1e-12)
