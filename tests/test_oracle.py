import numpy as np
import pytest
import scipy.optimize

from conftest import random_variates, uniform_problem
from ocot import OrderedVariates, check_membership, feasible_point, objective, solve, validate_problem
from ocot.errors import ConstructionError, Infeasible, OcotError, ShapeMismatch
from ocot.oracle import lp_solve_oc
from ocot.projections import project_c2_epava
from reference import kkt_verify, pgd_project


class TestLpSolveOC:
    def test_unconstrained_symmetric(self, symmetric_2x2):
        opt, plan = lp_solve_oc(symmetric_2x2, OrderedVariates())
        assert opt == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(plan, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)

    def test_forced_top(self, symmetric_2x2):
        opt, plan = lp_solve_oc(symmetric_2x2, OrderedVariates(((0, 1),)))
        assert opt == pytest.approx(0.5)
        np.testing.assert_allclose(plan, np.full((2, 2), 0.25), atol=1e-12)

    def test_degenerate_shape_guard(self):
        p = validate_problem([1.0], [1.0], [[0.3]])
        with pytest.raises(ShapeMismatch):
            lp_solve_oc(p, OrderedVariates(((0, 1),)))

    def test_infeasible_is_a_finding(self):
        p = validate_problem([0.9, 0.1], [0.9, 0.1], np.ones((2, 2)))
        oc = OrderedVariates(((1, 1),))
        with pytest.raises(Infeasible):
            lp_solve_oc(p, oc)
        # the explicit constructor cannot produce a member either
        with pytest.raises(ConstructionError):
            feasible_point(p, oc, [0.1])

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("side", [5, 16, 32, 64])
    def test_plans_at_size(self, side, k):
        # no size cap: the plan is a member of the constrained polytope and
        # the optimum is its cost
        rng = np.random.default_rng(side * 10 + k)
        p = uniform_problem(rng, side, side)
        oc = random_variates(rng, side, side, k)
        opt, plan = lp_solve_oc(p, oc)
        assert check_membership(p, oc, plan, tol=1e-9).ok
        assert opt == pytest.approx(objective(p, plan), rel=1e-12, abs=1e-15)

    def test_other_solver_status_is_an_error(self, symmetric_2x2, monkeypatch):
        def stalled(*args, **kwargs):
            return scipy.optimize.OptimizeResult(status=4, message="Numerical difficulties")

        monkeypatch.setattr(scipy.optimize, "linprog", stalled)
        with pytest.raises(OcotError, match="Numerical difficulties") as info:
            lp_solve_oc(symmetric_2x2, OrderedVariates())
        assert not isinstance(info.value, Infeasible)

    def test_agrees_with_admm(self):
        rng = np.random.default_rng(60)
        for _ in range(8):
            p = uniform_problem(rng, 5, 6)
            oc = random_variates(rng, 5, 6, int(rng.integers(0, 3)))
            opt, _ = lp_solve_oc(p, oc)
            plan, _ = solve(p, oc)
            assert abs(plan.objective - opt) <= 0.01 * max(abs(opt), 1e-12)


class TestPgdProject:
    def test_two_point_average(self):
        out = pgd_project(np.array([[0.2, 0.8]]), OrderedVariates(((0, 0),)))
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-8)

    def test_already_in_cone(self):
        X = np.array([[0.9, 0.1], [0.2, 0.3]])
        out = pgd_project(X, OrderedVariates(((0, 0),)))
        np.testing.assert_allclose(out, X, atol=1e-8)

    def test_all_negative(self):
        X = -np.ones((2, 3))
        out = pgd_project(X, OrderedVariates(((1, 2),)))
        np.testing.assert_allclose(out, np.zeros((2, 3)), atol=1e-10)

    def test_k0_clamps(self):
        X = np.array([[-1.0, 0.5]])
        np.testing.assert_allclose(pgd_project(X, OrderedVariates()), [[0.0, 0.5]])

    def test_idempotent(self):
        rng = np.random.default_rng(61)
        oc = random_variates(rng, 4, 4, 2)
        Y = pgd_project(rng.uniform(-1, 1, (4, 4)), oc, tol=1e-11)
        Y2 = pgd_project(Y, oc, tol=1e-11)
        assert np.max(np.abs(Y2 - Y)) <= 1e-8


class TestKktVerify:
    def test_identity_projection_all_zero(self):
        X = np.array([[0.9, 0.1], [0.2, 0.3]])
        report = kkt_verify(X, X, OrderedVariates(((0, 0),)))
        assert report.max_violation <= 1e-15
        assert report.ok

    def test_epava_outputs_pass(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            oc = random_variates(rng, 4, 4, int(rng.integers(1, 4)))
            X = rng.uniform(-1, 1, (4, 4))
            report = kkt_verify(X, project_c2_epava(X, oc), oc, tol=1e-8)
            assert report.ok

    def test_perturbation_is_detected(self):
        # lift a pooled tail cell above the chain bottom: the defect is the
        # perturbation itself, reported through the feasibility family
        X = np.array([[0.2, 0.8]])
        oc = OrderedVariates(((0, 0),))
        Y_bad = project_c2_epava(X, oc)
        Y_bad = Y_bad.copy()
        Y_bad[0, 1] += 1e-3
        report = kkt_verify(X, Y_bad, oc)
        assert report.max_violation == pytest.approx(1e-3, rel=0.5)
        assert not report.ok
