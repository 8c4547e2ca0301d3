import numpy as np
import pytest

from conftest import uniform_problem
from ocot import (
    OrderedVariates,
    baseline,
    solve,
    solve_entropic,
    validate_problem,
)
from ocot.errors import NumericalUnderflow
from ocot.oracle import lp_solve_oc


class TestEntropic:
    def test_constant_cost_gives_product_plan(self):
        p = validate_problem([0.3, 0.7], [0.6, 0.4], np.full((2, 2), 3.0))
        plan = solve_entropic(p)
        np.testing.assert_allclose(plan, np.outer(p.a, p.b), atol=1e-14)

    def test_small_epsilon_approaches_exact(self, symmetric_2x2, monkeypatch):
        monkeypatch.setattr(baseline, "ITERATIONS", 200)
        monkeypatch.setattr(baseline, "EPSILON_SCALE", 0.01)  # max D is 1, so epsilon = 0.01
        plan = solve_entropic(symmetric_2x2)
        np.testing.assert_allclose(plan, [[0.5, 0.0], [0.0, 0.5]], atol=1e-2)

    def test_strict_positivity(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            p = uniform_problem(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            assert solve_entropic(p).min() > 0.0

    def test_exact_row_sums(self):
        rng = np.random.default_rng(42)
        p = uniform_problem(rng, 5, 7)
        plan = solve_entropic(p)
        assert np.max(np.abs(plan.sum(axis=1) - p.a)) <= 1e-12

    def test_column_error_non_increasing_in_iterations(self, monkeypatch):
        rng = np.random.default_rng(43)
        p = uniform_problem(rng, 6, 6)
        errs = []
        for iters in (1, 5, 10, 20, 40):
            monkeypatch.setattr(baseline, "ITERATIONS", iters)
            plan = solve_entropic(p)
            errs.append(np.max(np.abs(plan.sum(axis=0) - p.b)))
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))

    def test_entropy_non_decreasing_in_epsilon(self, monkeypatch):
        rng = np.random.default_rng(44)
        p = uniform_problem(rng, 5, 5)
        monkeypatch.setattr(baseline, "ITERATIONS", 200)
        entropies = []
        for eps in (0.02, 0.05, 0.1, 0.5, 2.0):
            monkeypatch.setattr(baseline, "EPSILON_SCALE", eps / p.D.max())
            plan = solve_entropic(p)
            entropies.append(float(-(plan * np.log(plan)).sum()))
        assert all(b >= a - 1e-10 for a, b in zip(entropies, entropies[1:]))

    def test_underflow_detection(self):
        p = validate_problem([0.5, 0.5], [1.0, 5e-324], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericalUnderflow):
            solve_entropic(p)


class TestExactUnconstrained:
    def test_symmetric_instance(self, symmetric_2x2):
        plan = solve(symmetric_2x2, OrderedVariates())[0]
        assert plan.objective == pytest.approx(0.0, abs=1e-3)

    def test_singleton(self):
        p = validate_problem([1.0], [1.0], [[0.7]])
        plan = solve(p, OrderedVariates())[0]
        np.testing.assert_allclose(plan.X, [[1.0]], atol=1e-8)

    def test_random_vs_lp(self):
        rng = np.random.default_rng(45)
        for _ in range(6):
            p = uniform_problem(rng, 5, 5)
            plan = solve(p, OrderedVariates())[0]
            opt, _ = lp_solve_oc(p, OrderedVariates())
            assert abs(plan.objective - opt) <= 0.01 * max(abs(opt), 1e-12)
