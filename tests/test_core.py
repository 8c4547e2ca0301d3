import numpy as np
import pytest

from conftest import random_variates, uniform_problem
from ocot import (
    OrderedVariates,
    check_membership,
    feasible_point,
    objective,
    validate_problem,
)
from ocot.errors import (
    CapacityViolated,
    NegativeEntry,
    NonFiniteCost,
    NotNormalized,
    OrderCheckFailed,
    RepeatedIndices,
    ShapeMismatch,
)
from ocot.oracle import lp_solve_oc


class TestValidateProblem:
    def test_symmetric_instance(self, symmetric_2x2):
        assert symmetric_2x2.shape == (2, 2)
        assert symmetric_2x2.a.sum() == 1.0

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            validate_problem([0.7, 0.2], [0.5, 0.5], [[0, 1], [1, 0]])

    def test_renormalize_flag(self):
        p = validate_problem([0.7, 0.2], [0.5, 0.5], [[0, 1], [1, 0]], renormalize=True)
        assert p.a == pytest.approx([7 / 9, 2 / 9])

    def test_negative_cost(self):
        with pytest.raises(NegativeEntry):
            validate_problem([0.5, 0.5], [0.5, 0.5], [[0, -1], [1, 0]])

    def test_non_finite_cost(self):
        with pytest.raises(NonFiniteCost):
            validate_problem([0.5, 0.5], [0.5, 0.5], [[0, np.nan], [1, 0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            validate_problem([0.5, 0.5], [0.5, 0.5], [[0, 1, 2], [1, 0, 2]])

    def test_negative_marginal(self):
        with pytest.raises(NegativeEntry):
            validate_problem([1.2, -0.2], [0.5, 0.5], [[0, 1], [1, 0]])

    def test_problem_arrays_immutable(self, symmetric_2x2):
        with pytest.raises(ValueError):
            symmetric_2x2.D[0, 0] = 5.0


class TestObjective:
    def test_zero_cost_diagonal(self, symmetric_2x2):
        assert objective(symmetric_2x2, [[0.5, 0], [0, 0.5]]) == 0.0

    def test_uniform_plan(self, symmetric_2x2):
        assert objective(symmetric_2x2, np.full((2, 2), 0.25)) == pytest.approx(0.5)

    def test_all_ones_cost(self):
        p = validate_problem([0.3, 0.7], [0.6, 0.4], np.ones((2, 2)))
        plan = np.outer(p.a, p.b)
        assert objective(p, plan) == pytest.approx(1.0, abs=1e-12)

    def test_shape_guard(self, symmetric_2x2):
        with pytest.raises(ShapeMismatch):
            objective(symmetric_2x2, np.ones((3, 2)))


class TestFeasiblePoint:
    def test_diagonal_construction(self, symmetric_2x2):
        plan = feasible_point(symmetric_2x2, OrderedVariates(((0, 0),)), [0.5])
        np.testing.assert_allclose(plan, [[0.5, 0.0], [0.0, 0.5]])
        assert plan[0, 0] == plan.max()

    def test_k0_gives_product_plan(self, symmetric_2x2):
        plan = feasible_point(symmetric_2x2, OrderedVariates(), [])
        np.testing.assert_allclose(plan, np.outer(symmetric_2x2.a, symmetric_2x2.b))

    def test_corollary_condition_10x10(self):
        # uniform 10x10 with one constraint: min(m,n)=10 >= (1 - 1/10)^-1
        p = validate_problem(np.full(10, 0.1), np.full(10, 0.1), np.ones((10, 10)))
        oc = OrderedVariates(((3, 7),))
        plan = feasible_point(p, oc, [0.1])
        assert check_membership(p, oc, plan).max_violation <= 1e-12

    def test_capacity_violated(self, symmetric_2x2):
        with pytest.raises(CapacityViolated):
            feasible_point(symmetric_2x2, OrderedVariates(((0, 0),)), [0.7])

    def test_order_check_failed(self, symmetric_2x2):
        with pytest.raises(OrderCheckFailed, match="exceeds lowest chain value"):
            feasible_point(symmetric_2x2, OrderedVariates(((0, 0),)), [0.1])

    def test_repeated_row_rejected(self):
        p = validate_problem([0.5, 0.5], [0.25, 0.25, 0.5], np.ones((2, 3)))
        with pytest.raises(RepeatedIndices):
            feasible_point(p, OrderedVariates(((0, 0), (0, 1))), [0.1, 0.1])

    def test_duplicate_pair_rejected_at_construction(self):
        with pytest.raises(RepeatedIndices):
            OrderedVariates(((1, 1), (1, 1)))

    def test_unordered_chain_values(self):
        p = validate_problem(np.full(6, 1 / 6), np.full(6, 1 / 6), np.ones((6, 6)))
        with pytest.raises(OrderCheckFailed, match="out of order"):
            feasible_point(p, OrderedVariates(((0, 0), (1, 1))), [0.15, 0.1])


class TestCheckMembership:
    def test_constructed_point_is_clean(self, symmetric_2x2):
        oc = OrderedVariates(((0, 0),))
        plan = feasible_point(symmetric_2x2, oc, [0.5])
        report = check_membership(symmetric_2x2, oc, plan)
        assert report.max_violation <= 1e-12
        assert report.ok

    def test_product_plan_order_violation(self):
        # product plan of uneven marginals: constraining a non-argmax cell shows up
        p = validate_problem([0.7, 0.3], [0.6, 0.4], np.ones((2, 2)))
        plan = np.outer(p.a, p.b)
        report = check_membership(p, OrderedVariates(((1, 1),)), plan)
        assert report.order_violation == pytest.approx(0.42 - 0.12)

    def test_negativity_magnitude(self, symmetric_2x2):
        plan = np.array([[0.5, 0.0], [0.001, 0.499]])
        plan[0, 1] = -1e-3
        report = check_membership(symmetric_2x2, OrderedVariates(), plan)
        assert report.negativity == pytest.approx(1e-3)


class TestInvariants:
    def test_random_constructions_members(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            m = int(rng.integers(3, 9))
            n = int(rng.integers(3, 9))
            k = int(rng.integers(0, min(m, n, 4)))
            p = uniform_problem(rng, m, n)
            if not min(m, n) >= 1.0 / (1.0 - k / max(m, n)):
                continue
            oc = random_variates(rng, m, n, k)
            c = np.full(k, min(1.0 / m, 1.0 / n))
            plan = feasible_point(p, oc, c)
            assert check_membership(p, oc, plan).max_violation <= 1e-12

    def test_nested_feasible_sets(self):
        # adding one more constrained pair can only raise the optimum
        rng = np.random.default_rng(5)
        for _ in range(8):
            m = int(rng.integers(3, 6))
            n = int(rng.integers(3, 6))
            p = uniform_problem(rng, m, n)
            parent = random_variates(rng, m, n, 1)
            free_rows = [i for i in range(m) if i not in parent.rows]
            free_cols = [j for j in range(n) if j not in parent.cols]
            child = parent.extended((free_rows[0], free_cols[0]))
            f_parent, _ = lp_solve_oc(p, parent)
            f_child, _ = lp_solve_oc(p, child)
            assert f_child >= f_parent - 1e-9


class TestOrderedVariates:
    def test_ranked_round_trip(self):
        oc = OrderedVariates.from_ranked([(2, 3), (0, 1)])
        assert oc.pairs == ((0, 1), (2, 3))  # bottom of chain first internally
        assert oc.ranked() == [(2, 3), (0, 1)]

    def test_rows_cols_distinct_flag(self):
        assert OrderedVariates(((0, 1), (1, 0))).rows_cols_distinct
        assert not OrderedVariates(((0, 1), (0, 2))).rows_cols_distinct

    def test_bounds_check(self):
        with pytest.raises(ShapeMismatch):
            OrderedVariates(((5, 0),)).check_bounds(4, 4)
