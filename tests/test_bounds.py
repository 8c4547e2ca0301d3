import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import random_variates, uniform_problem
from ocot import OrderedVariates, lower_bound, lower_bound_detail, packing, validate_problem
from ocot.bounds import _branch_values
from ocot.errors import Infeasible, RepeatedIndices
from ocot.oracle import lp_solve_oc


def packing_lp(costs, u, alpha):
    """Generic LP solve of the packing problem (independent of the closed form)."""
    n = len(costs)
    res = linprog(costs, A_eq=np.ones((1, n)), b_eq=[alpha], bounds=(0.0, u), method="highs")
    assert res.status == 0, res.message
    return res.fun


def scan_min(branch, D, marg, chain, other_marg, points):
    """Least branch value on a dense scan of the branch's x-range."""
    caps = np.minimum(marg[chain[:, 0]], other_marg[chain[:, 1]])
    scan = np.linspace(branch.xs[0], branch.xs[-1], points)
    return _branch_values(D, marg, chain, caps, scan).min()


class TestPacking:
    def test_three_item_example(self):
        # frozen from the generic LP: fill the two cheapest to capacity
        assert packing_lp([3.0, 1.0, 2.0], 0.5, 1.0) == pytest.approx(1.5)
        assert packing([3.0, 1.0, 2.0], 0.5, 1.0) == pytest.approx(1.5, abs=1e-12)

    def test_capacity_equals_budget(self):
        assert packing([3.0, 1.0, 2.0], 1.0, 1.0) == pytest.approx(1.0)
        assert packing([0.4, 0.9], 2.0, 0.5) == pytest.approx(0.2)

    def test_infeasible_total_capacity(self):
        with pytest.raises(Infeasible):
            packing([1.0, 2.0, 3.0], 0.1, 1.0)

    def test_zero_budget(self):
        assert packing([5.0, 6.0], 0.3, 0.0) == 0.0

    def test_matches_lp_randomized(self):
        rng = np.random.default_rng(50)
        for _ in range(120):
            n = int(rng.integers(1, 7))
            costs = rng.uniform(0.0, 3.0, n)
            u = float(rng.uniform(0.05, 1.2))
            alpha = float(rng.uniform(0.0, min(1.0, u * n)))
            assert packing(costs, u, alpha) == pytest.approx(
                packing_lp(costs, u, alpha), abs=1e-10
            )

    def test_piecewise_shape_in_u(self):
        # non-increasing, convex, with the kinks exactly at alpha / i
        costs = np.array([0.7, 0.2, 1.4, 0.9])
        alpha = 0.8
        kinks = [alpha / i for i in range(len(costs), 0, -1)]
        grid = np.unique(np.concatenate([np.linspace(alpha / 4, 1.2, 800), kinks]))
        vals = np.array([packing(costs, u, alpha) for u in grid])
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-12)
        slopes = diffs / np.diff(grid)
        assert np.all(np.diff(slopes) >= -1e-7)
        for kink in kinks[1:]:  # interior kinks; the first sits on the feasibility edge
            left = packing(costs, kink - 1e-12, alpha)
            right = packing(costs, kink + 1e-12, alpha)
            assert left == pytest.approx(right, abs=1e-9)


class TestMuNu:
    """The bound's row values, mu for a free row and nu for a row whose pinned
    cell holds u, are both ``packing``: nu(u, c, alpha) = packing(c, u, alpha - u)."""

    def test_nu_single_item(self):
        # one item picks up whatever budget the pinned cell leaves behind
        assert packing([2.5], 0.6, 1.0 - 0.6) == pytest.approx(0.4 * 2.5)

    def test_mu_is_packing(self):
        # a free row fills the whole budget alpha under the per-cell cap u
        rng = np.random.default_rng(51)
        for _ in range(20):
            costs = rng.uniform(0, 2, 4)
            u = float(rng.uniform(0.2, 1.0))
            alpha = float(rng.uniform(0.0, 1.0))
            assert packing(costs, u, alpha) == pytest.approx(packing_lp(costs, u, alpha), abs=1e-10)

    def test_nu_matches_lp(self):
        rng = np.random.default_rng(52)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            costs = rng.uniform(0, 2, n - 1)
            alpha = float(rng.uniform(0.3, 1.0))
            u = float(rng.uniform(alpha / n, alpha))
            assert packing(costs, u, alpha - u) == pytest.approx(
                packing_lp(costs, u, alpha - u), abs=1e-10
            )

    def test_nu_negative_budget_infeasible(self):
        with pytest.raises(Infeasible):
            packing([1.0], 1.5, 1.0 - 1.5)


class TestLowerBound:
    def test_analytic_2x2(self, symmetric_2x2):
        # equals the true optimum on the worked instance
        assert lower_bound(symmetric_2x2, OrderedVariates(((0, 1),))) == pytest.approx(0.5)

    def test_zero_costs(self):
        p = validate_problem([0.5, 0.5], [0.5, 0.5], np.zeros((2, 2)))
        assert lower_bound(p, OrderedVariates(((0, 1),))) == pytest.approx(0.0)

    def test_repeated_indices(self, symmetric_2x2):
        with pytest.raises(RepeatedIndices):
            lower_bound(symmetric_2x2, OrderedVariates(((0, 0), (0, 1))))

    def test_admissible_randomized(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            m = int(rng.integers(3, 7))
            n = int(rng.integers(3, 7))
            p = uniform_problem(rng, m, n)
            oc = random_variates(rng, m, n, int(rng.integers(1, 3)))
            value = lower_bound(p, oc)
            opt, _ = lp_solve_oc(p, oc)
            assert value <= opt + 1e-9

    def test_branch_tables_are_convex(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            p = uniform_problem(rng, 5, 5)
            oc = random_variates(rng, 5, 5, 2)
            report = lower_bound_detail(p, oc)
            for branch in (report.row_branch, report.col_branch):
                if branch is None or branch.xs.size < 3:
                    continue
                dx = np.diff(branch.xs)
                slopes = np.diff(branch.values) / np.where(dx > 0, dx, 1.0)
                assert np.all(np.diff(slopes) >= -1e-7)

    @pytest.mark.filterwarnings("ignore:both bound branches")
    def test_breakpoint_minimum_is_exact(self):
        # a dense scan between breakpoints never undercuts the tabulated min
        rng = np.random.default_rng(55)
        for _ in range(10):
            m = int(rng.integers(3, 6))
            n = int(rng.integers(3, 6))
            a = rng.random(m) + 0.2
            a /= a.sum()
            b = rng.random(n) + 0.2
            b /= b.sum()
            p = validate_problem(a, b, rng.random((m, n)))
            oc = random_variates(rng, m, n, int(rng.integers(1, 3)))
            report = lower_bound_detail(p, oc)
            branch = report.row_branch
            if branch is None:
                continue
            chain = np.array(oc.pairs)
            assert branch.min_value <= scan_min(branch, p.D, p.a, chain, p.b, 4000) + 1e-9

    def test_branch_values_match_row_lps(self):
        # each row of a branch, solved as its own LP at a fixed x: free rows
        # fill their budget under cap x; a chain row's own cell holds x (bottom)
        # or any y in [x, cap] (higher up) and its other cells stay under x
        rng = np.random.default_rng(56)
        for _ in range(12):
            m, n = int(rng.integers(3, 6)), int(rng.integers(3, 6))
            p = validate_problem(rng.dirichlet(np.full(m, 5.0)), rng.dirichlet(np.full(n, 5.0)),
                                 np.round(rng.random((m, n)), 1))
            chain = np.array(random_variates(rng, m, n, int(rng.integers(1, 4))).pairs)
            caps = np.minimum(p.a[chain[:, 0]], p.b[chain[:, 1]])
            xs = np.sort(rng.uniform(p.a.max() / n, p.a.max(), 6))
            for x, value in zip(xs, _branch_values(p.D, p.a, chain, caps, xs)):
                total = 0.0
                for row in range(m):
                    lower, upper = np.zeros(n), np.full(n, x)
                    if row in chain[:, 0]:
                        ell = int(np.flatnonzero(chain[:, 0] == row)[0])
                        col = chain[ell, 1]
                        lower[col], upper[col] = x, (x if ell == 0 else max(caps[ell], x))
                        if ell and caps[ell] < x:
                            total = np.inf
                            break
                    res = linprog(p.D[row], A_eq=np.ones((1, n)), b_eq=[p.a[row]],
                                  bounds=list(zip(lower, upper)), method="highs")
                    if res.status == 2:
                        total = np.inf
                        break
                    total += res.fun
                assert value == pytest.approx(total, abs=1e-9)

    @pytest.mark.filterwarnings("ignore:both bound branches")
    def test_chain_kinks_are_on_the_grid(self):
        # with most rows in the chain, the minimum often sits where a cell
        # above the bottom leaves its cap, at (budget - cap) / i
        rng = np.random.default_rng(0)
        for _ in range(400):
            k = int(rng.integers(2, 4))
            m, n = k + int(rng.integers(0, 2)), int(rng.integers(k, 6))
            p = validate_problem(rng.dirichlet(np.full(m, 2.0)), rng.dirichlet(np.full(n, 2.0)),
                                 rng.random((m, n)))
            oc = random_variates(rng, m, n, k)
            branch = lower_bound_detail(p, oc).row_branch
            if branch is None:
                continue
            chain = np.array(oc.pairs)
            assert branch.min_value <= scan_min(branch, p.D, p.a, chain, p.b, 4000) + 1e-9

    def test_empty_ranges_flagged(self):
        # constraining the lightest row and column empties both branch ranges
        p = validate_problem([0.9, 0.05, 0.05], [0.9, 0.05, 0.05], np.ones((3, 3)))
        with pytest.warns(RuntimeWarning):
            value = lower_bound(p, OrderedVariates(((1, 1),)))
        assert value == -np.inf


def workload_instances(rng, m, n, k, dirichlet, count):
    """Feasible instances at search-workload sizes with their HiGHS optima."""
    found = 0
    while found < count:
        if dirichlet:
            a, b = rng.dirichlet(np.full(m, 5.0)), rng.dirichlet(np.full(n, 5.0))
        else:
            a, b = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
        p = validate_problem(a, b, rng.random((m, n)), renormalize=True)
        oc = random_variates(rng, m, n, k)
        try:
            opt, _ = lp_solve_oc(p, oc)
        except Infeasible:
            continue
        found += 1
        yield p, oc, opt


@pytest.mark.filterwarnings("ignore:both bound branches")
class TestWorkloadSizes:
    """The grids the search workloads bound: 14x8 and 12x6, k up to 3."""

    @pytest.mark.parametrize("dirichlet", [False, True], ids=["uniform", "dirichlet5"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(14, 8), (12, 6)], ids=["14x8", "12x6"])
    def test_admissible_with_convex_branches(self, shape, k, dirichlet):
        rng = np.random.default_rng([*shape, k, dirichlet])
        for p, oc, opt in workload_instances(rng, *shape, k, dirichlet, 4):
            report = lower_bound_detail(p, oc)
            assert report.value <= opt + 1e-9 * max(1.0, abs(opt))
            chain = np.array(oc.pairs)
            tables = [
                (report.row_branch, p.D, p.a, chain, p.b),
                (report.col_branch, p.D.T, p.b, chain[:, ::-1], p.a),
            ]
            for branch, D, marg, pairs, other in tables:
                if branch is None:
                    continue
                # no x between the breakpoints undercuts the tabulated minimum
                assert branch.min_value <= scan_min(branch, D, marg, pairs, other, 2000) + 1e-12
                # one kink computed two ways is one grid point, not two 1e-18 apart
                xs, values = branch.xs, branch.values
                assert np.all(np.diff(xs) > 1e-12 * xs[1:])
                if xs.size < 3:
                    continue
                slopes = np.diff(values) / np.diff(xs)
                assert np.all(np.diff(slopes) >= -1e-7 * max(1.0, np.abs(slopes).max()))

    def test_empty_chain_row(self):
        # on a 1xn or mx1 grid one branch's chain row has no other cells
        assert packing([], 0.3, 0.0) == 0.0
        with pytest.raises(Infeasible):
            packing([], 0.3, 1e-3)
        # an empty row holds a budget within the slack, as a full row does
        assert packing([], 0.3, 1e-13) == 0.0
        assert packing([0.5], 0.3, 0.3 + 1e-13) == pytest.approx(0.15)

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1)], ids=["1x6", "6x1"])
    def test_degenerate_shapes_admissible(self, shape):
        rng = np.random.default_rng(list(shape))
        m, n = shape
        for dirichlet in (False, True):
            for p, oc, opt in workload_instances(rng, m, n, 1, dirichlet, 5):
                assert lower_bound(p, oc) <= opt + 1e-9 * max(1.0, abs(opt))
