import numpy as np
import pytest

import ocot.baseline
import ocot.search
from conftest import random_variates, uniform_problem
from ocot import (
    OrderedVariates,
    SearchConfig,
    SolverConfig,
    branch_and_bound,
    candidate_variates,
    check_membership,
    saturation,
    validate_problem,
)
from ocot.cli import search_dot
from ocot.errors import Infeasible, InvalidConfig, ShapeMismatch
from ocot.oracle import lp_solve_oc
from ocot.search import COLOR_TAUS

TIGHT = SolverConfig(tol=1e-6, max_iters=30_000)


class TestSaturation:
    def test_product_plan_uniform(self, symmetric_2x2):
        plan = np.full((2, 2), 0.25)
        phi, big_phi = saturation(symmetric_2x2, plan)
        np.testing.assert_allclose(phi, 0.5)
        np.testing.assert_allclose(big_phi, 0.5)

    def test_permutation_plan(self, symmetric_2x2):
        plan = np.diag([0.5, 0.5])
        phi, big_phi = saturation(symmetric_2x2, plan)
        np.testing.assert_allclose(phi, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(big_phi, [[0.0, 1.0], [1.0, 0.0]])

    def test_single_column_empty_neighbourhood(self):
        p = validate_problem([0.4, 0.6], [1.0], [[1.0], [1.0]])
        plan = np.array([[0.4], [0.6]])
        _, big_phi = saturation(p, plan)
        # the row scan has no other column: empty max falls back to 0
        np.testing.assert_allclose(big_phi, 0.0)

    @pytest.mark.parametrize("shape", [(1, 4), (4, 3), (12,)])
    def test_plan_of_the_wrong_shape(self, shape):
        p = uniform_problem(np.random.default_rng(5), 3, 4)
        plan = np.full(shape, 1.0 / 12)
        with pytest.raises(ShapeMismatch):
            saturation(p, plan)
        with pytest.raises(ShapeMismatch):
            candidate_variates(p, plan, SearchConfig())

    def test_zero_marginal_fully_saturated(self):
        p = validate_problem([1.0, 0.0], [0.5, 0.5], np.ones((2, 2)))
        phi, _ = saturation(p, np.array([[0.5, 0.5], [0.0, 0.0]]))
        np.testing.assert_allclose(phi[1], 1.0)


class TestCandidateVariates:
    def test_saturated_permutation_is_empty(self, symmetric_2x2):
        cfg = SearchConfig(tau1=0.5, tau2=0.5)
        assert candidate_variates(symmetric_2x2, np.diag([0.5, 0.5]), cfg) == []

    def test_product_plan_boundary_inclusive(self, symmetric_2x2):
        cfg = SearchConfig(tau1=0.5, tau2=0.5)
        got = candidate_variates(symmetric_2x2, np.full((2, 2), 0.25), cfg)
        assert [cell for cell, _ in got] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(phi == pytest.approx(0.5) for _, phi in got)

    def test_greedy_tie_break_row_major(self, symmetric_2x2):
        cfg = SearchConfig(tau1=0.5, tau2=0.5, greedy=True)
        got = candidate_variates(symmetric_2x2, np.full((2, 2), 0.25), cfg)
        assert got == [((0, 0), pytest.approx(0.5))]


class TestSearchConfig:
    def test_threshold_range(self):
        with pytest.raises(InvalidConfig):
            SearchConfig(tau1=1.5)

    def test_budget_ordering(self):
        with pytest.raises(InvalidConfig):
            SearchConfig(k1=2, k2=5)

    def test_non_integer_count(self):
        with pytest.raises(InvalidConfig):
            SearchConfig(k1=20, k2=2.5)

    def test_depth_capped_by_shape(self, symmetric_2x2):
        with pytest.raises(InvalidConfig):
            branch_and_bound(symmetric_2x2, SearchConfig(k3=3))


class TestBranchAndBound:
    def test_root_only(self, symmetric_2x2):
        res = branch_and_bound(symmetric_2x2, SearchConfig(k1=1, k2=1, k3=1))
        assert len(res.candidates.entries) == 1
        obj, variates, node_id, _ = res.candidates.entries[0]
        assert variates == ()
        assert node_id == 0
        assert obj == pytest.approx(0.0, abs=1e-3)
        assert res.subtree == [0]

    def test_pruning_equivalence_exhaustive(self):
        rng = np.random.default_rng(909)
        for _ in range(5):
            m = int(rng.integers(4, 6))
            n = int(rng.integers(4, 6))
            p = uniform_problem(rng, m, n)
            k2 = int(rng.integers(1, 4))
            k3 = int(rng.integers(1, 3))
            base = dict(tau1=0.6, tau2=1.0, k1=5000, k2=k2, k3=k3)
            on = branch_and_bound(p, SearchConfig(prune=True, **base), TIGHT)
            off = branch_and_bound(p, SearchConfig(prune=False, **base), TIGHT)
            got_on = [(o, v) for o, v, _, __ in on.candidates.entries]
            got_off = [(o, v) for o, v, _, __ in off.candidates.entries]
            assert len(got_on) == len(got_off)
            for (obj_a, var_a), (obj_b, var_b) in zip(got_on, got_off):
                assert var_a == var_b
                assert obj_a == pytest.approx(obj_b, abs=1e-6)

    @pytest.mark.parametrize("seed, index", [(12345, 136), (4242, 197)])
    def test_pruning_equivalence_at_bound_ties(self, seed, index):
        # the child's packing bound equals its HiGHS optimum, and the unpruned
        # search ranks it on an ADMM objective about 1e-6 below that bound;
        # the pruning margin keeps it. The instance is drawn as
        # test_pruning_equivalence_exhaustive draws its own.
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            m = int(rng.integers(4, 6))
            n = int(rng.integers(4, 6))
            p = uniform_problem(rng, m, n)
            k2 = int(rng.integers(1, 4))
            k3 = int(rng.integers(1, 3))
        base = dict(tau1=0.6, tau2=1.0, k1=5000, k2=k2, k3=k3)
        on = branch_and_bound(p, SearchConfig(prune=True, **base), TIGHT)
        off = branch_and_bound(p, SearchConfig(prune=False, **base), TIGHT)
        assert [v for _, v, _, __ in on.candidates.entries] == [
            v for _, v, _, __ in off.candidates.entries
        ]

    def test_pruning_actually_fires(self):
        rng = np.random.default_rng(77)
        p = uniform_problem(rng, 5, 5)
        res = branch_and_bound(
            p, SearchConfig(tau1=0.6, tau2=1.0, k1=5000, k2=1, k3=2), TIGHT
        )
        reasons = {nd.prune_reason for nd in res.trace if nd.status == "pruned"}
        assert reasons  # with k2=1 the unconstrained root beats every child

    def test_greedy_single_path(self):
        rng = np.random.default_rng(78)
        p = uniform_problem(rng, 5, 5)
        res = branch_and_bound(
            p,
            SearchConfig(tau1=0.8, tau2=1.0, k1=50, k2=5, k3=3, greedy=True),
            TIGHT,
        )
        children_of = {}
        for nd in res.trace:
            if nd.parent_id is not None:
                children_of.setdefault(nd.parent_id, []).append(nd.node_id)
        assert all(len(kids) <= 1 for kids in children_of.values())

    def test_monotone_costs_along_paths(self):
        rng = np.random.default_rng(79)
        p = uniform_problem(rng, 5, 5)
        res = branch_and_bound(
            p, SearchConfig(tau1=0.7, tau2=1.0, k1=200, k2=3, k3=2), TIGHT
        )
        # a node's ranked objective is the path maximum, so the check reads
        # its own solve's <D, X>; solves that did not end on tol carry no
        # objective (a dominated solve's early iterate can sit far below its
        # certified bound) and are skipped
        for nd in res.trace:
            if nd.status != "solved" or nd.parent_id is None or nd.objective is None:
                continue
            parent = res.trace[nd.parent_id]
            if parent.objective is not None:
                assert nd.plan.objective >= parent.objective - 1e-5

    def test_candidate_membership(self):
        rng = np.random.default_rng(80)
        p = uniform_problem(rng, 4, 4)
        res = branch_and_bound(
            p, SearchConfig(tau1=0.7, tau2=1.0, k1=40, k2=3, k3=2), TIGHT
        )
        for obj, ranked, node_id, plan in res.candidates.entries:
            oc = OrderedVariates.from_ranked(ranked)
            report = check_membership(p, oc, plan.X, tol=1e-4)
            assert report.max_violation <= 2e-4

    def test_deterministic_traces(self):
        rng = np.random.default_rng(81)
        p = uniform_problem(rng, 4, 5)
        cfg = SearchConfig(tau1=0.7, tau2=1.0, k1=60, k2=3, k3=2)
        a = branch_and_bound(p, cfg, TIGHT)
        b = branch_and_bound(p, cfg, TIGHT)
        assert len(a.trace) == len(b.trace)
        for na, nb in zip(a.trace, b.trace):
            assert (na.variates.pairs, na.status, na.prune_reason) == (
                nb.variates.pairs,
                nb.status,
                nb.prune_reason,
            )
            if na.objective is not None:
                assert na.objective == nb.objective
        assert a.subtree == b.subtree

    def test_tree_structure(self):
        # root plus chains of depth <= k3, ancestors inside the learnt subtree
        rng = np.random.default_rng(82)
        p = uniform_problem(rng, 5, 5)
        res = branch_and_bound(
            p, SearchConfig(tau1=0.8, tau2=1.0, k1=120, k2=5, k3=3), TIGHT
        )
        assert res.trace[0].depth == 0
        for nd in res.trace:
            assert nd.depth <= 3
            if nd.parent_id is not None:
                parent = res.trace[nd.parent_id]
                assert nd.depth == parent.depth + 1
                assert nd.variates.pairs[1:] == parent.variates.pairs
                assert nd.variates.rows_cols_distinct
        assert 0 in res.subtree
        for nid in res.subtree:
            parent = res.trace[nid].parent_id
            if parent is not None:
                assert parent in res.subtree
        ranks = res.candidates.node_ids()
        assert len(ranks) == len(set(ranks)) <= 5


class TestLPTies:
    # instances drawn as test_pruning_equivalence_exhaustive draws them. On
    # the first eight a child's LP optimum ties its parent's and its solve
    # comes out 1e-7 to 3e-6 below the parent's objective, so a search that
    # ranks raw objectives and prunes on the parent's objective alone
    # returned a different top-k2 set with pruning on than off. On the last
    # two the k2-th entry is a sibling raised to the shared parent objective,
    # and only the listing tells whether a tied child ranks.
    TIES = (12, 15, 31, 43, 51, 61, 69, 75, 96, 141)

    def test_pruning_agrees_with_ranking_at_lp_ties(self):
        rng = np.random.default_rng(12345)
        for idx in range(max(self.TIES) + 1):
            m = int(rng.integers(4, 6))
            n = int(rng.integers(4, 6))
            p = uniform_problem(rng, m, n)
            k2 = int(rng.integers(1, 4))
            k3 = int(rng.integers(1, 3))
            if idx not in self.TIES:
                continue
            base = dict(tau1=0.6, tau2=1.0, k1=5000, k2=k2, k3=k3)
            on = branch_and_bound(p, SearchConfig(prune=True, **base), TIGHT)
            off = branch_and_bound(p, SearchConfig(prune=False, **base), TIGHT)
            got_on = [(o, v) for o, v, _, __ in on.candidates.entries]
            got_off = [(o, v) for o, v, _, __ in off.candidates.entries]
            assert [v for _, v in got_on] == [v for _, v in got_off], idx
            for (obj_a, _), (obj_b, _) in zip(got_on, got_off):
                assert obj_a == pytest.approx(obj_b, abs=1e-6)

    def test_objective_is_the_path_maximum(self):
        rng = np.random.default_rng(12345)
        p = uniform_problem(rng, int(rng.integers(4, 6)), int(rng.integers(4, 6)))
        res = branch_and_bound(p, SearchConfig(tau1=0.6, tau2=1.0, k1=200, k2=3, k3=2), TIGHT)
        for nd in res.trace:
            if nd.objective is None or nd.parent_id is None:
                continue
            parent = res.trace[nd.parent_id].objective
            assert nd.objective == max(nd.plan.objective, parent)


class TestWarmStart:
    def test_each_solve_starts_from_its_parent(self, monkeypatch):
        starts, duals = {}, {}

        def recording(real):
            def wrapper(problem, oc, cfg, **kwargs):
                plan, trace = real(problem, oc, cfg, **kwargs)
                key = tuple(oc.ranked())
                starts[key] = kwargs.get("start")
                duals[key] = trace.scaled_dual
                return plan, trace
            return wrapper

        monkeypatch.setattr(ocot.search, "solve", recording(ocot.search.solve))
        monkeypatch.setattr(ocot.baseline, "solve", recording(ocot.baseline.solve))
        p = uniform_problem(np.random.default_rng(1), 14, 8)
        res = branch_and_bound(p, SearchConfig(tau1=COLOR_TAUS[0], tau2=COLOR_TAUS[1], k1=20, k2=5, k3=2))
        assert starts[()] is None  # the root starts cold
        solved = [nd for nd in res.trace if nd.status == "solved"]
        assert any(nd.depth == 2 for nd in solved)
        for nd in solved:
            parent = res.trace[nd.parent_id]
            Z, M = starts[tuple(nd.variates.ranked())]
            assert np.array_equal(Z, parent.plan.Z)
            assert np.array_equal(M, duals[tuple(parent.variates.ranked())])
        for nd in res.trace:
            if nd.plan is not None:
                # a child's solve never wrote into its parent's iterates: the
                # stored Z still gives the primal residual the solve reported
                w = (nd.plan.X - nd.plan.Z).ravel()
                assert nd.plan.primal_residual == np.sqrt(w.dot(w))


class TestUnconvergedSolves:
    def test_only_tol_solves_carry_an_objective(self):
        # skewed marginals: some chains are LP-infeasible and hit the cap,
        # others end dominated; neither reports an objective, both keep the
        # plan, and the DOT labels give the stop reason and the bound instead
        rng = np.random.default_rng(0)
        cfg = SearchConfig(tau1=0.6, tau2=1.0, k1=10, k2=3, k3=2)
        seen = set()
        # some chains here empty both packing-bound ranges, whose -inf bound warns
        with pytest.warns(RuntimeWarning, match="empty ranges"):
            for _ in range(6):
                a = np.maximum(rng.dirichlet(np.full(4, 0.5)), 1e-3)
                b = np.maximum(rng.dirichlet(np.full(4, 0.5)), 1e-3)
                p = validate_problem(a / a.sum(), b / b.sum(), rng.random((4, 4)))
                res = branch_and_bound(p, cfg, SolverConfig(max_iters=1000))
                dot = search_dot(res)
                for nd in res.trace:
                    if nd.status not in ("root", "solved"):
                        assert nd.objective is None and nd.plan is None
                        continue
                    assert nd.plan is not None
                    assert (nd.objective is not None) == (nd.termination == "tol")
                    seen.add(nd.termination)
                stopped = [nd for nd in res.trace if nd.plan is not None and nd.objective is None]
                assert dot.count(": lb=") == len(stopped)
        assert {"tol", "max_iters"} <= seen


    def test_root_that_stops_short_is_still_expanded(self):
        # five rounds cannot converge the root: it carries no objective and
        # ranks nothing, but the entropic seed still expands it
        p = uniform_problem(np.random.default_rng(1), 5, 5)
        cfg = SearchConfig(tau1=0.6, tau2=1.0, k1=6, k2=2, k3=2)
        res = branch_and_bound(p, cfg, SolverConfig(max_iters=5))
        root = res.trace[0]
        assert root.status == "root"
        assert root.termination == "max_iters"
        assert root.objective is None
        assert root.expanded
        assert sum(nd.parent_id == 0 for nd in res.trace) == 23
        assert res.candidates.entries == []
        assert not any(nd.prune_reason == "parent-cost" for nd in res.trace)


class TestConvergedCandidatesOnly:
    def test_no_lp_infeasible_set_is_ranked(self):
        # skewed marginals make many chains LP-infeasible; their solves stop
        # at the iteration cap (or end dominated once the top-k2 set is full)
        # and must not be ranked or expanded, while the feasible chains still
        # converge and get ranked
        rng = np.random.default_rng(0)
        cfg = SearchConfig(tau1=0.6, tau2=1.0, k1=10, k2=3, k3=2)
        solver_cfg = SolverConfig(max_iters=1000)
        ranked_sets = 0
        not_converged = 0
        # some chains here empty both packing-bound ranges, whose -inf bound warns
        with pytest.warns(RuntimeWarning, match="empty ranges"):
            for _ in range(6):
                a = np.maximum(rng.dirichlet(np.full(4, 0.5)), 1e-3)
                b = np.maximum(rng.dirichlet(np.full(4, 0.5)), 1e-3)
                p = validate_problem(a / a.sum(), b / b.sum(), rng.random((4, 4)))
                res = branch_and_bound(p, cfg, solver_cfg)
                for _, ranked, _, _ in res.candidates.entries:
                    if ranked:
                        try:
                            lp_solve_oc(p, OrderedVariates.from_ranked(ranked))
                        except Infeasible:
                            pytest.fail(f"LP-infeasible constraint set {ranked} was ranked")
                        ranked_sets += 1
                for node_id in res.candidates.node_ids():
                    assert res.trace[node_id].termination == "tol"
                for nd in res.trace:
                    if nd.status == "solved" and nd.termination != "tol":
                        not_converged += nd.termination == "max_iters"
                        assert nd.expand_skip_reason == (
                            "dominated" if nd.termination == "dominated" else "not-converged"
                        )
                        assert not nd.expanded
                        assert nd.node_id not in res.candidates.node_ids()
        assert ranked_sets > 0
        assert not_converged > 0


class TestDominatedSolves:
    CFG = dict(tau1=COLOR_TAUS[0], tau2=COLOR_TAUS[1], k1=20, k2=5, k3=2)

    def test_dominated_nodes_are_not_ranked_or_expanded(self):
        p = uniform_problem(np.random.default_rng(1), 14, 8)
        res = branch_and_bound(p, SearchConfig(**self.CFG))
        solved = [nd for nd in res.trace if nd.status == "solved"]
        dominated = [nd for nd in solved if nd.termination == "dominated"]
        assert len(solved) == 20
        assert dominated
        worst = res.candidates.worst_objective
        ranked = set(res.candidates.node_ids())
        for nd in dominated:
            assert nd.node_id not in ranked
            assert not nd.expanded
            assert nd.expand_skip_reason == "dominated"
            assert nd.lower_bound > worst
            assert not any(child.parent_id == nd.node_id for child in res.trace)
        for nd in res.trace:
            assert (nd.lower_bound is not None) == (nd.status in ("root", "solved"))
        dot = search_dot(res)
        assert dot.count("dominated: lb=") == len(dominated)

    def test_no_prune_search_never_cuts_a_solve_short(self):
        # without pruning no solve gets a cutoff, so the exhaustive result
        # stays the one --no-prune promises
        p = uniform_problem(np.random.default_rng(1), 14, 8)
        res = branch_and_bound(p, SearchConfig(prune=False, **self.CFG))
        assert not any(nd.termination == "dominated" for nd in res.trace)
        assert "dominated" not in search_dot(res)
