import numpy as np
import pytest

from conftest import random_variates, uniform_problem
from ocot import OrderedVariates, Problem, validate_problem
from ocot import projections
from ocot.errors import EmptyConstraints, NoZero, ShapeMismatch, UnequalMass
from ocot.oracle import c1_project_dense, kkt_verify, pgd_project
from ocot.projections import (
    BlockPartition,
    OrderConeProjector,
    PrefixExhausted,
    ThresholdEvaluator,
    epava_blocks,
    project_c1,
    project_c2_epava,
    solve_eta,
    threshold_T,
)


def brute_threshold(x_top, tail, eta):
    """Exhaustive scan of the pooled-average rule, straight off its definition."""
    tail = sorted(tail, reverse=True)
    shifted = x_top - eta
    r = sum(1 for v in tail if v > shifted) + 1

    def tau(s):
        return (shifted + sum(tail[:s])) / (s + 1)

    t = r - 1
    for s in range(1, r):
        if tau(s) > tail[s - 1]:
            t = s - 1
            break
    return max(tau(t), 0.0), t


def bisection_root(ev, q, delta):
    """Root of T(eta) = delta + eta / (q - 1) by plain bisection on eta >= 0."""

    def resid(e):
        return threshold_T(ev, e)[0] - delta - e / (q - 1)

    lo, hi = 0.0, 1.0
    while resid(hi) > 0:
        hi *= 2
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def full_sort_order(tail):
    """Tail indices by descending value, ties in position order."""
    return np.argsort(-tail, kind="stable")


def full_sort_evaluator(x_top, tail):
    """The evaluator built from one stable descending sort of the whole tail."""
    srt = tail[full_sort_order(tail)]
    prefix = np.concatenate([[0.0], np.cumsum(srt)])
    s = np.arange(1, srt.size + 1)
    brk = np.maximum.accumulate(x_top + prefix[1:] - (s + 1) * srt)
    return ThresholdEvaluator(
        sorted_tail=srt,
        x_top=float(x_top),
        prefix_sums=prefix,
        breakpoints=brk,
        complete=True,
    )


def full_sort_projection(X, oc):
    """Order-cone projection over the full-sort evaluator: Y, (T, t) and eta.

    The t pooled tail cells are written by position, the top t of the ranked
    tail, as an independent check of the projector's clipping."""
    m, n = X.shape
    x = X.ravel()
    chain_flat = np.array([i * n + j for i, j in oc.pairs])
    tail_flat = np.flatnonzero(oc.tail_mask(m, n).ravel())
    ev = full_sort_evaluator(x[chain_flat[0]], x[tail_flat])
    blocks = epava_blocks(x[chain_flat], ev)
    T_val, t = threshold_T(ev, blocks.eta_tilde)
    Y = np.maximum(x, 0.0)
    Y[tail_flat[full_sort_order(x[tail_flat])[:t]]] = T_val
    for lo, hi, v in zip(blocks.le, blocks.ri, blocks.val):
        Y[chain_flat[lo : hi + 1]] = v
    return Y.reshape(m, n), (T_val, t), blocks.eta_tilde


class TestProjectC1:
    def test_single_cell(self):
        p = validate_problem([1.0], [1.0], [[2.0]])
        np.testing.assert_allclose(project_c1(p, np.array([[5.0]])), [[1.0]])

    def test_singleton_affine_set(self):
        p = validate_problem([1.0], [0.4, 0.6], [[0.0, 0.0]])
        np.testing.assert_allclose(project_c1(p, np.zeros((1, 2))), [[0.4, 0.6]])

    def test_fixed_point(self, symmetric_2x2):
        X = np.array([[0.1, 0.4], [0.4, 0.1]])
        np.testing.assert_allclose(project_c1(symmetric_2x2, X), X, atol=1e-15)

    def test_random_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            a = rng.random(m) + 0.05
            a /= a.sum()
            b = rng.random(n) + 0.05
            b /= b.sum()
            p = validate_problem(a, b, rng.random((m, n)))
            X = rng.uniform(-1.0, 1.0, (m, n))
            Y = project_c1(p, X)
            assert np.max(np.abs(Y.sum(axis=1) - a)) <= 1e-10
            assert np.max(np.abs(Y.sum(axis=0) - b)) <= 1e-10
            assert np.max(np.abs(project_c1(p, Y) - Y)) <= 1e-10
            np.testing.assert_allclose(Y, c1_project_dense(X, a, b), atol=1e-8)

    def test_nearest_point(self, symmetric_2x2):
        rng = np.random.default_rng(9)
        a, b = symmetric_2x2.a, symmetric_2x2.b
        base = np.outer(a, b)
        for _ in range(40):
            X = rng.uniform(-1.0, 1.0, (2, 2))
            Y_hat = project_c1(symmetric_2x2, X)
            for _ in range(10):
                # null-space wiggle keeps every marginal exactly
                t = rng.uniform(-0.5, 0.5)
                Y = base + t * np.array([[1.0, -1.0], [-1.0, 1.0]])
                assert np.linalg.norm(Y_hat - X) <= np.linalg.norm(Y - X) + 1e-12

    def test_unequal_mass(self):
        p = Problem(a=np.array([0.5, 0.5]), b=np.array([0.3, 0.3]), D=np.ones((2, 2)))
        with pytest.raises(UnequalMass):
            project_c1(p, np.zeros((2, 2)))

    def test_shape_guard(self, symmetric_2x2):
        with pytest.raises(ShapeMismatch):
            project_c1(symmetric_2x2, np.zeros((3, 3)))


class TestThreshold:
    def test_all_tail_nonpositive(self):
        ev = ThresholdEvaluator.from_values(-1.0, [-0.2, -0.5])
        value, _ = threshold_T(ev, 0.0)
        assert value == 0.0

    def test_two_value_scan_eta0(self):
        # expected values frozen from the exhaustive scan: t=0, T=0.5
        assert brute_threshold(0.5, [0.3, 0.1], 0.0) == (0.5, 0)
        ev = ThresholdEvaluator.from_values(0.5, [0.3, 0.1])
        value, t = threshold_T(ev, 0.0)
        assert (value, t) == (0.5, 0)

    def test_two_value_scan_eta04(self):
        # frozen from the exhaustive scan: pooled once, T=0.2
        expected = brute_threshold(0.5, [0.3, 0.1], 0.4)
        assert expected == (pytest.approx(0.2), 1)
        ev = ThresholdEvaluator.from_values(0.5, [0.3, 0.1])
        value, t = threshold_T(ev, 0.4)
        assert value == pytest.approx(0.2)
        assert t == 1

    def test_matches_brute_scan_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            tail = rng.uniform(-1.0, 1.0, size=int(rng.integers(0, 9)))
            x_top = float(rng.uniform(-1.0, 1.0))
            eta = float(rng.uniform(0.0, 2.0))
            ev = ThresholdEvaluator.from_values(x_top, tail)
            value, t = threshold_T(ev, eta)
            bvalue, bt = brute_threshold(x_top, tail, eta)
            assert value == pytest.approx(bvalue, abs=1e-12)
            assert t == bt

    def test_non_increasing_and_convex(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            ev = ThresholdEvaluator.from_values(
                float(rng.uniform(-1, 1)), rng.uniform(-1, 1, size=6)
            )
            grid = np.linspace(0.0, 3.0, 400)
            vals = np.array([threshold_T(ev, e)[0] for e in grid])
            diffs = np.diff(vals)
            assert np.all(diffs <= 1e-12)
            # convexity: slopes non-decreasing
            assert np.all(np.diff(diffs) >= -1e-12)


class TestSolveEta:
    def test_identically_zero(self):
        ev = ThresholdEvaluator.from_values(-1.0, [])
        assert solve_eta(ev, 2, 0.0) == 0.0

    def test_single_linear_piece(self):
        # T(eta) = 1 - eta against eta: crossing at 0.5
        ev = ThresholdEvaluator.from_values(1.0, [])
        assert solve_eta(ev, 2, 0.0) == pytest.approx(0.5, abs=1e-12)

    def check_root(self, ev, q, delta):
        eta = solve_eta(ev, q, delta)
        scale = max(1.0, abs(delta), abs(ev.x_top))
        assert eta >= 0.0
        assert eta == pytest.approx(bisection_root(ev, q, delta), abs=1e-10 * scale)
        assert abs(threshold_T(ev, eta)[0] - delta - eta / (q - 1)) <= 1e-12 * scale
        return eta

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            tail = rng.uniform(-1.0, 1.0, size=4)
            x_top = float(rng.uniform(-1.0, 1.0))
            ev = ThresholdEvaluator.from_values(x_top, tail)
            q = int(rng.integers(2, 6))
            delta = float(rng.uniform(-1.0, threshold_T(ev, 0.0)[0]))
            self.check_root(ev, q, delta)

    def test_long_tails(self):
        # 100-300 cells, half of them with ties; delta spans the root on a
        # linear piece, on the clamped piece (T = 0, delta < 0) and next to 0
        rng = np.random.default_rng(22)
        for trial in range(120):
            tail = rng.uniform(-1.0, 1.0, size=int(rng.integers(100, 301)))
            if trial % 2:
                tail = np.round(tail, 1)
            x_top = float(rng.uniform(-1.0, 1.0))
            ev = ThresholdEvaluator.from_values(x_top, tail)
            q = int(rng.integers(2, 10))
            T0 = threshold_T(ev, 0.0)[0]
            kind = trial % 3
            if kind == 0:
                delta = float(rng.uniform(-1.0, T0))
            elif kind == 1:
                # below -(x_top + positive tail mass), where T has reached 0
                reach = 1.0 + abs(x_top) + float(np.clip(tail, 0.0, None).sum())
                delta = -float(rng.uniform(1.0, 2.0)) * reach
            else:
                delta = T0 - float(rng.uniform(0.0, 1e-6))
            eta = self.check_root(ev, q, delta)
            if kind == 1:
                assert threshold_T(ev, eta)[0] == 0.0
                assert eta == pytest.approx(-delta * (q - 1), rel=1e-12)
            if kind == 2:
                assert eta <= 1e-5

    def test_no_zero_guards(self):
        ev = ThresholdEvaluator.from_values(0.5, [0.3, 0.1])
        with pytest.raises(NoZero):
            solve_eta(ev, 1, 0.0)
        for scale in (1.0, 1e6):
            ev = ThresholdEvaluator.from_values(0.5 * scale, [0.3 * scale, 0.1 * scale])
            T0 = threshold_T(ev, 0.0)[0]
            # T(0) below the line by rounding only: the root is eta = 0
            assert solve_eta(ev, 3, T0 * (1.0 + 1e-12)) == 0.0
            with pytest.raises(NoZero):
                solve_eta(ev, 3, T0 * (1.0 + 1e-6))

    def test_root_past_truncated_prefix(self):
        # T(0) is answered inside the 11-cell prefix, but the line meets T only
        # after the pooled count has passed it
        tail = np.arange(1000.0)
        ev = ThresholdEvaluator.from_values(2000.0, tail, top_k=10)
        assert not ev.complete and ev.sorted_tail.size == 11
        assert threshold_T(ev, 0.0)[1] == 0
        full = ThresholdEvaluator.from_values(2000.0, tail)
        assert solve_eta(full, 2, -10000.0) > ev.breakpoints[-1]
        with pytest.raises(PrefixExhausted):
            solve_eta(ev, 2, -10000.0)


def make_feasible_cone_point(rng, oc, m, n):
    """Direct construction of an order-cone member, independent of the projector."""
    chain = np.sort(rng.uniform(0.3, 1.0, size=oc.k))
    Y = rng.uniform(0.0, chain[0], size=(m, n))
    for ell, (i, j) in enumerate(oc.pairs):
        Y[i, j] = chain[ell]
    return Y


class TestProjectC2:
    def test_already_in_cone(self):
        X = np.array([[0.9, 0.1], [0.2, 0.3]])
        oc = OrderedVariates(((0, 0),))
        np.testing.assert_allclose(project_c2_epava(X, oc), X, atol=1e-15)

    def test_two_point_average(self):
        X = np.array([[0.2, 0.8]])
        out = project_c2_epava(X, OrderedVariates(((0, 0),)))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_all_negative_projects_to_zero(self):
        rng = np.random.default_rng(3)
        X = -rng.uniform(0.5, 1.5, size=(3, 4))
        for k in (1, 2, 3):
            oc = random_variates(rng, 3, 4, k)
            np.testing.assert_allclose(project_c2_epava(X, oc), np.zeros((3, 4)))

    def test_matches_dykstra_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            k = int(rng.integers(1, 4))
            oc = random_variates(rng, 4, 4, k)
            X = rng.uniform(-1.0, 1.0, size=(4, 4))
            Y = project_c2_epava(X, oc)
            Yd = pgd_project(X, oc, tol=1e-10)
            assert np.max(np.abs(Y - Yd)) <= 1e-6

    def test_kkt_system(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            k = int(rng.integers(1, 4))
            oc = random_variates(rng, 4, 4, k)
            X = rng.uniform(-1.0, 1.0, size=(4, 4))
            report = kkt_verify(X, project_c2_epava(X, oc), oc, tol=1e-8)
            assert report.ok

    def test_idempotent(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            oc = random_variates(rng, 5, 5, int(rng.integers(1, 4)))
            Y = project_c2_epava(rng.uniform(-1, 1, (5, 5)), oc)
            assert np.max(np.abs(project_c2_epava(Y, oc) - Y)) <= 1e-10

    def test_nearest_point(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            oc = random_variates(rng, 3, 3, 2)
            X = rng.uniform(-1, 1, (3, 3))
            Y_hat = project_c2_epava(X, oc)
            for _ in range(10):
                Y = make_feasible_cone_point(rng, oc, 3, 3)
                assert np.linalg.norm(Y_hat - X) <= np.linalg.norm(Y - X) + 1e-12

    def test_output_order_exact(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, min(m, n) + 1))
            oc = random_variates(rng, m, n, k)
            Y = project_c2_epava(rng.uniform(-1, 1, (m, n)), oc)
            chain = np.array([Y[i, j] for i, j in oc.pairs])
            assert Y.min() >= 0.0
            assert np.all(np.diff(chain) >= 0.0)
            tail = Y[oc.tail_mask(m, n)]
            if tail.size:
                assert tail.max() <= chain[0] + 1e-15

    def test_empty_constraints_rejected(self):
        with pytest.raises(EmptyConstraints):
            project_c2_epava(np.zeros((2, 2)), OrderedVariates())

    def test_scale_invariance(self):
        # projection commutes with positive scaling; extreme magnitudes must
        # not trip the threshold-equation root finder
        rng = np.random.default_rng(23)
        for scale in (1e-8, 1.0, 1e4, 1e8):
            for _ in range(10):
                oc = random_variates(rng, 4, 4, int(rng.integers(2, 4)))
                X = rng.uniform(-1, 1, (4, 4))
                Y_unit = project_c2_epava(X, oc)
                Y_scaled = project_c2_epava(X * scale, oc)
                assert np.max(np.abs(Y_scaled / scale - Y_unit)) <= 1e-9

    def test_block_partition_invariants(self):
        rng = np.random.default_rng(19)
        # 40 small complete tails, then one 64x64 tail through a truncated
        # top-K evaluator, whose pooled count must stay inside its prefix
        shapes = [(5, 6, None)] * 40 + [(64, 64, 128)]
        for m, n, top_k in shapes:
            k = int(rng.integers(2, 6))
            oc = random_variates(rng, m, n, k)
            X = rng.uniform(-1, 1, (m, n))
            chain = np.array([X[i, j] for i, j in oc.pairs])
            ev = ThresholdEvaluator.from_values(chain[0], X[oc.tail_mask(m, n)], top_k=top_k)
            assert ev.complete == (top_k is None)
            blocks = epava_blocks(chain, ev)
            assert isinstance(blocks, BlockPartition)
            assert blocks.le[0] == 0
            assert blocks.ri[-1] == k - 1
            for ell in range(blocks.B - 1):
                assert blocks.le[ell + 1] == blocks.ri[ell] + 1
                assert blocks.val[ell + 1] > blocks.val[ell]
            assert blocks.eta_tilde >= 0.0
            assert blocks.val[0] == threshold_T(ev, blocks.eta_tilde)[0]


class TestPrefixPath:
    """The top-K prefix evaluator against the full-sort reference, bit for bit."""

    def check(self, X, oc):
        m, n = X.shape
        proj = OrderConeProjector(oc, m, n)
        Y = proj(X)
        Y_ref, Tt_ref, eta = full_sort_projection(X, oc)
        assert np.array_equal(Y, Y_ref)
        x = X.ravel()
        args = (x[proj.chain_flat[0]], x[proj.tail_flat])
        ev = ThresholdEvaluator.from_values(*args, proj.top_k)
        ref = full_sort_evaluator(*args)
        R = ev.sorted_tail.size
        assert np.array_equal(ev.sorted_tail, ref.sorted_tail[:R])
        assert np.array_equal(ev.prefix_sums, ref.prefix_sums[: R + 1])
        assert np.array_equal(ev.breakpoints, ref.breakpoints[:R])
        assert threshold_T(ev, eta) == Tt_ref
        return proj

    def prefix_taken(self, X, oc):
        m, n = X.shape
        x = X.ravel()
        tail_flat = np.flatnonzero(oc.tail_mask(m, n).ravel())
        x_top = x[oc.pairs[0][0] * n + oc.pairs[0][1]]
        return not ThresholdEvaluator.from_values(x_top, x[tail_flat], m + n).complete

    @pytest.mark.parametrize("m, n", [(64, 64), (30, 150)])
    def test_matches_full_sort(self, m, n):
        rng = np.random.default_rng(31)
        for _ in range(15):
            oc = random_variates(rng, m, n, int(rng.integers(1, 9)))
            X = rng.uniform(-1.0, 1.0, (m, n))
            assert self.prefix_taken(X, oc)
            self.check(X, oc)

    @pytest.mark.parametrize("m, n", [(64, 64), (30, 150)])
    def test_heavy_ties(self, m, n):
        rng = np.random.default_rng(32)
        for _ in range(15):
            oc = random_variates(rng, m, n, int(rng.integers(1, 9)))
            X = np.round(rng.uniform(-1.0, 1.0, (m, n)), 2)
            assert self.prefix_taken(X, oc)
            self.check(X, oc)

    def test_prefix_doubles(self):
        # a bottom chain cell far below most of the tail pools a few hundred
        # tail cells, more than the first m + n of the prefix
        rng = np.random.default_rng(33)
        for k in (1, 1, 2, 3, 4):
            oc = random_variates(rng, 64, 64, k)
            X = rng.uniform(0.0, 1.0, (64, 64))
            i, j = oc.pairs[0]
            X[i, j] = -5.0
            proj = self.check(X, oc)
            assert proj.top_k > 128

    def test_truncated_lookup_refuses_prefix_end(self):
        ev = ThresholdEvaluator.from_values(2000.0, np.arange(1000.0), top_k=10)
        assert not ev.complete and ev.sorted_tail.size == 11
        assert threshold_T(ev, 0.0)[1] < 11
        with pytest.raises(PrefixExhausted):
            threshold_T(ev, 1e9)


class TestProjectorBuffers:
    def test_wrong_shape_out_rejected(self):
        oc = OrderedVariates(((0, 0),))
        with pytest.raises(ShapeMismatch):
            OrderConeProjector(oc, 3, 4)(np.zeros((3, 4)), out=np.empty((4, 3)))

    def test_bad_out_rejected_before_projecting(self, monkeypatch):
        def fail(*args):
            raise AssertionError("projection ran before the out buffer was checked")

        monkeypatch.setattr(projections, "epava_blocks", fail)
        oc = OrderedVariates(((0, 0),))
        proj = OrderConeProjector(oc, 3, 4)
        with pytest.raises(ShapeMismatch):
            proj(np.zeros((3, 4)), out=np.empty(12))
        with pytest.raises(ValueError, match="C-contiguous"):
            proj(np.zeros((3, 4)), out=np.empty((4, 3)).T)


class TestComplexity:
    def test_tail_sort_is_one_time(self):
        # ranking happens once, at construction: the evaluator exposes prefix
        # sums sized with the ranked cells (the whole tail here; only the top
        # top_k + 1 and their ties on a long tail, see TestPrefixPath), so
        # threshold lookups after construction are bisections
        ev = ThresholdEvaluator.from_values(0.0, np.arange(100.0))
        assert ev.prefix_sums.size == 101
        assert ev.breakpoints.size == 100
        assert np.all(np.diff(ev.breakpoints) >= 0.0)
