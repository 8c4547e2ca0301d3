import numpy as np
import pytest

from conftest import random_variates, uniform_problem
from ocot import OrderedVariates, Problem, validate_problem
from ocot import projections
from ocot.errors import ShapeMismatch, UnequalMass
from ocot.projections import (
    BlockPartition,
    OrderConeProjector,
    ThresholdEvaluator,
    epava_blocks,
    project_c1,
    project_c2_epava,
    project_marginals,
    threshold_T,
)
from reference import c1_project_dense, kkt_verify, pgd_project


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


def brute_merge(x_top, merged, tail):
    """Bottom-block value and pooled-count range of a merge, by scanning averages.

    The bottom slot ``x_top``, the ``merged`` chain values and the top s tail
    cells pool while the s-th cell is at or above their average; a cell
    within rounding of the average may go either way without moving the
    value, so the count comes back as the range (lo, hi) of admissible s."""
    tail = sorted(tail, reverse=True)
    base = x_top + sum(merged)
    c = 1 + len(merged)

    def avg(s):
        return (base + sum(tail[:s])) / (c + s)

    scale = 1e-12 * (1.0 + abs(base) + sum(abs(v) for v in tail))
    s = 0
    while s < len(tail) and tail[s] >= avg(s + 1):
        s += 1
    lo = s
    while lo > 0 and tail[lo - 1] - avg(lo) <= scale:
        lo -= 1
    hi = s
    while hi < len(tail) and tail[hi] - avg(hi + 1) >= -scale:
        hi += 1
    return max(avg(s), 0.0), lo, hi


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

    @pytest.mark.parametrize("m, n", [(64, 64), (100, 30)])
    def test_marginals_at_size(self, m, n):
        # inputs offset by +-1e3 carry a large total-mass defect, which the
        # kernel takes from the row sums into the column correction
        rng = np.random.default_rng(10)
        for offset in (-1e3, 1e3):
            a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
            W = rng.uniform(-1.0, 1.0, (m, n)) + offset
            Y = project_marginals(W, a, b, np.empty((m, n)))
            bound = 1e-14 * np.abs(W).max() * max(m, n)
            assert np.max(np.abs(Y.sum(axis=1) - a)) <= bound
            assert np.max(np.abs(Y.sum(axis=0) - b)) <= bound
            np.testing.assert_allclose(Y, c1_project_dense(W, a, b), rtol=0.0, atol=1e-8)
            # out may be W itself
            assert np.array_equal(project_marginals(W.copy(), a, b, W), Y)

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


def decreasing_chain(rng, k, bottom):
    """k chain values from ``bottom`` down, so every slot merges into the bottom block."""
    return np.concatenate([[bottom], bottom - np.sort(rng.uniform(0.0, 1.0, k - 1))])


class TestBottomMerge:
    def check_merge(self, chain, tail):
        ev = ThresholdEvaluator.from_values(chain[0], tail)
        blocks = epava_blocks(chain, ev)
        q = blocks.ri[0]
        value, lo, hi = brute_merge(chain[0], chain[1 : q + 1], tail)
        scale = 1.0 + abs(chain).max() + (np.abs(tail).max() if tail.size else 0.0)
        assert blocks.val[0] == pytest.approx(value, abs=1e-12 * scale)
        T_val, t = threshold_T(ev, blocks.eta_tilde)
        assert T_val == blocks.val[0]
        if value > 0.0:
            assert lo <= t <= hi
        return blocks, q

    def test_identically_zero(self):
        # no tail and a non-positive chain: T is 0 everywhere, and the line
        # -2 + eta meets it at eta = 2
        blocks = epava_blocks(np.array([-1.0, -2.0]), ThresholdEvaluator.from_values(-1.0, []))
        assert blocks.B == 1
        assert blocks.val[0] == 0.0
        assert blocks.eta_tilde == 2.0

    def test_single_linear_piece(self):
        # no tail: slots 1.0 and 0.0 pool to 0.5, the line T = 1 - eta meets
        # 0 + eta at eta = 0.5
        blocks = epava_blocks(np.array([1.0, 0.0]), ThresholdEvaluator.from_values(1.0, []))
        assert blocks.B == 1
        assert blocks.val[0] == 0.5
        assert blocks.eta_tilde == pytest.approx(0.5, abs=1e-15)

    def test_matches_brute_scan_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            tail = rng.uniform(-1.0, 1.0, size=int(rng.integers(0, 9)))
            chain = rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 6)))
            self.check_merge(chain, tail)

    def test_long_tails(self):
        # 100-300 cells, half of them with ties; the merged chain mean puts
        # the value on a linear piece or clamps it at 0
        rng = np.random.default_rng(22)
        clamped = 0
        for trial in range(120):
            tail = rng.uniform(-1.0, 1.0, size=int(rng.integers(100, 301)))
            if trial % 2:
                tail = np.round(tail, 1)
            k = int(rng.integers(2, 10))
            if trial % 3 == 1:
                # slots below -(positive tail mass): the pooled value is 0
                reach = 1.0 + float(np.clip(tail, 0.0, None).sum())
                chain = decreasing_chain(rng, k, float(rng.uniform(-1.0, 1.0)))
                chain[1:] -= float(rng.uniform(1.0, 2.0)) * reach
            else:
                chain = decreasing_chain(rng, k, float(rng.uniform(-1.0, 1.0)))
            blocks, q = self.check_merge(chain, tail)
            assert q == k - 1 and blocks.B == 1
            if trial % 3 == 1:
                clamped += 1
                delta = float(np.add.reduce(chain[1:])) / q
                assert blocks.val[0] == 0.0
                assert blocks.eta_tilde == -q * delta
        assert clamped == 40

    def test_merge_past_truncated_prefix(self):
        # a slot at -10000 merged into the bottom block pools hundreds of
        # tail cells
        tail = np.arange(1000.0)
        chain = np.array([2000.0, -10000.0])
        _, lo, _ = brute_merge(chain[0], chain[1:], tail)
        assert lo > 100
        self.check_merge(chain, tail)

    def test_projector_doubles_past_a_merge(self):
        # the same merge inside a 40x40 projection: the slot at -200 pools
        # more tail cells into the bottom block than m + n
        rng = np.random.default_rng(24)
        oc = random_variates(rng, 40, 40, 2)
        X = rng.uniform(0.0, 1.0, (40, 40))
        (i0, j0), (i1, j1) = oc.pairs
        X[i0, j0], X[i1, j1] = 5.0, -200.0
        Y = OrderConeProjector(oc, 40, 40)(X)
        Y_ref, _, _ = full_sort_projection(X, oc)
        assert np.array_equal(Y, Y_ref)
        assert kkt_verify(X, Y, oc, tol=1e-8).ok


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

    @pytest.mark.parametrize("m, n", [(64, 64), (30, 150)])
    def test_kkt_system_at_size(self, m, n):
        # chain values decreasing upward, so every slot merges into the
        # bottom block
        rng = np.random.default_rng(17)
        for trial in range(12):
            k = int(rng.integers(2, 9))
            oc = random_variates(rng, m, n, k)
            X = rng.uniform(-1.0, 1.0, (m, n))
            if trial % 2:
                X = np.round(X, 2)
            chain = decreasing_chain(rng, k, float(rng.uniform(-1.0, 1.0)))
            for (i, j), v in zip(oc.pairs, chain):
                X[i, j] = v
            proj = OrderConeProjector(oc, m, n)
            Y = proj(X)
            tail = X.ravel()[proj.tail_flat]
            ev = ThresholdEvaluator.from_values(chain[0], tail[tail > 0.0])
            assert epava_blocks(chain, ev).B == 1
            assert kkt_verify(X, Y, oc, tol=1e-8).ok

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

    def test_empty_chain_is_the_orthant(self):
        # with k = 0 the order cone is the non-negative orthant
        rng = np.random.default_rng(20)
        oc = OrderedVariates()
        for m, n in [(1, 1), (2, 3), (5, 4), (64, 64)]:
            X = rng.uniform(-1, 1, (m, n))
            Y = project_c2_epava(X, oc)
            assert np.array_equal(Y, np.maximum(X, 0.0))
            assert np.allclose(Y, pgd_project(X, oc), atol=1e-12)
            assert kkt_verify(X, Y, oc, tol=1e-12).ok
        # the projector checks its out buffer before the clip, as with a chain
        cone = OrderConeProjector(oc, 2, 3)
        out = np.empty((2, 3))
        assert cone(X[:2, :3], out=out) is out
        assert np.array_equal(out, np.maximum(X[:2, :3], 0.0))
        with pytest.raises(ShapeMismatch):
            cone(X[:2, :3], out=np.empty((3, 2)))

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
        # 40 small tails, then one 64x64 tail
        for m, n in [(5, 6)] * 40 + [(64, 64)]:
            k = int(rng.integers(2, 6))
            oc = random_variates(rng, m, n, k)
            X = rng.uniform(-1, 1, (m, n))
            chain = np.array([X[i, j] for i, j in oc.pairs])
            ev = ThresholdEvaluator.from_values(chain[0], X[oc.tail_mask(m, n)])
            blocks = epava_blocks(chain, ev)
            assert isinstance(blocks, BlockPartition)
            assert blocks.le[0] == 0
            assert blocks.ri[-1] == k - 1
            for ell in range(blocks.B - 1):
                assert blocks.le[ell + 1] == blocks.ri[ell] + 1
                assert blocks.val[ell + 1] > blocks.val[ell]
            assert blocks.eta_tilde >= 0.0
            assert blocks.val[0] == threshold_T(ev, blocks.eta_tilde)[0]


def sink_bottom(rng, X, oc):
    """X with its bottom chain cell at or below zero, near minus the positive
    tail mass, so the bottom block's value T often clamps to 0 and tail cells
    <= 0 would pool into it under the whole ranked tail."""
    X = X.copy()
    i, j = oc.pairs[0]
    mass = float(np.clip(X[oc.tail_mask(*X.shape)], 0.0, None).sum())
    X[i, j] = -float(rng.uniform(0.5, 1.5)) * mass
    return X


class TestPositiveTail:
    """The positive-cell evaluator against the full-sort reference, bit for bit."""

    def check(self, X, oc):
        m, n = X.shape
        proj = OrderConeProjector(oc, m, n)
        Y = proj(X)
        Y_ref, Tt_ref, _ = full_sort_projection(X, oc)
        assert np.array_equal(Y, Y_ref)
        x = X.ravel()
        x_top, tail = x[proj.chain_flat[0]], x[proj.tail_flat]
        ev = ThresholdEvaluator.from_values(x_top, tail[tail > 0.0])
        ref = full_sort_evaluator(x_top, tail)
        R = ev.sorted_tail.size
        assert np.array_equal(ev.sorted_tail, ref.sorted_tail[:R])
        assert np.array_equal(ev.prefix_sums, ref.prefix_sums[: R + 1])
        assert np.array_equal(ev.breakpoints, ref.breakpoints[:R])
        T, t = threshold_T(ev, epava_blocks(x[proj.chain_flat], ev).eta_tilde)
        if Tt_ref[0] == 0.0:  # cells <= 0 may pool under the whole tail; the clip zeroes them
            assert T == 0.0
            return False
        assert (T, t) == Tt_ref
        return True

    @pytest.mark.parametrize("m, n", [(64, 64), (30, 150)])
    def test_matches_full_sort(self, m, n):
        rng = np.random.default_rng(31)
        clamped = 0
        for _ in range(15):
            oc = random_variates(rng, m, n, int(rng.integers(1, 9)))
            X = rng.uniform(-1.0, 1.0, (m, n))
            assert self.check(X, oc)
            clamped += not self.check(sink_bottom(rng, X, oc), oc)
        assert 0 < clamped < 15

    @pytest.mark.parametrize("m, n", [(64, 64), (30, 150)])
    def test_heavy_ties(self, m, n):
        # rounding to 0.01, then to 0.1: exact (and negative) zeros in the tail
        rng = np.random.default_rng(32)
        clamped = 0
        for _ in range(15):
            oc = random_variates(rng, m, n, int(rng.integers(1, 9)))
            X = rng.uniform(-1.0, 1.0, (m, n))
            assert self.check(np.round(X, 2), oc)
            coarse = np.round(X, 1)
            self.check(coarse, oc)
            clamped += not self.check(sink_bottom(rng, coarse, oc), oc)
        assert 0 < clamped < 15

    def test_bottom_cell_below_the_tail(self):
        # a bottom chain cell far below most of the tail pools a few hundred
        # tail cells, more than m + n
        rng = np.random.default_rng(33)
        for k in (1, 1, 2, 3, 4):
            oc = random_variates(rng, 64, 64, k)
            X = rng.uniform(0.0, 1.0, (64, 64))
            i, j = oc.pairs[0]
            X[i, j] = -5.0
            self.check(X, oc)


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
        # sums sized with the ranked cells (the whole tail here; only its
        # positive cells in the projector, see TestPositiveTail), so
        # threshold lookups after construction are bisections
        ev = ThresholdEvaluator.from_values(0.0, np.arange(100.0))
        assert ev.prefix_sums.size == 101
        assert ev.breakpoints.size == 100
        assert np.all(np.diff(ev.breakpoints) >= 0.0)
