"""Exact Euclidean projections onto the two constraint sets of the splitting.

C1 is the affine set of matrices with prescribed row/column sums (no sign
constraint); its projector is a closed form costing one pass of matrix-vector
work. C2 is the order cone: non-negative matrices whose constrained cells sit
at fixed descending-rank positions above everything else (the orthant when
there are none); its projector is an extended pool-adjacent-violators sweep
over the chain with a threshold that pools top tail cells into its bottom.
``polish`` solves for a plan in both sets on the active set of a C2 iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OrderedVariates, Problem
from .errors import ShapeMismatch, UnequalMass

POLISH_TOL = 1e-12  # how closely a polished plan must meet the marginals, order and sign


def project_c1(problem: Problem, X: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {Y : Y 1 = a, Y^T 1 = b}.

    Checks the shape and the equal-mass condition, then applies
    ``project_marginals`` into a fresh array. Exact marginals on output,
    idempotent.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != problem.shape:
        raise ShapeMismatch(f"matrix has shape {X.shape}, expected {problem.shape}")
    mass_a, mass_b = float(problem.a.sum()), float(problem.b.sum())
    if abs(mass_a - mass_b) > 1e-8:
        raise UnequalMass(f"sum(a) = {mass_a!r} != sum(b) = {mass_b!r}")
    return project_marginals(X, problem.a, problem.b, np.empty(X.shape))


# Read-only vectors of ones by length, made once so that the solver's
# marginal step allocates none per round for its matrix-vector sums.
_ONES: dict[int, np.ndarray] = {}


def _ones(size: int) -> np.ndarray:
    ones = _ONES.get(size)
    if ones is None:
        ones = np.ones(size)
        ones.setflags(write=False)
        _ONES[size] = ones
    return ones


def project_marginals(W: np.ndarray, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Closed-form marginal projection of ``W`` written into ``out``.

    Corrects each row by its sum defect spread over the columns, each column
    likewise, and removes the double-counted total-mass defect, which is
    taken from the row sums and folded into the column correction: two
    matrix-vector products and two passes over the matrix. O(mn); all sums
    are taken before ``out`` is written, so ``out`` may be ``W``. This is the
    one kernel behind ``project_c1`` and the solver's marginal step.
    """
    m, n = W.shape
    add_reduce = np.add.reduce  # what ndarray.sum calls, without its Python wrapper
    row_sums = W @ _ones(n)  # a BLAS matrix-vector product beats a strided reduction
    row_defect = (a - row_sums) / n
    total_defect = (float(add_reduce(a, axis=None)) - float(add_reduce(row_sums, axis=None))) / (m * n)
    col_defect = (b - _ones(m) @ W) / m
    col_defect -= total_defect
    np.add(W, row_defect[:, None], out=out)
    out += col_defect[None, :]
    return out


@dataclass(slots=True)
class ThresholdEvaluator:
    """Evaluation of the top-block threshold over a ranked tail.

    ``sorted_tail`` holds the tail values descending; the projector passes
    only the positive ones (see ``OrderConeProjector``). ``x_top`` is the
    bottom-of-chain cell value. ``breakpoints[s-1]`` is the dual value at
    which the pooled tail grows from s-1 to s cells; it is non-decreasing, so
    lookup is a bisection.
    """

    sorted_tail: np.ndarray
    x_top: float
    prefix_sums: np.ndarray
    breakpoints: np.ndarray

    @classmethod
    def from_values(cls, x_top: float, tail) -> "ThresholdEvaluator":
        """Sort the ``tail`` values descending and build the breakpoints.

        Only values are ranked, not cells: equal values are interchangeable in
        every sum, and the projection writes the tail by clipping.
        """
        tail = np.asarray(tail, dtype=float).ravel()
        srt = np.sort(tail)[::-1]
        R = srt.size
        prefix = np.empty(R + 1)
        prefix[0] = 0.0
        srt.cumsum(out=prefix[1:])
        brk = prefix[1:] + x_top
        brk -= np.arange(2.0, R + 2.0) * srt
        np.maximum.accumulate(brk, out=brk)  # monotone in exact arithmetic
        return cls(
            sorted_tail=srt,
            x_top=float(x_top),
            prefix_sums=prefix,
            breakpoints=brk,
        )


def threshold_T(ev: ThresholdEvaluator, eta: float) -> tuple[float, int]:
    """The clamped pooled average T(eta) and the pooled tail count t(eta).

    t counts the tail cells merged with the (dual-shifted) bottom chain cell;
    it is the number of breakpoints at or below eta, which also covers the
    empty-candidate convention (pool every tail cell above the shifted top).
    """
    t = int(ev.breakpoints.searchsorted(eta, side="right"))
    tau = (ev.x_top - eta + ev.prefix_sums[t]) / (t + 1)
    return max(tau, 0.0), t


@dataclass
class BlockPartition:
    """Pool-adjacent-violators working state over the constrained chain.

    Boundaries are 0-based chain slots; ``val`` is strictly increasing across
    blocks on exit (equal neighbours coalesce). ``eta_tilde`` is the dual
    value of the bottom block's final merge (0.0 when nothing merged into
    it): ``threshold_T`` at it gives the bottom block's value ``val[0]`` and
    the count of tail cells pooled into that block.
    """

    le: list[int]
    ri: list[int]
    val: list[float]
    eta_tilde: float

    @property
    def B(self) -> int:
        return len(self.val)


def epava_blocks(chain: np.ndarray, ev: ThresholdEvaluator) -> BlockPartition:
    """Run the extended PAVA sweep over the chain values.

    ``chain[0]`` is the bottom slot whose block value is the tail-aware
    threshold; higher slots start as singleton blocks and coalesce downward
    whenever monotonicity fails (Best & Chakravarti 1990). When chain slots
    1..q with mean delta join the bottom block, the ranked tail is
    water-filled into it: tail cell s is pooled while it is at or above the
    pooled average with it, which is brk[s-1] - q * sorted_tail[s-1] <=
    -q * delta, a monotone key, so the pooled count t is one bisection and
    the block's value is max((x_top + q * delta + P_t) / (q + 1 + t), 0).
    After the sweep, ``eta_tilde`` is the closed-form root of
    T(eta) = delta + eta / q on piece t of T, and ``val[0]`` is T there.
    """
    chain = np.asarray(chain, dtype=float)
    k = chain.size
    add_reduce = np.add.reduce  # slice means as ndarray.mean computes them: sum / count
    brk, srt, prefix = ev.breakpoints, ev.sorted_tail, ev.prefix_sums
    le = [0]
    ri = [0]
    val = [threshold_T(ev, 0.0)[0]]
    q = t = 0  # chain slots 1..q and the top t tail cells pool into the bottom block
    for ell in range(1, k):
        le.append(ell)
        ri.append(ell)
        val.append(float(chain[ell]))
        while len(val) >= 2 and val[-1] <= val[-2]:
            top = ri[-1]
            if len(val) == 2:
                q = top
                total = float(add_reduce(chain[1 : q + 1]))
                delta = total / q
                t = int((brk - q * srt).searchsorted(-q * delta, side="right"))
                val[0] = max((ev.x_top + total + prefix[t]) / (q + 1 + t), 0.0)
                ri[0] = q
            else:
                val[-2] = float(add_reduce(chain[le[-2] : top + 1])) / (top + 1 - le[-2])
                ri[-2] = top
            le.pop()
            ri.pop()
            val.pop()

    eta_tilde = 0.0
    if q:
        if val[0] > 0.0:
            # T = (c_t - eta) / (t + 1) on piece t meets the line delta + eta / q
            c_t = ev.x_top + prefix[t]
            root = q * (c_t - (t + 1) * delta) / (t + q + 1)
            lo = max(brk[t - 1], 0.0) if t else 0.0
            hi = brk[t] if t < brk.size else np.inf
            eta_tilde = float(min(max(root, lo), hi)) + 0.0
        else:  # T has reached 0, so the line meets it at eta = -q * delta
            eta_tilde = max(-q * delta, 0.0) + 0.0
        val[0] = threshold_T(ev, eta_tilde)[0]
    return BlockPartition(le=le, ri=ri, val=val, eta_tilde=eta_tilde)


class OrderConeProjector:
    """Reusable projector onto the order cone of a fixed constraint list.

    Precomputes the constrained and the unconstrained flat indices, so each
    call is ``ThresholdEvaluator.from_values`` over the positive tail cells,
    the linear chain sweep with one bisection per merge into the bottom
    block, and one clip of the whole matrix; with k = 0 a call is the clip
    alone. The solver re-projects every round.
    """

    def __init__(self, oc: OrderedVariates, m: int, n: int):
        oc.check_bounds(m, n)
        self.shape = (m, n)
        self.chain_flat = np.array([i * n + j for i, j in oc.pairs], dtype=np.intp)
        self.tail_flat = np.flatnonzero(oc.tail_mask(m, n).ravel())

    def __call__(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape != self.shape:
            raise ShapeMismatch(f"matrix has shape {X.shape}, expected {self.shape}")
        if out is None:
            out = np.empty(self.shape)
        elif out.shape != self.shape:
            raise ShapeMismatch(f"out buffer has shape {out.shape}, expected {self.shape}")
        elif not out.flags["C_CONTIGUOUS"]:
            raise ValueError("out buffer must be C-contiguous")
        if not self.chain_flat.size:
            return np.maximum(X, 0.0, out=out)
        x = X.ravel()
        chain = x[self.chain_flat]
        tail = x[self.tail_flat]
        # A tail cell <= 0 pools into the bottom block only when the block's
        # value T clamps to 0, and the clip below writes it 0 either way; so
        # the positive cells alone give the same T, blocks and output.
        blocks = epava_blocks(chain, ThresholdEvaluator.from_values(chain[0], tail[tail > 0.0]))

        # The pooled tail cells are the ones at or above the bottom block's
        # value T and take T; every other tail cell lies below T and takes
        # max(x, 0). So min(max(x, 0), T) writes the whole tail without
        # ranking positions, and the chain's block values overwrite their cells.
        flat = out.reshape(-1)
        np.maximum(x, 0.0, out=flat)
        np.minimum(flat, blocks.val[0], out=flat)
        for lo, hi, v in zip(blocks.le, blocks.ri, blocks.val):
            flat[self.chain_flat[lo : hi + 1]] = v
        return out


def project_c2_epava(X: np.ndarray, oc: OrderedVariates) -> np.ndarray:
    """Euclidean projection onto the order cone of any chain, k = 0 included.

    Tail cells pooled into the bottom of the chain take the threshold value,
    the remaining tail cells are clamped at zero, and the chain takes its
    block values. Output satisfies the full ordering and non-negativity
    exactly.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got {X.ndim}-d input")
    return OrderConeProjector(oc, *X.shape)(X)


def polish(
    Z: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    cone: OrderConeProjector,
    eps: float,
    D: np.ndarray,
    potentials: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """A plan on the active set of the order-feasible iterate ``Z`` and
    potentials for it, as ``(X, u, v)``, or None.

    Reads the active set off Z with width ``eps``: chain cells within eps of
    the chain cell below them share one variable, tail cells within eps of
    the bottom chain value join the bottom variable, every other cell above
    eps is a free variable, and the rest are 0. With A the map from those
    variables to the m + n marginals, the plan solves A x = (a, b) by least
    squares, since ties and the redundant total-mass equation leave A
    rank-deficient. The plan is returned only when its marginals, order and
    sign all hold to ``POLISH_TOL``; a wrong active set fails one of them.
    This is the polish that OSQP runs after its ADMM rounds (Stellato et al.
    2020, section 5), which also solves for the dual.

    The dual half: (u, v) solve A^T (u, v) = c, with c each variable's cost
    D summed over its cells, i.e. D - u(+)v sums to 0 over every variable;
    these are the complementary-slackness equations of the plan. Degenerate
    active sets leave that system underdetermined, so (u, v) is the solution
    nearest the given ``potentials`` y0 = (u0, v0): y0 + A^+T (c - A^T y0),
    the correction being the least-norm least-squares solution of the
    transposed system (least-squares when it is inconsistent). Only an
    accepted plan pays for that second solve; most polishes are rejected.
    """
    m, n = Z.shape
    z = Z.reshape(-1)
    chain, tail = cone.chain_flat, cone.tail_flat
    var = np.full(m * n, -1, dtype=np.intp)  # the variable of each cell; -1 holds 0
    groups = 0
    if chain.size:
        c = z[chain]
        var[chain] = np.concatenate(([0], np.cumsum(np.diff(c) > eps)))
        groups = int(var[chain[-1]]) + 1
        var[tail[z[tail] >= c[0] - eps]] = 0
    free = np.flatnonzero((var < 0) & (z > eps))
    var[free] = np.arange(groups, groups + free.size)
    cells = np.flatnonzero(var >= 0)
    v = var[cells]
    size = groups + free.size
    if not size:
        return None
    rows, cols = np.divmod(cells, n)
    A = np.empty((m + n, size))
    A[:m] = np.bincount(rows * size + v, minlength=m * size).reshape(m, size)
    A[m:] = np.bincount(cols * size + v, minlength=n * size).reshape(n, size)
    values = np.linalg.lstsq(A, np.concatenate((a, b)), rcond=None)[0]

    if values.min() < -POLISH_TOL:
        return None
    if groups and (np.diff(values[:groups]) < -POLISH_TOL).any():
        return None
    if groups and free.size and values[groups:].max() > values[0] + POLISH_TOL:
        return None
    X = np.zeros((m, n))
    X.reshape(-1)[cells] = values[v]
    if np.abs(X @ _ones(n) - a).max() > POLISH_TOL or np.abs(_ones(m) @ X - b).max() > POLISH_TOL:
        return None

    y0 = np.concatenate(potentials)
    defect = np.bincount(v, weights=D.reshape(-1)[cells], minlength=size) - A.T @ y0
    y = y0 + np.linalg.lstsq(A.T, defect, rcond=None)[0]
    return X, y[:m], y[m:]
