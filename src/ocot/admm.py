"""Alternating-projection ADMM for order-constrained transport.

Each round projects onto the marginal set, then onto the order cone, then
takes the scaled dual step with the fresh iterates. Every X iterate carries
exact marginals and every Z iterate satisfies the ordering exactly, so the
primal residual ||X - Z|| is the whole feasibility story; no rounding step
onto the intersection exists for this constraint family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import OrderedVariates, Problem, TransportPlan, objective
from .errors import InvalidConfig, ShapeMismatch
from .projections import OrderConeProjector, project_marginals

DEFAULT_RHO = 3.0  # chosen by a sweep over 1, 2, 3, 5 and 8 on the benchmark's workloads (README)
DEFAULT_MAX_ITERS = 10_000
DEFAULT_TOL = 1e-4
CERT_PERIOD = 16  # rounds between bound evaluations in a solve with a cutoff
CUTOFF_MARGIN = 1e-3  # relative slack above the cutoff before a solve stops


@dataclass(frozen=True)
class SolverConfig:
    rho: float = DEFAULT_RHO
    max_iters: int = DEFAULT_MAX_ITERS
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not self.rho > 0:
            raise InvalidConfig(f"rho must be positive, got {self.rho!r}")
        if self.max_iters < 1:
            raise InvalidConfig(f"max_iters must be >= 1, got {self.max_iters!r}")
        if not self.tol > 0:
            raise InvalidConfig(f"tol must be positive, got {self.tol!r}")


@dataclass
class SolverTrace:
    """Per-iteration objective and residual history, the stop reason
    (``tol``, ``max_iters`` or ``dominated``), the certified lower bound
    on the LP optimum at the last iterate and the final scaled dual M, which
    with the plan's Z can start another solve."""

    objectives: np.ndarray = field(default_factory=lambda: np.empty(0))
    primal: np.ndarray = field(default_factory=lambda: np.empty(0))
    dual: np.ndarray = field(default_factory=lambda: np.empty(0))
    termination: str = ""
    lower_bound: float = -math.inf
    scaled_dual: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def iterations(self) -> int:
        return int(self.objectives.size)


def certified_lower_bound(
    problem: Problem, M: np.ndarray, rho: float, cone: OrderConeProjector | None
) -> float:
    """Weak-duality lower bound on the order-constrained LP optimum.

    For any potentials u, v the optimum is at least a.u + b.v + mass * m(C),
    with C = D - u(+)v and m(C) the least mean of C over the generators of
    the order cone: the up-sets of the chain. With k >= 1 those are the top
    j chain cells (j = 1..k) and the whole chain plus the j cheapest tail
    cells; with k = 0 (``cone`` None) they are the single cells. u and v are
    the least-squares fit of u(+)v to D + rho * M, where M is the solver's
    scaled dual, so the bound closes on the optimum as the solve converges
    (Boyd et al. 2011, section 3.3). An LP-infeasible chain has optimum
    +inf, so any value bounds it.
    """
    D = problem.D
    G = D + rho * M
    u = G.mean(axis=1)
    v = (G - u[:, None]).mean(axis=0)
    c = (D - u[:, None] - v).reshape(-1)
    if cone is None:
        least = c.min()
    else:
        chain = c[cone.chain_flat[::-1]].cumsum()  # top cell first
        tail = np.sort(c[cone.tail_flat]).cumsum() + chain[-1]
        k = chain.size
        least = min(
            (chain / np.arange(1.0, k + 1.0)).min(),
            (tail / np.arange(k + 1.0, k + tail.size + 1.0)).min(initial=math.inf),
        )
    return float(problem.a.dot(u) + problem.b.dot(v) + problem.a.sum() * least)


def solve(
    problem: Problem,
    oc: OrderedVariates | None = None,
    cfg: SolverConfig | None = None,
    cutoff: float | None = None,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[TransportPlan, SolverTrace]:
    """Run the splitting from ``start = (Z, M)`` until both residuals clear ``cfg.tol``.

    Without a start the splitting begins at Z = M = 0. ADMM converges from
    any starting point (Boyd et al. 2011, section 3.2), so a start changes
    how many rounds a solve takes and where within ``tol`` it stops, not
    what it converges to. ``start`` is copied, never mutated, and may come
    from a solve of another constraint set, as the search takes it from a
    parent node's final Z and scaled dual.

    Hitting the iteration cap is not an error: the trace reports
    ``termination == "max_iters"`` with the final residuals, which is the
    documented diagnostic for (possibly) infeasible constraint sets. With a
    ``cutoff``, every ``CERT_PERIOD`` rounds the certified lower bound is
    evaluated, and the solve ends with ``termination == "dominated"`` once it
    exceeds ``cutoff + CUTOFF_MARGIN * |cutoff|``: the optimum is then proven
    above the cutoff. Without one, the rounds are exactly those of a plain
    solve. The returned plan is the last X with its order-feasible twin Z
    attached; the trace carries the bound and the scaled dual M at the last
    iterate.
    """
    oc = oc if oc is not None else OrderedVariates()
    cfg = cfg if cfg is not None else SolverConfig()
    oc.check_bounds(*problem.shape)
    m, n = problem.shape

    if oc.k:
        project_c2 = cone = OrderConeProjector(oc, m, n)
    else:
        cone = None
        project_c2 = lambda W, out=None: np.maximum(W, 0.0, out=out)
    stop_above = None if cutoff is None else cutoff + CUTOFF_MARGIN * abs(cutoff)

    a, b, D = problem.a, problem.b, problem.D
    rho, tol = cfg.rho, cfg.tol
    D_over_rho = D / rho
    if start is None:
        Z = np.zeros((m, n))
        M = np.zeros((m, n))
    else:
        Z, M = (np.array(S, dtype=float) for S in start)
        for name, S in (("Z", Z), ("M", M)):
            if S.shape != (m, n):
                raise ShapeMismatch(f"start {name} has shape {S.shape}, expected {(m, n)}")
    X = np.empty((m, n))
    W = np.empty((m, n))  # scratch shared by both projection inputs
    Z_new = np.empty((m, n))
    # Flat views made once: a round's fixed cost is its numpy calls, so the
    # norms and the objective skip the np.linalg.norm / np.vdot wrappers and
    # run the same ravel-dot-sqrt they reduce to.
    d, x, w = D.reshape(-1), X.reshape(-1), W.reshape(-1)
    objs: list[float] = []
    primals: list[float] = []
    duals: list[float] = []

    termination = "max_iters"
    for _ in range(cfg.max_iters):
        # marginal projection of Z - M - D/rho
        np.subtract(Z, M, out=W)
        W -= D_over_rho
        project_marginals(W, a, b, out=X)

        np.add(X, M, out=W)
        project_c2(W, out=Z_new)
        M += X
        M -= Z_new
        np.subtract(X, Z_new, out=W)
        primal = math.sqrt(w.dot(w))
        np.subtract(Z_new, Z, out=W)
        dual = rho * math.sqrt(w.dot(w))
        Z, Z_new = Z_new, Z
        objs.append(float(d.dot(x)))
        primals.append(primal)
        duals.append(dual)
        if primal <= tol and dual <= tol:
            termination = "tol"
            break
        if (
            stop_above is not None
            and len(objs) % CERT_PERIOD == 0
            and certified_lower_bound(problem, M, rho, cone) > stop_above
        ):
            termination = "dominated"
            break

    plan = TransportPlan(
        X=X,
        Z=Z,
        objective=objective(problem, X),
        primal_residual=primals[-1],
        dual_residual=duals[-1],
        iterations=len(objs),
    )
    trace = SolverTrace(
        objectives=np.array(objs),
        primal=np.array(primals),
        dual=np.array(duals),
        termination=termination,
        lower_bound=certified_lower_bound(problem, M, rho, cone),
        scaled_dual=M,
    )
    return plan, trace
