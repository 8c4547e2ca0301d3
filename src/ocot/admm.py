"""Alternating-projection ADMM for order-constrained transport.

Each round projects onto the marginal set, then onto the order cone, then
takes the scaled dual step with the fresh iterates. Every X iterate carries
exact marginals and every Z iterate satisfies the ordering exactly, so the
primal residual ||X - Z|| measures how far apart the two sets leave them.
Once that residual is small, ``projections.polish`` solves for a plan in
both sets on the active set of Z, and for potentials that meet its
complementary-slackness equations. The plan's cost is an upper bound on the
optimum and the weak-duality bound at those potentials a lower one, so a
solve can stop with its distance from the optimum known; at an optimal
active set the two meet.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import OrderedVariates, Problem, TransportPlan, objective
from .errors import InvalidConfig, ShapeMismatch
from .projections import OrderConeProjector, polish, project_marginals

DEFAULT_RHO = 3.0  # chosen by a sweep over 1, 2, 3, 5 and 8 on the benchmark's workloads (README)
DEFAULT_MAX_ITERS = 10_000
DEFAULT_TOL = 1e-4
CERT_PERIOD = 16  # rounds between bound evaluations, and between polishes
CUTOFF_MARGIN = 1e-3  # relative slack above the cutoff before a solve stops
POLISH_RESIDUAL = 10.0  # polish once the primal residual is within this many tol
POLISH_WIDTH = 1e-3  # active-set width of the polish, relative to max Z
GAP = 1e-3  # relative gap between the bounds that ends a solve
GAP_FLOOR = 1e-9  # least scale of that gap, relative to max D times the mass


@dataclass(frozen=True)
class SolverConfig:
    rho: float = DEFAULT_RHO
    max_iters: int = DEFAULT_MAX_ITERS
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InvalidConfig(f"{name} must be a number, got {value!r}")
        if not 0 < self.rho < math.inf:
            raise InvalidConfig(f"rho must be finite and positive, got {self.rho!r}")
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise InvalidConfig(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not 0 < self.tol < math.inf:
            raise InvalidConfig(f"tol must be finite and positive, got {self.tol!r}")


@dataclass
class SolverTrace:
    """The stop reason (``tol``, ``max_iters`` or ``dominated``), the
    certified lower bound on the LP optimum at the last iterate and the final
    scaled dual M, which with the plan's Z can start another solve.
    ``upper_bound`` is the cost of the polished plan when the solve stopped on
    a certified gap, else None."""

    termination: str
    lower_bound: float
    scaled_dual: np.ndarray
    upper_bound: float | None = None


def fitted_potentials(D: np.ndarray, M: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Potentials (u, v) whose u(+)v is the least-squares fit to D + rho * M.

    rho * M is the solver's estimate of the order-cone multiplier, so D + rho
    * M estimates u(+)v (Boyd et al. 2011, section 3.3) and the fit closes on
    the optimal potentials as the solve converges.
    """
    G = D + rho * M
    u = G.mean(axis=1)
    return u, (G - u[:, None]).mean(axis=0)


def bound_at(problem: Problem, cone: OrderConeProjector, u: np.ndarray, v: np.ndarray) -> float:
    """Weak-duality lower bound on the order-constrained LP optimum at (u, v).

    For any potentials u, v the optimum is at least a.u + b.v + mass * m(C),
    with C = D - u(+)v and m(C) the least mean of C over the generators of
    the order cone: the up-sets of the chain. Those are the top j chain
    cells (j = 1..k) and the whole chain plus the j cheapest tail cells, so
    m(C) is the least prefix mean of one ranked vector, the chain top first
    and then the sorted tail; with k = 0 that is the least single cell. An
    LP-infeasible chain has optimum +inf, so any value bounds it.
    """
    c = (problem.D - u[:, None] - v).reshape(-1)
    ranked = np.concatenate([c[cone.chain_flat[::-1]], np.sort(c[cone.tail_flat])])
    least = (ranked.cumsum() / np.arange(1.0, ranked.size + 1.0)).min()
    return float(problem.a.dot(u) + problem.b.dot(v) + problem.a.sum() * least)


def certified_lower_bound(
    problem: Problem, M: np.ndarray, rho: float, cone: OrderConeProjector
) -> float:
    """``bound_at`` the ``fitted_potentials`` of the scaled dual M.

    This is the bound a solve reports when it did not certify its gap, and
    the one the ``dominated`` cutoff tests between polishes. It closes on the
    optimum as the solve converges, but only as fast as the fit does; at a
    polish, ``solve`` also takes the bound at the polished plan's potentials
    (see ``projections.polish``), which meets the optimum at an optimal
    active set once the fit is near a dual optimum.
    """
    return bound_at(problem, cone, *fitted_potentials(problem.D, M, rho))


def stop_above(cutoff: float) -> float:
    """The value a lower bound must exceed to prove an optimum above ``cutoff``."""
    return cutoff + CUTOFF_MARGIN * abs(cutoff)


def solve(
    problem: Problem,
    oc: OrderedVariates | None = None,
    cfg: SolverConfig | None = None,
    cutoff: float | None = None,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[TransportPlan, SolverTrace]:
    """Run the splitting from ``start = (Z, M)`` until the optimum is certified
    within ``GAP`` or the primal and dual residual both clear ``cfg.tol``.

    Without a start the splitting begins at Z = M = 0. ADMM converges from
    any starting point (Boyd et al. 2011, section 3.2), so a start changes
    how many rounds a solve takes and where it stops, not what it converges
    to. ``start`` is copied, never mutated, and may come from a solve of
    another constraint set, as the search takes it from a parent node's
    final Z and scaled dual.

    On the first round whose primal residual is within ``POLISH_RESIDUAL``
    times ``tol``, and then at most once every ``CERT_PERIOD`` rounds while
    it stays there, Z is polished to a feasible plan. Its cost UB bounds the
    optimum from above. LB, the larger of ``bound_at`` the potentials fitted
    to M and at the polished potentials, bounds it from below. The polished
    potentials are the solution of the plan's complementary-slackness
    equations nearest the fitted ones, so at an optimal active set, once the
    fit is near a dual optimum, they are dual optimal and LB = UB up to
    rounding: a solve ends at its first optimal polish, not once the fit
    itself has caught up. Once
    UB - LB <= GAP * max(|LB|, GAP_FLOOR * max D * mass) the solve ends on
    ``tol`` and returns the polished plan X with Z = its order-cone
    projection; the trace carries UB as ``upper_bound`` and min(LB, UB) as
    ``lower_bound``, since rounding can lift an exact LB above UB >= OPT.
    Otherwise it ends on ``tol`` once the primal and dual residual both
    clear ``cfg.tol``, and returns the last X with its order-feasible twin Z.

    Hitting the iteration cap is not an error: the trace reports
    ``termination == "max_iters"`` and the plan the last round's primal and
    dual residual, the documented diagnostic for (possibly) infeasible
    constraint sets. With a ``cutoff``, every ``CERT_PERIOD`` rounds the
    certified lower bound is evaluated, and the solve ends with
    ``termination == "dominated"`` once it exceeds ``stop_above(cutoff)``:
    the optimum is then proven above the cutoff. That round's LB is the
    polish's when one was accepted there, and ``certified_lower_bound``
    otherwise. Without a cutoff, the rounds are exactly those of a solve
    with an infinite cutoff. The trace carries the lower bound and the
    scaled dual M at the last iterate; it keeps no per-round history.
    """
    oc = oc if oc is not None else OrderedVariates()
    cfg = cfg if cfg is not None else SolverConfig()
    m, n = problem.shape
    cone = OrderConeProjector(oc, m, n)  # checks that the chain fits the plan

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
    # made once: a round's fixed cost is its numpy calls, so the norms skip
    # the np.linalg.norm wrapper for the ravel-dot-sqrt it reduces to
    w = W.reshape(-1)
    polish_below = POLISH_RESIDUAL * tol
    gap_floor = GAP_FLOOR * float(D.max()) * float(a.sum())
    polished_at = -CERT_PERIOD  # the round of the last polish
    upper = None  # the polished plan's cost, once a gap is certified

    termination = "max_iters"
    for rounds in range(1, cfg.max_iters + 1):
        # marginal projection of Z - M - D/rho
        np.subtract(Z, M, out=W)
        W -= D_over_rho
        project_marginals(W, a, b, out=X)

        np.add(X, M, out=W)
        cone(W, out=Z_new)
        np.subtract(W, Z_new, out=M)  # M + X - Z_new, as W still holds X + M
        np.subtract(X, Z_new, out=W)
        primal = math.sqrt(w.dot(w))
        np.subtract(Z_new, Z, out=W)
        dual = rho * math.sqrt(w.dot(w))
        Z, Z_new = Z_new, Z
        bound = None  # the certified lower bound at this round, once evaluated
        if primal <= polish_below and rounds - polished_at >= CERT_PERIOD:
            polished_at = rounds
            u, v = fitted_potentials(D, M, rho)
            polished = polish(Z, a, b, cone, POLISH_WIDTH * float(Z.max()), D, (u, v))
            if polished is not None:
                feasible, dual_u, dual_v = polished
                bound = max(bound_at(problem, cone, u, v), bound_at(problem, cone, dual_u, dual_v))
                cost = objective(problem, feasible)
                if cost - bound <= GAP * max(abs(bound), gap_floor):
                    X, Z, upper = feasible, cone(feasible), cost
                    # at an optimal active set the bound is exact, and
                    # rounding can lift it a few ulps above UB >= OPT
                    bound = min(bound, cost)
                    termination = "tol"
                    break
        if primal <= tol and dual <= tol:
            termination = "tol"
            break
        if cutoff is not None and rounds % CERT_PERIOD == 0:
            if bound is None:
                bound = certified_lower_bound(problem, M, rho, cone)
            if bound > stop_above(cutoff):
                termination = "dominated"
                break

    np.subtract(X, Z, out=W)  # the last round's primal residual, or the polished plan's
    plan = TransportPlan(
        X=X,
        Z=Z,
        objective=objective(problem, X),
        primal_residual=math.sqrt(w.dot(w)),
        dual_residual=dual,
        iterations=rounds,
    )
    trace = SolverTrace(
        termination=termination,
        lower_bound=certified_lower_bound(problem, M, rho, cone) if bound is None else bound,
        scaled_dual=M,
        upper_bound=upper,
    )
    return plan, trace
