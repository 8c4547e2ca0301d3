"""Unconstrained base plans: entropic scaling for dense seeds, exact for objectives.

The search seeds its saturation statistics from the entropic plan because a
vertex solution has at most m+n non-zeros, which starves the statistics; the
dense regularized plan says something about every cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admm import solve  # the search takes its exact root plan from baseline.solve
from .core import Problem
from .errors import InvalidConfig, NumericalUnderflow

DEFAULT_ITERATIONS = 20
EPSILON_SCALE = 0.05  # default regularization: 0.05 * max cost


@dataclass(frozen=True)
class EntropicConfig:
    iterations: int = DEFAULT_ITERATIONS
    epsilon: float | None = None  # None -> EPSILON_SCALE * max(D)

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidConfig(f"iterations must be >= 1, got {self.iterations!r}")
        if self.epsilon is not None and not self.epsilon > 0:
            raise InvalidConfig(f"epsilon must be positive, got {self.epsilon!r}")


def solve_entropic(problem: Problem, cfg: EntropicConfig | None = None) -> np.ndarray:
    """Alternating marginal scaling on the Gibbs kernel exp(-D/eps).

    Ends on the row update, so row sums match ``a`` to machine precision;
    column sums tighten with the iteration budget. Every entry of the result
    is strictly positive unless the kernel underflows, which raises.
    """
    cfg = cfg if cfg is not None else EntropicConfig()
    D = problem.D
    eps = cfg.epsilon
    if eps is None:
        top = float(D.max())
        eps = EPSILON_SCALE * top if top > 0 else 1.0
    K = np.exp(-D / eps)
    if K.min() <= 0.0:
        raise NumericalUnderflow(f"kernel underflow at epsilon = {eps!r}")
    u = np.ones(problem.m)
    v = np.ones(problem.n)
    for _ in range(cfg.iterations):
        Ktu = K.T @ u
        if Ktu.min() <= 0.0:
            raise NumericalUnderflow("column scaling underflow; increase epsilon")
        v = problem.b / Ktu
        Kv = K @ v
        if Kv.min() <= 0.0:
            raise NumericalUnderflow("row scaling underflow; increase epsilon")
        u = problem.a / Kv
    plan = u[:, None] * K * v[None, :]
    if not np.all(np.isfinite(plan)):
        raise NumericalUnderflow("entropic plan left the representable range")
    if plan.min() <= 0.0 and problem.a.min() > 0.0 and problem.b.min() > 0.0:
        raise NumericalUnderflow("entropic plan lost strict positivity; increase epsilon")
    return plan
