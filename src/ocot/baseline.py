"""Unconstrained base plans: entropic scaling for dense seeds, exact for objectives.

The search seeds its saturation statistics from the entropic plan because a
vertex solution has at most m+n non-zeros, which starves the statistics; the
dense regularized plan says something about every cell.
"""

from __future__ import annotations

import numpy as np

from .admm import solve  # the search takes its exact root plan from baseline.solve
from .core import Problem
from .errors import NumericalUnderflow

ITERATIONS = 20  # scaling rounds
EPSILON_SCALE = 0.05  # regularization: 0.05 * max cost


def solve_entropic(problem: Problem) -> np.ndarray:
    """``ITERATIONS`` rounds of alternating marginal scaling on the Gibbs
    kernel exp(-D/eps), eps = ``EPSILON_SCALE`` * max(D) (1 when D is zero).

    Ends on the row update, so row sums match ``a`` to machine precision;
    column sums tighten with the rounds. Every entry of the result is
    strictly positive unless the kernel underflows, which raises.
    """
    D = problem.D
    top = float(D.max())
    eps = EPSILON_SCALE * top if top > 0 else 1.0
    K = np.exp(-D / eps)
    if K.min() <= 0.0:
        raise NumericalUnderflow(f"kernel underflow at epsilon = {eps!r}")
    u = np.ones(problem.m)
    v = np.ones(problem.n)
    for _ in range(ITERATIONS):
        Ktu = K.T @ u
        if Ktu.min() <= 0.0:
            raise NumericalUnderflow("column scaling underflow")
        v = problem.b / Ktu
        Kv = K @ v
        if Kv.min() <= 0.0:
            raise NumericalUnderflow("row scaling underflow")
        u = problem.a / Kv
    plan = u[:, None] * K * v[None, :]
    if not np.all(np.isfinite(plan)):
        raise NumericalUnderflow("entropic plan left the representable range")
    if plan.min() <= 0.0 and problem.a.min() > 0.0 and problem.b.min() > 0.0:
        raise NumericalUnderflow("entropic plan lost strict positivity")
    return plan
