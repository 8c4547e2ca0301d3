"""Exact reference optima: the order-constrained transport LP handed whole to HiGHS.

It shares no machinery with the ADMM solver, so tests, acceptance runs and
``ocot oracle lp`` use it to check a solve at any size. It needs scipy (the
``oracle`` extra), which it imports only when called, so importing this
module stays cheap.
"""

from __future__ import annotations

import numpy as np

from .core import OrderedVariates, Problem
from .errors import Infeasible, OcotError


def lp_solve_oc(problem: Problem, oc: OrderedVariates) -> tuple[float, np.ndarray]:
    """Exact optimum and plan of the order-constrained transport LP, by HiGHS.

    The marginals are equalities; the order constraints are one inequality
    per tail cell (at most the chain's bottom cell) and one per chain link.
    Raises Infeasible when the constrained polytope is empty, which is a
    finding, not a failure.
    """
    m, n = problem.shape
    oc.check_bounds(m, n)
    try:
        from scipy import sparse
        from scipy.optimize import linprog
    except ImportError as exc:
        raise OcotError(
            f"the LP oracle needs scipy, which the 'oracle' extra installs "
            f"(pip install 'ocot[oracle]'): {exc}"
        ) from exc
    A_eq = sparse.vstack(
        [sparse.kron(sparse.eye(m), np.ones((1, n))), sparse.kron(np.ones((1, m)), sparse.eye(n))]
    )
    A_ub = b_ub = None
    if oc.k:
        # row r reads x[lo[r]] - x[hi[r]] <= 0
        chain = np.array([i * n + j for i, j in oc.pairs])
        tail = np.flatnonzero(oc.tail_mask(m, n))
        lo = np.concatenate([tail, chain[:-1]])
        hi = np.concatenate([np.full(tail.size, chain[0]), chain[1:]])
        rows = np.arange(lo.size)
        A_ub = sparse.csr_matrix(
            (np.repeat([1.0, -1.0], lo.size), (np.tile(rows, 2), np.concatenate([lo, hi]))),
            shape=(lo.size, m * n),
        )
        b_ub = np.zeros(lo.size)
    res = linprog(
        problem.D.ravel(),
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=np.concatenate([problem.a, problem.b]),
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2:
        raise Infeasible(res.message)
    if res.status != 0:
        raise OcotError(f"HiGHS status {res.status}: {res.message}")
    return float(res.fun), res.x.reshape(m, n)
