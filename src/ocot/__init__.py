"""Optimal transport with order constraints.

An ADMM splitting solver built from two exact projections, admissible packing
lower bounds, and a saturation-guided branch-and-bound that returns the top-k
explainable transport plans by objective, which need not be distinct plans
(ROADMAP item 6).
"""

from .admm import SolverConfig, SolverTrace, solve
from .baseline import solve_entropic
from .bounds import lower_bound, lower_bound_detail, packing
from .core import (
    MembershipReport,
    OrderedVariates,
    Problem,
    TransportPlan,
    check_membership,
    feasible_point,
    objective,
    validate_problem,
)
from .projections import project_c1, project_c2_epava
from .search import SearchConfig, SearchResult, branch_and_bound, candidate_variates, saturation

__version__ = "0.1.0"

__all__ = [
    "MembershipReport",
    "OrderedVariates",
    "Problem",
    "SearchConfig",
    "SearchResult",
    "SolverConfig",
    "SolverTrace",
    "TransportPlan",
    "branch_and_bound",
    "candidate_variates",
    "check_membership",
    "feasible_point",
    "lower_bound",
    "lower_bound_detail",
    "objective",
    "packing",
    "project_c1",
    "project_c2_epava",
    "saturation",
    "solve",
    "solve_entropic",
    "validate_problem",
]
