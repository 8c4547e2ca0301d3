"""Saturation-guided branch-and-bound over order constraints.

Nodes of the search tree are constraint chains; a child appends one more cell
at the bottom of its parent's chain. The frontier is popped by lowest
neighbourhood saturation, nodes are solved only when the admissible bound
says they could still crack the current top plans, and the result is a
diverse top-k2 set with the full decision trace.
"""

from __future__ import annotations

import heapq
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import baseline
from .admm import SolverConfig, SolverTrace, solve, stop_above
from .bounds import lower_bound
from .core import OrderedVariates, Problem, TransportPlan
from .errors import InvalidConfig, ShapeMismatch

DEFAULT_TAUS = (0.5, 0.5)
COLOR_TAUS = (0.5, 1.0)


@dataclass(frozen=True)
class SearchConfig:
    tau1: float = DEFAULT_TAUS[0]
    tau2: float = DEFAULT_TAUS[1]
    k1: int = 20  # solver-call budget
    k2: int = 5  # retained top plans
    k3: int = 1  # maximum chain depth
    greedy: bool = False
    prune: bool = True

    def __post_init__(self):
        if not (0.0 <= self.tau1 <= 1.0 and 0.0 <= self.tau2 <= 1.0):
            raise InvalidConfig(f"thresholds must lie in [0, 1]; got {self.tau1}, {self.tau2}")
        for name in ("k1", "k2", "k3"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise InvalidConfig(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not self.k1 >= self.k2 >= 1:
            raise InvalidConfig(f"need k1 >= k2 >= 1; got k1={self.k1}, k2={self.k2}")
        if self.k3 < 1:
            raise InvalidConfig(f"k3 must be >= 1, got {self.k3}")


def saturation(problem: Problem, plan: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Self and neighbourhood saturation of each cell, both in [0, 1].

    A cell's self saturation is its mass over min(a_i, b_j); its neighbourhood
    statistic is the smaller of the best other cell in its row and in its
    column. Cells in a zero row/column count as fully saturated, and a
    max over an empty neighbourhood (single row or column) is 0.
    """
    plan = np.asarray(plan, dtype=float)
    if plan.shape != problem.shape:
        raise ShapeMismatch(f"plan has shape {plan.shape}, expected {problem.shape}")
    caps = np.minimum(problem.a[:, None], problem.b[None, :])
    phi = np.where(caps > 0.0, plan / np.where(caps > 0.0, caps, 1.0), 1.0)

    phi_row = _exclude_self_max(phi, axis=1)
    phi_col = _exclude_self_max(phi, axis=0)
    return phi, np.minimum(phi_row, phi_col)


def _exclude_self_max(phi: np.ndarray, axis: int) -> np.ndarray:
    """max over the other cells of each row (axis=1) or column (axis=0)."""
    work = phi if axis == 1 else phi.T
    m, n = work.shape
    if n == 1:
        out = np.zeros_like(work)
    else:
        top = np.sort(work, axis=1)[:, -2:]  # second-largest, largest
        largest = top[:, 1][:, None]
        second = top[:, 0][:, None]
        # at a tied maximum second == largest, so every maximal cell gets the maximum
        out = np.where(work >= largest, second, largest)
    return out if axis == 1 else out.T


def candidate_variates(
    problem: Problem, plan: np.ndarray, cfg: SearchConfig
) -> list[tuple[tuple[int, int], float]]:
    """Cells with self saturation <= tau1 and neighbourhood <= tau2, row-major.

    Greedy mode keeps only the cell with the smallest neighbourhood statistic
    (row-major on ties), collapsing the search to a single path.
    """
    phi, big_phi = saturation(problem, plan)
    keep = (phi <= cfg.tau1) & (big_phi <= cfg.tau2)
    out = [
        ((int(i), int(j)), float(big_phi[i, j]))
        for i, j in zip(*np.nonzero(keep))
    ]
    if cfg.greedy and out:
        out = [min(out, key=lambda item: (item[1], item[0]))]
    return out


@dataclass(slots=True)  # a result keeps every node; slots keep that small
class SearchNode:
    """One tree node with its decision record."""

    node_id: int
    variates: OrderedVariates
    phi: float
    parent_id: int | None
    status: str = "open"  # open | root | solved | pruned
    prune_reason: str | None = None  # bound | parent-cost
    bound: float | None = None
    objective: float | None = None  # ranked: the path maximum; None unless the solve ended on tol
    plan: TransportPlan | None = None
    termination: str | None = None  # the solve's stop reason; None when not solved
    lower_bound: float | None = None  # the solve's certified bound; None when not solved
    upper_bound: float | None = None  # the polished plan's cost; None unless the gap was certified
    expanded: bool = False
    # depth | no-improvement | not-solved | not-converged | dominated
    expand_skip_reason: str | None = None

    @property
    def depth(self) -> int:
        return self.variates.k


@dataclass
class CandidateSet:
    """Top plans ordered by objective, ties broken on the variate listing."""

    capacity: int
    entries: list[tuple[float, tuple[tuple[int, int], ...], int, TransportPlan]] = field(
        default_factory=list
    )

    def add(self, obj: float, variates: OrderedVariates, node_id: int, plan: TransportPlan):
        self.entries.append((obj, tuple(variates.ranked()), node_id, plan))
        self.entries.sort(key=lambda e: (e[0], e[1]))
        del self.entries[self.capacity :]

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    @property
    def worst_objective(self) -> float:
        return self.entries[-1][0]

    @property
    def worst_key(self) -> tuple[float, tuple[tuple[int, int], ...]]:
        """The (objective, listing) the k2-th entry sorts on."""
        return self.entries[-1][:2]

    def node_ids(self) -> list[int]:
        return [e[2] for e in self.entries]


@dataclass
class SearchResult:
    candidates: CandidateSet
    subtree: list[int]  # ids on root-paths of the final top plans
    trace: list[SearchNode]


def branch_and_bound(
    problem: Problem,
    cfg: SearchConfig | None = None,
    solver_cfg: SolverConfig | None = None,
) -> SearchResult:
    """Best-first constraint search returning the top-k2 plans and the trace.

    The root solve is exact and unconstrained; its dense entropic twin seeds
    the frontier. Each loop solve starts from its parent's final (Z, M): a
    child's chain is its parent's plus one cell, so the parent's iterate is
    close. A popped node is solved only while fewer than k2 candidates exist
    or neither its bound nor its parent's objective (both admissible) rules
    it out against the current k2-th best, the bound only past ``stop_above``'s
    margin, since tol-level noise can leave an objective below an exact bound;
    solved nodes expand unless they sit at the depth cap or failed to improve.
    Only solves that end on ``tol`` carry an objective and are ranked, the
    root's included; a loop solve that stops short is not expanded either,
    while the root always is, from its entropic twin. A node's objective is
    the larger of its own and its parent's, since an LP optimum never falls
    along a path; ranking sorts on (objective, listing), and parent-cost
    pruning skips a child only when (parent objective, child listing) sorts
    after the k2-th entry, so pruning and ranking agree where tol-level
    noise splits LP ties. Once k2 candidates exist and pruning is on, a solve
    gets the k2-th best objective as its cutoff and ends ``dominated`` when
    its certified lower bound proves it above that: such a node counts
    against k1 but is neither ranked nor expanded, since no child's optimum
    is below its own. The solver-call budget k1 counts loop solves only.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    solver_cfg = solver_cfg if solver_cfg is not None else SolverConfig()
    m, n = problem.shape
    if cfg.k3 > min(m, n):
        raise InvalidConfig(f"k3 = {cfg.k3} exceeds min(m, n) = {min(m, n)}")

    trace: list[SearchNode] = []
    candidates = CandidateSet(capacity=cfg.k2)

    def settle(node: SearchNode, plan: TransportPlan, solver_trace: SolverTrace) -> bool:
        """Store a solve on its node; rank it at the path maximum if it ended
        on tol, and say whether it did."""
        node.plan = plan
        node.termination = solver_trace.termination
        node.lower_bound = solver_trace.lower_bound
        node.upper_bound = solver_trace.upper_bound
        if node.termination != "tol":
            return False
        parent_objective = None if node.parent_id is None else trace[node.parent_id].objective
        node.objective = (
            plan.objective if parent_objective is None else max(plan.objective, parent_objective)
        )
        candidates.add(node.objective, node.variates, node.node_id, plan)
        return True

    heap: list[tuple[float, tuple[tuple[int, int], ...], int]] = []

    def push_children(parent: SearchNode, stats_plan: np.ndarray):
        for (i, j), phi_val in candidate_variates(problem, stats_plan, cfg):
            if i in parent.variates.rows or j in parent.variates.cols:
                continue
            child = SearchNode(
                node_id=len(trace),
                variates=parent.variates.extended((i, j)),
                phi=phi_val,
                parent_id=parent.node_id,
            )
            trace.append(child)
            heapq.heappush(heap, (child.phi, tuple(child.variates.ranked()), child.node_id))

    root = SearchNode(
        node_id=0,
        variates=OrderedVariates(),
        phi=0.0,
        parent_id=None,
        status="root",
        expanded=True,
    )
    trace.append(root)
    root_plan, root_trace = baseline.solve(problem, root.variates, solver_cfg)
    settle(root, root_plan, root_trace)
    # the final scaled dual of each expanded node, the other half of its
    # children's start; kept for expanded nodes only
    duals = {0: root_trace.scaled_dual}
    push_children(root, baseline.solve_entropic(problem))

    count = 0
    while count < cfg.k1 and heap:
        _, listing, node_id = heapq.heappop(heap)
        node = trace[node_id]
        parent = trace[node.parent_id]

        cutoff = None  # the k2-th best objective, once pruning applies
        if cfg.prune and candidates.full:
            cutoff = candidates.worst_objective
            if parent.objective is not None and (parent.objective, listing) > candidates.worst_key:
                node.status = "pruned"
                node.prune_reason = "parent-cost"
                node.expand_skip_reason = "not-solved"
                continue
            node.bound = lower_bound(problem, node.variates)
            if node.bound > stop_above(cutoff):
                node.status = "pruned"
                node.prune_reason = "bound"
                node.expand_skip_reason = "not-solved"
                continue

        plan, solver_trace = solve(
            problem, node.variates, solver_cfg, cutoff=cutoff,
            start=(parent.plan.Z, duals[parent.node_id]),
        )
        count += 1
        node.status = "solved"
        if not settle(node, plan, solver_trace):
            node.expand_skip_reason = (
                "dominated" if node.termination == "dominated" else "not-converged"
            )
            continue

        if node.depth >= cfg.k3:
            node.expand_skip_reason = "depth"
            continue
        if candidates.full and node.objective >= candidates.worst_objective:
            node.expand_skip_reason = "no-improvement"
            continue
        node.expanded = True
        duals[node.node_id] = solver_trace.scaled_dual
        push_children(node, plan.X)

    subtree_ids: set[int] = set()
    for nid in candidates.node_ids():
        cur: int | None = nid
        while cur is not None:
            subtree_ids.add(cur)
            cur = trace[cur].parent_id
    return SearchResult(
        candidates=candidates,
        subtree=sorted(subtree_ids),
        trace=trace,
    )
