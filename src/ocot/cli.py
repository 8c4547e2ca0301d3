"""Command-line front end: file formats, subcommands, color transfer.

File conventions: JSON problem documents carry 0-based indices and list
constraint pairs most-important-first; segment tables are comma-separated
(segment_id, weight, R, G, B). Exit codes: 0 success, 2 parse/validation,
3 solver configuration, 4 infeasible construction.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings

import numpy as np

from . import bounds, oracle
from .admm import DEFAULT_MAX_ITERS, DEFAULT_RHO, DEFAULT_TOL, SolverConfig, solve
from .core import OrderedVariates, Problem, validate_problem
from .errors import (
    ConstructionError,
    EmptyTable,
    InvalidConfig,
    OcotError,
    ParseError,
    ValidationError,
    WeightSumZero,
)
from .search import COLOR_TAUS, DEFAULT_TAUS, SearchConfig, SearchResult, branch_and_bound

RGB_SCALE = 195075.0  # 3 * 255^2, the largest squared RGB distance


# ----------------------------------------------------------------------------
# documents


def _load_object(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return doc


def _load_constraints(doc: dict, path: str) -> OrderedVariates:
    """The document's ranked ``constraints``: a list of [row, col] integer pairs."""
    pairs = doc.get("constraints", [])
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p) for p in pairs
    ):
        raise ParseError(f"{path}: constraints must be a list of [row, col] integer pairs")
    return OrderedVariates.from_ranked(pairs)


def load_problem_file(path: str) -> tuple[Problem, OrderedVariates, dict]:
    doc = _load_object(path)
    for key in ("a", "b", "D"):
        if key not in doc:
            raise ParseError(f"{path}: missing required key {key!r}")
    problem = validate_problem(doc["a"], doc["b"], doc["D"], renormalize=doc.get("renormalize", False))
    oc = _load_constraints(doc, path)
    oc.check_bounds(*problem.shape)
    return problem, oc, doc


def _dump(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _matrix(arr: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(arr)]


def load_segment_table(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse a (segment_id, weight, R, G, B) table; weights are normalized."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and any(cell.strip() for cell in r)]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if rows and not _is_float(rows[0][1] if len(rows[0]) > 1 else ""):
        rows = rows[1:]  # header line
    if not rows:
        raise EmptyTable(f"{path}: no segment rows")
    ids: list[str] = []
    weights: list[float] = []
    colors: list[list[float]] = []
    for r in rows:
        if len(r) != 5:
            raise ParseError(f"{path}: expected 5 columns, got {len(r)}: {r}")
        ids.append(r[0].strip())
        try:
            w = float(r[1])
            rgb = [float(r[2]), float(r[3]), float(r[4])]
        except ValueError as exc:
            raise ParseError(f"{path}: non-numeric entry in row {r}") from exc
        if w < 0:
            raise ParseError(f"{path}: negative weight {w!r}")
        if any(not (0.0 <= c <= 255.0) for c in rgb):
            raise ParseError(f"{path}: color outside [0, 255] in row {r}")
        weights.append(w)
        colors.append(rgb)
    total = sum(weights)
    if total <= 0:
        raise WeightSumZero(f"{path}: segment weights sum to zero")
    return ids, np.array(weights) / total, np.array(colors)


def _is_real(value) -> bool:
    """A JSON number: int or float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


# ----------------------------------------------------------------------------
# subcommands


def _solver_cfg(args) -> SolverConfig:
    return SolverConfig(rho=args.rho, max_iters=args.max_iters, tol=args.tol)


def _copy_labels(src_doc: dict, dst_doc: dict) -> None:
    for key in ("labels_rows", "labels_cols"):
        if key in src_doc:
            dst_doc[key] = src_doc[key]


def cmd_solve(args) -> int:
    problem, oc, raw = load_problem_file(args.input)
    plan, trace = solve(problem, oc, _solver_cfg(args))
    doc = {
        "objective": plan.objective,
        "plan": _matrix(plan.X),
        "iterations": plan.iterations,
        "primal_residual": plan.primal_residual,
        "dual_residual": plan.dual_residual,
        "termination": trace.termination,
        "lower_bound": trace.lower_bound,
        "constraints": [list(p) for p in oc.ranked()],
    }
    if args.emit_z:
        doc["plan_z"] = _matrix(plan.Z)
    _copy_labels(raw, doc)
    _dump(doc, args.output)
    return 0


def cmd_bound(args) -> int:
    problem, oc, _ = load_problem_file(args.input)
    report = bounds.lower_bound_detail(problem, oc)
    doc = {"bound": report.value}
    for name, branch in (("row_branch", report.row_branch), ("col_branch", report.col_branch)):
        doc[name] = (
            None
            if branch is None
            else {"min": branch.min_value, "argmin_x": branch.argmin_x}
        )
    _dump(doc, args.output)
    return 0


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        tau1=args.tau1,
        tau2=args.tau2,
        k1=args.k1,
        k2=args.k2,
        k3=args.k3,
        greedy=args.greedy,
        prune=not args.no_prune,
    )


def search_dot(result: SearchResult) -> str:
    """Graphviz rendering of the searched tree: ranks on the kept plans, the
    stop reason and certified bound on solves that did not end on tol, dashed
    nodes for prunes, red for the learnt subtree."""
    ranks = {nid: r + 1 for r, nid in enumerate(result.candidates.node_ids())}
    subtree = set(result.subtree)
    out = ["digraph search {", "  rankdir=TB;"]
    for node in result.trace:
        name = "root" if node.depth == 0 else str(list(node.variates.ranked()))
        label = name
        attrs = []
        if node.status in ("root", "solved"):
            if node.objective is None:
                label += f"\\n{node.termination}: lb={node.lower_bound:.6g}"
            else:
                label += f"\\nobj={node.objective:.6g}"
            if node.node_id in ranks:
                label += f"\\nrank={ranks[node.node_id]}"
            attrs.append("shape=box")
        elif node.status == "pruned":
            label += f"\\npruned: {node.prune_reason}"
            attrs.append("style=dashed")
        else:
            label += "\\nunvisited"
            attrs.append("color=gray")
        if node.node_id in subtree:
            attrs.append("color=red")
            attrs.append("penwidth=2")
        attrs.insert(0, f'label="{label}"')
        out.append(f"  n{node.node_id} [{', '.join(attrs)}];")
    for node in result.trace:
        if node.parent_id is not None:
            out.append(f"  n{node.parent_id} -> n{node.node_id};")
    out.append("}")
    return "\n".join(out) + "\n"


def _search_doc(result: SearchResult, include_plans: bool = True) -> dict:
    candidates = []
    for rank, (obj, ranked_pairs, nid, plan) in enumerate(result.candidates.entries, 1):
        entry = {
            "rank": rank,
            "objective": obj,
            "constraints": [list(p) for p in ranked_pairs],
            "node_id": nid,
        }
        if include_plans:
            entry["plan"] = _matrix(plan.X)
        candidates.append(entry)
    tree = [
        {
            "id": node.node_id,
            "parent": node.parent_id,
            "constraints": [list(p) for p in node.variates.ranked()],
            "phi": node.phi,
            "status": node.status,
            "prune_reason": node.prune_reason,
            "bound": node.bound,
            "objective": node.objective,
            "termination": node.termination,
            "lower_bound": node.lower_bound,
            "iterations": None if node.plan is None else node.plan.iterations,
            "expanded": node.expanded,
            "expand_skip_reason": node.expand_skip_reason,
        }
        for node in result.trace
    ]
    return {"candidates": candidates, "tree": tree, "subtree": result.subtree}


def cmd_search(args) -> int:
    problem, oc, raw = load_problem_file(args.input)
    if oc.k:
        warnings.warn("search ignores the constraints listed in the input document")
    result = branch_and_bound(problem, _search_config(args), _solver_cfg(args))
    doc = _search_doc(result)
    _copy_labels(raw, doc)
    dot = search_dot(result)
    doc["dot"] = dot
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot)
    _dump(doc, args.output)
    return 0


def cmd_color_transfer(args) -> int:
    src_ids, a, src_colors = load_segment_table(args.source)
    tgt_ids, b, tgt_colors = load_segment_table(args.target)
    diff = src_colors[:, None, :] - tgt_colors[None, :, :]
    D = np.sum(diff * diff, axis=2) / RGB_SCALE
    problem = validate_problem(a, b, D)

    def mapping(plan: np.ndarray) -> list[dict]:
        rows = []
        for i, sid in enumerate(src_ids):
            if a[i] > 0:
                color = plan[i] @ tgt_colors / a[i]
            else:
                color = src_colors[i]
            rows.append(
                {
                    "segment_id": sid,
                    "r": float(color[0]),
                    "g": float(color[1]),
                    "b": float(color[2]),
                }
            )
        return rows

    candidates = []
    if args.constraints:
        pairs = _load_color_constraints(args.constraints, src_ids, tgt_ids)
        oc = OrderedVariates.from_ranked(pairs)
        plan, _ = solve(problem, oc, _solver_cfg(args))
        candidates.append(
            {
                "rank": 1,
                "objective": plan.objective,
                "constraints": [[src_ids[i], tgt_ids[j]] for i, j in oc.ranked()],
                "mapping": mapping(plan.X),
            }
        )
    else:
        result = branch_and_bound(problem, _search_config(args), _solver_cfg(args))
        for rank, (obj, ranked_pairs, nid, plan) in enumerate(result.candidates.entries, 1):
            candidates.append(
                {
                    "rank": rank,
                    "objective": obj,
                    "constraints": [[src_ids[i], tgt_ids[j]] for i, j in ranked_pairs],
                    "mapping": mapping(plan.X),
                }
            )
    _dump({"candidates": candidates}, args.output)
    return 0


def _load_color_constraints(path: str, src_ids: list[str], tgt_ids: list[str]) -> list[list[int]]:
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and any(cell.strip() for cell in r)]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    pairs = []
    for r in rows:
        if len(r) != 2:
            raise ParseError(f"{path}: expected 'source_id,target_id' rows, got {r}")
        sid, tid = r[0].strip(), r[1].strip()
        if sid == "source_segment" and tid == "target_segment":
            continue  # header
        if sid not in src_ids:
            raise ParseError(f"{path}: unknown source segment {sid!r}")
        if tid not in tgt_ids:
            raise ParseError(f"{path}: unknown target segment {tid!r}")
        pairs.append([src_ids.index(sid), tgt_ids.index(tid)])
    return pairs


def cmd_oracle_lp(args) -> int:
    problem, oc, _ = load_problem_file(args.input)
    optimum, plan = oracle.lp_solve_oc(problem, oc)
    _dump({"optimum": optimum, "plan": _matrix(plan)}, args.output)
    return 0


def cmd_oracle_project(args) -> int:
    doc = _load_object(args.input)
    if "X" not in doc:
        raise ParseError(f"{args.input}: missing required key 'X'")
    X = doc["X"]
    if not (
        isinstance(X, list)
        and X
        and all(isinstance(row, list) and row and all(_is_real(v) for v in row) for row in X)
        and len({len(row) for row in X}) == 1
    ):
        raise ParseError(f"{args.input}: X must be a non-empty list of equal-length number rows")
    X = np.array(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ParseError(f"{args.input}: X has a non-finite entry")
    tol = doc.get("tol", 1e-10)
    if not (_is_real(tol) and 0 < tol < float("inf")):
        raise ParseError(f"{args.input}: tol must be a positive number, got {tol!r}")
    oc = _load_constraints(doc, args.input)
    proj = oracle.pgd_project(X, oc, tol=tol)
    _dump({"projection": _matrix(proj)}, args.output)
    return 0


# ----------------------------------------------------------------------------
# parser and dispatch


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rho", type=float, default=DEFAULT_RHO,
                   help=f"ADMM penalty (default {DEFAULT_RHO:g})")
    p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS,
                   help=f"iteration cap (default {DEFAULT_MAX_ITERS})")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=f"residual threshold (default {DEFAULT_TOL:g})")


def _add_search_flags(p: argparse.ArgumentParser, taus: tuple[float, float]) -> None:
    cfg = SearchConfig()
    p.add_argument("--tau1", type=float, default=taus[0],
                   help=f"self-saturation threshold (default {taus[0]:g})")
    p.add_argument("--tau2", type=float, default=taus[1],
                   help=f"neighbourhood-saturation threshold (default {taus[1]:g})")
    p.add_argument("--k1", type=int, default=cfg.k1,
                   help=f"solver-call budget (default {cfg.k1})")
    p.add_argument("--k2", type=int, default=cfg.k2,
                   help=f"retained top plans (default {cfg.k2})")
    p.add_argument("--k3", type=int, default=cfg.k3,
                   help=f"maximum constraint depth (default {cfg.k3})")
    p.add_argument("--greedy", action="store_true", help="single lowest-saturation path")
    p.add_argument("--no-prune", action="store_true", help="disable bound/parent-cost pruning")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ocot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one order-constrained transport instance")
    p.add_argument("input", help="problem document (JSON)")
    _add_solver_flags(p)
    p.add_argument("--output", help="write the result document here instead of stdout")
    p.add_argument("--emit-z", action="store_true", help="include the order-feasible iterate")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("search", help="branch-and-bound search for top-k2 plans")
    p.add_argument("input", help="problem document (JSON); constraints are ignored")
    _add_search_flags(p, DEFAULT_TAUS)
    _add_solver_flags(p)
    p.add_argument("--output", help="write the result document here instead of stdout")
    p.add_argument("--dot", help="also write the DOT tree to this path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bound", help="print the admissible lower bound for an instance")
    p.add_argument("input", help="problem document (JSON)")
    p.add_argument("--output", help="write the result document here instead of stdout")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("color-transfer", help="segment-table color transfer")
    p.add_argument("source", help="source segment table (CSV)")
    p.add_argument("target", help="target segment table (CSV)")
    p.add_argument("--constraints", help="CSV of source_id,target_id pairs, most important first")
    _add_search_flags(p, COLOR_TAUS)
    _add_solver_flags(p)
    p.add_argument("--output", help="write the result document here instead of stdout")
    p.set_defaults(func=cmd_color_transfer)

    p = sub.add_parser("oracle", help="slow, independent reference solvers")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("lp", help="exact LP optimum and plan by HiGHS (needs scipy)")
    q.add_argument("input", help="problem document (JSON)")
    q.add_argument("--output")
    q.set_defaults(func=cmd_oracle_lp)
    q = osub.add_parser("project", help="order-cone projection by cyclic corrections")
    q.add_argument("input", help="JSON document with keys X and constraints")
    q.add_argument("--output")
    q.set_defaults(func=cmd_oracle_project)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfig as exc:
        print(f"error: InvalidConfig: {exc}", file=sys.stderr)
        return 3
    except ConstructionError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OcotError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
