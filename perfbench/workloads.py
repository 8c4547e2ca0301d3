"""The three workloads: how each makes its inputs, runs one operation and
reduces the output to plain data for the checks.

Every input comes from numpy's PCG64 generator seeded with
``(seed, workload tag, round, index)``, so the same ``--seed`` gives the same
inputs. A round is a fixed list of operation kinds (shapes, constraint
counts); each round draws fresh values for them, and a run is a whole number
of rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import ocot
import ocot.cli

# solve-large: square uniform-marginal instances, uniform-random costs.
SOLVE_SIZE = 64
SOLVE_KS = (1, 4)

# esnli-search: premise x hypothesis word grids of the mean e-SNLI sentence
# lengths (about 14 and 8 tokens). One shape keeps the time of an operation
# within a narrow band, so the median of a run's operations holds steady.
ESNLI_SHAPE = (14, 8)
ESNLI_DIM = 16
ESNLI_CLUSTERS = 4
ESNLI_NOISE = 0.5
ESNLI_SEARCH = dict(k1=20, k2=5, k3=2)

# color-transfer: segment tables (id, weight, R, G, B).
COLOR_SHAPE = (12, 6)
COLOR_OPS_PER_ROUND = 4
COLOR_DIRICHLET = 5.0

TAGS = {"solve-large": 1, "esnli-search": 2, "color-transfer": 3}


def _rng(seed: int, workload: str, round_index: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, TAGS[workload], round_index, index])


def _uniform(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.full(m, 1.0 / m), np.full(n, 1.0 / n)


def _cheap_cells(rng: np.random.Generator, D: np.ndarray, k: int) -> list[tuple[int, int]]:
    """The cheapest cell of each of k random rows, in distinct columns, most-important-first.

    Pinning cells a user would expect to carry mass keeps iteration counts
    from swinging with where a random pin lands (time per solve varies about
    0.2 around its mean, against about 0.4 for uniformly random cells).
    """
    rows = rng.choice(D.shape[0], size=k, replace=False).tolist()
    cols: list[int] = []
    for i in rows:
        cols.append(next(int(j) for j in np.argsort(D[i], kind="stable") if j not in cols))
    return list(zip(rows, cols))


@dataclass
class SolveInput:
    a: np.ndarray
    b: np.ndarray
    D: np.ndarray
    ranked: list[tuple[int, int]]

    def args(self):
        problem = ocot.validate_problem(self.a, self.b, self.D)
        return problem, ocot.OrderedVariates.from_ranked(self.ranked)


@dataclass
class SearchInput:
    a: np.ndarray
    b: np.ndarray
    D: np.ndarray


@dataclass
class ColorInput:
    src_weights: np.ndarray
    src_rgb: np.ndarray
    tgt_weights: np.ndarray
    tgt_rgb: np.ndarray
    src_path: str = ""
    tgt_path: str = ""


def make_solve_inputs(seed: int, rounds: int) -> list[SolveInput]:
    out = []
    m = n = SOLVE_SIZE
    for r in range(rounds):
        for idx, k in enumerate(SOLVE_KS):
            rng = _rng(seed, "solve-large", r, idx)
            D = rng.random((m, n))
            out.append(SolveInput(*_uniform(m, n), D, _cheap_cells(rng, D, k)))
    return out


def _embeddings(rng: np.random.Generator, centers: np.ndarray, count: int) -> np.ndarray:
    labels = rng.integers(0, centers.shape[0], size=count)
    emb = centers[labels] + ESNLI_NOISE * rng.standard_normal((count, centers.shape[1]))
    return emb / np.linalg.norm(emb, axis=1, keepdims=True)


def make_esnli_inputs(seed: int, rounds: int) -> list[SearchInput]:
    """Word-alignment costs (1 - cos) / 2 between clustered unit embeddings."""
    out = []
    m, n = ESNLI_SHAPE
    for r in range(rounds):
        rng = _rng(seed, "esnli-search", r, 0)
        centers = rng.standard_normal((ESNLI_CLUSTERS, ESNLI_DIM))
        premise = _embeddings(rng, centers, m)
        hypothesis = _embeddings(rng, centers, n)
        D = np.clip((1.0 - premise @ hypothesis.T) / 2.0, 0.0, 1.0)
        out.append(SearchInput(*_uniform(m, n), D))
    return out


def dirichlet_profile(size: int) -> np.ndarray:
    """Expected order statistics of Dirichlet(COLOR_DIRICHLET) weights, ascending.

    Drawn once from a fixed generator, independent of the seed, so every table
    has the same spread of weights and only their order varies.
    """
    rng = np.random.default_rng([0, TAGS["color-transfer"], size])
    draws = rng.dirichlet(np.full(size, COLOR_DIRICHLET), size=4096)
    return np.sort(draws, axis=1).mean(axis=0)


def make_color_inputs(seed: int, rounds: int) -> list[ColorInput]:
    out = []
    m, n = COLOR_SHAPE
    src_profile, tgt_profile = dirichlet_profile(m), dirichlet_profile(n)
    for r in range(rounds):
        for idx in range(COLOR_OPS_PER_ROUND):
            rng = _rng(seed, "color-transfer", r, idx)
            out.append(
                ColorInput(
                    src_weights=rng.permutation(src_profile),
                    src_rgb=rng.uniform(0.0, 255.0, size=(m, 3)),
                    tgt_weights=rng.permutation(tgt_profile),
                    tgt_rgb=rng.uniform(0.0, 255.0, size=(n, 3)),
                )
            )
    return out


def write_segment_table(path: str, prefix: str, weights: np.ndarray, rgb: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("segment_id,weight,R,G,B\n")
        for i, (w, (r, g, b)) in enumerate(zip(weights.tolist(), rgb.tolist())):
            fh.write(f"{prefix}{i},{w!r},{r!r},{g!r},{b!r}\n")


def write_color_tables(inputs: list[ColorInput], directory: str) -> None:
    for idx, item in enumerate(inputs):
        item.src_path = os.path.join(directory, f"source_{idx}.csv")
        item.tgt_path = os.path.join(directory, f"target_{idx}.csv")
        write_segment_table(item.src_path, "s", item.src_weights, item.src_rgb)
        write_segment_table(item.tgt_path, "t", item.tgt_weights, item.tgt_rgb)


# ----------------------------------------------------------------------------
# operations: the timed calls. Each takes what ``prepare`` built and returns
# the program's output untouched; ``summarize`` runs after the timed loop.


def run_solve(prepared):
    problem, oc = prepared
    return ocot.solve(problem, oc)


def run_search(problem):
    return ocot.branch_and_bound(problem, ocot.SearchConfig(**ESNLI_SEARCH), ocot.SolverConfig())


def run_color(item: ColorInput) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ocot.cli.main(["color-transfer", item.src_path, item.tgt_path])
    if code != 0:
        raise RuntimeError(f"ocot color-transfer exited with code {code}")
    return buf.getvalue()


def summarize_solve(item: SolveInput, output) -> dict:
    plan, trace = output
    return {
        "X": np.array(plan.X),
        "Z": np.array(plan.Z),
        "objective": plan.objective,
        "termination": trace.termination,
    }


def summarize_search(item: SearchInput, result) -> dict:
    candidates = [
        {
            "objective": obj,
            "ranked": [tuple(p) for p in ranked],
            "primal_residual": plan.primal_residual,
            "iterations": plan.iterations,
        }
        for obj, ranked, _, plan in result.candidates.entries
    ]
    bounds = [
        {"ranked": node.variates.ranked(), "bound": node.bound}
        for node in result.trace
        if node.bound is not None
    ]
    return {"candidates": candidates, "bounds": bounds}


def summarize_color(item: ColorInput, output: str) -> dict:
    return {"candidates": json.loads(output)["candidates"]}


def solve_attrs(output) -> dict:
    plan, trace = output
    return {"iterations": plan.iterations, "termination": trace.termination}


def search_attrs(result) -> dict:
    reasons = [node.prune_reason for node in result.trace]
    solved = {node.node_id for node in result.trace if node.status == "solved"}
    return {
        "nodes": len(result.trace),
        "solves": len(solved),
        "pruned_bound": reasons.count("bound"),
        "pruned_parent": reasons.count("parent-cost"),
        "kept_solves": sum(nid in solved for nid in result.candidates.node_ids()),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable  # (seed, rounds) -> inputs
    prepare: Callable  # input -> argument of run, built before the timed loop
    run: Callable  # the timed operation
    summarize: Callable  # (input, output) -> plain data for the checks
    round_s: float  # nominal wall time of one round at the commit that defined it
    span: str  # name of the traced run's span around each operation
    span_attrs: Callable | None = None  # counts the span reads from the output


WORKLOADS = {
    "solve-large": Workload(
        "solve-large", make_solve_inputs, SolveInput.args, run_solve, summarize_solve, 2.0,
        "admm.solve", solve_attrs,
    ),
    "esnli-search": Workload(
        "esnli-search",
        make_esnli_inputs,
        lambda item: ocot.validate_problem(item.a, item.b, item.D),
        run_search,
        summarize_search,
        0.9,
        "search",
        search_attrs,
    ),
    "color-transfer": Workload(
        "color-transfer", make_color_inputs, lambda item: item, run_color, summarize_color, 5.4,
        "cli",
    ),
}


def rounds_for(workload: Workload, seconds: float) -> int:
    """Whole rounds whose nominal time comes closest to ``seconds`` (at least one)."""
    return max(1, round(seconds / workload.round_s))
