"""Spans around the calls into ocot's layers, for the traced run only.

``install`` swaps timing wrappers into the module attributes through which
the layers call each other, and ``Tracer.restore`` puts the originals back.
Each wrapped call records a span: name, start, end, parent span, operation id,
and a few counts read from its result. A span's self time is its duration
minus the time its child spans cover.

The order-cone projector and ``epava_blocks`` run once per ADMM iteration,
hundreds of thousands of times per operation. They are not kept as spans of
their own: their call counts, summed durations, pooled tail cells and block
counts are added to the enclosing solve span, so a traced run's memory stays
bounded.
"""

from __future__ import annotations

import json
from time import perf_counter

import ocot.admm
import ocot.baseline
import ocot.cli
import ocot.projections
import ocot.search
from workloads import search_attrs, solve_attrs

SOLVE_SPANS = ("admm.solve", "search.solve", "baseline.root")

# name -> (unit, better); BENCHMARK.json lists the same metrics.
PER_LAYER = {
    "admm.iters": ("count", "lower"),
    "admm.capped": ("count", "lower"),
    "admm.s_per_iter": ("s", "lower"),
    "admm.self_s": ("s", "lower"),
    "projections.order_cone_calls": ("count", "lower"),
    "projections.order_cone_s": ("s", "lower"),
    "projections.epava_s": ("s", "lower"),
    "projections.sort_scatter_s": ("s", "lower"),
    "projections.pooled_mean": ("count", "lower"),
    "projections.blocks_mean": ("count", "lower"),
    "bounds.calls": ("count", "lower"),
    "bounds.s": ("s", "lower"),
    "baseline.entropic_s": ("s", "lower"),
    "baseline.root_s": ("s", "lower"),
    "baseline.root_iters": ("count", "lower"),
    "search.nodes": ("count", "lower"),
    "search.solves": ("count", "lower"),
    "search.pruned_bound": ("count", "higher"),
    "search.pruned_parent": ("count", "higher"),
    "search.solve_yield": ("ratio", "higher"),
    "search.self_s": ("s", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.ops_per_s": ("1/s", "higher"),
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "child_s", "attrs")

    def __init__(self, id: int, name: str, start: float, parent: int | None, op: int):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end, "parent": self.parent,
            "op": self.op, "self_s": self.self_s, **self.attrs,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = -1
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None):
        """Run ``fn`` inside a span named ``name``; ``attrs`` reads counts from its result."""
        parent = self.stack[-1] if self.stack else None
        parent_id = None if parent is None else parent.id
        span = Span(len(self.spans), name, perf_counter(), parent_id, self.op)
        self.spans.append(span)
        self.stack.append(span)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.child_s += span.duration
        if attrs is not None:
            span.attrs.update(attrs(result))
        return result

    def _count(self, key: str, value: float) -> None:
        attrs = self.stack[-1].attrs
        attrs[key] = attrs.get(key, 0) + value

    def _swap(self, module, attr: str, replacement) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _wrap(self, module, attr: str, name: str, attrs=None) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, attrs)

        self._swap(module, attr, wrapper)

    def install(self) -> None:
        tracer = self
        real_projector = ocot.admm.OrderConeProjector
        real_epava = ocot.projections.epava_blocks
        threshold_T = ocot.projections.threshold_T

        class TracedProjector(real_projector):
            def __call__(self, X, out=None):
                start = perf_counter()
                result = real_projector.__call__(self, X, out)
                elapsed = perf_counter() - start
                tracer._count("order_cone_calls", 1)
                tracer._count("order_cone_s", elapsed)
                tracer.stack[-1].child_s += elapsed
                return result

        def traced_epava(chain, ev):
            start = perf_counter()
            blocks = real_epava(chain, ev)
            tracer._count("epava_s", perf_counter() - start)
            tracer._count("blocks", blocks.B)
            tracer._count("pooled", threshold_T(ev, blocks.eta_tilde)[1])
            return blocks

        self._swap(ocot.admm, "OrderConeProjector", TracedProjector)
        self._swap(ocot.projections, "epava_blocks", traced_epava)
        self._wrap(ocot.search, "solve", "search.solve", solve_attrs)
        self._wrap(ocot.search, "lower_bound", "bounds")
        self._wrap(ocot.baseline, "solve", "baseline.root", solve_attrs)
        self._wrap(ocot.baseline, "solve_entropic", "baseline.entropic")
        self._wrap(ocot.cli, "branch_and_bound", "search", search_attrs)
        self._wrap(ocot.cli, "load_segment_table", "cli.parse")

    def restore(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer figures; counts and times are per operation unless named a mean or ratio."""
        total: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            total[key] = total.get(key, 0.0) + value

        for span in self.spans:
            a = span.attrs
            if span.name in SOLVE_SPANS:
                add("solve_s", span.duration)
                add("iters", a["iterations"])
                add("capped", a["termination"] == "max_iters")
                add("admm_self_s", span.self_s)
                for key in ("order_cone_calls", "order_cone_s", "epava_s", "pooled", "blocks"):
                    add(key, a.get(key, 0))
            if span.name == "baseline.root":
                add("root_s", span.duration)
                add("root_iters", a["iterations"])
            elif span.name == "bounds":
                add("bounds_calls", 1)
                add("bounds_s", span.duration)
            elif span.name == "baseline.entropic":
                add("entropic_s", span.duration)
            elif span.name == "search":
                add("search_self_s", span.self_s)
                for key in ("nodes", "solves", "pruned_bound", "pruned_parent", "kept_solves"):
                    add(key, a[key])
            elif span.name == "cli.parse":
                add("parse_s", span.duration)
            elif span.name == "cli":
                add("cli_self_s", span.self_s)

        def per_op(key: str) -> float:
            return total.get(key, 0.0) / ops

        def ratio(num: str, den: str) -> float:
            return total.get(num, 0.0) / total[den] if total.get(den) else 0.0

        return {
            "admm.iters": per_op("iters"),
            "admm.capped": per_op("capped"),
            "admm.s_per_iter": ratio("solve_s", "iters"),
            "admm.self_s": per_op("admm_self_s"),
            "projections.order_cone_calls": per_op("order_cone_calls"),
            "projections.order_cone_s": per_op("order_cone_s"),
            "projections.epava_s": per_op("epava_s"),
            "projections.sort_scatter_s": per_op("order_cone_s") - per_op("epava_s"),
            "projections.pooled_mean": ratio("pooled", "order_cone_calls"),
            "projections.blocks_mean": ratio("blocks", "order_cone_calls"),
            "bounds.calls": per_op("bounds_calls"),
            "bounds.s": per_op("bounds_s"),
            "baseline.entropic_s": per_op("entropic_s"),
            "baseline.root_s": per_op("root_s"),
            "baseline.root_iters": per_op("root_iters"),
            "search.nodes": per_op("nodes"),
            "search.solves": per_op("solves"),
            "search.pruned_bound": per_op("pruned_bound"),
            "search.pruned_parent": per_op("pruned_parent"),
            "search.solve_yield": ratio("kept_solves", "solves"),
            "search.self_s": per_op("search_self_s"),
            "cli.parse_s": per_op("parse_s"),
            "cli.self_s": per_op("cli_self_s"),
        }
