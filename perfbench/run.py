"""Benchmark of ocot: solve, branch-and-bound search and colour transfer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ocot is imported from ``src/``. One
caller in one process and thread works through a fixed list of operations
made from the seed (a closed loop). The list is a whole number of rounds whose
nominal length comes closest to ``--seconds``; the run is never cut short.
After the loop, every output is checked against HiGHS and the method's
properties. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The result (and
with ``--trace 1`` the spans) is also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("solve-large", "esnli-search", "color-transfer")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_ocot() -> None:
    """Import ocot from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ocot", "__init__.py")):
        raise SystemExit(f"error: no ocot sources under {SRC}")
    sys.path.insert(0, SRC)
    import ocot

    if os.path.dirname(os.path.dirname(os.path.abspath(ocot.__file__))) != SRC:
        raise SystemExit(f"error: imported ocot from {ocot.__file__}, not from {SRC}")


def measure_setup(workload: str) -> float:
    """Median over fresh processes of importing ocot plus one small warm-up call."""
    times = []
    with tempfile.TemporaryDirectory(dir=OUT) as work_dir:
        for _ in range(SETUP_PROBES):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "probe.py"), workload, SRC, work_dir],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            )
            if done.returncode != 0:
                raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
            times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(workload, prepared, tracer):
    """Run every operation in order; returns wall times and outputs (None if it raised)."""
    times, outputs = [], []
    for op, arg in enumerate(prepared):
        start = perf_counter()
        try:
            if tracer is None:
                out = workload.run(arg)
            else:
                tracer.op = op
                out = tracer.call(workload.span, workload.run, (arg,), attrs=workload.span_attrs)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"operation {op} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            out = None
        times.append(perf_counter() - start)
        outputs.append(out)
    return times, outputs


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    import_ocot()
    setup_s = None if args.trace else measure_setup(args.workload)

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    items = workload.make_inputs(args.seed, workloads.rounds_for(workload, args.seconds))
    with tempfile.TemporaryDirectory(dir=OUT) as table_dir:
        if args.workload == "color-transfer":
            workloads.write_color_tables(items, table_dir)
        prepared = [workload.prepare(item) for item in items]

        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            times, outputs = timed_loop(workload, prepared, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        rss = peak_rss_mb()

    import checks  # brings in scipy, so only after the peak RSS is read

    failed = sum(out is None for out in outputs)
    errors, highs_s = checks.check_all(args.workload, items, [
        None if out is None else workload.summarize(item, out) for item, out in zip(items, outputs)
    ])
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)

    ok_times = [t for t, out in zip(times, outputs) if out is not None]
    ops_per_s = len(ok_times) / sum(ok_times) if ok_times else 0.0
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_s_p50": (statistics.median(ok_times) if ok_times else 0.0, "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        metrics = {name: (value, tracing.PER_LAYER[name][0]) for name, value in
                   tracer.layer_metrics(len(items)).items()}
        metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
    result = {
        "correct": not errors,
        "attempted": len(items),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**result, "op_s": times, "highs_s": highs_s}, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
