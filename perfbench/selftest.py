"""Show that each output check passes the program's real output and rejects a
perturbed copy of it.

Usage: python3 perfbench/selftest.py   (from the root of a source checkout)

Exits 0 when every check passed its unperturbed output and rejected every
perturbation, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile

from run import OUT, import_ocot

import_ocot()

import checks  # noqa: E402
import workloads  # noqa: E402

import ocot  # noqa: E402

SOLVER = ocot.SolverConfig()


def cases():
    """Yield (workload, perturbation name, check function, output) tuples.

    The first case of each workload carries the output as the program gave it.
    """
    # solve-large's checks, on one instance of the workload's own kind
    item = workloads.make_solve_inputs(seed=0, rounds=1)[1]
    plan, trace = workloads.run_solve(item.args())
    out = workloads.summarize_solve(item, (plan, trace))
    lp = checks.LPCache(item.a, item.b, item.D)
    tol = checks.OBJECTIVE_TOL["solve-large"]
    opt = lp.optimum(item.ranked)

    def check(o):
        return checks.check_solve(item, o, lp, tol)

    yield "solve-large", None, check, out
    bad = copy.deepcopy(out)
    bad["objective"] = opt * (1 + 1.01 * tol)
    yield "solve-large", "objective just outside tolerance", check, bad
    bad = copy.deepcopy(out)
    bad["X"][:, 0] += 2 * checks.MARGINAL_TOL / item.a.size
    yield "solve-large", "column sum shifted by twice the marginal tolerance", check, bad
    bad = copy.deepcopy(out)
    (ti, tj), (bi, bj) = item.ranked[0], item.ranked[-1]
    bad["Z"][bi, bj] = bad["Z"][ti, tj] * (1 + 1e-12) + 1e-15
    yield "solve-large", "chain bottom nudged above the top in Z", check, bad
    bad = copy.deepcopy(out)
    bad["termination"] = "max_iters"
    yield "solve-large", "termination at the iteration cap", check, bad

    # esnli-search's checks, on the smallest shape of the workload
    item = workloads.make_esnli_inputs(seed=0, rounds=1)[0]
    result = workloads.run_search(ocot.validate_problem(item.a, item.b, item.D))
    out = workloads.summarize_search(item, result)
    lp = checks.LPCache(item.a, item.b, item.D)
    tol = checks.OBJECTIVE_TOL["esnli-search"]

    def check(o):
        return checks.check_search(o, lp, tol, SOLVER.tol, SOLVER.max_iters)

    yield "esnli-search", None, check, out
    bad = copy.deepcopy(out)
    last = bad["candidates"][-1]
    last["objective"] = lp.optimum(last["ranked"]) * (1 + 1.01 * tol)
    yield "esnli-search", "last candidate's objective just outside tolerance", check, bad
    bad = copy.deepcopy(out)
    bad["candidates"][0], bad["candidates"][1] = bad["candidates"][1], bad["candidates"][0]
    yield "esnli-search", "first two candidates swapped", check, bad
    bad = copy.deepcopy(out)
    bad["candidates"][1]["iterations"] = SOLVER.max_iters
    yield "esnli-search", "a candidate stopped at the iteration cap", check, bad
    bad = copy.deepcopy(out)
    node = next(n for n in bad["bounds"] if lp.optimum(n["ranked"]) is not None)
    node["bound"] = lp.optimum(node["ranked"]) * (1 + 1e-6)
    yield "esnli-search", "a node bound just above the HiGHS optimum", check, bad

    # color-transfer's checks, on one pair of generated tables
    item = workloads.make_color_inputs(seed=0, rounds=1)[0]
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as table_dir:
        workloads.write_color_tables([item], table_dir)
        out = workloads.summarize_color(item, workloads.run_color(item))
    lp = checks.LPCache(*checks.color_problem(item))
    tol = checks.OBJECTIVE_TOL["color-transfer"]

    def check(o):
        return checks.check_color(item, o, lp, tol, SOLVER.tol)

    yield "color-transfer", None, check, out
    bad = copy.deepcopy(out)
    cand = bad["candidates"][-1]
    ranked = [(int(s[1:]), int(t[1:])) for s, t in cand["constraints"]]
    cand["objective"] = lp.optimum(ranked) * (1 - 1.01 * tol)
    yield "color-transfer", "last candidate's objective just outside tolerance", check, bad
    bad = copy.deepcopy(out)
    bad["candidates"][0]["mapping"][0]["g"] = float(item.tgt_rgb[:, 1].max()) + 10.0
    yield "color-transfer", "a mapped colour 10 units above the target box", check, bad


def main() -> int:
    ok = True
    for workload, perturbation, check, out in cases():
        errors = check(out)
        if perturbation is None:
            passed = not errors
            label = "passes the program's output"
        else:
            passed = bool(errors)
            label = f"rejects {perturbation}"
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {workload}: {label}")
        for line in errors[:1] if perturbation else errors:
            print(f"       {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
