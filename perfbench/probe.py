"""Set-up probe: a fresh process imports ocot and makes one small warm-up call.

Usage: python3 probe.py WORKLOAD SRC_DIR WORK_DIR

Prints the seconds spent importing ocot plus the warm-up call, leaving out the
interpreter's own start and the building of the warm-up input.
"""

import sys
from time import perf_counter


def main(workload: str, src: str, work_dir: str) -> None:
    sys.path.insert(0, src)
    start = perf_counter()
    import ocot
    import ocot.cli

    imported = perf_counter() - start

    import numpy as np

    D = np.array([[0.1, 0.7, 0.4], [0.5, 0.2, 0.9], [0.8, 0.3, 0.6], [0.4, 0.6, 0.2]])
    problem = ocot.validate_problem(np.full(4, 0.25), np.full(3, 1 / 3), D)
    if workload == "solve-large":
        call, args = ocot.solve, (problem, ocot.OrderedVariates.from_ranked([(0, 0)]))
    elif workload == "esnli-search":
        call, args = ocot.branch_and_bound, (problem, ocot.SearchConfig(k1=4, k2=2, k3=2))
    else:
        paths = []
        for name, rows in (("source", D[:, :3]), ("target", D[:3, :3])):
            path = f"{work_dir}/probe_{name}.csv"
            with open(path, "w") as fh:
                fh.writelines(f"{name[0]}{i},1,{r * 255},{g * 255},{b * 255}\n" for i, (r, g, b) in enumerate(rows))
            paths.append(path)
        call, args = ocot.cli.main, (["color-transfer", *paths, "--output", f"{work_dir}/probe_out.json"],)

    start = perf_counter()
    call(*args)
    print(imported + perf_counter() - start)


if __name__ == "__main__":
    main(*sys.argv[1:4])
