#!/usr/bin/env python3
"""Microbenchmark of `seltrack.assignment.solve`.

Times `solve` on square cost matrices of several sizes and four kinds:

- random: uniform costs in [0, 1), every cell feasible;
- tied: costs drawn from {0, 0.25, 0.5, 0.75}, so many optima tie;
- gated: block-sparse, as gated tracking matrices are; rows and columns
  fall into blocks of about five, cells across blocks are infeasible, and
  a quarter of the in-block cells are above the gate;
- free: conflict-free, as the benchmark's tracker matrices are: a random
  partial permutation covering about four fifths of the rows is within
  the gate, and every other cell is above it.

The random, tied and gated kinds hold rows with several feasible cells,
so they take the Hungarian solve; the free kind is returned without one.

For each it prints the median milliseconds per solve and the number of
`linear_sum_assignment` calls per solve. Matrices come from a seeded
generator, so two checkouts time the same inputs:

    python scripts/bench_assignment.py --sizes 10,30,60,100

`--against PATH` loads the `seltrack/assignment.py` of the checkout at
PATH into the same process under another module name and times both on
each matrix, alternating which goes first, so that host drift hits both
sides alike; the two must return the same matched (row, column) pairs.
Before the table, the first solve of a tied 12x12 matrix is timed in a
fresh interpreter for each side, apart from the steady state: it includes
importing `seltrack.assignment` and, where that is deferred, scipy. Each side then
solves that matrix once in this process before the table, so that the
table times steady-state solves only.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # this checkout's package
from seltrack import assignment  # noqa: E402

GATE = 1.0
BLOCK = 5
FIRST_SIDE = 12


def random_costs(rng, n):
    return rng.random((n, n))


def tied_costs(rng, n):
    return rng.integers(0, 4, size=(n, n)) / 4.0


def gated_costs(rng, n):
    block = rng.permutation(n) // BLOCK
    col_block = rng.permutation(n) // BLOCK
    costs = rng.random((n, n))
    costs[rng.random((n, n)) < 0.25] = 2 * GATE
    costs[block[:, None] != col_block[None, :]] = assignment.INFEASIBLE
    return costs


def free_costs(rng, n):
    costs = GATE + rng.random((n, n))
    k = int(round(0.8 * n))
    costs[rng.permutation(n)[:k], rng.permutation(n)[:k]] = GATE * rng.random(k)
    return costs


KINDS = {"random": random_costs, "tied": tied_costs, "gated": gated_costs, "free": free_costs}

# run in a fresh interpreter: import, first solve and second solve, in seconds
FIRST_SOLVE = """
import json, sys, time
costs = json.loads(sys.argv[1])
start = time.perf_counter()
from seltrack import assignment
imported = time.perf_counter()
assignment.solve(costs, {gate})
first = time.perf_counter()
assignment.solve(costs, {gate})
print(json.dumps([imported - start, first - imported, time.perf_counter() - first]))
"""


def first_solve(src: Path, costs) -> list[float]:
    """Seconds to import `seltrack.assignment` from `src`, then to solve `costs` twice."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", FIRST_SOLVE.format(gate=GATE), json.dumps(costs.tolist())],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(result.stdout)


def load_against(root: Path):
    """The checkout's `seltrack.assignment`, loaded as the module `against_assignment`."""
    path = root / "src" / "seltrack" / "assignment.py"
    spec = importlib.util.spec_from_file_location("against_assignment", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while building
    spec.loader.exec_module(module)
    return module


def matched_pairs(result) -> list[tuple[int, int]]:
    """The (row, column) matches of a `solve` result, a (rows, columns) pair of int arrays."""
    rows, cols = result
    return list(zip(rows.tolist(), cols.tolist()))


def count_lsa(module, calls: dict) -> None:
    """Wrap the module's `linear_sum_assignment` so `calls[module]` counts its calls."""
    real = module.linear_sum_assignment
    calls[module] = 0

    def counting(*args, **kwargs):
        calls[module] += 1
        return real(*args, **kwargs)

    module.linear_sum_assignment = counting


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="10,30,60,100", help="comma-separated matrix sides")
    ap.add_argument("--kinds", default=",".join(KINDS), help="comma-separated cost kinds")
    ap.add_argument("--repeats", type=int, default=3, help="matrices timed per size and kind")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--against", type=Path, help="another checkout to time alongside this one")
    args = ap.parse_args(argv)

    roots = {"this": Path(assignment.__file__).resolve().parents[2]}
    if args.against is not None:
        roots["against"] = args.against.resolve()
    costs = tied_costs(np.random.default_rng([args.seed, FIRST_SIDE]), FIRST_SIDE)
    print(f"fresh process, tied {FIRST_SIDE}x{FIRST_SIDE}: import, first solve, second solve (ms)")
    for name, root in roots.items():
        seconds = first_solve(root / "src", costs)
        print(f"{name:8} " + " ".join(f"{1e3 * s:>10.3f}" for s in seconds))

    sides = {"this": assignment}
    if args.against is not None:
        sides["against"] = load_against(roots["against"])
    calls: dict = {}
    for module in sides.values():
        count_lsa(module, calls)
        module.solve(costs, GATE)  # a conflicting warm-up, so that no cell of the table times scipy's import

    print()
    print(f"{'kind':8} {'n':>4}" + "".join(f" {name + ' ms':>12} {'lsa/solve':>10}" for name in sides))
    for kind in args.kinds.split(","):
        for n in (int(s) for s in args.sizes.split(",")):
            rng = np.random.default_rng([args.seed, n])
            times = {module: [] for module in sides.values()}
            for module in sides.values():
                calls[module] = 0
            for repeat in range(args.repeats):
                costs = KINDS[kind](rng, n)
                order = list(sides.values())[:: 1 if repeat % 2 == 0 else -1]
                results = []
                for module in order:
                    start = time.perf_counter()
                    result = module.solve(costs, GATE)
                    times[module].append(time.perf_counter() - start)
                    results.append(matched_pairs(result))
                if any(r != results[0] for r in results):
                    raise SystemExit(f"the checkouts disagree on a {kind} {n}x{n} matrix")
            print(f"{kind:8} {n:>4}" + "".join(
                f" {1e3 * float(np.median(times[m])):>12.3f} {calls[m] / args.repeats:>10.1f}"
                for m in sides.values()
            ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
