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

    PYTHONPATH=src python scripts/bench_assignment.py --sizes 10,30,60,100
"""

import argparse
import time

import numpy as np

from seltrack import assignment

GATE = 1.0
BLOCK = 5


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="10,30,60,100", help="comma-separated matrix sides")
    ap.add_argument("--kinds", default=",".join(KINDS), help="comma-separated cost kinds")
    ap.add_argument("--repeats", type=int, default=3, help="matrices timed per size and kind")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    calls = 0
    real_lsa = assignment.linear_sum_assignment

    def counting_lsa(cost):
        nonlocal calls
        calls += 1
        return real_lsa(cost)

    assignment.linear_sum_assignment = counting_lsa
    print(f"{'kind':8} {'n':>4} {'ms/solve':>10} {'lsa/solve':>10}")
    for kind in args.kinds.split(","):
        for n in (int(s) for s in args.sizes.split(",")):
            rng = np.random.default_rng([args.seed, n])
            times, calls = [], 0
            for _ in range(args.repeats):
                costs = KINDS[kind](rng, n)
                start = time.perf_counter()
                assignment.solve(costs, GATE)
                times.append(time.perf_counter() - start)
            print(f"{kind:8} {n:>4} {1e3 * float(np.median(times)):>10.3f} {calls / args.repeats:>10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
