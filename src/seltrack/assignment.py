"""Gated minimum-cost bipartite assignment with deterministic tie-breaking.

scipy is imported on the first matrix that needs a Hungarian solve, that
is, the first one in which a row or a column holds two feasible cells. A
process whose matrices are all conflict-free never loads it.
"""

from __future__ import annotations

import math

import numpy as np

INFEASIBLE = np.inf
UNMATCHED = -1

_scipy_lsa = None


def linear_sum_assignment(cost, maximize: bool = False):
    """scipy's `linear_sum_assignment`, imported on the first call."""
    global _scipy_lsa
    if _scipy_lsa is None:
        from scipy.optimize import linear_sum_assignment as _scipy_lsa
    return _scipy_lsa(cost, maximize)


def cells(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows and the columns of the True cells of a 2-D boolean `mask`, in row-major order."""
    return np.divmod(mask.ravel().nonzero()[0], mask.shape[1])


def conflict_free(rows: np.ndarray, cols: np.ndarray, n_cols: int) -> bool:
    """True when no two of the `cells` of a mask of `n_cols` columns share a row or a column.

    The cells are (rows[k], cols[k]) in row-major order, as `cells` gives
    them. When they share none, they are the one maximum matching of the
    mask: every one of them is in it, as many cells as rows and as columns
    holding one.
    """
    if len(rows) <= 1:
        return True
    if np.logical_or.reduce(rows[1:] == rows[:-1]):
        return False
    taken = np.zeros(n_cols, dtype=bool)
    taken[cols] = True
    return np.add.reduce(taken) == len(cols)


def _padding(feasible: np.ndarray, mask: np.ndarray) -> float:
    """Cost of an infeasible cell, large enough that dropping a real match never pays off."""
    n, m = feasible.shape
    largest = float(np.abs(feasible[mask]).max())
    padding = 2.0 * (largest + 1.0) * (min(n, m) + 1)
    # a padded matching sums up to min(n, m) padded cells; that total must stay finite
    if not np.isfinite(padding * min(n, m)):
        raise ValueError(
            f"feasible costs up to {largest:.6g} in magnitude are too large to solve "
            f"a {n}x{m} matrix; rescale the costs"
        )
    return padding


def _validate(costs, gate: float) -> np.ndarray:
    """The cost matrix as a float array; raises unless it and `gate` can be solved."""
    m = np.asarray(costs, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {m.shape}")
    if not m.min(initial=np.inf) > -np.inf:  # NaN or -inf
        raise ValueError("cost matrix entries must be finite or +inf (infeasible)")
    if not math.isfinite(gate):
        raise ValueError(f"gate must be finite, got {gate!r}")
    return m


def _incumbent(feasible: np.ndarray) -> tuple[int, float, np.ndarray]:
    """One max-cardinality min-cost matching of `feasible`, from a single solve.

    Returns its cardinality, its total cost and the column of each row
    (UNMATCHED for a row it leaves out). `feasible` marks forbidden cells
    with +inf; they are padded with `_padding` for the solve.
    """
    n, m = feasible.shape
    col_of = np.full(n, UNMATCHED)
    mask = np.isfinite(feasible)
    if not mask.any():
        return 0, 0.0, col_of
    rows, cols = linear_sum_assignment(np.where(mask, feasible, _padding(feasible, mask)))
    used = mask[rows, cols]
    col_of[rows[used]] = cols[used]
    return int(used.sum()), float(feasible[rows[used], cols[used]].sum()), col_of


def _costs_equal(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _break_ties(feasible, col_of, target_card: int, target_cost: float) -> None:
    """Turn the incumbent `col_of` into the lexicographically smallest optimum, in place."""
    n_rows, n_cols = feasible.shape
    n_fixed, fixed_cost, open_cols = 0, 0.0, np.arange(n_cols)
    for r in range(n_rows):
        if n_fixed == target_card:
            break
        challengers = np.flatnonzero(np.isfinite(feasible[r, open_cols]))
        if col_of[r] != UNMATCHED:
            challengers = challengers[open_cols[challengers] < col_of[r]]
        for k in challengers:
            c = open_cols[k]
            rest_cols = np.delete(open_cols, k)
            card, cost, rest = _incumbent(feasible[r + 1 :, rest_cols])
            total = fixed_cost + feasible[r, c] + cost
            if n_fixed + 1 + card == target_card and _costs_equal(total, target_cost):
                col_of[r] = c
                # an UNMATCHED (-1) in `rest` picks the UNMATCHED appended last
                col_of[r + 1 :] = np.append(rest_cols, UNMATCHED)[rest]
                break
        c = col_of[r]
        if c != UNMATCHED:
            n_fixed += 1
            fixed_cost += feasible[r, c]
            open_cols = open_cols[open_cols != c]


def solve(costs, gate: float) -> tuple[np.ndarray, np.ndarray]:
    """Assign rows to columns over the cells with cost <= gate (and not inf).

    Maximizes the number of matches first, then minimizes their total cost.
    Ties between equal-cost optima are broken toward the lexicographically
    smallest match list (lowest row, then lowest column). When no row and
    no column holds two feasible cells, those cells are the only
    max-cardinality matching, so they are returned as they are, with no
    solve. Otherwise one solve gives an optimal *incumbent* matching. Rows
    are then fixed in scan order: a row's incumbent column keeps the
    optimum reachable, so only its *challengers* are tried, lowest first:
    the feasible open columns left of it, or every feasible open column for
    a row the incumbent leaves unmatched. A challenger wins when the
    remainder, re-solved without it, still reaches the optimum's
    cardinality and total; that re-solve becomes the new incumbent. A row
    without a challenger, or without a winning one, keeps its incumbent
    column, unsolved. Totals within a relative 1e-9 of each other count as
    tied, so costs need coarser granularity than that for the tie-break to
    be meaningful. Returns the matches as two int arrays: the matched rows,
    increasing, and the column of each. Output is reproducible bit-for-bit
    across runs.
    """
    m = _validate(costs, gate)
    mask = m <= gate  # the feasible cells
    rows, cols = cells(mask)
    if conflict_free(rows, cols, m.shape[1]):
        return rows, cols  # each feasible cell the match of its row and its column
    feasible = np.where(mask, m, INFEASIBLE)
    target_card, target_cost, col_of = _incumbent(feasible)
    _break_ties(feasible, col_of, target_card, target_cost)
    rows = np.flatnonzero(col_of != UNMATCHED)
    return rows, col_of[rows]
