from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from seltrack import assignment
from seltrack.assignment import INFEASIBLE, solve
from seltrack.gating import GateConfig
from seltrack.io import FeatureFileProvider, read_detections
from seltrack.synth import generate_to_dir, grid_scene
from seltrack.tracker import STRATEGY_CASCADE, MatchConfig, run_sequence

from oracles import assignment_oracle, matchings


def pairs(costs, gate: float) -> list[tuple[int, int]]:
    """The (row, column) matches of `solve`, in its row order."""
    rows, cols = solve(costs, gate)
    return list(zip(rows.tolist(), cols.tolist()))


def _full_scan_optimum(feasible: np.ndarray) -> tuple[int, float]:
    n, m = feasible.shape
    if n == 0 or m == 0:
        return 0, 0.0
    mask = np.isfinite(feasible)
    if not mask.any():
        return 0, 0.0
    big = 2.0 * (float(np.abs(feasible[mask]).max()) + 1.0) * (min(n, m) + 1)
    rows, cols = linear_sum_assignment(np.where(mask, feasible, big))
    used = mask[rows, cols]
    return int(used.sum()), float(feasible[rows[used], cols[used]].sum())


def full_scan_solve(costs, gate: float) -> list[tuple[int, int]]:
    """Reference solver with the same tie rule and one re-solve per feasible cell tried.

    Fixes matches row by row, trying every open feasible column from the
    left until one keeps the optimum's cardinality and total reachable.
    """
    m = np.asarray(costs, dtype=float)
    n_rows, n_cols = m.shape
    feasible = np.where(m <= gate, m, INFEASIBLE)
    target_card, target_cost = _full_scan_optimum(feasible)

    matches: list[tuple[int, int]] = []
    if target_card > 0:
        open_cols = np.arange(n_cols)
        fixed_cost = 0.0
        for r in range(n_rows):
            if len(matches) == target_card:
                break
            row = feasible[r, open_cols]
            sub_rows = feasible[r + 1 :, :]
            for k in np.flatnonzero(np.isfinite(row)):
                c = open_cols[k]
                rest = sub_rows[:, np.delete(open_cols, k)]
                card, cost = _full_scan_optimum(rest)
                total = fixed_cost + feasible[r, c] + cost
                if len(matches) + 1 + card == target_card and assignment._costs_equal(
                    total, target_cost
                ):
                    matches.append((r, int(c)))
                    fixed_cost += feasible[r, c]
                    open_cols = np.delete(open_cols, k)
                    break
    return matches


# dyadic costs make float sums exact, so "equal total" has no rounding slack
dyadic = st.integers(0, 64).map(lambda k: k / 16.0)
cell = st.one_of(dyadic, st.just(np.inf))


def matrices(max_side=6):
    return st.integers(1, max_side).flatmap(
        lambda n: st.integers(1, max_side).flatmap(
            lambda m: st.lists(cell, min_size=n * m, max_size=n * m).map(
                lambda vals: np.array(vals).reshape(n, m)
            )
        )
    )


class TestExamples:
    def test_single_feasible_cell(self):
        assert pairs(np.array([[0.3]]), gate=0.5) == [(0, 0)]

    def test_two_by_two_diagonal(self):
        assert pairs(np.array([[1.0, 2.0], [2.0, 1.0]]), gate=10.0) == [(0, 0), (1, 1)]

    def test_gated_out(self):
        assert pairs(np.array([[0.9]]), gate=0.5) == []

    def test_empty_matrix(self):
        for shape in [(0, 3), (3, 0), (0, 0)]:
            rows, cols = solve(np.zeros(shape), gate=1.0)
            assert rows.shape == cols.shape == (0,)
            assert rows.dtype.kind == cols.dtype.kind == "i"

    def test_cost_at_gate_is_feasible(self):
        assert pairs(np.array([[0.5]]), gate=0.5) == [(0, 0)]

    def test_sentinel_never_matches(self):
        assert pairs(np.array([[np.inf, 0.1], [0.2, np.inf]]), gate=10.0) == [(0, 1), (1, 0)]

    def test_rectangular_padding(self):
        assert pairs(np.array([[5.0, 1.0, 3.0]]), gate=10.0) == [(0, 1)]

    def test_prefers_cardinality_over_cost(self):
        # matching both rows costs 10, matching only row 0 would cost 1
        costs = np.array([[1.0, np.inf], [1.0, 9.0]])
        assert pairs(costs, gate=10.0) == [(0, 0), (1, 1)]

    def test_lexicographic_tie_break(self):
        assert pairs(np.zeros((2, 2)), gate=1.0) == [(0, 0), (1, 1)]
        assert pairs(np.array([[1.0, 0.0], [0.0, 1.0]]), gate=2.0) == [(0, 1), (1, 0)]

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            solve(np.array([[np.nan]]), gate=1.0)

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 1)])
    def test_rejects_a_matrix_that_is_not_2d(self, shape):
        with pytest.raises(ValueError, match=r"^cost matrix must be 2-D, got shape "):
            solve(np.zeros(shape), gate=1.0)

    def test_rejects_negative_infinity(self):
        with pytest.raises(ValueError, match=r"finite or \+inf"):
            solve(np.array([[0.0, -np.inf]]), gate=1.0)

    def test_rejects_non_finite_gate(self):
        with pytest.raises(ValueError):
            solve(np.zeros((1, 1)), gate=np.inf)

    def test_rejects_costs_too_large_to_pad(self):
        # the padding of infeasible cells would overflow to inf
        with pytest.raises(ValueError, match="too large"):
            solve(np.array([[1e308, np.inf], [1e308, np.inf]]), gate=1e308)

    def test_conflict_free_costs_too_large_to_pad(self):
        # no solve, so no padding: the feasible cells are the answer
        assert pairs(np.array([[1e308, np.inf], [np.inf, 1e308]]), gate=1e308) == [(0, 0), (1, 1)]

    def test_large_costs_below_the_padding_limit(self):
        assert pairs(np.array([[1e306, np.inf], [1e306, 1e306]]), gate=1e306) == [(0, 0), (1, 1)]


class TestAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(matrices(), st.one_of(dyadic, st.just(4.0)))
    # row 0's incumbent is column 2, and columns 0 and 1 both tie it: the
    # tie-break must try column 0 first
    @example(np.array([[0.5, 0.5, 0.25], [INFEASIBLE, 0.25, 0.0]]), 0.5)
    @example(np.array([[0.25, 0.25], [0.25, INFEASIBLE], [0.0, 0.0]]), 0.5)
    def test_matches_exhaustive_optimum(self, costs, gate):
        got = pairs(costs, gate)
        card, cost, lex = assignment_oracle(costs, gate)
        assert len(got) == card
        assert sum(costs[r, c] for r, c in got) == cost
        assert got == lex

    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_no_match_exceeds_gate(self, costs):
        gate = 2.0
        assert all(costs[r, c] <= gate for r, c in pairs(costs, gate))

    @settings(max_examples=200, deadline=None)
    @given(matrices(), st.sampled_from([0.0, 1.0, 3.0]))
    def test_matching_is_well_formed(self, costs, gate):
        rows, cols = solve(costs, gate)
        assert rows.shape == cols.shape
        assert (np.diff(rows) > 0).all()  # strictly increasing: one match a row
        assert len(np.unique(cols)) == len(cols)  # one match a column
        assert (costs[rows, cols] <= gate).all()


class TestPermutationEquivariance:
    @settings(max_examples=100, deadline=None)
    @given(
        # dyadic grid: float sums are exact, so "unique optimum" is decidable
        st.integers(2, 4).flatmap(
            lambda n: st.lists(
                dyadic, min_size=n * n, max_size=n * n
            ).map(lambda vals: np.array(vals).reshape(n, n))
        ),
        st.randoms(use_true_random=False),
    )
    def test_row_permutation(self, costs, rng):
        n = costs.shape[0]
        gate = 100.0
        base = pairs(costs, gate)
        # equivariance is only well-defined when the optimum is unique
        card, cost, _ = assignment_oracle(costs, gate)
        optima = [p for p in matchings(costs, gate) if len(p) == card and sum(costs[r, c] for r, c in p) == cost]
        assume(len(optima) == 1)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = pairs(costs[perm, :], gate)
        expect = sorted((perm.index(r), c) for r, c in base)
        assert sorted(permuted) == expect


# few distinct values, so equal-cost optima are common
TIED = [k / 4.0 for k in range(9)]


@st.composite
def block_sparse(draw, max_side=14):
    """Tied dyadic costs with inf cells, where only row/column pairs of one block are feasible.

    Cells across blocks are inf or above the gate, as gated tracking matrices are.
    """
    n, m = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    costs = draw(arrays(float, (n, m), elements=st.sampled_from(TIED + [np.inf]), fill=st.nothing()))
    blocks = st.integers(0, draw(st.integers(0, 3)))
    row_block = draw(arrays(int, n, elements=blocks, fill=st.nothing()))
    col_block = draw(arrays(int, m, elements=blocks, fill=st.nothing()))
    costs[row_block[:, None] != col_block[None, :]] = draw(st.sampled_from([np.inf, 100.0]))
    return costs


class TestAgainstFullScan:
    @settings(max_examples=200, deadline=None)
    @given(block_sparse(), st.sampled_from(TIED))
    # rows 0 and 1 have no challenger; the incumbent puts row 2 on column 3, so column 2 challenges it, and wins
    @example(np.array([[0, INFEASIBLE, INFEASIBLE, INFEASIBLE], [INFEASIBLE, 0, INFEASIBLE, INFEASIBLE],
                       [INFEASIBLE, INFEASIBLE, 0.5, 0.25], [INFEASIBLE, INFEASIBLE, 0.25, 0]]), 0.5)
    # row 0 has two challengers to its incumbent, column 2, that tie it; the first one is taken
    @example(np.array([[0.5, 0.5, 0.25, INFEASIBLE], [INFEASIBLE, 0.25, 0, INFEASIBLE],
                       [INFEASIBLE, INFEASIBLE, INFEASIBLE, 0]]), 0.5)
    def test_equals_full_scan_solve(self, costs, gate):
        assert pairs(costs, gate) == full_scan_solve(costs, gate)


@st.composite
def conflict_free(draw, max_side=7):
    """A gate and a matrix with at most one feasible cell in each row and each column.

    The feasible cells form a random partial permutation of tied costs, the
    gate itself included; every other cell is inf, just above the gate or
    far above it. Either side may be 0.
    """
    gate = draw(st.sampled_from(TIED))
    n, m = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    out = st.sampled_from([np.inf, float(np.nextafter(gate, np.inf)), gate + 0.25])
    costs = draw(arrays(float, (n, m), elements=out, fill=st.nothing()))
    k = draw(st.integers(0, min(n, m)))
    rows = np.array(draw(st.permutations(range(n)))[:k], dtype=int)
    cols = np.array(draw(st.permutations(range(m)))[:k], dtype=int)
    within = st.sampled_from([c for c in TIED if c <= gate])
    costs[rows, cols] = draw(arrays(float, k, elements=within, fill=st.nothing()))
    return costs, gate


def with_conflict(data, costs, gate):
    """`costs` with one more feasible cell in the row or the column of a feasible one."""
    n, m = costs.shape
    feasible = np.argwhere(costs <= gate)
    assume(len(feasible) and (n > 1 or m > 1))
    r, c = feasible[data.draw(st.integers(0, len(feasible) - 1))]
    costs = costs.copy()
    if m > 1 and (n == 1 or data.draw(st.booleans())):
        cell = (r, data.draw(st.sampled_from([j for j in range(m) if j != c])))
    else:
        cell = (data.draw(st.sampled_from([i for i in range(n) if i != r])), c)
    costs[cell] = data.draw(st.sampled_from([v for v in TIED if v <= gate]))
    return costs


def assert_optimal(costs, gate):
    """`solve` equals the full-scan reference and the exhaustive optimum."""
    got = pairs(costs, gate)
    assert got == full_scan_solve(costs, gate)
    assert got == assignment_oracle(costs, gate)[2]


class TestConflictFree:
    """A matrix whose feasible cells share no row or column is returned with no solve."""

    @settings(max_examples=300, deadline=None)
    # masks of up to 6 x 6, sparse beyond 8 cells so that conflict-free ones occur
    @given(st.integers(0, 6).flatmap(lambda n: st.integers(0, 6).flatmap(lambda m: arrays(
        bool, (n, m), elements=st.booleans() if n * m < 9 else st.sampled_from([False] * 5 + [True])))))
    def test_cells_test_equals_the_mask_count(self, mask):
        rows, cols = assignment.cells(mask)
        assert list(zip(rows.tolist(), cols.tolist())) == [tuple(cell) for cell in np.argwhere(mask).tolist()]
        want = bool((mask.sum(axis=0) <= 1).all() and (mask.sum(axis=1) <= 1).all())
        assert bool(assignment.conflict_free(rows, cols, mask.shape[1])) == want

    @settings(max_examples=300, deadline=None)
    @given(conflict_free())
    def test_equals_references_without_a_solve(self, case):
        costs, gate = case
        with mock.patch.object(assignment, "linear_sum_assignment", wraps=linear_sum_assignment) as lsa:
            assert_optimal(costs, gate)
        assert lsa.call_count == 0

    @settings(max_examples=300, deadline=None)
    @given(conflict_free())
    def test_equals_the_hungarian_path(self, case):
        costs, gate = case
        fast = solve(costs, gate)
        with mock.patch.object(assignment, "conflict_free", return_value=False) as checked:
            slow = solve(costs, gate)
        assert checked.call_count == 1
        for a, b in zip(fast, slow):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()

    @settings(max_examples=300, deadline=None)
    @given(conflict_free(), st.data())
    def test_one_conflicting_cell_takes_the_solve(self, case, data):
        costs, gate = case
        costs = with_conflict(data, costs, gate)
        with mock.patch.object(assignment, "linear_sum_assignment", wraps=linear_sum_assignment) as lsa:
            assert_optimal(costs, gate)
        assert lsa.call_count >= 1


class TestInsertedInfeasibleLines:
    """Rows and columns without a feasible cell change no match, ties included.

    The tracker relies on this: each matching stage solves the whole live x
    detection matrix with every cell outside the stage infeasible.
    """

    @settings(max_examples=200, deadline=None)
    @given(block_sparse(), st.sampled_from(TIED), st.data())
    def test_matches_map_through_the_insertion(self, costs, gate, data):
        n, m = costs.shape
        extra_rows, extra_cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        rows = sorted(data.draw(st.permutations(range(n + extra_rows)))[:n])
        cols = sorted(data.draw(st.permutations(range(m + extra_cols)))[:m])
        # inserted cells are infeasible or above the gate
        out = st.sampled_from([np.inf, gate + 0.25, 100.0])
        big = data.draw(arrays(float, (n + extra_rows, m + extra_cols), elements=out, fill=st.nothing()))
        big[np.ix_(rows, cols)] = costs
        expect = [(rows[r], cols[c]) for r, c in pairs(costs, gate)]
        assert pairs(big, gate) == expect


@pytest.fixture
def lsa_calls(monkeypatch):
    """Shapes of the matrices `assignment` hands to linear_sum_assignment."""
    calls = []

    def counting(cost):
        calls.append(cost.shape)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(assignment, "linear_sum_assignment", counting)
    return calls


class TestOneSolve:
    """A conflict-free matrix takes no solve, one with a conflict a single solve."""

    def test_diagonal_feasible(self, lsa_calls):
        costs = np.full((25, 25), np.inf)
        np.fill_diagonal(costs, 0.5)
        assert pairs(costs, gate=1.0) == [(i, i) for i in range(25)]
        assert lsa_calls == []

    def test_permutation_feasible(self, lsa_calls):
        rng = np.random.default_rng(5)
        perm = rng.permutation(25)
        costs = np.full((25, 25), np.inf)
        costs[np.arange(25), perm] = rng.integers(0, 8, size=25) / 8.0
        assert pairs(costs, gate=1.0) == list(enumerate(perm.tolist()))
        assert lsa_calls == []

    @pytest.mark.parametrize("extra", [(0, 1), (1, 0)], ids=["row", "column"])
    def test_one_conflicting_cell(self, lsa_calls, extra):
        costs = np.full((25, 25), np.inf)
        np.fill_diagonal(costs, 0.5)
        costs[extra] = 0.75  # a second feasible cell in row 0, or in column 0
        assert pairs(costs, gate=1.0) == [(i, i) for i in range(25)]
        assert len(lsa_calls) == 1

    @pytest.mark.parametrize("cell", [0.9, np.inf])
    def test_fully_gated_out(self, lsa_calls, cell):
        assert pairs(np.full((6, 4), cell), gate=0.5) == []
        assert lsa_calls == []

    def test_cascade_stage_matrices_of_a_grid_scene(self, lsa_calls, monkeypatch, tmp_path):
        stages = []
        real_solve = assignment.solve

        def recording(costs, gate):
            stages.append((np.array(costs, dtype=float), gate))
            return real_solve(costs, gate)

        monkeypatch.setattr(assignment, "solve", recording)
        det_path, feat_path, _ = generate_to_dir(grid_scene(side=4, frames=20), tmp_path)
        run_sequence(
            read_detections(det_path),
            FeatureFileProvider(feat_path),
            GateConfig(),
            MatchConfig(strategy=STRATEGY_CASCADE),
        )
        solvable = [(c, g) for c, g in stages if (c <= g).any()]
        assert len(solvable) >= 19  # one appearance stage a frame after the first
        for costs, gate in solvable:
            real_solve(costs, gate)
            assert lsa_calls == [], costs.shape
