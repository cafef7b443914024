import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seltrack import assignment
from seltrack.appearance import check_unit, cosine_costs, ema_update
from seltrack.gating import GateConfig, MODE_ALWAYS_EXTRACT
from seltrack.geometry import BBox
from seltrack.tracker import MatchConfig, SelectiveTracker

from oracles import normalized
from providers import DictProvider, frame


def unit(*values) -> np.ndarray:
    return normalized(values)


e1 = unit(1, 0, 0)
e2 = unit(0, 1, 0)


BOX = BBox(100, 100, 20, 40)


def track_through(alpha, features, frames):
    """A tracker after `frames` frames of one stationary target that pays for every feature.

    The target is seen, with the given feature, in each frame that `features`
    maps (frame 1 among them) and missed in every other frame up to `frames`.
    """
    provider = DictProvider({(f, 0): v for f, v in features.items()})
    tracker = SelectiveTracker(provider, GateConfig(mode=MODE_ALWAYS_EXTRACT), MatchConfig(ema_alpha=alpha))
    for f in range(1, frames + 1):
        tracker.step(f, frame(f, [BOX] if f in features else []))
    return tracker


class TestFirstFeatureSeedsEmbedding:
    """A track's first feature seeds its embedding, at full weight alpha."""

    def test_construction(self):
        table = track_through(0.9, {1: e1}, 1).table
        assert table.embedding[0].tobytes() == e1.tobytes()
        assert table.has_embedding.tolist() == [True]
        assert table.effective_alpha.tolist() == [0.9]

    def test_embedding_stays_unit(self):
        table = track_through(0.5, {1: normalized([2.0, 5.0, 1.0])}, 1).table
        assert np.linalg.norm(table.embedding[0]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_open_interval(self, alpha):
        with pytest.raises(ValueError):
            MatchConfig(ema_alpha=alpha)


class TestDecay:
    """A frame without a fresh feature multiplies the blend weight by alpha."""

    def test_single_skip(self):
        table = track_through(0.9, {1: e1}, 2).table
        assert table.effective_alpha[0] == pytest.approx(0.81, abs=1e-12)

    def test_three_skips(self):
        table = track_through(0.9, {1: e1}, 4).table
        assert table.effective_alpha[0] == pytest.approx(0.9**4, abs=1e-12)

    def test_embedding_untouched(self):
        table = track_through(0.9, {1: e1}, 2).table
        assert np.array_equal(table.embedding[0], e1)


class TestEmaUpdate:
    def test_orthogonal_blend(self):
        # pre-normalization blend (0.9, 0.1), frozen normalized values
        assert np.allclose(ema_update(e1[:2], 0.9, e2[:2]), [0.99388373, 0.11043153], atol=1e-7)

    def test_same_feature_is_fixed_point(self):
        assert np.allclose(ema_update(e1, 0.9, e1), e1, atol=1e-12)

    def test_blend_weight_after_two_skips(self):
        table = track_through(0.9, {1: e1, 4: e2}, 4).table
        expect = 0.729 * e1 + (1 - 0.729) * e2
        assert np.allclose(table.embedding[0], expect / np.linalg.norm(expect), atol=1e-12)
        assert table.effective_alpha.tolist() == [0.9]  # a blend resets the weight

    def test_antiparallel_cancellation_is_an_error(self):
        with pytest.raises(ValueError):
            ema_update(e1, 0.5, -e1)


class TestCosineDistance:
    def test_identical(self):
        assert cosine_costs([e1], [e1])[0, 0] == 0.0

    def test_orthogonal(self):
        assert cosine_costs([e1], [e2])[0, 0] == 1.0

    def test_antiparallel(self):
        assert cosine_costs([e1], [-e1])[0, 0] == 2.0


def appearance_stage_costs(monkeypatch, features, frames):
    """The cost matrix of the last cascade appearance stage the tracker solves.

    Each frame of `frames` is a list of boxes; detection i of frame f has
    the feature `features[(f, i)]`, or none.
    """
    stages = []
    real_solve = assignment.solve

    def recording(costs, gate):
        stages.append((costs.copy(), gate))
        return real_solve(costs, gate)

    monkeypatch.setattr(assignment, "solve", recording)
    tracker = SelectiveTracker(DictProvider(features))
    for f, boxes in enumerate(frames, start=1):
        stages.clear()
        tracker.step(f, frame(f, boxes))
    costs, gate = stages[0]
    assert gate == MatchConfig().appearance_gate
    return costs


class TestAppearanceCostMatrix:
    def test_zero_diagonal_for_matching_features(self):
        cost = cosine_costs(np.stack([e1, e2]), [e1, e2])
        assert cost[0, 0] == 0.0 and cost[1, 1] == 0.0
        assert cost[0, 1] == 1.0 and cost[1, 0] == 1.0

    # two far-apart tracks, embeddings a and e2; in frame 2 detection 0
    # overlaps only the second, so it copies e2 instead of being fetched
    A = normalized([1.0, 1.0, 0.0])
    TWO_TRACKS = [BBox(0, 0, 20, 40), BBox(300, 0, 20, 40)]
    COPY = [BBox(301, 0, 20, 40)]

    def test_copied_detection_costs_zero_to_candidate(self, monkeypatch):
        cost = appearance_stage_costs(monkeypatch, {(1, 0): self.A, (1, 1): e2}, [self.TWO_TRACKS, self.COPY])
        assert cost[1, 0] == 0.0

    def test_off_candidate_is_inter_track_distance(self, monkeypatch):
        cost = appearance_stage_costs(monkeypatch, {(1, 0): self.A, (1, 1): e2}, [self.TWO_TRACKS, self.COPY])
        assert cost[0, 0] == pytest.approx(cosine_costs([self.A], [e2])[0, 0], abs=1e-12)

    def test_featureless_detection_is_infeasible(self, monkeypatch):
        # detection 1 of frame 2 is risky (no track near it) and has no feature
        frames = [self.TWO_TRACKS, self.COPY + [BBox(600, 0, 20, 40)]]
        cost = appearance_stage_costs(monkeypatch, {(1, 0): self.A, (1, 1): e2}, frames)
        assert cost[:, 1].tolist() == [assignment.INFEASIBLE] * 2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 1000))
    def test_cells_are_clipped_one_minus_dot(self, seed):
        rng = np.random.default_rng(seed)
        tracks = np.stack([normalized(rng.normal(size=5)) for _ in range(4)])
        vectors = np.stack([normalized(rng.normal(size=5)) for _ in range(3)])
        cost = cosine_costs(tracks, vectors)
        for i, t in enumerate(tracks):
            for k, v in enumerate(vectors):
                expect = 1.0 - float(np.dot(t, v))
                assert cost[i, k] == pytest.approx(min(max(expect, 0.0), 2.0), abs=1e-12)


unit_vectors = st.lists(
    st.floats(-1, 1, allow_nan=False), min_size=3, max_size=6
).filter(lambda v: np.linalg.norm(v) > 1e-3)


vector_pairs = st.integers(3, 6).flatmap(
    lambda d: st.tuples(
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=d, max_size=d),
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=d, max_size=d),
    )
).filter(lambda p: np.linalg.norm(p[0]) > 1e-3 and np.linalg.norm(p[1]) > 1e-3)


class TestDecayLaw:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 20), st.floats(0.05, 0.95), vector_pairs)
    def test_blend_weight_is_alpha_to_the_k_plus_one(self, k, alpha, pair):
        e, f = normalized(pair[0]), normalized(pair[1])
        tracker = track_through(alpha, {1: e, k + 2: f}, k + 1)
        assert tracker.table.effective_alpha[0] == pytest.approx(alpha ** (k + 1), abs=1e-9)
        tracker.step(k + 2, frame(k + 2, [BOX]))
        u = tracker.table.embedding[0]
        expect = alpha ** (k + 1) * e + (1 - alpha ** (k + 1)) * f
        n = np.linalg.norm(expect)
        if n > 0:
            assert np.allclose(u, expect / n, atol=1e-9)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 20), st.floats(0.05, 0.95))
    def test_decay_gives_new_feature_strictly_more_weight(self, k, alpha):
        with_decay = 1 - alpha ** (k + 1)
        without = 1 - alpha
        assert with_decay > without

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10), unit_vectors, st.floats(0.1, 0.9))
    def test_embedding_unit_norm_after_every_operation(self, k, fv, alpha):
        e = normalized(fv)
        try:
            u = ema_update(e, alpha ** (k + 1), normalized(np.arange(1, e.size + 1)))
        except ValueError:
            return  # exact anti-parallel cancellation is a documented error
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-6)


class TestStacked:
    """A stack of embeddings through one call gives each row the bytes of its own call."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(2, 64), st.integers(0, 2**32 - 1))
    def test_rows_equal_single_calls(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        old = np.stack([normalized(rng.normal(size=dim)) for _ in range(n)])
        fresh = np.stack([normalized(rng.normal(size=dim)) for _ in range(n)])
        weights = rng.uniform(0.01, 0.99, size=n)
        stacked = ema_update(old, weights, fresh)
        for i in range(n):
            assert stacked[i].tobytes() == ema_update(old[i], weights[i], fresh[i]).tobytes()

    def test_any_row_cancelling_is_an_error(self):
        with pytest.raises(ValueError, match="cancelled to zero"):
            ema_update(np.stack([e1, e2]), np.array([0.5, 0.5]), np.stack([e2, -e2]))

    def test_any_row_off_unit_norm_is_an_error(self):
        with pytest.raises(ValueError, match="unit-norm"):
            check_unit(np.stack([e1, 2 * e2]))


class TestCheckUnit:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_is_an_error(self, bad):
        with pytest.raises(ValueError, match="unit-norm"):
            check_unit(np.stack([e1, np.array([bad, 0.0, 0.0])]))

    @pytest.mark.parametrize("bad", [[np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    def test_one_refused_vector_is_an_error(self, bad):
        with pytest.raises(ValueError, match="unit-norm"):
            check_unit(np.array(bad))
        assert check_unit(e1).tobytes() == e1.tobytes()
