import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seltrack.appearance import (
    EmaState,
    cosine_costs,
    ema_update,
    init_ema,
    mark_skipped,
)


def normalized(values) -> np.ndarray:
    """Test vectors scaled to unit norm, the form every embedding arrives in."""
    v = np.asarray(values, dtype=float).ravel()
    return v / np.linalg.norm(v)


def unit(*values) -> np.ndarray:
    return normalized(values)


e1 = unit(1, 0, 0)
e2 = unit(0, 1, 0)


class TestInitEma:
    def test_construction(self):
        s = init_ema(e1, 0.9)
        assert np.array_equal(s.embedding, e1)
        assert s.effective_alpha == 0.9
        assert s.frames_since_feature == 0

    def test_embedding_stays_unit(self):
        s = init_ema(normalized([2.0, 5.0, 1.0]), 0.5)
        assert np.linalg.norm(s.embedding) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_open_interval(self, alpha):
        with pytest.raises(ValueError):
            init_ema(e1, alpha)


class TestMarkSkipped:
    def test_single_skip(self):
        s = mark_skipped(init_ema(e1, 0.9))
        assert s.effective_alpha == pytest.approx(0.81, abs=1e-12)
        assert s.frames_since_feature == 1

    def test_three_skips(self):
        s = init_ema(e1, 0.9)
        for _ in range(3):
            s = mark_skipped(s)
        assert s.effective_alpha == pytest.approx(0.9**4, abs=1e-12)

    def test_embedding_untouched(self):
        s = mark_skipped(init_ema(e1, 0.9))
        assert np.array_equal(s.embedding, e1)


class TestEmaUpdate:
    def test_orthogonal_blend(self):
        s = ema_update(init_ema(e1[:2], 0.9), e2[:2])
        # pre-normalization blend (0.9, 0.1), frozen normalized values
        assert np.allclose(s.embedding, [0.99388373, 0.11043153], atol=1e-7)
        assert s.effective_alpha == 0.9
        assert s.frames_since_feature == 0

    def test_same_feature_is_fixed_point(self):
        s = ema_update(init_ema(e1, 0.9), e1)
        assert np.allclose(s.embedding, e1, atol=1e-12)

    def test_blend_weight_after_two_skips(self):
        s = init_ema(e1, 0.9)
        s = mark_skipped(mark_skipped(s))
        assert s.effective_alpha == pytest.approx(0.729, abs=1e-12)
        u = ema_update(s, e2)
        expect = 0.729 * e1 + (1 - 0.729) * e2
        assert np.allclose(u.embedding, expect / np.linalg.norm(expect), atol=1e-12)

    def test_antiparallel_cancellation_is_an_error(self):
        s = EmaState(e1, 0.5, 0.5, 0)
        with pytest.raises(ValueError):
            ema_update(s, -e1)


class TestCosineDistance:
    def test_identical(self):
        assert cosine_costs([e1], [e1])[0, 0] == 0.0

    def test_orthogonal(self):
        assert cosine_costs([e1], [e2])[0, 0] == 1.0

    def test_antiparallel(self):
        assert cosine_costs([e1], [-e1])[0, 0] == 2.0


class TestAppearanceCostMatrix:
    def test_zero_diagonal_for_matching_features(self):
        cost = cosine_costs(np.stack([e1, e2]), [e1, e2])
        assert cost[0, 0] == 0.0 and cost[1, 1] == 0.0
        assert cost[0, 1] == 1.0 and cost[1, 0] == 1.0

    def test_copied_detection_costs_zero_to_candidate(self):
        cost = cosine_costs(np.stack([e1, e2]), [1])
        assert cost[1, 0] == 0.0

    def test_off_candidate_is_inter_track_distance(self):
        a = normalized([1.0, 1.0, 0.0])
        cost = cosine_costs(np.stack([a, e2]), [1])
        assert cost[0, 0] == pytest.approx(cosine_costs([a], [e2])[0, 0], abs=1e-12)

    def test_featureless_detection_without_copy_is_an_error(self):
        with pytest.raises(ValueError):
            cosine_costs(np.stack([e1]), [None])

    def test_copy_candidate_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_costs(np.stack([e1]), [3])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 1000))
    def test_cells_are_clipped_one_minus_dot(self, seed):
        rng = np.random.default_rng(seed)
        tracks = np.stack([normalized(rng.normal(size=5)) for _ in range(4)])
        vectors = [normalized(rng.normal(size=5)) for _ in range(3)]
        cost = cosine_costs(tracks, vectors + [2])
        for i, t in enumerate(tracks):
            for k, v in enumerate(vectors + [tracks[2]]):
                expect = 0.0 if (i, k) == (2, 3) else 1.0 - float(np.dot(t, v))
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
        s = init_ema(e, alpha)
        for _ in range(k):
            s = mark_skipped(s)
        assert s.effective_alpha == pytest.approx(alpha ** (k + 1), abs=1e-9)
        u = ema_update(s, f)
        expect = alpha ** (k + 1) * e + (1 - alpha ** (k + 1)) * f
        n = np.linalg.norm(expect)
        if n > 0:
            assert np.allclose(u.embedding, expect / n, atol=1e-9)
        assert np.linalg.norm(u.embedding) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 20), st.floats(0.05, 0.95))
    def test_decay_gives_new_feature_strictly_more_weight(self, k, alpha):
        with_decay = 1 - alpha ** (k + 1)
        without = 1 - alpha
        assert with_decay > without

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10), unit_vectors, st.floats(0.1, 0.9))
    def test_embedding_unit_norm_after_every_operation(self, k, fv, alpha):
        s = init_ema(normalized(fv), alpha)
        for _ in range(k):
            s = mark_skipped(s)
            assert np.linalg.norm(s.embedding) == pytest.approx(1.0, abs=1e-6)
        try:
            s = ema_update(s, normalized(np.arange(1, s.embedding.size + 1)))
        except ValueError:
            return  # exact anti-parallel cancellation is a documented error
        assert np.linalg.norm(s.embedding) == pytest.approx(1.0, abs=1e-6)


class TestStacked:
    """A stack of states through one call gives each row the bytes of its own call."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(2, 64), st.integers(0, 2**32 - 1))
    def test_rows_equal_single_calls(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        old = np.stack([normalized(rng.normal(size=dim)) for _ in range(n)])
        fresh = np.stack([normalized(rng.normal(size=dim)) for _ in range(n)])
        weights = rng.uniform(0.01, 0.99, size=n)
        stacked = ema_update(EmaState(old, 0.9, weights, np.zeros(n, dtype=int)), fresh)
        for i in range(n):
            alone = ema_update(EmaState(old[i], 0.9, weights[i], 0), fresh[i])
            assert stacked.embedding[i].tobytes() == alone.embedding.tobytes()
        decayed = mark_skipped(EmaState(old, 0.9, weights, np.zeros(n, dtype=int)))
        assert decayed.effective_alpha.tolist() == [w * 0.9 for w in weights]
        assert init_ema(fresh, 0.9).embedding.tobytes() == fresh.tobytes()

    def test_any_row_cancelling_is_an_error(self):
        with pytest.raises(ValueError, match="cancelled to zero"):
            ema_update(EmaState(np.stack([e1, e2]), 0.5, np.array([0.5, 0.5]), np.zeros(2)), np.stack([e2, -e2]))

    def test_any_row_off_unit_norm_is_an_error(self):
        with pytest.raises(ValueError, match="unit-norm"):
            init_ema(np.stack([e1, 2 * e2]), 0.9)
