import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from seltrack.geometry import BBox
from seltrack.motion import (
    COV,
    POS,
    VAR_POS,
    VAR_VEL,
    degenerate,
    initiate,
    measurements,
    predict,
    state_to_xywh,
    update,
)


def box_of(block: np.ndarray) -> BBox:
    """One state's box, from its `state_to_xywh` row."""
    return BBox(*state_to_xywh(block).tolist())


def mean_of(block: np.ndarray) -> np.ndarray:
    """The means (cx, cy, a, h, vcx, vcy, va, vh) of a block, (8,) or (n, 8): its position and velocity rows."""
    return block[POS:VAR_POS].reshape((8,) + block.shape[2:]).T


def four_arrays(block: np.ndarray):
    """The block as (mean, var_pos, cov, var_vel), one row per state."""
    return mean_of(block), block[VAR_POS].T, block[COV].T, block[VAR_VEL].T


def block_of(mean, var_pos, cov, var_vel) -> np.ndarray:
    """The block of the four arrays `four_arrays` gives."""
    mean = np.asarray(mean, dtype=float)
    block = np.empty((5, 4) + mean.shape[:-1])
    block[POS:VAR_POS] = mean.T.reshape((2, 4) + mean.shape[:-1])
    block[VAR_POS], block[COV], block[VAR_VEL] = np.asarray(var_pos).T, np.asarray(cov).T, np.asarray(var_vel).T
    return block


def innovation_variance(block: np.ndarray) -> np.ndarray:
    """The block's innovation variances, (4,) or (4, n), from the four-array formula; an overflow is inf."""
    with np.errstate(over="ignore"):
        return FourArrays.innovation_variance(mean_of(block), block[VAR_POS].T).T


def correct(block: np.ndarray, z) -> np.ndarray:
    """`update` with the block's own innovation variance, as the tracker calls it."""
    return update(block, z, innovation_variance(block))


def advanced(block: np.ndarray) -> np.ndarray:
    """`predict`'s new states; the innovation variances it returns with them must be theirs."""
    new, s = predict(block)
    assert s.tobytes() == innovation_variance(new).tobytes()
    return new


def has_no_box(block: np.ndarray) -> np.ndarray:
    """`degenerate` with the block's own innovation variance, as the tracker calls it."""
    return degenerate(block, innovation_variance(block))


class ReferenceFilter:
    """Textbook dense-matrix Kalman maths (inv-based) as an independent oracle."""

    def __init__(self):
        self.F = np.eye(8)
        for i in range(4):
            self.F[i, 4 + i] = 1.0
        self.H = np.eye(4, 8)

    def q(self, h):
        s = [h / 20, h / 20, 1e-2, h / 20, h / 160, h / 160, 1e-5, h / 160]
        return np.diag(np.square(s))

    def r(self, h):
        s = [h / 20, h / 20, 1e-1, h / 20]
        return np.diag(np.square(s))

    def predict(self, x, P):
        return self.F @ x, self.F @ P @ self.F.T + self.q(x[3])

    def update(self, x, P, z):
        S = self.H @ P @ self.H.T + self.r(x[3])
        K = P @ self.H.T @ np.linalg.inv(S)
        x2 = x + K @ (z - self.H @ x)
        P2 = P - K @ S @ K.T
        return x2, P2


def as_measurement(box: BBox) -> np.ndarray:
    return np.array([box.cx, box.cy, box.w / box.h, box.h])


def dense(block: np.ndarray) -> np.ndarray:
    """The 8x8 covariance that the per-coordinate rows stand for."""
    P = np.diag(np.concatenate([block[VAR_POS], block[VAR_VEL]]))
    P[range(4), range(4, 8)] = P[range(4, 8), range(4)] = block[COV]
    return P


def from_dense(x, P) -> np.ndarray:
    """A state with covariance P, which must tie each coordinate only to its velocity."""
    var, cov = np.diag(P), np.diag(P, 4)
    block = block_of(x, var[:4], cov, var[4:])
    assert np.array_equal(dense(block), P)
    return block


class TestInitiate:
    def test_coordinate_transform(self):
        s = initiate(as_measurement(BBox(0, 0, 10, 20)))
        assert np.allclose(mean_of(s), [5, 10, 0.5, 20, 0, 0, 0, 0])

    def test_zero_velocities(self):
        s = initiate(as_measurement(BBox(37.5, 12.25, 8, 14)))
        assert np.all(mean_of(s)[4:] == 0)

    def test_covariance_diagonal_positive(self):
        s = initiate(as_measurement(BBox(0, 0, 5, 5)))
        assert np.all(np.diag(dense(s)) > 0)


class TestPredict:
    def test_zero_velocity_keeps_position(self):
        s = initiate(as_measurement(BBox(10, 10, 10, 10)))
        p = advanced(s)
        assert np.allclose(mean_of(p)[:4], mean_of(s)[:4])

    def test_constant_velocity_advances_position(self):
        mean = np.array([0.0, 0.0, 1.0, 10.0, 2.0, 3.0, 0.0, 0.0])
        s = from_dense(mean, np.eye(8))
        p = advanced(s)
        ref = ReferenceFilter()
        x_ref, P_ref = ref.predict(mean, np.eye(8))
        assert mean_of(p)[0] == 2.0 and mean_of(p)[1] == 3.0
        assert np.allclose(mean_of(p), x_ref)
        assert np.allclose(dense(p), P_ref)

    def test_trace_grows_by_q_on_velocity_free_state(self):
        # diagonal covariance with zero velocity variance: FPF' leaves the
        # trace unchanged and only Q adds to it
        mean = np.array([0.0, 0.0, 1.0, 10.0, 0.0, 0.0, 0.0, 0.0])
        P = np.diag([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        p = advanced(from_dense(mean, P))
        ref = ReferenceFilter()
        assert np.trace(dense(p)) == pytest.approx(
            np.trace(P) + np.trace(ref.q(10.0)), rel=1e-12
        )


class TestUpdate:
    def test_zero_innovation_keeps_mean(self):
        s = initiate(as_measurement(BBox(0, 0, 10, 20)))
        u = correct(s, as_measurement(BBox(0, 0, 10, 20)))
        assert np.allclose(mean_of(u)[:4], mean_of(s)[:4], atol=1e-12)

    def test_converges_to_fixed_box(self):
        target = BBox(100, 50, 20, 40)
        s = initiate(as_measurement(BBox(95, 47, 20, 40)))
        ref = ReferenceFilter()
        x, P = mean_of(s).copy(), dense(s)
        for _ in range(10):
            s = correct(advanced(s), as_measurement(target))
            x, P = ref.predict(x, P)
            x, P = ref.update(x, P, as_measurement(target))
        assert abs(mean_of(s)[0] - target.cx) < 0.1
        assert abs(mean_of(s)[1] - target.cy) < 0.1
        assert np.allclose(mean_of(s), x, atol=1e-8)
        assert np.allclose(dense(s), P, atol=1e-8)

    def test_update_contracts_position_variance(self):
        s = advanced(initiate(as_measurement(BBox(0, 0, 10, 20))))
        u = correct(s, as_measurement(BBox(1, 1, 10, 20)))
        assert u[VAR_POS, 0] < s[VAR_POS, 0]
        assert u[VAR_POS, 1] < s[VAR_POS, 1]


class TestBoxOfState:
    """`state_to_xywh` gives a state's box; a state without one is `degenerate`."""

    def test_round_trip(self):
        b = BBox(12.5, 7.25, 30, 60)
        assert box_of(initiate(as_measurement(b))) == b

    def test_transform(self):
        s = from_dense(np.array([5.0, 10, 0.5, 20, 0, 0, 0, 0]), np.eye(8))
        assert box_of(s) == BBox(0, 0, 10, 20)

    def test_negative_height_rejected(self):
        s = from_dense(np.array([5.0, 10, 0.5, -20, 0, 0, 0, 0]), np.eye(8))
        assert has_no_box(s)

    def test_negative_aspect_rejected(self):
        s = from_dense(np.array([5.0, 10, -0.5, 20, 0, 0, 0, 0]), np.eye(8))
        assert has_no_box(s)


class TestInvariants:
    def test_covariance_stays_symmetric_psd_over_random_cycles(self):
        rng = np.random.default_rng(7)
        s = initiate(as_measurement(BBox(100, 100, 20, 40)))
        for _ in range(1000):
            s = advanced(s)
            if rng.random() < 0.7:
                jitter = rng.normal(0, 2, size=2)
                b = box_of(s)
                s = correct(s, as_measurement(BBox(b.x + jitter[0], b.y + jitter[1], b.w, b.h)))
            assert np.all(s[VAR_POS] >= 0) and np.all(s[VAR_VEL] >= 0)
            assert np.all(s[VAR_POS] * s[VAR_VEL] - s[COV] ** 2 >= -1e-8)
            assert np.linalg.eigvalsh(dense(s)).min() >= -1e-8

    def test_stationary_box_is_a_fixed_point(self):
        target = BBox(50, 60, 14, 34)
        s = initiate(as_measurement(target))
        for _ in range(50):
            s = correct(advanced(s), as_measurement(target))
        assert abs(mean_of(s)[0] - target.cx) < 0.5
        assert abs(mean_of(s)[1] - target.cy) < 0.5

    def test_predict_never_decreases_trace_in_tracking_regime(self):
        rng = np.random.default_rng(3)
        s = initiate(as_measurement(BBox(0, 0, 10, 30)))
        for _ in range(200):
            before = np.trace(dense(s))
            s = advanced(s)
            assert np.trace(dense(s)) >= before
            b = box_of(s)
            s = correct(s, as_measurement(BBox(b.x + rng.normal(0, 1), b.y, b.w, b.h)))


boxes = st.builds(
    BBox,
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
    st.floats(1.0, 500.0),
    st.floats(1.0, 500.0),
)


class TestAgainstDenseReference:
    @settings(max_examples=200, deadline=None)
    @given(boxes, st.lists(st.one_of(st.none(), boxes), max_size=50))
    def test_matches_dense_filter(self, start, steps):
        # None is a predict, a box is an update with it as the measurement
        ref = ReferenceFilter()
        s = initiate(as_measurement(start))
        x, P = mean_of(s).copy(), dense(s)
        for box in steps:
            if box is None:
                s = advanced(s)
                x, P = ref.predict(x, P)
            else:
                s = correct(s, as_measurement(box))
                x, P = ref.update(x, P, as_measurement(box))
            np.testing.assert_allclose(mean_of(s), x, rtol=1e-9, atol=1e-9 * np.abs(x).max())
            np.testing.assert_allclose(dense(s), P, rtol=1e-9, atol=1e-9 * np.abs(P).max())


class TestDegenerate:
    TINY = BBox(0.0, 0.0, 1e-3, 1e-200)

    def test_underflowed_innovation_variance_is_degenerate(self):
        # (h / 20)^2 underflows to 0 for h = 1e-200: no measurement can correct it
        assert has_no_box(advanced(initiate(as_measurement(self.TINY))))

    def test_update_rejects_zero_innovation_variance(self):
        with pytest.raises(ValueError, match="singular innovation covariance"):
            correct(advanced(initiate(as_measurement(self.TINY))), as_measurement(self.TINY))


class TestStacked:
    """Stacked states through one call give each row the bytes of its own call."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(boxes, boxes), min_size=1, max_size=8))
    def test_rows_equal_single_calls(self, pairs):
        starts = np.stack([as_measurement(a) for a, _ in pairs])
        measured = np.stack([as_measurement(b) for _, b in pairs])
        stacked = correct(advanced(initiate(starts)), measured)
        for i in range(len(pairs)):
            alone = correct(advanced(initiate(starts[i])), measured[i])
            assert stacked[..., i].tobytes() == alone.tobytes()
            assert mean_of(stacked)[i].tobytes() == mean_of(alone).tobytes()
            assert state_to_xywh(stacked)[i].tobytes() == state_to_xywh(alone).tobytes()
        assert has_no_box(stacked).tolist() == [bool(has_no_box(stacked[..., i])) for i in range(len(pairs))]

    def test_degenerate_is_a_mask(self):
        ok = as_measurement(BBox(0, 0, 10, 20))
        tiny = as_measurement(TestDegenerate.TINY)
        state = advanced(initiate(np.stack([ok, tiny, ok])))
        assert has_no_box(state).tolist() == [False, True, False]

    def test_overflowing_variance_is_degenerate(self):
        # (h / 10)^2 overflows for h = 1e200: no finite gain can correct the state
        assert has_no_box(initiate(as_measurement(BBox(0, 0, 1e200, 1e200))))


class FourArrays:
    """The filter as four arrays (mean, var_pos, cov, var_vel), before its state became one block.

    The block kernels must give these formulas' bytes, row by row.
    """

    @staticmethod
    def variance(h, weight, aspect_std):
        std = np.empty(np.shape(h) + (4,))
        std[...] = weight * np.asarray(h)[..., None]
        std[..., 2] = aspect_std
        return np.square(std, out=std)

    @classmethod
    def initiate(cls, z):
        h = z[..., 3]
        return (np.concatenate([z, np.zeros_like(z)], axis=-1), cls.variance(h, 2 / 20, 1e-2),
                np.zeros_like(z), cls.variance(h, 10 / 160, 1e-5))

    @classmethod
    def predict(cls, mean, var_pos, cov, var_vel):
        h = mean[..., 3]
        pos, vel = mean[..., :4], mean[..., 4:]
        new_cov = cov + var_vel
        return (np.concatenate([pos + vel, vel], axis=-1), var_pos + cov + new_cov + cls.variance(h, 1 / 20, 1e-2),
                new_cov, var_vel + cls.variance(h, 1 / 160, 1e-5))

    @classmethod
    def innovation_variance(cls, mean, var_pos):
        return var_pos + cls.variance(mean[..., 3], 1 / 20, 1e-1)

    @classmethod
    def update(cls, mean, var_pos, cov, var_vel, z):
        s = cls.innovation_variance(mean, var_pos)
        residual = z - mean[..., :4]
        gain_pos, gain_vel = var_pos / s, cov / s
        return (mean + np.concatenate([gain_pos * residual, gain_vel * residual], axis=-1),
                var_pos - gain_pos * s * gain_pos, cov - gain_pos * s * gain_vel, var_vel - gain_vel * s * gain_vel)

    @classmethod
    def degenerate(cls, mean, var_pos):
        s = cls.innovation_variance(mean, var_pos)
        corrects = np.all((s > 0) & (s < np.inf), axis=-1)
        return (mean[..., 2] <= 0) | (mean[..., 3] <= 0) | ~corrects


# ordinary values, and values whose variances or sums overflow, underflow or are not positive
extreme = st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 1e-320, 1e200, -1e200, 1e308, -1e308])
entries = st.one_of(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), extreme)
# (co)variances of states an update accepts, mostly: positive, some of them extreme
variances = st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, 1e3), st.sampled_from([1e-200, 1e-320, 1e200, 1e308]))


def stacks(columns):
    """(n, columns) float arrays of `entries`, n from 0 to 6."""
    return st.integers(0, 6).flatmap(lambda n: arrays(float, (n, columns), elements=entries))


def stacked_and_alone(arrays_):
    """The arrays of n states, (n, k) each, then those of the first state alone, (k,) each, when n > 0."""
    yield arrays_
    if len(arrays_[0]):
        yield [a[0] for a in arrays_]


def assert_same_bytes(block: np.ndarray, reference):
    for name, got, want in zip(("mean", "var_pos", "cov", "var_vel"), four_arrays(block), reference):
        assert got.tobytes() == want.tobytes(), name


class TestBlockAgainstFourArrays:
    """Each block kernel gives the four-array formulas' bytes, overflowing and degenerate rows included."""

    @settings(max_examples=200, deadline=None)
    @given(stacks(4))
    def test_initiate(self, z):
        with np.errstate(all="ignore"):
            assert_same_bytes(initiate(z), FourArrays.initiate(z))

    @settings(max_examples=200, deadline=None)
    @given(stacks(20))
    def test_predict(self, rows):
        for fields in stacked_and_alone(np.split(rows, [8, 12, 16], axis=1)):
            with np.errstate(all="ignore"):
                block, s = predict(block_of(*fields))
                want = FourArrays.predict(*fields)
                assert_same_bytes(block, want)
                assert s.T.tobytes() == FourArrays.innovation_variance(want[0], want[1]).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(stacks(20))
    def test_degenerate(self, rows):
        for fields in stacked_and_alone(np.split(rows, [8, 12, 16], axis=1)):
            block = block_of(*fields)
            with np.errstate(all="ignore"):
                want = FourArrays.degenerate(fields[0], fields[1])
            assert degenerate(block, innovation_variance(block)).tolist() == want.tolist()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        arrays(float, (n, 12), elements=entries), arrays(float, (n, 12), elements=variances))))
    def test_update(self, rows):
        means_and_z, variances_ = rows
        for mean, z, *variances_of in stacked_and_alone([*np.split(means_and_z, [8], axis=1),
                                                         *np.split(variances_, [4, 8], axis=1)]):
            fields = [mean, *variances_of]
            block = block_of(*fields)
            with np.errstate(all="ignore"):
                s = innovation_variance(block)
                if not s.min() > 0:
                    with pytest.raises(ValueError, match="singular innovation covariance"):
                        update(block, z, s)
                    continue
                assert_same_bytes(update(block, z, s), FourArrays.update(*fields, z))

    def test_rows_of_the_block(self):
        block = initiate(np.array([[5.0, 10.0, 0.5, 20.0], [1.0, 2.0, 3.0, 4.0]]))
        assert block.shape == (5, 4, 2)
        assert mean_of(block)[1].tolist() == [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]
        assert block[COV].T.tolist() == [[0.0] * 4] * 2


class TestMeasurements:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(boxes, max_size=6))
    def test_rows_are_the_box_properties(self, box_list):
        z = measurements(np.array([(b.x, b.y, b.w, b.h) for b in box_list], dtype=float).reshape(-1, 4))
        want = np.array([(b.cx, b.cy, b.w / b.h, b.h) for b in box_list], dtype=float).reshape(-1, 4)
        assert z.tobytes() == want.tobytes()
