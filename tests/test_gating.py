from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from seltrack.geometry import BBox, ars, blended_alpha, iou_matrix
from seltrack.gating import (
    GateConfig,
    MODE_ALWAYS_EXTRACT,
    MODE_SELECTIVE,
    MODES,
    candidates,
)

from oracles import candidates_of, candidates_oracle, gate_oracle, iou_reference
from providers import xywh


# IoUs drawn apart from the boxes, so that a column often holds several
# candidates, and IoU 1 meets any aspect; sides from 1e-150 to 1e150 give
# aspects from 1e-300 to 1e300, whose `ars` reaches 0 (the 0/0 corner at IoU 1)
iou_entries = st.one_of(st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.floats(0.0, 1.0))
sides = st.one_of(st.sampled_from([1e-150, 1.0, 1e150]), st.floats(1e-150, 1e150))


@st.composite
def gate_inputs(draw):
    """(ious, det_xywh, track_xywh, cfg) for `candidates`, up to 5 tracks and 5 detections."""
    n_tracks, n_dets = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    ious = draw(arrays(float, (n_tracks, n_dets), elements=iou_entries))
    det_xywh, track_xywh = (
        np.column_stack([draw(arrays(float, (n, 2), elements=st.floats(-1e3, 1e3))),
                         draw(arrays(float, (n, 2), elements=sides))]).reshape(n, 4)
        for n in (n_dets, n_tracks))
    cfg = GateConfig(theta_iou=draw(st.one_of(st.sampled_from([0.0, 0.2, 0.5]), st.floats(0.0, 1.0))),
                     # 0.0, the threshold with no aspect check, in over a third of the draws
                     theta_alpha=draw(st.one_of(st.just(0.0), st.sampled_from([0.0, 0.6, 1.0]), st.floats(0.0, 1.0))),
                     mode=draw(st.sampled_from(MODES)))
    return ious, det_xywh, track_xywh, cfg


def random_boxes(rng, n):
    """n boxes with corner in [0, 200)^2 and sides in [1, 80), one draw per call."""
    return [BBox(*row) for row in rng.uniform([0, 0, 1, 1], [200, 200, 80, 80], (n, 4)).tolist()]


def extreme_aspect_boxes(rng, n):
    """n boxes with corner in [0, 200)^2, area in [1, 6400) and aspect ratio log-uniform in [1e-6, 1e6]."""
    x, y, side, log_aspect = rng.uniform([0, 0, 1, -6], [200, 200, 80, 6], (n, 4)).T
    root = 10.0 ** (log_aspect / 2)
    return [BBox(*row) for row in np.stack([x, y, side * root, side / root], axis=1).tolist()]


class TestConfig:
    def test_defaults(self):
        cfg = GateConfig()
        assert [f.name for f in fields(GateConfig)] == ["theta_iou", "theta_alpha", "mode"]
        assert (cfg.theta_iou, cfg.theta_alpha, cfg.mode) == (0.2, 0.6, MODE_SELECTIVE)

    @pytest.mark.parametrize(
        "kwargs",
        [{"theta_iou": -0.1}, {"theta_iou": 1.1}, {"theta_alpha": -0.1}, {"theta_alpha": 2.0}, {"mode": "x"}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GateConfig(**kwargs)


class TestClassify:
    def test_no_confirmed_tracks_means_all_risky(self):
        dets = [BBox(0, 0, 10, 10), BBox(50, 50, 5, 5)]
        assert candidates_of(dets, [], GateConfig()).tolist() == [-1, -1]

    def test_sole_overlapping_track_with_matching_shape(self):
        d = BBox(0, 0, 10, 10)
        t = BBox(0, 0, 10, 10)
        assert candidates_of([d], [t], GateConfig(theta_iou=0.2, theta_alpha=0.6)).tolist() == [0]
        # worked numbers from the rule: iou=0.8, v=1 -> alpha = 1/1.2 = 0.833
        assert blended_alpha(0.8, 1.0) == pytest.approx(0.8333333333, abs=1e-9)

    def test_sole_candidate_at_point_eight_overlap(self):
        # contained box gives iou exactly 0.8; near-equal aspect keeps v ~ 1,
        # so alpha ~ 0.83 clears the 0.6 threshold
        d = BBox(0, 0, 10, 8)
        t = BBox(0, 0, 10, 10)
        assert iou_matrix(xywh([d]), xywh([t]))[0, 0] == pytest.approx(0.8)
        assert candidates_of([d], [t], GateConfig(theta_iou=0.2, theta_alpha=0.6)).tolist() == [0]

    def test_two_candidates_is_risky(self):
        d = BBox(0, 0, 10, 10)
        t1 = BBox(2, 0, 10, 10)  # iou 0.4 per pixel counting: 80/120 -> 2/3? see oracle
        t2 = BBox(0, 3, 10, 10)
        cfg = GateConfig(theta_iou=0.3, theta_alpha=0.0)
        assert iou_matrix(xywh([d]), xywh([t1, t2])).min() > 0.3
        assert candidates_of([d], [t1, t2], cfg).tolist() == [-1]

    def test_ars_gate_marks_shape_mismatch_risky(self):
        d = BBox(0, 0, 10, 10)
        t = BBox(0, 0, 10, 10)
        wide = BBox(0, 0, 40, 4)  # same area, very different aspect
        cfg = GateConfig(theta_iou=0.05, theta_alpha=0.6)
        # IoU(d, wide) = 40/(100+160-40): only candidate but shape differs
        assert candidates_of([d], [wide], cfg).tolist() == [-1]
        assert candidates_of([d], [t], cfg).tolist() == [0]

    def test_always_extract_mode(self):
        dets = [BBox(0, 0, 10, 10)]
        tracks = [BBox(0, 0, 10, 10)]
        assert candidates_of(dets, tracks, GateConfig(mode=MODE_ALWAYS_EXTRACT)).tolist() == [-1]

    def test_zero_theta_alpha_skips_shape_check(self):
        d = BBox(0, 0, 10, 10)
        wide = BBox(0, 0, 40, 4)
        cfg = GateConfig(theta_iou=0.05, theta_alpha=0.0)
        assert candidates_of([d], [wide], cfg).tolist() == [0]

    def test_sole_candidate_with_zero_ars(self):
        # alpha = 0 / (1 - IoU): the lowest alpha, which only theta_alpha = 0
        # keeps, as it keeps every sole candidate without computing alpha
        t, d = BBox(0, 0, 1e16, 1), BBox(0, 0, 1, 1e16)
        assert iou_matrix(xywh([t]), xywh([d]))[0, 0] == pytest.approx(5e-17, rel=1e-12)
        assert ars(d, t) == 0.0
        for theta_alpha, want in ((0.6, [-1]), (0.0, [0])):
            cfg = GateConfig(theta_iou=0.0, theta_alpha=theta_alpha)
            assert candidates_of([d], [t], cfg).tolist() == candidates_oracle([d], [t], cfg).tolist() == want

    def test_tie_at_threshold_is_excluded(self):
        d = BBox(0, 0, 10, 10)
        t = BBox(5, 0, 10, 10)  # iou exactly 1/3
        cfg = GateConfig(theta_iou=1 / 3, theta_alpha=0.0)
        assert candidates_of([d], [t], cfg).tolist() == [-1]


class TestOracleEquivalence:
    def test_thousand_random_frames(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            dets = random_boxes(rng, rng.integers(0, 31))
            tracks = random_boxes(rng, rng.integers(0, 31))
            # theta_alpha 0, no aspect check, in about half the frames
            cfg = GateConfig(
                theta_iou=float(rng.uniform(0, 0.9)),
                theta_alpha=float(rng.uniform(0, 1) * rng.integers(0, 2)),
            )
            assert np.array_equal(candidates_of(dets, tracks, cfg), candidates_oracle(dets, tracks, cfg))
        # no tracks, no detections, and aspect ratios from 1e-6 to 1e6, each
        # track a jittered copy of a detection so that sole candidates occur
        for n_dets, n_tracks in [(0, 5), (5, 0), (0, 0)]:
            dets, tracks = random_boxes(rng, n_dets), random_boxes(rng, n_tracks)
            assert np.array_equal(candidates_of(dets, tracks, cfg), candidates_oracle(dets, tracks, cfg))
        for _ in range(200):
            dets = extreme_aspect_boxes(rng, int(rng.integers(1, 11)))
            jitter = rng.uniform([-0.2, -0.2, 0.5, 0.5], [0.2, 0.2, 2, 2], (len(dets), 4))
            tracks = [BBox(d.x + dx * d.w, d.y + dy * d.h, d.w * sw, d.h * sh) for d, (dx, dy, sw, sh) in zip(dets, jitter)]
            cfg = GateConfig(theta_iou=float(rng.uniform(0, 0.9)), theta_alpha=float(rng.uniform(0, 1)))
            assert np.array_equal(candidates_of(dets, tracks, cfg), candidates_oracle(dets, tracks, cfg))

    @settings(max_examples=500, deadline=None)
    @given(gate_inputs())
    # the 0/0 corner: a sole candidate at IoU 1 whose aspect is the detection's
    # inverse at 1e300, so V is 0 and alpha is 0, kept only at theta_alpha 0
    @example((np.array([[1.0]]), np.array([[0.0, 0.0, 1e150, 1e-150]]), np.array([[0.0, 0.0, 1e-150, 1e150]]),
              GateConfig(theta_alpha=0.0)))
    @example((np.array([[1.0]]), np.array([[0.0, 0.0, 1e150, 1e-150]]), np.array([[0.0, 0.0, 1e-150, 1e150]]),
              GateConfig(theta_alpha=1e-300)))
    # several candidates in the first column, one in the second
    @example((np.array([[0.9, 0.0], [0.5, 0.7], [0.3, 0.1]]), np.array([[0.0, 0.0, 2.0, 1.0]] * 2),
              np.array([[0.0, 0.0, 1.0, 1.0]] * 3), GateConfig(theta_iou=0.2)))
    def test_equals_the_checked_loop(self, inputs):
        ious, det_xywh, track_xywh, cfg = inputs
        assert candidates(ious, det_xywh, track_xywh, cfg).tolist() == gate_oracle(*inputs).tolist()


class TestIouFloor:
    def test_low_iou_is_always_risky_at_default_thresholds(self):
        # alpha >= 0.6 needs V >= 1.5 * (1 - IoU) > 1 whenever IoU <= 1/3,
        # impossible since V <= 1; so a sole candidate at IoU <= 0.2 with
        # theta_alpha = 0.6 can never pass the blended gate
        # smoke-scale here; the acceptance suite runs the 1e5-pair version
        rng = np.random.default_rng(7)
        cfg = GateConfig(theta_iou=0.0, theta_alpha=0.6)
        checked = 0
        while checked < 10_000:
            # candidate pairs in blocks; about one in ten passes the filter
            boxes = random_boxes(rng, 2_000)
            for d, t in zip(boxes[::2], boxes[1::2]):
                if checked == 10_000:
                    break
                o = iou_reference(d, t)
                if not 0.0 < o <= 0.2:
                    continue
                checked += 1
                assert candidates_of([d], [t], cfg).tolist() == [-1]

    @given(st.floats(0, 1), st.floats(0, 0.2))
    def test_algebraic_floor(self, v, o):
        assert blended_alpha(o, v) < 0.6


class TestAlwaysExtract:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 1000))
    def test_every_input_classifies_risky(self, seed):
        rng = np.random.default_rng(seed)
        dets = random_boxes(rng, int(rng.integers(0, 8)))
        tracks = random_boxes(rng, int(rng.integers(0, 8)))
        cand = candidates_of(dets, tracks, GateConfig(mode=MODE_ALWAYS_EXTRACT))
        assert cand.tolist() == [-1] * len(dets)


class TestMonotonicity:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 1000))
    def test_raising_threshold_shrinks_candidate_sets(self, seed):
        rng = np.random.default_rng(seed)
        dets = random_boxes(rng, 5)
        tracks = random_boxes(rng, 8)

        ious = iou_matrix(xywh(tracks), xywh(dets))
        counts = [(ious > thr / 10).sum(axis=0) for thr in range(10)]
        assert all((a >= b).all() for a, b in zip(counts, counts[1:]))
