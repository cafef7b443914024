import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seltrack.geometry import BBox, ars, blended_alpha, iou, iou_matrix
from seltrack.gating import (
    GateConfig,
    MODE_ALWAYS_EXTRACT,
    RiskLabel,
    classify,
)

from iou_reference import iou_reference


def classify_boxes(det_boxes, track_boxes, cfg):
    """`classify` with its IoU matrix built from the boxes."""
    return classify(iou_matrix(track_boxes, det_boxes), det_boxes, track_boxes, cfg)


def classify_oracle(det_boxes, track_boxes, cfg):
    """Naive re-statement of the rule, kept deliberately independent."""
    out = []
    for d in det_boxes:
        candidates = []
        for i, t in enumerate(track_boxes):
            if iou_reference(d, t) > cfg.theta_iou:
                candidates.append(i)
        if len(candidates) != 1:
            out.append(RiskLabel.make_risky())
        else:
            c = candidates[0]
            if cfg.ars_enabled:
                a = blended_alpha(iou_reference(d, track_boxes[c]), ars(d, track_boxes[c]))
                if a < cfg.theta_alpha:
                    out.append(RiskLabel.make_risky())
                    continue
            out.append(RiskLabel.non_risky(c))
    return out


def random_boxes(rng, n):
    """n boxes with corner in [0, 200)^2 and sides in [1, 80), one draw per call."""
    return [BBox(*row) for row in rng.uniform([0, 0, 1, 1], [200, 200, 80, 80], (n, 4)).tolist()]


class TestConfig:
    def test_defaults(self):
        cfg = GateConfig()
        assert (cfg.theta_iou, cfg.theta_alpha, cfg.ars_enabled) == (0.2, 0.6, True)

    @pytest.mark.parametrize(
        "kwargs",
        [{"theta_iou": -0.1}, {"theta_iou": 1.1}, {"theta_alpha": 2.0}, {"mode": "x"}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GateConfig(**kwargs)


class TestRiskLabel:
    def test_candidate_required_iff_non_risky(self):
        with pytest.raises(ValueError):
            RiskLabel(True, 3)
        with pytest.raises(ValueError):
            RiskLabel(False, None)


class TestClassify:
    def test_no_confirmed_tracks_means_all_risky(self):
        dets = [BBox(0, 0, 10, 10), BBox(50, 50, 5, 5)]
        labels = classify_boxes(dets, [], GateConfig())
        assert all(l.risky for l in labels)

    def test_sole_overlapping_track_with_matching_shape(self):
        d = BBox(0, 0, 10, 10)
        t = BBox(0, 0, 10, 10)
        labels = classify_boxes([d], [t], GateConfig(theta_iou=0.2, theta_alpha=0.6))
        assert labels == [RiskLabel.non_risky(0)]
        # worked numbers from the rule: iou=0.8, v=1 -> alpha = 1/1.2 = 0.833
        assert blended_alpha(0.8, 1.0) == pytest.approx(0.8333333333, abs=1e-9)

    def test_sole_candidate_at_point_eight_overlap(self):
        # contained box gives iou exactly 0.8; near-equal aspect keeps v ~ 1,
        # so alpha ~ 0.83 clears the 0.6 threshold
        d = BBox(0, 0, 10, 8)
        t = BBox(0, 0, 10, 10)
        assert iou(d, t) == pytest.approx(0.8)
        labels = classify_boxes([d], [t], GateConfig(theta_iou=0.2, theta_alpha=0.6))
        assert labels == [RiskLabel.non_risky(0)]

    def test_two_candidates_is_risky(self):
        d = BBox(0, 0, 10, 10)
        t1 = BBox(2, 0, 10, 10)  # iou 0.4 per pixel counting: 80/120 -> 2/3? see oracle
        t2 = BBox(0, 3, 10, 10)
        cfg = GateConfig(theta_iou=0.3, ars_enabled=False)
        assert iou(d, t1) > 0.3 and iou(d, t2) > 0.3
        assert classify_boxes([d], [t1, t2], cfg) == [RiskLabel.make_risky()]

    def test_ars_gate_marks_shape_mismatch_risky(self):
        d = BBox(0, 0, 10, 10)
        t = BBox(0, 0, 10, 10)
        wide = BBox(0, 0, 40, 4)  # same area, very different aspect
        cfg = GateConfig(theta_iou=0.05, theta_alpha=0.6)
        # iou(d, wide) = 40/(100+160-40): only candidate but shape differs
        only_wide = classify_boxes([d], [wide], cfg)
        assert only_wide == [RiskLabel.make_risky()]
        assert classify_boxes([d], [t], cfg) == [RiskLabel.non_risky(0)]

    def test_always_extract_mode(self):
        dets = [BBox(0, 0, 10, 10)]
        tracks = [BBox(0, 0, 10, 10)]
        labels = classify_boxes(dets, tracks, GateConfig(mode=MODE_ALWAYS_EXTRACT))
        assert labels == [RiskLabel.make_risky()]

    def test_ars_disabled_skips_shape_check(self):
        d = BBox(0, 0, 10, 10)
        wide = BBox(0, 0, 40, 4)
        cfg = GateConfig(theta_iou=0.05, ars_enabled=False)
        assert classify_boxes([d], [wide], cfg) == [RiskLabel.non_risky(0)]

    def test_tie_at_threshold_is_excluded(self):
        d = BBox(0, 0, 10, 10)
        t = BBox(5, 0, 10, 10)  # iou exactly 1/3
        cfg = GateConfig(theta_iou=1 / 3, ars_enabled=False)
        assert classify_boxes([d], [t], cfg) == [RiskLabel.make_risky()]


class TestOracleEquivalence:
    def test_thousand_random_frames(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            dets = random_boxes(rng, rng.integers(0, 31))
            tracks = random_boxes(rng, rng.integers(0, 31))
            cfg = GateConfig(
                theta_iou=float(rng.uniform(0, 0.9)),
                theta_alpha=float(rng.uniform(0, 1)),
                ars_enabled=bool(rng.integers(0, 2)),
            )
            assert classify_boxes(dets, tracks, cfg) == classify_oracle(dets, tracks, cfg)


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
                (label,) = classify_boxes([d], [t], cfg)
                assert label.risky

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
        labels = classify_boxes(dets, tracks, GateConfig(mode=MODE_ALWAYS_EXTRACT))
        assert all(l.risky for l in labels)
        assert len(labels) == len(dets)


class TestMonotonicity:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 1000))
    def test_raising_threshold_shrinks_candidate_sets(self, seed):
        rng = np.random.default_rng(seed)
        dets = random_boxes(rng, 5)
        tracks = random_boxes(rng, 8)

        def candidate_count(d, thr):
            return sum(1 for t in tracks if iou(d, t) > thr)

        for d in dets:
            counts = [candidate_count(d, thr / 10) for thr in range(10)]
            assert all(a >= b for a, b in zip(counts, counts[1:]))
