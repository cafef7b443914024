import collections
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seltrack import motion
from seltrack.gating import (
    GateConfig,
    MODE_ALWAYS_EXTRACT,
    MODE_BASE_GATE,
    MODE_SELECTIVE,
    MODES,
)
from seltrack.geometry import BBox
from seltrack.io import FeatureFileProvider, read_detections
from seltrack.metrics import evaluate, pde
from seltrack.synth import crossing_scene, generate_to_dir, grid_scene, preset
from seltrack.tracker import (
    CONFIRMED,
    Detection,
    EMIT_DETECTION,
    MatchConfig,
    NullFeatureProvider,
    STRATEGY_CASCADE,
    STRATEGY_FUSED,
    SelectiveTracker,
    run_sequence,
)


def e(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


class ConstantProvider:
    """Every (frame, index) resolves to the same direction per index."""

    def __init__(self, dim=4):
        self.dim = dim

    def fetch(self, frame, index):
        return e(self.dim, index % self.dim)


class FailingProvider:
    def __init__(self, fail_on_frame):
        self.fail_on_frame = fail_on_frame
        self.armed = True

    def fetch(self, frame, index):
        if self.armed and frame == self.fail_on_frame:
            raise RuntimeError("extractor offline")
        return e(4, 0)


def det(frame, index, box, conf=0.9):
    return Detection(frame=frame, index=index, box=box, confidence=conf)


def stationary_frames(n, box=BBox(100, 100, 20, 40)):
    return {f: [det(f, 0, box)] for f in range(1, n + 1)}


def table_fields(tracker):
    """Every column of the track table as plain values, copied out."""
    return {f.name: getattr(tracker.table, f.name).tolist() for f in fields(tracker.table)}


class TestStep:
    def test_empty_frame_ages_tracks(self):
        tracker = SelectiveTracker(ConstantProvider())
        tracker.step(1, [det(1, 0, BBox(0, 0, 10, 20))])
        assert tracker.step(2, []) == []
        assert tracker.table.time_since_update.tolist() == [1]
        assert tracker.table.age.tolist() == [1]

    def test_stationary_target_fetches_once(self):
        tracker = SelectiveTracker(ConstantProvider())
        for f in range(1, 11):
            emitted = tracker.step(f, [det(f, 0, BBox(100, 100, 20, 40))])
            assert [tid for tid, _ in emitted] == [1]
        assert tracker.provider.fetches == 1
        assert pde(tracker.stats) == pytest.approx(10.0)

    def test_always_extract_fetches_everything(self):
        out, stats = run_sequence(
            stationary_frames(10),
            ConstantProvider(),
            GateConfig(mode=MODE_ALWAYS_EXTRACT),
        )
        assert stats.fetches == 10
        assert pde(stats) == 100.0

    def test_out_of_order_frames_rejected(self):
        tracker = SelectiveTracker(ConstantProvider())
        tracker.step(5, [])
        with pytest.raises(ValueError, match="increasing"):
            tracker.step(5, [])
        with pytest.raises(ValueError, match="increasing"):
            tracker.step(3, [])

    def test_mismatched_detection_frame_rejected(self):
        tracker = SelectiveTracker(ConstantProvider())
        with pytest.raises(ValueError, match="frame"):
            tracker.step(1, [det(2, 0, BBox(0, 0, 10, 10))])

    def test_provider_failure_aborts_frame_atomically(self):
        provider = FailingProvider(fail_on_frame=3)
        tracker = SelectiveTracker(provider, GateConfig(mode=MODE_ALWAYS_EXTRACT))
        tracker.step(1, [det(1, 0, BBox(100, 100, 20, 40))])
        tracker.step(2, [det(2, 0, BBox(102, 100, 20, 40))])
        before = table_fields(tracker)
        fetches_before = tracker.provider.fetches
        with pytest.raises(RuntimeError):
            tracker.step(3, [det(3, 0, BBox(104, 100, 20, 40))])
        assert table_fields(tracker) == before
        assert tracker.provider.fetches == fetches_before
        assert tracker.last_frame == 2
        provider.armed = False
        emitted = tracker.step(3, [det(3, 0, BBox(104, 100, 20, 40))])
        assert [tid for tid, _ in emitted] == [1]

    def test_failed_ema_update_rolls_back_every_field(self):
        # frame 3 hands track 2 the negation of its embedding: at ema_alpha 0.5
        # the blend cancels to zero and raises, while track 1's fresh feature
        # blends fine; the frame must leave no trace in any column of the table
        a, b = e(4, 0), e(4, 1)
        features = {(f, 0): a for f in (1, 2)} | {(f, 1): b for f in (1, 2)}
        features |= {(3, 0): (a + e(4, 2)) / np.sqrt(2.0), (3, 1): -b}
        tracker = SelectiveTracker(
            DictProvider(features), GateConfig(mode=MODE_ALWAYS_EXTRACT), MatchConfig(ema_alpha=0.5)
        )

        def frame(f):
            return [det(f, i, BBox(100 + 200 * i + 2 * f, 100, 20, 40)) for i in range(2)]

        tracker.step(1, frame(1))
        tracker.step(2, frame(2))
        before, fetches = table_fields(tracker), tracker.provider.fetches
        assert before["has_embedding"] == [True, True]
        with pytest.raises(ValueError, match="cancelled to zero"):
            tracker.step(3, frame(3))
        assert table_fields(tracker) == before
        assert tracker.last_frame == 2
        assert tracker.provider.fetches == fetches

    def test_track_ids_never_reused(self):
        tracker = SelectiveTracker(ConstantProvider(), match=MatchConfig(max_age=1))
        left = BBox(0, 0, 10, 20)
        right = BBox(500, 300, 10, 20)
        tracker.step(1, [det(1, 0, left)])
        tracker.step(2, [])
        tracker.step(3, [])
        tracker.step(4, [])  # track 1 deleted by now
        tracker.step(5, [det(5, 0, right)])
        ids = [t.id for t in tracker.tracks]
        assert ids == [2]

    def test_emitted_box_is_kalman_projection(self):
        tracker = SelectiveTracker(ConstantProvider())
        tracker.step(1, [det(1, 0, BBox(100, 100, 20, 40))])
        emitted = tracker.step(2, [det(2, 0, BBox(104, 100, 20, 40))])
        assert emitted == [(1, motion.state_to_box(tracker.table.kalman[0]))]

    def test_emitted_box_can_be_raw_detection(self):
        tracker = SelectiveTracker(
            ConstantProvider(), match=MatchConfig(emit=EMIT_DETECTION)
        )
        tracker.step(1, [det(1, 0, BBox(100, 100, 20, 40))])
        box = BBox(104, 100, 20, 40)
        emitted = tracker.step(2, [det(2, 0, box)])
        assert emitted == [(1, box)]

    def test_low_confidence_detections_skip_the_mechanism(self):
        tracker = SelectiveTracker(ConstantProvider())
        emitted = tracker.step(1, [det(1, 0, BBox(0, 0, 10, 20), conf=0.3)])
        assert emitted == []
        assert tracker.tracks == []
        assert tracker.stats.high_detections == 0
        assert tracker.provider.fetches == 0


class TestBoundedState:
    def test_deleted_tracks_are_pruned(self):
        # one fresh detection per frame, never near a live track: every frame
        # births a track and, after max_age misses, one must go away
        match = MatchConfig()
        tracker = SelectiveTracker(NullFeatureProvider(), match=match)
        for f in range(1, 501):
            i = f % 100
            box = BBox((i % 10) * 50, (i // 10) * 80, 20, 40)
            tracker.step(f, [det(f, 0, box)])
            assert len(tracker.tracks) <= match.max_age + 1
        assert tracker.tracks[-1].id == 500

    def test_degenerate_prediction_drops_the_track(self):
        # a receding target: height shrinks 6 px/frame from 70 to 10, then it
        # vanishes and the coasting prediction's height goes negative
        tracker = SelectiveTracker(NullFeatureProvider())
        for f in range(1, 80):
            dets = [det(f, 0, BBox(100, 100, 20, 70 - 6 * (f - 1)))] if f <= 11 else []
            tracker.step(f, dets)
        assert tracker.tracks == []
        assert tracker.last_frame == 79

    @pytest.mark.parametrize("strategy", [STRATEGY_CASCADE, STRATEGY_FUSED])
    def test_tiny_box_never_raises(self, strategy):
        # below h of about 4e-161 the height-scaled variances underflow to 0,
        # so the innovation variance is 0 and no measurement can correct the
        # state: the track is dropped after its prediction, as a degenerate one
        tracker = SelectiveTracker(NullFeatureProvider(), match=MatchConfig(strategy=strategy))
        for f in range(1, 41):
            tracker.step(f, [det(f, 0, BBox(0.0, 0.0, 1e-3, 1e-200))])
            assert len(tracker.tracks) <= 1
        assert tracker.last_frame == 40


    def test_degenerate_track_is_dropped_alone(self):
        # three targets side by side; the middle one shrinks 6 px/frame and
        # then vanishes, so its coasting prediction turns degenerate while
        # its neighbours are still tracked
        def frames(with_middle):
            out = {}
            for f in range(1, 41):
                dets = [det(f, 0, BBox(100 + f, 100, 20, 70))]
                if with_middle and f <= 10:
                    dets.append(det(f, 1, BBox(300, 100, 20, 70 - 6 * (f - 1))))
                dets.append(det(f, len(dets), BBox(500 - f, 100, 20, 70)))
                out[f] = dets
            return out

        tracker = SelectiveTracker(NullFeatureProvider())
        rows = []
        for f, dets in frames(with_middle=True).items():
            rows += [(f, tid, box) for tid, box in tracker.step(f, dets)]
        assert [t.id for t in tracker.tracks] == [1, 3]
        assert max(f for f, tid, _ in rows if tid == 2) == 10
        alone, _ = run_sequence(frames(with_middle=False), NullFeatureProvider())
        renamed = {1: 1, 3: 2}
        assert [(f, renamed[tid], box) for f, tid, box in rows if tid != 2] == alone.rows

    @pytest.mark.parametrize("strategy", [STRATEGY_CASCADE, STRATEGY_FUSED])
    def test_box_with_overflowing_area_keeps_its_track(self, strategy):
        # w * h overflows float64, so IoU must come from a rescaled box
        tracker = SelectiveTracker(NullFeatureProvider(), match=MatchConfig(strategy=strategy))
        for f in range(1, 21):
            emitted = tracker.step(f, [det(f, 0, BBox(0.0, 0.0, 1e250, 1e100))])
            assert [tid for tid, _ in emitted] == [1]
        assert [t.id for t in tracker.tracks] == [1]

    @pytest.mark.parametrize("strategy", [STRATEGY_CASCADE, STRATEGY_FUSED])
    def test_box_with_overflowing_variance_never_raises(self, strategy):
        # (h / 10)^2 overflows float64 for h = 1e200: such a state is
        # degenerate, so its track ends after its prediction, like a tiny box's
        tracker = SelectiveTracker(NullFeatureProvider(), match=MatchConfig(strategy=strategy))
        for f in range(1, 21):
            tracker.step(f, [det(f, 0, BBox(0.0, 0.0, 1e200, 1e200))])
            assert len(tracker.tracks) <= 1
        assert tracker.last_frame == 20


class TestStackedCalls:
    def test_one_predict_and_one_update_per_step(self, monkeypatch, tmp_path):
        calls = collections.Counter()
        for name in ("predict", "update"):

            def counting(*args, real=getattr(motion, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(motion, name, counting)
        det_path, feat_path, _ = generate_to_dir(grid_scene(side=5, frames=10), tmp_path)
        frames = read_detections(det_path)
        tracker = SelectiveTracker(FeatureFileProvider(feat_path))
        updates = 0
        for f in sorted(frames):
            calls.clear()
            tracker.step(f, frames[f])
            assert calls["predict"] <= 1 and calls["update"] <= 1, (f, calls)
            updates += calls["update"]
        assert len(tracker.tracks) == 25
        assert updates == len(frames) - 1


class TestByteStage:
    def test_low_confidence_detection_rescues_track(self):
        match = MatchConfig(byte_low=True)
        tracker = SelectiveTracker(ConstantProvider(), match=match)
        tracker.step(1, [det(1, 0, BBox(100, 100, 20, 40))])
        emitted = tracker.step(2, [det(2, 0, BBox(102, 100, 20, 40), conf=0.2)])
        assert [tid for tid, _ in emitted] == [1]
        assert tracker.table.time_since_update.tolist() == [0]
        # byte matches never refresh the appearance state
        assert tracker.table.frames_since_feature.tolist() == [1]

    def test_byte_disabled_leaves_track_unmatched(self):
        match = MatchConfig(byte_low=False)
        tracker = SelectiveTracker(ConstantProvider(), match=match)
        tracker.step(1, [det(1, 0, BBox(100, 100, 20, 40))])
        emitted = tracker.step(2, [det(2, 0, BBox(102, 100, 20, 40), conf=0.2)])
        assert emitted == []
        assert tracker.table.time_since_update.tolist() == [1]


class TestCopySemantics:
    def test_non_risky_detection_copies_and_does_not_fetch(self):
        tracker = SelectiveTracker(ConstantProvider())
        tracker.step(1, [det(1, 0, BBox(100, 100, 20, 40))])
        assert tracker.provider.fetches == 1
        emitted = tracker.step(2, [det(2, 0, BBox(101, 100, 20, 40))])
        assert tracker.provider.fetches == 1  # copied, not fetched
        assert [tid for tid, _ in emitted] == [1]
        assert tracker.table.frames_since_feature.tolist() == [1]  # copy counts as a skip

    def test_candidate_index_maps_through_confirmed_list(self):
        # three well-separated tracks; detection overlaps only the third
        tracker = SelectiveTracker(ConstantProvider(dim=8))
        boxes = [BBox(0, 0, 20, 40), BBox(200, 0, 20, 40), BBox(400, 0, 20, 40)]
        tracker.step(1, [det(1, i, b) for i, b in enumerate(boxes)])
        assert tracker.provider.fetches == 3
        emitted = tracker.step(2, [det(2, 0, BBox(401, 0, 20, 40))])
        assert tracker.provider.fetches == 3
        assert [tid for tid, _ in emitted] == [3]
        assert tracker.table.time_since_update.tolist() == [1, 1, 0]

    def test_copy_from_embeddingless_candidate_degrades_to_iou(self):
        # provider has nothing for the first frame, so the track has no EMA;
        # the later non-risky detection cannot copy and must match by IoU
        provider = NullFeatureProvider()
        tracker = SelectiveTracker(provider)
        tracker.step(1, [det(1, 0, BBox(100, 100, 20, 40))])
        assert tracker.table.has_embedding.tolist() == [False]
        emitted = tracker.step(2, [det(2, 0, BBox(101, 100, 20, 40))])
        assert [tid for tid, _ in emitted] == [1]
        assert tracker.table.has_embedding.tolist() == [False]


class TestBaseGateMode:
    def test_non_risky_not_fetched_and_matched_by_iou(self):
        tracker = SelectiveTracker(
            ConstantProvider(), GateConfig(mode=MODE_BASE_GATE)
        )
        tracker.step(1, [det(1, 0, BBox(100, 100, 20, 40))])
        fetches = tracker.provider.fetches
        emitted = tracker.step(2, [det(2, 0, BBox(101, 100, 20, 40))])
        assert tracker.provider.fetches == fetches
        assert [tid for tid, _ in emitted] == [1]
        assert tracker.table.frames_since_feature.tolist() == [1]


class TestGateOffEquivalence:
    @pytest.mark.parametrize("name", ["crossing", "parade", "enter_exit", "grid"])
    def test_theta_one_equals_always_extract(self, name, tmp_path):
        det_path, feat_path, _ = generate_to_dir(preset(name), tmp_path / name)
        frames = read_detections(det_path)
        always, stats_a = run_sequence(
            frames, FeatureFileProvider(feat_path), GateConfig(mode=MODE_ALWAYS_EXTRACT)
        )
        gated, stats_g = run_sequence(
            frames,
            FeatureFileProvider(feat_path),
            GateConfig(mode=MODE_SELECTIVE, theta_iou=1.0, ars_enabled=False),
        )
        assert always.rows == gated.rows
        assert stats_a.fetches == stats_g.fetches
        assert pde(stats_a) == pde(stats_g) == 100.0


class TestDeterminism:
    def test_two_runs_identical(self, tmp_path):
        det_path, feat_path, _ = generate_to_dir(preset("grid"), tmp_path)
        frames = read_detections(det_path)
        runs = [
            run_sequence(frames, FeatureFileProvider(feat_path), GateConfig())
            for _ in range(2)
        ]
        assert runs[0][0].rows == runs[1][0].rows
        assert runs[0][1].fetches == runs[1][1].fetches


class TestOcclusionScenario:
    def test_selective_preserves_ids_where_iou_only_fails(self, tmp_path):
        det_path, feat_path, gt_path = generate_to_dir(crossing_scene(), tmp_path)
        frames = read_detections(det_path)
        from seltrack.io import read_trajectories

        gt = read_trajectories(gt_path)

        selective, sel_stats = run_sequence(
            frames, FeatureFileProvider(feat_path), GateConfig()
        )
        report = evaluate(gt, selective.trajectories(), stats=sel_stats)
        assert report.idf1 == 1.0
        assert report.id_switches == 0
        assert sel_stats.fetches < sel_stats.high_detections

        iou_only, _ = run_sequence(frames, NullFeatureProvider(), GateConfig())
        report_iou = evaluate(gt, iou_only.trajectories())
        assert report_iou.idf1 < 1.0


class TestParadeSavings:
    def test_selective_output_identical_with_tiny_pde(self, tmp_path):
        det_path, feat_path, _ = generate_to_dir(preset("parade"), tmp_path)
        frames = read_detections(det_path)
        selective, sel_stats = run_sequence(
            frames, FeatureFileProvider(feat_path), GateConfig()
        )
        always, _ = run_sequence(
            frames, FeatureFileProvider(feat_path), GateConfig(mode=MODE_ALWAYS_EXTRACT)
        )
        assert selective.rows == always.rows
        assert pde(sel_stats) <= 20.0


class TestFusedStrategy:
    def test_fused_tracks_parade(self, tmp_path):
        det_path, feat_path, gt_path = generate_to_dir(
            preset("parade"), tmp_path
        )
        frames = read_detections(det_path)
        from seltrack.io import read_trajectories

        out, stats = run_sequence(
            frames,
            FeatureFileProvider(feat_path),
            GateConfig(),
            MatchConfig(strategy=STRATEGY_FUSED),
        )
        report = evaluate(read_trajectories(gt_path), out.trajectories(), stats=stats)
        assert report.idf1 == 1.0
        assert report.id_switches == 0

    def test_fused_defaults_enable_byte(self):
        assert MatchConfig(strategy=STRATEGY_FUSED).byte_low is True
        assert MatchConfig().byte_low is False

    @pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_fused_weight(self, weight):
        # a NaN or infinite weight would make every fused cost matrix unsolvable
        with pytest.raises(ValueError):
            MatchConfig(fused_weight=weight)


class TestRunSequence:
    def test_zero_frames(self):
        out, stats = run_sequence({}, ConstantProvider())
        assert out.rows == []
        assert stats.frames == 0
        assert pde(stats) is None

    def test_stats_shape(self):
        out, stats = run_sequence(stationary_frames(5), ConstantProvider())
        assert stats.frames == 5
        assert stats.detections == 5
        assert stats.high_detections == 5

    def test_min_hits_delays_confirmation_and_emission(self):
        frames = stationary_frames(5)
        out, _ = run_sequence(
            frames, ConstantProvider(), match=MatchConfig(min_hits=3)
        )
        emitted_frames = sorted({f for f, _, _ in out.rows})
        assert emitted_frames == [3, 4, 5]


# -- property tests over arbitrary detection streams ------------------------

# a few directions, some close and one opposite, so features both separate
# and confuse targets
PALETTE = [
    v / np.linalg.norm(v)
    for v in np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [-1, 0, 0]], dtype=float)
]


class DictProvider:
    """Features by (frame, index); a missing key is a detection without one."""

    def __init__(self, features):
        self.features = features

    def fetch(self, frame, index):
        return self.features.get((frame, index))


# coordinates and sizes mostly on a coarse grid, so that boxes overlap and
# tracks match, plus arbitrary valid values; 1e-200 is a size whose
# height-scaled variances underflow to 0 (a box at the origin still overlaps)
coords = st.one_of(st.integers(0, 8).map(lambda k: 10.0 * k), st.floats(-1e4, 1e4))
sizes = st.one_of(st.sampled_from([20.0, 40.0, 1e-200]), st.floats(1e-2, 1e4))
confidences = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def streams(draw):
    """({frame: detections}, {(frame, index): feature}) with gaps between frames."""
    frames, features = {}, {}
    frame = 0
    for _ in range(draw(st.integers(1, 12))):
        frame += draw(st.integers(1, 4))
        dets = []
        for index in range(draw(st.integers(0, 5))):
            box = BBox(draw(coords), draw(coords), draw(sizes), draw(sizes))
            dets.append(det(frame, index, box, draw(confidences)))
            k = draw(st.integers(-1, len(PALETTE) - 1))
            if k >= 0:
                features[(frame, index)] = PALETTE[k]
        frames[frame] = dets
    return frames, features


configs = st.builds(
    lambda mode, strategy, byte_low, max_age: (
        GateConfig(mode=mode),
        MatchConfig(strategy=strategy, byte_low=byte_low, max_age=max_age),
    ),
    st.sampled_from(MODES),
    st.sampled_from([STRATEGY_CASCADE, STRATEGY_FUSED]),
    st.booleans(),
    st.integers(1, 4),
)


class TestStreamProperties:
    @settings(max_examples=150, deadline=None)
    @given(streams(), configs)
    def test_steps_never_raise_and_tracks_stay_bounded(self, stream, config):
        frames, features = stream
        gate, match = config
        tracker = SelectiveTracker(DictProvider(features), gate, match)
        most = max(len(dets) for dets in frames.values())
        for frame in sorted(frames):
            tracker.step(frame, frames[frame])
            # a held track was born or matched within the last max_age + 1 steps
            assert len(tracker.tracks) <= (match.max_age + 1) * most

    @settings(max_examples=100, deadline=None)
    @given(streams(), configs)
    def test_two_runs_agree(self, stream, config):
        frames, features = stream
        first, first_stats = run_sequence(frames, DictProvider(features), *config)
        second, second_stats = run_sequence(frames, DictProvider(features), *config)
        assert first.rows == second.rows
        assert first_stats == second_stats

    @settings(max_examples=100, deadline=None)
    @given(streams(), st.sampled_from([STRATEGY_CASCADE, STRATEGY_FUSED]))
    def test_full_iou_threshold_equals_always_extract(self, stream, strategy):
        frames, features = stream
        match = MatchConfig(strategy=strategy)
        gated, gated_stats = run_sequence(
            frames, DictProvider(features), GateConfig(theta_iou=1.0), match
        )
        always, always_stats = run_sequence(
            frames, DictProvider(features), GateConfig(mode=MODE_ALWAYS_EXTRACT), match
        )
        assert gated.rows == always.rows
        assert gated_stats.fetches == always_stats.fetches
