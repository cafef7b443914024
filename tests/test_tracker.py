import collections
import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seltrack import appearance, gating, motion
from seltrack import tracker as tracker_module
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
from seltrack.synth import generate_to_dir, grid_scene, preset
from seltrack.tracker import (
    CONFIRMED,
    EMIT_DETECTION,
    Detection,
    Frame,
    MatchConfig,
    NullFeatureProvider,
    STRATEGY_CASCADE,
    STRATEGY_FUSED,
    SelectiveTracker,
    TrackTable,
    run_sequence,
)

from providers import DictProvider, batch, frame


def e(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


class ConstantProvider:
    """Every (frame, index) resolves to the same direction per index."""

    def __init__(self, dim=4):
        self.dim = dim

    def fetch_batch(self, frame, indices):
        return batch(frame, indices, lambda f, i: e(self.dim, i % self.dim))


class FailingProvider:
    def __init__(self, fail_on_frame):
        self.fail_on_frame = fail_on_frame
        self.armed = True

    def fetch_batch(self, frame, indices):
        if self.armed and frame == self.fail_on_frame:
            raise RuntimeError("extractor offline")
        return batch(frame, indices, lambda f, i: e(4, 0))


def stationary_frames(n, box=BBox(100, 100, 20, 40)):
    return {f: frame(f, [box]) for f in range(1, n + 1)}


def table_fields(tracker):
    """Every column of the track table as plain values, copied out; the Kalman block as its four arrays."""
    out = {}
    for f in fields(tracker.table):
        if f.name == "kalman_block":
            block = tracker.table.kalman_block
            out["mean"] = block[motion.POS:motion.VAR_POS].transpose(2, 0, 1).reshape(-1, 8).tolist()
            out.update((name, block[row].T.tolist()) for name, row in (
                ("var_pos", motion.VAR_POS), ("cov", motion.COV), ("var_vel", motion.VAR_VEL)))
        else:
            out[f.name] = getattr(tracker.table, f.name).tolist()
    # the column the table held before each status was derived from its hits
    out["confirmed"] = (tracker.table.hits >= tracker.match.min_hits).tolist()
    return out


class TestFrame:
    @pytest.mark.parametrize("xywh, confidence, message", [
        ([[0, 0, 10, 10], [np.nan, 0, 10, 10]], [0.9, 0.9], r"^non-finite bbox field x=nan$"),
        ([[0, 0, 10, np.inf]], [0.9], r"^non-finite bbox field h=inf$"),
        ([[0, 0, 0, 10]], [0.9], r"^non-positive bbox size w=0.0, h=10.0$"),
        ([[0, 0, 10, -1]], [0.9], r"^non-positive bbox size w=10.0, h=-1.0$"),
        ([[0, 0, 10, 10]], [1.5], r"^confidence out of range: 1.5$"),
        ([[0, 0, 10, 10]], [-0.1], r"^confidence out of range: -0.1$"),
        ([[0, 0, 10, 10]], [np.nan], r"^confidence out of range: nan$"),
        # the first refused row names the error, its box before its confidence
        ([[0, 0, 10, 10], [0, 0, 0, 10]], [2.0, 2.0], r"^confidence out of range: 2.0$"),
        ([[0, 0, 10, 10], [0, 0, 0, 10]], [0.9, 2.0], r"^non-positive bbox size"),
        ([[0, 0, 10, 10]], [0.9, 0.9], r"^expected \(n, 4\) boxes and \(n,\) confidences"),
        ([0, 0, 10, 10], [0.9], r"^expected \(n, 4\) boxes"),
        ([[0, 0, 10]], [0.9], r"^expected \(n, 4\) boxes"),
        # a later refused row of another kind does not change the message
        *[([[1, 2, 3, 4], bad, [0, 0, 0, -1], [np.nan, 0, 1, 1]], [0.9] * 4, message) for bad, message in [
            ([np.nan, 0, 1, 1], r"^non-finite bbox field x=nan$"),
            ([0, np.inf, 1, 1], r"^non-finite bbox field y=inf$"),
            ([0, 0, -np.inf, 1], r"^non-finite bbox field w=-inf$"),
            ([0, 0, 0, 1], r"^non-positive bbox size w=0\.0, h=1\.0$"),
            ([0, 0, 1, -2], r"^non-positive bbox size w=1\.0, h=-2\.0$"),
            ([0, 0, -0.0, np.nan], r"^non-finite bbox field h=nan$"),
        ]],
    ])
    def test_refused_rows(self, xywh, confidence, message):
        with pytest.raises(ValueError, match=message):
            Frame(1, xywh, confidence)

    def test_refused_frame(self):
        with pytest.raises(ValueError, match=r"^frame must be >= 1, got 0$"):
            Frame(0, np.zeros((0, 4)), np.zeros(0))

    @pytest.mark.parametrize("number", [2.5, 2.0, np.float64(3.0), True])
    def test_refused_fractional_frame(self, number):
        with pytest.raises(ValueError, match=r"^frame must be an integer, got "):
            Frame(number, np.zeros((0, 4)), np.zeros(0))

    def test_fractional_step_frame_matches_no_frame(self):
        # a fractional step frame matches no `Frame`, so frames 2.5 and 2.7 cannot both emit as frame 2
        tracker = SelectiveTracker(NullFeatureProvider())
        tracker.step(1, Frame(1, [[0, 0, 10, 10]], [0.9]))
        with pytest.raises(ValueError, match=r"^detection frame 2 does not match step frame 2\.5$"):
            tracker.step(2.5, Frame(2, [[0, 0, 10, 10]], [0.9]))
        assert tracker.stats.frames == 1 and tracker.last_frame == 1

    def test_bool_step_frame_matches_no_frame(self):
        # True == 1, but a `Frame` refuses a bool, so the step must too
        tracker = SelectiveTracker(NullFeatureProvider())
        with pytest.raises(ValueError, match=r"^detection frame 1 does not match step frame True$"):
            tracker.step(True, Frame(1, [[0, 0, 10, 10]], [0.9]))
        assert tracker.stats.frames == 0 and tracker.last_frame == 0

    def test_numpy_integer_frame(self):
        assert Frame(np.int64(3), np.zeros((0, 4)), np.zeros(0)).frame == 3

    def test_iterates_detections_by_row(self):
        dets = Frame(3, [[1, 2, 3, 4], [5.5, 6, 7, 8]], [0.5, 1])
        assert len(dets) == 2
        assert list(dets) == [Detection(3, 0, (1.0, 2.0, 3.0, 4.0), 0.5), Detection(3, 1, (5.5, 6.0, 7.0, 8.0), 1.0)]
        assert all(type(d.box) is tuple and all(type(v) is float for v in d.box) for d in dets)
        assert repr(dets) == (
            "Frame(frame=3, detections=[Detection(frame=3, index=0, box=(1.0, 2.0, 3.0, 4.0), confidence=0.5),"
            " Detection(frame=3, index=1, box=(5.5, 6.0, 7.0, 8.0), confidence=1.0)])"
        )

    def test_empty_frame_iterates_nothing(self):
        dets = Frame(3, np.zeros((0, 4)), np.zeros(0))
        assert len(dets) == 0 and list(dets) == []
        assert repr(dets) == "Frame(frame=3, detections=[])"

    @given(st.lists(st.tuples(*[st.floats(-1e4, 1e4, allow_nan=False)] * 2, *[st.floats(0.1, 1e4)] * 2), max_size=8),
           st.floats(0.0, 1.0))
    def test_iterated_boxes_rebuild_the_frame(self, rows, conf):
        dets = Frame(2, np.array(rows, dtype=float).reshape(-1, 4), np.full(len(rows), conf))
        assert [d.box for d in dets] == rows
        assert [(d.frame, d.index, d.confidence) for d in dets] == [(2, k, conf) for k in range(len(rows))]
        again = Frame(2, np.array([d.box for d in dets], dtype=float).reshape(-1, 4), [d.confidence for d in dets])
        assert again.xywh.tobytes() == dets.xywh.tobytes() and repr(again) == repr(dets)


class TestMatchConfig:
    # a NaN max_age dropped every track at each commit, an infinite one
    # never dropped any, and a NaN min_hits confirmed no track
    @pytest.mark.parametrize("name", ["max_age", "min_hits"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 2.5, 2.0, np.float64(3.0), True])
    def test_refused_count_that_is_not_an_integer(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            MatchConfig(**{name: value})

    @pytest.mark.parametrize("kwargs, message", [
        # a truthy string or number kept the byte stage on
        ({"byte_low": "no"}, r"^byte_low must be a bool or None, got 'no'$"),
        ({"byte_low": 1}, r"^byte_low must be a bool or None, got 1$"),
        ({"appearance_gate": 2.5}, r"^appearance_gate must be in \[0, 2\]$"),
        ({"iou_gate": 1.5}, r"^iou_gate must be in \[0, 1\]$"),
        ({"conf_high": -0.1}, r"^conf_high must be in \[0, 1\]$"),
        ({"min_hits": 0}, r"^min_hits must be >= 1$"),
        ({"max_age": 0}, r"^max_age must be >= 1$"),
        ({"emit": "box"}, r"^unknown emit convention 'box'$"),
    ], ids=lambda v: ",".join(f"{k}={x!r}" for k, x in v.items()) if isinstance(v, dict) else "")
    def test_refused_value(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            MatchConfig(**kwargs)

    def test_numpy_bool_switch(self):
        assert MatchConfig(byte_low=np.True_).byte_low

    def test_numpy_integer_counts(self):
        match = MatchConfig(max_age=np.int64(3), min_hits=np.int32(2))
        assert (match.max_age, match.min_hits) == (3, 2)


class TestStep:
    def test_empty_frame_ages_tracks(self):
        tracker = SelectiveTracker(ConstantProvider())
        tracker.step(1, frame(1, [BBox(0, 0, 10, 20)]))
        assert tracker.step(2, frame(2, [])) == []
        assert tracker.table.time_since_update.tolist() == [1]

    def test_stationary_target_fetches_once(self):
        tracker = SelectiveTracker(ConstantProvider())
        for f in range(1, 11):
            emitted = tracker.step(f, frame(f, [BBox(100, 100, 20, 40)]))
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
        tracker.step(5, frame(5, []))
        with pytest.raises(ValueError, match="increasing"):
            tracker.step(5, frame(5, []))
        with pytest.raises(ValueError, match="increasing"):
            tracker.step(3, frame(3, []))

    def test_mismatched_detection_frame_rejected(self):
        tracker = SelectiveTracker(ConstantProvider())
        with pytest.raises(ValueError, match="frame"):
            tracker.step(1, frame(2, [BBox(0, 0, 10, 10)]))

    def test_provider_failure_aborts_frame_atomically(self):
        provider = FailingProvider(fail_on_frame=3)
        tracker = SelectiveTracker(provider, GateConfig(mode=MODE_ALWAYS_EXTRACT))
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40)]))
        tracker.step(2, frame(2, [BBox(102, 100, 20, 40)]))
        before = table_fields(tracker)
        fetches_before = tracker.provider.fetches
        with pytest.raises(RuntimeError):
            tracker.step(3, frame(3, [BBox(104, 100, 20, 40)]))
        assert table_fields(tracker) == before
        assert tracker.provider.fetches == fetches_before
        assert tracker.last_frame == 2
        provider.armed = False
        emitted = tracker.step(3, frame(3, [BBox(104, 100, 20, 40)]))
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

        def two_targets(f):
            return frame(f, [BBox(100 + 200 * i + 2 * f, 100, 20, 40) for i in range(2)])

        tracker.step(1, two_targets(1))
        tracker.step(2, two_targets(2))
        before, fetches = table_fields(tracker), tracker.provider.fetches
        assert before["has_embedding"] == [True, True]
        with pytest.raises(ValueError, match="cancelled to zero"):
            tracker.step(3, two_targets(3))
        assert table_fields(tracker) == before
        assert tracker.last_frame == 2
        assert tracker.provider.fetches == fetches

    @pytest.mark.parametrize("case", ["copy and fetch", "newborn after every track died"])
    def test_feature_of_another_dimension_is_rejected_and_rolls_back(self, case):
        # track 1 holds a 3-d embedding; a later 1-d unit feature must not be
        # broadcast into a 3-d row, whether it is a cost column next to a
        # copied one or the seed of a track born into a table emptied by max_age
        features = {(1, 0): e(3, 0), (2, 1): np.array([1.0]), (4, 0): np.array([1.0])}
        tracker = SelectiveTracker(DictProvider(features), GateConfig(mode=MODE_SELECTIVE), MatchConfig(max_age=1))
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40)]))
        if case == "copy and fetch":
            # detection 0 copies track 1's embedding, detection 1 overlaps no track and is fetched
            f, dets = 2, frame(2, [BBox(102, 100, 20, 40), BBox(400, 100, 20, 40)])
        else:
            for empty in (2, 3):
                tracker.step(empty, frame(empty, []))
            assert len(tracker.table) == 0 and tracker.table.embedding.shape == (0, 3)
            f, dets = 4, frame(4, [BBox(100, 100, 20, 40)])
        before, fetches, last = table_fields(tracker), tracker.provider.fetches, tracker.last_frame
        with pytest.raises(ValueError, match="dimension 1 .* dimension 3"):
            tracker.step(f, dets)
        assert table_fields(tracker) == before
        assert tracker.provider.fetches == fetches
        assert tracker.last_frame == last

    @pytest.mark.parametrize("strategy", [STRATEGY_CASCADE, STRATEGY_FUSED])
    def test_nan_feature_is_rejected_and_rolls_back(self, strategy):
        # a NaN norm is not within any tolerance of 1: the vector must not
        # seed or blend an embedding, so frame 2 fails and leaves no trace
        a = e(4, 0)
        features = {(f, 0): a for f in range(1, 6)} | {(2, 0): np.array([np.nan, 0.0, 0.0, 0.0])}
        tracker = SelectiveTracker(
            DictProvider(features), GateConfig(mode=MODE_ALWAYS_EXTRACT), MatchConfig(strategy=strategy)
        )
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40)]))
        before, fetches = table_fields(tracker), tracker.provider.fetches
        with pytest.raises(ValueError, match="unit-norm"):
            tracker.step(2, frame(2, [BBox(101, 100, 20, 40)]))
        assert table_fields(tracker) == before
        assert tracker.provider.fetches == fetches
        assert tracker.last_frame == 1
        for f in range(3, 6):
            tracker.step(f, frame(f, [BBox(100 + f, 100, 20, 40)]))
        assert np.isfinite(tracker.table.embedding).all()

    def test_track_ids_never_reused(self):
        tracker = SelectiveTracker(ConstantProvider(), match=MatchConfig(max_age=1))
        left = BBox(0, 0, 10, 20)
        right = BBox(500, 300, 10, 20)
        tracker.step(1, frame(1, [left]))
        tracker.step(2, frame(2, []))
        tracker.step(3, frame(3, []))
        tracker.step(4, frame(4, []))  # track 1 deleted by now
        tracker.step(5, frame(5, [right]))
        ids = [t.id for t in tracker.tracks]
        assert ids == [2]

    def test_emitted_box_is_kalman_projection(self):
        tracker = SelectiveTracker(ConstantProvider())
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40)]))
        emitted = tracker.step(2, frame(2, [BBox(104, 100, 20, 40)]))
        assert emitted == [(1, motion.state_to_xywh(tracker.table.kalman_block[..., 0]).tolist())]

    def test_emitted_box_can_be_raw_detection(self):
        tracker = SelectiveTracker(
            ConstantProvider(), match=MatchConfig(emit=EMIT_DETECTION)
        )
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40)]))
        emitted = tracker.step(2, frame(2, [BBox(104, 100, 20, 40)]))
        assert emitted == [(1, [104.0, 100.0, 20.0, 40.0])]

    def test_low_confidence_detections_skip_the_mechanism(self):
        tracker = SelectiveTracker(ConstantProvider())
        emitted = tracker.step(1, frame(1, [BBox(0, 0, 10, 20)], conf=0.3))
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
            tracker.step(f, frame(f, [box]))
            assert len(tracker.tracks) <= match.max_age + 1
        assert tracker.tracks[-1].id == 500

    def test_degenerate_prediction_drops_the_track(self):
        # a receding target: height shrinks 6 px/frame from 70 to 10, then it
        # vanishes and the coasting prediction's height goes negative
        tracker = SelectiveTracker(NullFeatureProvider())
        for f in range(1, 80):
            tracker.step(f, frame(f, [BBox(100, 100, 20, 70 - 6 * (f - 1))] if f <= 11 else []))
        assert tracker.tracks == []
        assert tracker.last_frame == 79

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("strategy", [STRATEGY_CASCADE, STRATEGY_FUSED])
    def test_receding_preset_drops_coasting_tracks_as_degenerate(self, strategy, mode, tmp_path):
        # each target of the scene is lost while it shrinks; its track must end
        # at its degenerate prediction, not after max_age misses
        scene = preset("receding")
        det_path, feat_path, _ = generate_to_dir(scene, tmp_path)
        frames = read_detections(det_path)
        match = MatchConfig(strategy=strategy)
        tracker = SelectiveTracker(FeatureFileProvider(feat_path), GateConfig(mode=mode), match)
        misses_at_drop = []
        for f in range(1, scene.frames + 1):
            before = dict(zip(tracker.table.ids.tolist(), tracker.table.time_since_update.tolist()))
            tracker.step(f, frames.get(f, Frame(f, np.zeros((0, 4)), np.zeros(0))))
            held = set(tracker.table.ids.tolist())
            misses_at_drop += [tsu + 1 for i, tsu in before.items() if i not in held]
        assert len(misses_at_drop) == len(scene.targets)
        assert max(misses_at_drop) < match.max_age
        assert tracker.tracks == []

    @pytest.mark.parametrize("strategy", [STRATEGY_CASCADE, STRATEGY_FUSED])
    def test_box_whose_edge_overflows_keeps_its_track(self, strategy):
        # every field is finite, but x + w overflows float64: its IoU with its
        # own prediction must be a number, so both boxes keep their ids
        tracker = SelectiveTracker(NullFeatureProvider(), match=MatchConfig(strategy=strategy))
        ids = set()
        for f in range(1, 6):
            emitted = tracker.step(f, frame(f, [BBox(1e308, 0, 1e308, 10), BBox(0, 0, 10, 10)]))
            ids.update(tid for tid, _ in emitted)
        assert ids == {1, 2}
        assert [t.id for t in tracker.tracks] == [1, 2]

    @pytest.mark.parametrize("strategy", [STRATEGY_CASCADE, STRATEGY_FUSED])
    def test_tiny_box_never_raises(self, strategy):
        # below h of about 4e-161 the height-scaled variances underflow to 0,
        # so the innovation variance is 0 and no measurement can correct the
        # state: the track is dropped after its prediction, as a degenerate one
        tracker = SelectiveTracker(NullFeatureProvider(), match=MatchConfig(strategy=strategy))
        for f in range(1, 41):
            tracker.step(f, frame(f, [BBox(0.0, 0.0, 1e-3, 1e-200)]))
            assert len(tracker.tracks) <= 1
        assert tracker.last_frame == 40


    def test_degenerate_track_is_dropped_alone(self):
        # three targets side by side; the middle one shrinks 6 px/frame and
        # then vanishes, so its coasting prediction turns degenerate while
        # its neighbours are still tracked
        def frames(with_middle):
            out = {}
            for f in range(1, 41):
                boxes = [BBox(100 + f, 100, 20, 70)]
                if with_middle and f <= 10:
                    boxes.append(BBox(300, 100, 20, 70 - 6 * (f - 1)))
                boxes.append(BBox(500 - f, 100, 20, 70))
                out[f] = frame(f, boxes)
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
            emitted = tracker.step(f, frame(f, [BBox(0.0, 0.0, 1e250, 1e100)]))
            assert [tid for tid, _ in emitted] == [1]
        assert [t.id for t in tracker.tracks] == [1]

    @pytest.mark.parametrize("strategy", [STRATEGY_CASCADE, STRATEGY_FUSED])
    def test_box_with_overflowing_variance_never_raises(self, strategy):
        # (h / 10)^2 overflows float64 for h = 1e200: such a state is
        # degenerate, so its track ends after its prediction, like a tiny box's
        tracker = SelectiveTracker(NullFeatureProvider(), match=MatchConfig(strategy=strategy))
        for f in range(1, 21):
            tracker.step(f, frame(f, [BBox(0.0, 0.0, 1e200, 1e200)]))
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

    def test_at_most_one_iou_matrix_per_step(self, monkeypatch, tmp_path):
        calls = []

        def counting(*args, real=tracker_module.iou_matrix):
            calls.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(tracker_module, "iou_matrix", counting)
        det_path, feat_path, _ = generate_to_dir(grid_scene(side=3, frames=12), tmp_path)
        frames = read_detections(det_path)
        # after frame 1 every third detection falls below conf_high, so the byte stage has columns
        for f in sorted(frames)[1:]:
            confidence = frames[f].confidence.copy()
            confidence[::3] = 0.3
            frames[f] = Frame(f, frames[f].xywh, confidence)
        tracker = SelectiveTracker(FeatureFileProvider(feat_path), match=MatchConfig(strategy=STRATEGY_FUSED))
        for f in sorted(frames):
            calls.clear()
            tracker.step(f, frames[f])
            # one matrix covers the high and the low detections
            assert calls == [len(frames[f])], (f, calls)
        assert len(tracker.tracks) == 9

    def test_no_sole_candidate_makes_no_aspect_check(self, monkeypatch):
        calls = collections.Counter()
        for name in ("ars", "blend"):

            def counting(*args, real=getattr(gating, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(gating, name, counting)
        # the new target of frame 2 has a direction of its own, so it is born
        features = {(1, 0): e(4, 0), (1, 1): e(4, 1), (2, 0): e(4, 0), (2, 1): e(4, 2), (3, 0): e(4, 0)}
        tracker = SelectiveTracker(DictProvider(features))
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40), BBox(110, 100, 20, 40)]))
        # frame 2: detection 0 overlaps both confirmed tracks, detection 1 neither
        calls.clear()
        tracker.step(2, frame(2, [BBox(105, 100, 20, 40), BBox(400, 100, 20, 40)]))
        assert calls == {}
        # frame 3: the track born there is a sole candidate, checked once for the frame
        tracker.step(3, frame(3, [BBox(402, 100, 20, 40)]))
        assert calls == {"ars": 1, "blend": 1}

    @pytest.mark.parametrize("provider, solves", [(ConstantProvider(), 1), (NullFeatureProvider(), 2)])
    def test_iou_stage_runs_only_with_rows_and_columns_left(self, provider, solves, monkeypatch):
        calls = []

        def counting(*args, real=tracker_module.assignment.solve):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(tracker_module.assignment, "solve", counting)
        tracker = SelectiveTracker(provider)
        tracker.step(1, frame(1, [BBox(100 + 200 * i, 100, 20, 40) for i in range(2)]))
        calls.clear()
        emitted = tracker.step(2, frame(2, [BBox(102 + 200 * i, 100, 20, 40) for i in range(2)]))
        assert [tid for tid, _ in emitted] == [1, 2]
        # with features the appearance stage matches both rows; without, the IoU stage does
        assert len(calls) == solves


class TestCommittedTable:
    def test_later_frames_never_write_a_committed_table(self):
        # from frame 3 on, target 0 is updated and its embedding blended every
        # frame, target 1 is missed until max_age deletes it, and a target 2
        # is born; every feature is new, so a blend changes the embedding
        rng = np.random.default_rng(0)
        vectors = {(f, i): v / np.linalg.norm(v) for f in range(1, 7) for i in range(3)
                   for v in [np.eye(4)[i] + 0.2 * rng.normal(size=4)]}
        # a feature is keyed by its detection's row: target 2 takes row 1 once target 1 is gone
        features = {(f, row): vectors[(f, 2 if row and f > 2 else row)] for f in range(1, 7) for row in range(2)}
        tracker = SelectiveTracker(
            DictProvider(features), GateConfig(mode=MODE_ALWAYS_EXTRACT), MatchConfig(max_age=2)
        )
        for f in (1, 2):
            tracker.step(f, frame(f, [BBox(100 + 200 * i + 2 * f, 100, 20, 40) for i in range(2)]))
        held = {f.name: getattr(tracker.table, f.name) for f in fields(tracker.table)}
        before = {name: a.copy() for name, a in held.items()}
        for f in range(3, 7):
            boxes = [BBox(100 + 2 * f, 100, 20, 40)]
            if f >= 4:
                boxes.append(BBox(600 + 2 * f, 100, 20, 40))
            tracker.step(f, frame(f, boxes))
        assert tracker.table.ids.tolist() == [1, 3]
        assert tracker.table.hits.tolist() == [6, 3]
        assert not np.array_equal(tracker.table.embedding[0], before["embedding"][0])
        for name, a in held.items():
            assert a.tobytes() == before[name].tobytes(), name

    def test_frame_that_fetches_nothing_shares_the_embedding(self):
        # two parallel lanes: frame 1 fetches both births, frame 2 copies both
        # (each detection has a sole candidate), and in frame 3 target 0 jumps
        # off its track's box, so it is risky, fetched and matched by appearance
        features = {(f, i): e(4, i) for f in range(1, 4) for i in range(2)}
        tracker = SelectiveTracker(DictProvider(features), GateConfig(mode=MODE_SELECTIVE))
        tracker.step(1, frame(1, [BBox(102, 100, 20, 40), BBox(102, 300, 20, 40)]))
        first = tracker.table.embedding
        tracker.step(2, frame(2, [BBox(104, 100, 20, 40), BBox(104, 300, 20, 40)]))
        assert tracker.stats.fetches == 2
        assert np.shares_memory(tracker.table.embedding, first)
        second = tracker.table.embedding
        emitted = tracker.step(3, frame(3, [BBox(160, 100, 20, 40), BBox(106, 300, 20, 40)]))
        assert tracker.stats.fetches == 3
        assert [tid for tid, _ in emitted] == [1, 2] and tracker.table.ids.tolist() == [1, 2]
        assert tracker.table.effective_alpha.tolist() == [0.9, 0.9 ** 3]  # row 0 blended, row 1 decayed
        assert not np.shares_memory(tracker.table.embedding, second)

    def test_frame_that_matches_every_row_commits_the_updated_block(self, monkeypatch):
        returned = []

        def recording(*args, real=motion.update):
            returned.append(real(*args))
            return returned[-1]

        monkeypatch.setattr(motion, "update", recording)
        tracker = SelectiveTracker(ConstantProvider())
        for f in (1, 2):
            emitted = tracker.step(f, frame(f, [BBox(100 + 200 * i + 2 * f, 100, 20, 40) for i in range(2)]))
        assert [tid for tid, _ in emitted] == [1, 2] and len(returned) == 1
        assert tracker.table.kalman_block is returned[0]

    def test_frame_that_blends_every_row_commits_the_blend(self, monkeypatch):
        returned = []

        def recording(*args, real=appearance.ema_update):
            returned.append(real(*args))
            return returned[-1]

        monkeypatch.setattr(appearance, "ema_update", recording)
        # each frame's features are new, so frame 2 blends both rows
        rng = np.random.default_rng(0)
        features = {(f, i): v / np.linalg.norm(v) for f in (1, 2) for i in range(2)
                    for v in [np.eye(4)[i] + 0.2 * rng.normal(size=4)]}
        tracker = SelectiveTracker(DictProvider(features), GateConfig(mode=MODE_ALWAYS_EXTRACT))
        for f in (1, 2):
            tracker.step(f, frame(f, [BBox(100 + 200 * i + 2 * f, 100, 20, 40) for i in range(2)]))
        assert len(returned) == 1 and returned[0].shape == (2, 4)
        assert tracker.table.embedding is returned[0]
        assert tracker.table.effective_alpha.tolist() == [0.9, 0.9]


def track_axis(name: str) -> int:
    """The axis of a `TrackTable` column that runs over its rows."""
    return -1 if name == "kalman_block" else 0


@st.composite
def track_tables(draw, dim=None):
    """A `TrackTable` of random columns, each of its own dtype, with up to 5 rows and embeddings of dim entries."""
    n = draw(st.integers(0, 5))
    dim = draw(st.integers(0, 3)) if dim is None else dim
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return tracker_module.TrackTable(
        ids=rng.integers(1, 1000, n), kalman_block=rng.normal(size=(5, 4, n)), embedding=rng.normal(size=(n, dim)),
        has_embedding=rng.random(n) < 0.5, effective_alpha=rng.random(n), hits=rng.integers(1, 9, n),
        time_since_update=rng.integers(0, 9, n))


def assert_same_column(got: np.ndarray, want: np.ndarray, name: str):
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name


class TestTrackTableColumns:
    """`keep`, `concat` and `born` carry every column of the table, the Kalman block on its track axis."""

    @settings(max_examples=100, deadline=None)
    @given(track_tables(), st.data())
    def test_keep_masks_every_column(self, table, data):
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(table), max_size=len(table))), dtype=bool)
        kept = table.keep(mask)
        for f in fields(tracker_module.TrackTable):
            column = getattr(table, f.name)
            assert_same_column(getattr(kept, f.name), np.compress(mask, column, axis=track_axis(f.name)), f.name)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3).flatmap(lambda dim: st.tuples(track_tables(dim=dim), track_tables(dim=dim))))
    def test_concat_joins_every_column(self, pair):
        first, second = pair
        joined = first.concat(second)
        for f in fields(tracker_module.TrackTable):
            axis = track_axis(f.name)
            want = np.concatenate([getattr(first, f.name), getattr(second, f.name)], axis=axis)
            assert_same_column(getattr(joined, f.name), want, f.name)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_born_fills_every_column(self, n, dim, seed):
        ids = np.arange(1, n + 1)
        block = motion.initiate(np.random.default_rng(seed).uniform(1.0, 100.0, size=(n, 4)))
        born = tracker_module.TrackTable.born(ids, block, dim)
        for f in fields(tracker_module.TrackTable):
            column = getattr(born, f.name)
            assert column.shape[track_axis(f.name)] == n, f.name
        assert born.ids is ids and born.kalman_block is block
        assert born.embedding.shape == (n, dim) and not born.embedding.any() and not born.has_embedding.any()
        assert born.effective_alpha.tolist() == [0.0] * n and born.time_since_update.tolist() == [0] * n
        assert born.hits.tolist() == [1] * n

    @settings(max_examples=10, deadline=None)
    @given(track_tables())
    def test_keep_of_every_row_is_the_table(self, table):
        assert table.keep(np.ones(len(table), dtype=bool)) is table


def frames_without_high_detections(tracker):
    """Two targets in frames 1-3 and 6; frame 4 holds one low-confidence detection, frame 5 none.

    Returns every emitted row, its box a `BBox`, and the final track table.
    """
    emitted = []
    for f in range(1, 7):
        if f == 4:
            dets = frame(f, [BBox(108, 100, 20, 40)], conf=0.3)
        elif f == 5:
            dets = frame(f, [])
        else:
            dets = frame(f, [BBox(100 + 2 * f, 100, 20, 40), BBox(300, 100, 20, 40)])
        emitted.append([(tid, BBox(*box)) for tid, box in tracker.step(f, dets)])
    return emitted, table_fields(tracker)


class TestNoHighDetection:
    # sha256 of `frames_without_high_detections`, recorded while the gate still ran on such frames
    EXPECTED = {
        STRATEGY_CASCADE: "accf46ac36c34b5668f161b6a64419579a5871bfba3b1d7577e80c1fc74a0849",
        STRATEGY_FUSED: "effea27cbae7862c09f0b67baecf69e0fd0354ba082198103d9e5b03ea116aed",
    }

    @pytest.mark.parametrize("strategy", [STRATEGY_CASCADE, STRATEGY_FUSED])
    def test_frame_skips_the_gate(self, strategy, monkeypatch):
        columns, gate_calls = [], []

        def recording_iou(tracks, dets, real=tracker_module.iou_matrix):
            columns.append(len(dets))
            return real(tracks, dets)

        def counting_candidates(*args, real=gating.candidates):
            gate_calls.append(args)
            return real(*args)

        monkeypatch.setattr(tracker_module, "iou_matrix", recording_iou)
        monkeypatch.setattr(gating, "candidates", counting_candidates)
        tracker = SelectiveTracker(ConstantProvider(), match=MatchConfig(strategy=strategy))
        emitted, table = frames_without_high_detections(tracker)
        # frames 1-3 and 6 each make one gate pass over their two high
        # detections; in frame 4 only the byte stage (fused) reads IoUs
        assert len(gate_calls) == 4
        byte = [1] if strategy == STRATEGY_FUSED else []
        assert columns == [2, 2, 2, *byte, 2]
        digest = hashlib.sha256(repr((emitted, table)).encode()).hexdigest()
        assert digest == self.EXPECTED[strategy]


class TestIouOnFirstRead:
    """A frame builds its IoU matrix when a stage first reads it, and at most once."""

    @staticmethod
    def iou_calls_per_frame(monkeypatch, gate, match, unfetchable=()):
        """`iou_matrix` calls in each of 5 frames of 3 targets apart, each with its own feature but at `unfetchable`."""
        calls = []

        def counting_iou(tracks, dets, real=tracker_module.iou_matrix):
            calls.append(len(dets))
            return real(tracks, dets)

        monkeypatch.setattr(tracker_module, "iou_matrix", counting_iou)
        frames = {f: frame(f, [BBox(100 + 200 * k + 2 * f, 100, 20, 40) for k in range(3)]) for f in range(1, 6)}
        features = {(f, k): PALETTE[(0, 1, 3)[k]] for f in frames for k in range(3) if (f, k) not in unfetchable}
        tracker = SelectiveTracker(DictProvider(features), gate, match)
        counts = []
        for f in sorted(frames):
            before = len(calls)
            assert len(tracker.step(f, frames[f])) == 3
            counts.append(len(calls) - before)
        assert tracker.table.ids.tolist() == [1, 2, 3]
        return counts

    def test_always_extract_cascade_reads_iou_only_in_its_iou_stage(self, monkeypatch):
        always = GateConfig(mode=MODE_ALWAYS_EXTRACT)
        # appearance matches every row from frame 2 on; frame 1 has no track to match
        assert self.iou_calls_per_frame(monkeypatch, always, MatchConfig()) == [0] * 5
        # frame 3's second detection has no feature, so its track is left to the IoU stage
        assert self.iou_calls_per_frame(monkeypatch, always, MatchConfig(), unfetchable={(3, 1)}) == [0, 0, 1, 0, 0]

    @pytest.mark.parametrize("unfetchable", [(), {(3, 1)}])
    def test_the_gate_builds_the_matrix_the_iou_stage_reads(self, monkeypatch, unfetchable):
        # the gate reads the IoUs of every frame with a high detection, the first one included
        counts = self.iou_calls_per_frame(monkeypatch, GateConfig(), MatchConfig(), unfetchable)
        assert counts == [1] * 5

    @pytest.mark.parametrize("mode", MODES)
    def test_the_fused_stage_reads_iou_in_every_frame(self, monkeypatch, mode):
        fused = MatchConfig(strategy=STRATEGY_FUSED)
        assert self.iou_calls_per_frame(monkeypatch, GateConfig(mode=mode), fused) == [1] * 5


class TestByteStage:
    def test_low_confidence_detection_rescues_track(self):
        match = MatchConfig(byte_low=True)
        tracker = SelectiveTracker(ConstantProvider(), match=match)
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40)]))
        emitted = tracker.step(2, frame(2, [BBox(102, 100, 20, 40)], conf=0.2))
        assert [tid for tid, _ in emitted] == [1]
        assert tracker.table.time_since_update.tolist() == [0]
        # byte matches never refresh the appearance state: the weight decays
        assert tracker.table.effective_alpha.tolist() == [match.ema_alpha**2]

    def test_byte_disabled_leaves_track_unmatched(self):
        match = MatchConfig(byte_low=False)
        tracker = SelectiveTracker(ConstantProvider(), match=match)
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40)]))
        emitted = tracker.step(2, frame(2, [BBox(102, 100, 20, 40)], conf=0.2))
        assert emitted == []
        assert tracker.table.time_since_update.tolist() == [1]


class TestCopySemantics:
    def test_non_risky_detection_copies_and_does_not_fetch(self):
        tracker = SelectiveTracker(ConstantProvider())
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40)]))
        assert tracker.provider.fetches == 1
        emitted = tracker.step(2, frame(2, [BBox(101, 100, 20, 40)]))
        assert tracker.provider.fetches == 1  # copied, not fetched
        assert [tid for tid, _ in emitted] == [1]
        assert tracker.table.effective_alpha.tolist() == [MatchConfig().ema_alpha**2]  # copy counts as a skip

    def test_candidate_index_maps_through_confirmed_list(self):
        # three well-separated tracks; detection overlaps only the third
        tracker = SelectiveTracker(ConstantProvider(dim=8))
        boxes = [BBox(0, 0, 20, 40), BBox(200, 0, 20, 40), BBox(400, 0, 20, 40)]
        tracker.step(1, frame(1, boxes))
        assert tracker.provider.fetches == 3
        emitted = tracker.step(2, frame(2, [BBox(401, 0, 20, 40)]))
        assert tracker.provider.fetches == 3
        assert [tid for tid, _ in emitted] == [3]
        assert tracker.table.time_since_update.tolist() == [1, 1, 0]

    def test_tentative_track_is_no_candidate(self):
        # before min_hits a track is tentative, so the gate gives the
        # detection on it no candidate: the detection is risky and fetched
        tracker = SelectiveTracker(ConstantProvider(), match=MatchConfig(min_hits=2))
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40)]))
        tracker.step(2, frame(2, [BBox(101, 100, 20, 40)]))
        assert tracker.provider.fetches == 2
        assert [t.status for t in tracker.tracks] == [CONFIRMED]
        tracker.step(3, frame(3, [BBox(102, 100, 20, 40)]))
        assert tracker.provider.fetches == 2  # confirmed now: a copy

    def test_copy_from_embeddingless_candidate_degrades_to_iou(self):
        # provider has nothing for the first frame, so the track has no EMA;
        # the later non-risky detection cannot copy and must match by IoU
        provider = NullFeatureProvider()
        tracker = SelectiveTracker(provider)
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40)]))
        assert tracker.table.has_embedding.tolist() == [False]
        emitted = tracker.step(2, frame(2, [BBox(101, 100, 20, 40)]))
        assert [tid for tid, _ in emitted] == [1]
        assert tracker.table.has_embedding.tolist() == [False]


def count_batches(tracker):
    """Rebind the tracker's counting `fetch` to a wrapper that records each call, as perfbench's tracer does."""
    calls, inner = [], tracker.provider.fetch

    def counted(frame, indices):
        calls.append((frame, np.asarray(indices).tolist()))
        return inner(frame, indices)

    tracker.provider.fetch = counted
    return calls


class TestBatchedFetch:
    def test_one_call_per_non_empty_batch(self):
        tracker = SelectiveTracker(ConstantProvider(), GateConfig(mode=MODE_ALWAYS_EXTRACT))
        calls = count_batches(tracker)
        boxes = [BBox(0, 0, 20, 40), BBox(200, 0, 20, 40), BBox(400, 0, 20, 40)]
        tracker.step(1, frame(1, boxes))
        tracker.step(2, frame(2, []))
        tracker.step(3, frame(3, boxes, conf=[0.2, 0.9, 0.9]))  # the low detection is not fetched
        tracker.step(4, frame(4, boxes[:1], conf=0.2))
        assert calls == [(1, [0, 1, 2]), (3, [1, 2])]
        assert tracker.provider.fetches == tracker.stats.fetches == 5
        assert tracker.stats.batches == 2 and tracker.stats.late_fetches == 0

    def test_failed_batch_leaves_no_count(self):
        provider = FailingProvider(fail_on_frame=2)
        tracker = SelectiveTracker(provider, GateConfig(mode=MODE_ALWAYS_EXTRACT))
        calls = count_batches(tracker)
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40)]))
        before, stats = table_fields(tracker), replace(tracker.stats)
        with pytest.raises(RuntimeError, match="extractor offline"):
            tracker.step(2, frame(2, [BBox(102, 100, 20, 40)]))
        assert calls == [(1, [0]), (2, [0])]
        assert table_fields(tracker) == before
        assert tracker.provider.fetches == 1 and tracker.stats == stats

    def test_unmatched_non_risky_detection_fetched_late(self):
        # detections 0 and 1 both have track 1 as their sole candidate, so both
        # copy its embedding; one matches it and the other, left unmatched, is
        # born and fetched in a second batch. Detection 2 overlaps no track: it
        # is risky and fetched in the gate's batch
        tracker = SelectiveTracker(ConstantProvider())
        calls = count_batches(tracker)
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40)]))
        emitted = tracker.step(2, frame(2, [BBox(100, 100, 20, 40), BBox(104, 100, 20, 40), BBox(400, 0, 20, 40)]))
        assert calls == [(1, [0]), (2, [2]), (2, [1])]
        assert [tid for tid, _ in emitted] == [1, 2, 3]
        assert tracker.stats.late_fetches == 1
        assert tracker.stats.batches == 3 and tracker.provider.fetches == 3
        assert tracker.table.has_embedding.tolist() == [True, True, True]

    def test_failed_late_batch_leaves_no_trace(self):
        # the frame 2 above, with its second provider call, the births' late
        # batch, failing: by then the frame has matched and updated track 1
        # on its own table, and nothing of that may reach the tracker
        class FailingLate(ConstantProvider):
            armed = True

            def fetch_batch(self, frame, indices):
                if self.armed and frame == 2 and 1 in indices:
                    raise RuntimeError("extractor offline")
                return super().fetch_batch(frame, indices)

        provider = FailingLate()
        tracker = SelectiveTracker(provider)
        calls = count_batches(tracker)
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40)]))
        dets = frame(2, [BBox(100, 100, 20, 40), BBox(104, 100, 20, 40), BBox(400, 0, 20, 40)])
        before, next_id, stats = table_fields(tracker), tracker._next_id, replace(tracker.stats)
        fetches = tracker.provider.fetches
        with pytest.raises(RuntimeError, match="extractor offline"):
            tracker.step(2, dets)
        assert calls == [(1, [0]), (2, [2]), (2, [1])]
        assert table_fields(tracker) == before
        assert tracker._next_id == next_id and tracker.last_frame == 1
        assert tracker.provider.fetches == fetches and tracker.stats == stats
        provider.armed = False
        assert [tid for tid, _ in tracker.step(2, dets)] == [1, 2, 3]


class TestBaseGateMode:
    def test_non_risky_not_fetched_and_matched_by_iou(self):
        tracker = SelectiveTracker(
            ConstantProvider(), GateConfig(mode=MODE_BASE_GATE)
        )
        tracker.step(1, frame(1, [BBox(100, 100, 20, 40)]))
        fetches = tracker.provider.fetches
        emitted = tracker.step(2, frame(2, [BBox(101, 100, 20, 40)]))
        assert tracker.provider.fetches == fetches
        assert [tid for tid, _ in emitted] == [1]
        assert tracker.table.effective_alpha.tolist() == [MatchConfig().ema_alpha**2]


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
    f = 0
    for _ in range(draw(st.integers(1, 12))):
        f += draw(st.integers(1, 4))
        boxes, confs = [], []
        for index in range(draw(st.integers(0, 5))):
            boxes.append(BBox(draw(coords), draw(coords), draw(sizes), draw(sizes)))
            confs.append(draw(confidences))
            k = draw(st.integers(-1, len(PALETTE) - 1))
            if k >= 0:
                features[(f, index)] = PALETTE[k]
        frames[f] = frame(f, boxes, confs)
    return frames, features


configs = st.builds(
    lambda mode, strategy, byte_low, max_age, min_hits: (
        GateConfig(mode=mode),
        MatchConfig(strategy=strategy, byte_low=byte_low, max_age=max_age, min_hits=min_hits),
    ),
    st.sampled_from(MODES),
    st.sampled_from([STRATEGY_CASCADE, STRATEGY_FUSED]),
    st.booleans(),
    st.integers(1, 4),
    st.integers(1, 3),
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
            ids = [tid for tid, _ in tracker.step(frame, frames[frame])]
            # a held track was born or matched within the last max_age + 1 steps
            assert len(tracker.tracks) <= (match.max_age + 1) * most
            # each emitted id once, in increasing order, and each a held, confirmed track
            assert all(a < b for a, b in zip(ids, ids[1:]))
            assert set(ids) <= {t.id for t in tracker.tracks if t.status == CONFIRMED}

    @settings(max_examples=100, deadline=None)
    @given(streams(), configs)
    def test_two_runs_agree(self, stream, config):
        frames, features = stream
        first, first_stats = run_sequence(frames, DictProvider(features), *config)
        second, second_stats = run_sequence(frames, DictProvider(features), *config)
        assert first.rows == second.rows
        assert first_stats == second_stats

    @settings(max_examples=100, deadline=None)
    @given(streams(), configs)
    # a track born without a feature, then seeded in a frame with no birth or
    # deletion: its `has_embedding` is shared until that write
    @example(({1: frame(1, [BBox(100, 100, 20, 40)]), 2: frame(2, [BBox(102, 100, 20, 40)])}, {(2, 0): PALETTE[0]}),
             (GateConfig(mode=MODE_ALWAYS_EXTRACT), MatchConfig()))
    # two tracks matched without a feature in frame 2, so their blend weights
    # decay, then matched and blended in frame 3, which writes `hits`,
    # `time_since_update` and `effective_alpha` of its own table whole
    @example(({f: frame(f, [BBox(100 + 2 * f, 100, 20, 40), BBox(300 + 2 * f, 100, 20, 40)]) for f in (1, 2, 3)},
              {(1, 0): PALETTE[0], (3, 0): PALETTE[2], (1, 1): PALETTE[3], (3, 1): PALETTE[3]}),
             (GateConfig(mode=MODE_ALWAYS_EXTRACT), MatchConfig()))
    def test_committed_tables_are_never_written(self, stream, config):
        # a frame that fetches nothing, births nothing or drops nothing leaves
        # some columns of the table it commits shared with the one before
        frames, features = stream
        tracker = SelectiveTracker(DictProvider(features), *config)
        held = []
        for f in sorted(frames):
            tracker.step(f, frames[f])
            held += [(f, c.name, a, a.tobytes()) for c in fields(tracker.table) for a in [getattr(tracker.table, c.name)]]
        for f, name, a, before in held:
            assert a.tobytes() == before, (f, name)

    @settings(max_examples=400, deadline=None)
    @given(streams(), configs)
    # an always_extract cascade frame whose IoU stage runs: frame 2's
    # detection has no feature, so appearance leaves its track unmatched
    @example(({1: frame(1, [BBox(100, 100, 20, 40)]), 2: frame(2, [BBox(102, 100, 20, 40)])}, {(1, 0): PALETTE[0]}),
             (GateConfig(), MatchConfig()))
    # the cascade's byte stage on frame 2's low detection, after an IoU
    # stage for its high one, which has no feature: the matrix that stage
    # builds holds the low column too
    @example(({1: frame(1, [BBox(100, 100, 20, 40), BBox(300, 100, 20, 40)]),
               2: frame(2, [BBox(102, 100, 20, 40), BBox(302, 100, 20, 40)], conf=[0.9, 0.3])},
              {(1, 0): PALETTE[0], (1, 1): PALETTE[1]}), (GateConfig(), MatchConfig(byte_low=True)))
    def test_full_iou_threshold_equals_always_extract(self, stream, config):
        # the gate reads the IoUs and finds no candidate; always_extract reads none
        frames, features = stream
        _, match = config
        gated, gated_stats = run_sequence(
            frames, DictProvider(features), GateConfig(theta_iou=1.0), match
        )
        always, always_stats = run_sequence(
            frames, DictProvider(features), GateConfig(mode=MODE_ALWAYS_EXTRACT), match
        )
        assert gated.rows == always.rows
        assert gated_stats == always_stats


class TestFrameGap:
    """A frame number left out between two steps is a frame without detections."""

    def test_left_out_frames_outlast_max_age(self):
        # one still box at frames 1-10 and again at 41: frames 11-40, stepped
        # empty or left out, are 30 misses, past max_age, so the box is born again
        box = BBox(30, 30, 20, 40)
        for stepped in (True, False):
            tracker = SelectiveTracker(ConstantProvider(), match=MatchConfig(max_age=5))
            for f in range(1, 41):
                if f <= 10 or stepped:
                    tracker.step(f, frame(f, [box] if f <= 10 else []))
            assert [tid for tid, _ in tracker.step(41, frame(41, [box]))] == [2], stepped

    def test_a_huge_gap_predicts_at_most_max_age_plus_one_times(self, monkeypatch):
        calls = []

        def counting(block, real=motion.predict):
            calls.append(block.shape[-1])
            return real(block)

        monkeypatch.setattr(motion, "predict", counting)
        tracker = SelectiveTracker(ConstantProvider(), match=MatchConfig(max_age=3))
        tracker.step(1, frame(1, [BBox(30, 30, 20, 40)]))
        calls.clear()
        assert [tid for tid, _ in tracker.step(10**15, frame(10**15, [BBox(30, 30, 20, 40)]))] == [2]
        # the gap outlives every row, so the missed frames empty the table
        # without a predict; the one predict is the frame's own
        assert calls == [0]

    def test_a_gap_past_a_large_max_age_predicts_nothing(self, monkeypatch):
        # at max_age 20000, stepping each missed frame took 20001 predicts (about 0.5 s)
        calls = []

        def counting(block, real=motion.predict):
            calls.append(block.shape[-1])
            return real(block)

        monkeypatch.setattr(motion, "predict", counting)
        tracker = SelectiveTracker(ConstantProvider(), match=MatchConfig(max_age=20000))
        tracker.step(1, frame(1, [BBox(30, 30, 20, 40), BBox(300, 30, 20, 40)]))
        calls.clear()
        tracker.step(3, frame(3, [BBox(30, 30, 20, 40)]))  # one missed frame: one predict of both rows
        assert calls == [2, 2]
        calls.clear()
        assert [tid for tid, _ in tracker.step(10**9, frame(10**9, [BBox(30, 30, 20, 40)]))] == [3]
        assert calls == [0]

    @settings(max_examples=150, deadline=None)
    @given(streams(), configs)
    def test_left_out_frames_equal_empty_frames(self, stream, config):
        frames, features = stream
        gapped = SelectiveTracker(DictProvider(features), *config)
        stepped = SelectiveTracker(DictProvider(features), *config)
        last = 0
        for f in sorted(frames):
            for empty in range(last + 1, f):
                assert stepped.step(empty, frame(empty, [])) == []
            last = f
            assert gapped.step(f, frames[f]) == stepped.step(f, frames[f])
            for c in fields(TrackTable):
                got, want = getattr(gapped.table, c.name), getattr(stepped.table, c.name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (f, c.name)
        assert gapped.stats.fetches == stepped.stats.fetches
