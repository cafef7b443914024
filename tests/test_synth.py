import numpy as np
import pytest

from seltrack.geometry import BBox, iou_matrix
from seltrack.io import read_detections, read_trajectories
from seltrack.synth import (
    PRESETS,
    Scenario,
    Target,
    center_box,
    crossing_scene,
    generate_to_dir,
    preset,
)
from seltrack.appearance import cosine_costs

from oracles import normalized, reference_read_features


def tiny_scenario(seed=0, **overrides):
    kwargs = dict(
        seed=seed,
        frames=5,
        targets=[
            Target(np.array([1.0, 0, 0]), [(1, BBox(10, 10, 20, 30)), (5, BBox(30, 10, 20, 30))]),
            Target(np.array([0, 1.0, 0]), [(1, BBox(100, 100, 20, 30)), (5, BBox(80, 100, 20, 30))]),
        ],
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestGenerate:
    def test_zero_noise_dets_equal_gt(self, tmp_path):
        det, _, gt = generate_to_dir(tiny_scenario(), tmp_path)
        dets = read_detections(det)
        traj = read_trajectories(gt)
        for frame, frame_dets in dets.items():
            rows = traj[traj["frame"] == frame][:len(frame_dets)]
            assert rows["id"].tolist() == [1, 2][:len(frame_dets)]
            assert rows["xywh"].tolist() == frame_dets.xywh.tolist()

    def test_same_seed_is_bitwise_identical(self, tmp_path):
        sc = tiny_scenario(box_noise=0.5, feature_noise=0.1)
        a = generate_to_dir(sc, tmp_path / "a")
        b = generate_to_dir(sc, tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = generate_to_dir(tiny_scenario(seed=1, box_noise=0.5), tmp_path / "a")
        b = generate_to_dir(tiny_scenario(seed=2, box_noise=0.5), tmp_path / "b")
        assert a[0].read_bytes() != b[0].read_bytes()

    def test_occlusion_window_drops_rows(self, tmp_path):
        sc = tiny_scenario(occlusions=[(1, 2, 4)])
        det, feat, gt = generate_to_dir(sc, tmp_path)
        traj = read_trajectories(gt)
        assert traj["frame"][traj["id"] == 2].tolist() == [1, 5]
        assert traj["frame"][traj["id"] == 1].tolist() == [1, 2, 3, 4, 5]
        dets = read_detections(det)
        assert all(len(dets[f]) == 1 for f in (2, 3, 4))
        # feature keys follow the per-frame reindexing
        assert set(reference_read_features(feat)) >= {(2, 0), (3, 0), (4, 0)}

    def test_out_of_bounds_trajectory_rejected(self, tmp_path):
        sc = tiny_scenario(bounds=(25.0, 25.0))
        with pytest.raises(ValueError, match="bounds"):
            generate_to_dir(sc, tmp_path)

    def test_duplicate_feature_directions_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            Scenario(
                seed=0,
                frames=3,
                targets=[
                    Target(np.array([1.0, 0]), [(1, BBox(0, 0, 5, 5))]),
                    Target(np.array([2.0, 0]), [(1, BBox(20, 20, 5, 5))]),
                ],
            )

    def test_feature_directions_of_different_lengths_rejected(self):
        # refused where the scene is built, not later where its feature file is written
        with pytest.raises(ValueError, match="one length"):
            Scenario(
                seed=0,
                frames=3,
                targets=[
                    Target(np.array([1.0, 0, 0]), [(1, BBox(0, 0, 5, 5))]),
                    Target(np.array([0, 1.0]), [(1, BBox(20, 20, 5, 5))]),
                ],
            )

    # the last two are finite, but the norm of the first overflows float64 and
    # the squared norm of the second underflows to 0
    @pytest.mark.parametrize("direction", [[0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0], [1.0, -np.inf, 0.0],
                                           [1e200, 1e200, 0.0], [1e-200, 0.0, 0.0]])
    def test_zero_or_non_finite_feature_direction_rejected(self, direction):
        # refused by name, before any division by its norm (which would warn)
        with pytest.raises(ValueError, match="target 1 .*direction"):
            Scenario(
                seed=0,
                frames=3,
                targets=[
                    Target(np.array([1.0, 0, 0]), [(1, BBox(0, 0, 5, 5))]),
                    Target(np.array(direction), [(1, BBox(20, 20, 5, 5))]),
                ],
            )

    def test_degenerate_keyframe_box_rejected(self):
        with pytest.raises(ValueError):
            Target(np.array([1.0, 0]), [(1, BBox(0, 0, 0, 5))])

    @pytest.mark.parametrize("frames", [[], [2, 1], [1, 1]])
    def test_keyframes_empty_or_not_increasing_rejected(self, frames):
        with pytest.raises(ValueError, match=r"^keyframes must be non-empty with increasing frames$"):
            Target(np.array([1.0, 0]), [(f, BBox(0, 0, 5, 5)) for f in frames])

    @pytest.mark.parametrize("overrides, message", [
        # `seltrack synth --seed -1` printed numpy's "expected non-negative integer"
        ({"seed": -1}, r"^seed must be an integer >= 0, got -1$"),
        ({"seed": 1.0}, r"^seed must be an integer >= 0, got 1\.0$"),
        ({"seed": True}, r"^seed must be an integer >= 0, got True$"),
        ({"frames": 0}, r"^scenario needs at least one frame$"),
        ({"occlusions": [(2, 1, 3)]}, r"^bad occlusion window \(2, 1, 3\)$"),
        ({"occlusions": [(0, 3, 2)]}, r"^bad occlusion window \(0, 3, 2\)$"),
    ])
    def test_refused_scenario(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_scenario(**overrides)


def reference_box_at(target, frame):
    """The keyframe path at one frame, as a loop over its segments: the first that holds it, u = 1 at its end."""
    ks = target.keyframes
    if frame < ks[0][0] or frame > ks[-1][0]:
        return None
    for (f0, b0), (f1, b1) in zip(ks, ks[1:]):
        if f0 <= frame <= f1:
            u = (frame - f0) / (f1 - f0)
            return center_box(
                b0.cx + u * (b1.cx - b0.cx),
                b0.cy + u * (b1.cy - b0.cy),
                b0.w + u * (b1.w - b0.w),
                b0.h + u * (b1.h - b0.h),
            )
    return ks[-1][1]


class TestBoxes:
    def test_paths_equal_the_segment_loop_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            frames = np.sort(rng.choice(np.arange(-5, 40), size=n, replace=False))
            keyframes = [
                (int(f), center_box(*rng.uniform(0, 500, size=2), *rng.uniform(1, 80, size=2))) for f in frames
            ]
            target = Target(np.array([1.0]), keyframes)
            at = np.arange(-8, 44)
            want = [reference_box_at(target, int(f)) for f in at]
            want = [[np.nan] * 4 if b is None else [b.x, b.y, b.w, b.h] for b in want]
            np.testing.assert_array_equal(target.boxes(at), want)

    def test_path_is_nan_outside_its_keyframe_span(self):
        t = Target(np.array([1.0]), [(2, BBox(0, 0, 4, 4)), (4, BBox(4, 0, 4, 8))])
        rows = t.boxes([1, 2, 3, 4, 5])
        assert np.isnan(rows[[0, 4]]).all()
        assert rows[1:4].tolist() == [[0, 0, 4, 4], [2, 0, 4, 6], [4, 0, 4, 8]]

    def test_one_keyframe_path_is_its_box(self):
        t = Target(np.array([1.0]), [(3, BBox(0.1, 0.2, 0.3, 0.7))])
        rows = t.boxes([2, 3, 4])
        assert np.isnan(rows[[0, 2]]).all() and rows[1].tolist() == [0.1, 0.2, 0.3, 0.7]

    def test_occlusion_windows_clamped_to_the_scene(self):
        gt = tiny_scenario(occlusions=[(0, -2, 2), (1, 4, 9)]).boxes()
        assert gt.shape == (5, 2, 4)
        seen = ~np.isnan(gt).any(axis=2)
        assert seen.T.tolist() == [[False, False, True, True, True], [True, True, True, False, False]]


class TestCrossingScene:
    def test_both_targets_present_before_and_after(self):
        seen = ~np.isnan(crossing_scene().boxes()[..., 0])
        for frame in (1, 23, 29, 60):
            assert seen[frame - 1].sum() == 2
        for frame in range(24, 29):
            assert np.flatnonzero(seen[frame - 1]).tolist() == [0]

    def test_mid_crossing_overlap_exceeds_half(self):
        sc = crossing_scene()
        a = sc.targets[0].boxes([26])
        b = sc.targets[1].boxes([26])
        assert iou_matrix(a, b)[0, 0] > 0.5

    def test_features_orthogonal(self):
        sc = crossing_scene()
        f0 = normalized(sc.targets[0].feature_dir)
        f1 = normalized(sc.targets[1].feature_dir)
        assert cosine_costs([f0], [f1])[0, 0] == 1.0

    def test_reappearance_is_clear_of_both_predictions(self):
        sc = crossing_scene()
        small = sc.targets[1].boxes([29])
        big = sc.targets[0].boxes([29])
        assert iou_matrix(small, big)[0, 0] == 0.0


class TestPresets:
    def test_catalog_names(self):
        assert set(PRESETS) == {"crossing", "parade", "enter_exit", "grid", "receding"}

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("nope")

    @pytest.mark.parametrize("name, kwarg", [("grid", "n_targets"), ("crossing", "frames"), ("parade", "side")])
    def test_kwarg_the_preset_does_not_take(self, name, kwarg):
        with pytest.raises(ValueError, match=f"takes no '{kwarg}'"):
            preset(name, **{kwarg: 3})

    def test_kwargs_reach_the_scene_function(self):
        sc = preset("parade", seed=7, n_targets=3, frames=20)
        assert (sc.seed, len(sc.targets), sc.frames) == (7, 3, 20)

    @pytest.mark.parametrize("name", ["grid", "parade", "receding"])  # the presets that take `frames`
    def test_one_frame_scene_generates(self, name, tmp_path):
        # each target of a one-frame parade or grid had two keyframes at frame 1
        det, _, gt = generate_to_dir(preset(name, frames=1), tmp_path)
        assert list(read_detections(det)) == [1] and set(read_trajectories(gt)["frame"].tolist()) == {1}

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_generate_and_parse(self, name, tmp_path):
        det, feat, gt = generate_to_dir(preset(name), tmp_path / name)
        frames = read_detections(det)
        assert frames
        features = reference_read_features(feat)
        for frame, dets in frames.items():
            for d in dets:
                assert (frame, d.index) in features
        assert len(read_trajectories(gt))

    def test_parade_lanes_never_overlap(self, tmp_path):
        gt = preset("parade").boxes()
        for frame in (1, 100, 200):
            boxes = gt[frame - 1][~np.isnan(gt[frame - 1, :, 0])]
            overlap = iou_matrix(boxes, boxes)
            assert (overlap[~np.eye(len(boxes), dtype=bool)] == 0.0).all()

    def test_grid_neighbours_overlap(self):
        boxes = preset("grid").boxes()[0]
        assert iou_matrix(boxes[:1], boxes[1:2])[0, 0] > 0.2


class TestParserFuzz:
    def test_hundred_random_scenarios_parse(self, tmp_path):
        rng = np.random.default_rng(11)
        for k in range(100):
            n = int(rng.integers(1, 4))
            targets = []
            for i in range(n):
                cx0, cy0 = rng.uniform(100, 600), rng.uniform(100, 400)
                dx, dy = rng.uniform(-40, 40), rng.uniform(-30, 30)
                w, h = rng.uniform(10, 60), rng.uniform(10, 60)
                targets.append(
                    Target(
                        feature_dir=np.eye(4)[i % 4] * (1 + i // 4) + np.full(4, 0.01 * i),
                        keyframes=[
                            (1, center_box(cx0, cy0, w, h)),
                            (10, center_box(cx0 + dx, cy0 + dy, w, h)),
                        ],
                    )
                )
            sc = Scenario(
                seed=int(rng.integers(0, 2**31)),
                frames=10,
                targets=targets,
                box_noise=float(rng.uniform(0, 1)),
                feature_noise=float(rng.uniform(0, 0.2)),
            )
            det, feat, gt = generate_to_dir(sc, tmp_path / f"s{k}")
            assert read_detections(det) is not None
            assert reference_read_features(feat) is not None
            assert read_trajectories(gt) is not None
