"""Deterministic synthetic scenes emitting detection, feature, and gt files.

Targets follow piecewise-linear box trajectories with a fixed identity
feature direction each; occlusion windows drop their detections (and gt
rows) for a frame interval. A scene's ground truth is one (frames, targets,
4) array, and its detections and features are drawn from it frame by frame.
All randomness comes from numpy's PCG64 generator seeded from the scenario,
so identical scenarios produce byte-identical files on any platform.
"""

from __future__ import annotations

import inspect
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from seltrack import io as mot_io
from seltrack.appearance import norms
from seltrack.geometry import BBox


def center_box(cx: float, cy: float, w: float, h: float) -> BBox:
    return BBox(cx - w / 2.0, cy - h / 2.0, w, h)


@dataclass
class Target:
    """Identity direction plus (frame, box) keyframes, frames increasing."""

    feature_dir: np.ndarray
    keyframes: list[tuple[int, BBox]]

    def __post_init__(self):
        self.feature_dir = np.asarray(self.feature_dir, dtype=float)
        frames = [f for f, _ in self.keyframes]
        if not frames or frames != sorted(set(frames)):
            raise ValueError("keyframes must be non-empty with increasing frames")

    def boxes(self, frames) -> np.ndarray:
        """(x, y, w, h) rows of the keyframe path at `frames`; NaN outside the keyframe span.

        Centre and size move linearly between keyframes. A frame on an
        interior keyframe takes the earlier segment's end (u = 1), which need
        not be bit-equal to the keyframe box; a one-keyframe path is its box.
        """
        frames = np.asarray(frames)
        kf = np.array([f for f, _ in self.keyframes])
        out = np.full((len(frames), 4), np.nan)
        seen = (kf[0] <= frames) & (frames <= kf[-1])
        if len(kf) == 1:
            out[seen] = astuple(self.keyframes[0][1])
            return out
        f = frames[seen]
        seg = np.maximum(kf.searchsorted(f) - 1, 0)
        u = ((f - kf[seg]) / (kf[seg + 1] - kf[seg]))[:, None]
        centred = np.array([(b.cx, b.cy, b.w, b.h) for _, b in self.keyframes])
        c = centred[seg] + u * (centred[seg + 1] - centred[seg])
        c[:, :2] -= c[:, 2:] / 2.0
        out[seen] = c
        return out


@dataclass
class Scenario:
    seed: int
    frames: int
    targets: list[Target]
    occlusions: list[tuple[int, int, int]] = field(default_factory=list)  # (target, first, last)
    box_noise: float = 0.0
    feature_noise: float = 0.0
    bounds: tuple[float, float] = (800.0, 600.0)
    confidence: float = 0.9

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError("scenario needs at least one frame")
        dirs = self._directions()
        with np.errstate(over="ignore"):  # a norm beyond float64 is inf, refused below
            norm = norms(dirs)
        # a zero or non-finite direction, or a finite one whose norm overflows
        # or whose squared norm underflows to 0
        refused = ~((0.0 < norm) & (norm < np.inf))
        if refused.any():
            raise ValueError(f"target {int(np.argmax(refused))} has a feature direction whose norm is 0 or not finite")
        dirs = dirs / norm[:, None]
        for i in range(len(dirs) - 1):
            same = np.isclose(dirs[i], dirs[i + 1:]).all(axis=1)
            if same.any():
                raise ValueError(f"targets {i} and {i + 1 + int(np.argmax(same))} share a feature direction")
        for t, first, last in self.occlusions:
            if not 0 <= t < len(self.targets) or first > last:
                raise ValueError(f"bad occlusion window ({t}, {first}, {last})")

    def _directions(self) -> np.ndarray:
        """(targets, dim): each target's feature direction, flattened; all must have one length."""
        sizes = [t.feature_dir.size for t in self.targets]
        if len(set(sizes)) > 1:
            raise ValueError(f"feature directions must share one length, got lengths {sizes}")
        return np.array([t.feature_dir.ravel() for t in self.targets]).reshape(len(sizes), sizes[0] if sizes else 0)

    def boxes(self) -> np.ndarray:
        """(frames, targets, 4) gt array: row [f - 1, t] is target t's (x, y, w, h) at frame f, NaN where unseen."""
        frames = np.arange(1, self.frames + 1)
        out = np.empty((self.frames, len(self.targets), 4))
        for i, target in enumerate(self.targets):
            out[:, i] = target.boxes(frames)
        for t, first, last in self.occlusions:
            out[(first <= frames) & (frames <= last), t] = np.nan
        return out


def generate(scenario: Scenario, det_path, feature_path, gt_path) -> tuple[Path, Path, Path]:
    """Write the three files for the scenario; byte-identical per seed.

    Each frame's seen targets, in target order, are its detections. One
    normal draw per frame gives each detection its row of 4 box jitters,
    then its feature noise; a block whose noise is 0 is not drawn.
    """
    gt = scenario.boxes()
    seen = ~np.isnan(gt[..., 0])
    frame_ix, tids = np.nonzero(seen)  # by frame, then target
    gt = gt[seen]
    outside = (gt[:, :2] < 0).any(axis=1) | (gt[:, :2] + gt[:, 2:] > scenario.bounds).any(axis=1)
    if outside.any():
        n = int(np.argmax(outside))
        raise ValueError(f"target {tids[n]} leaves scene bounds at frame {frame_ix[n] + 1}: {BBox(*gt[n].tolist())}")
    dirs = scenario._directions()
    box_cols = 4 if scenario.box_noise else 0
    noise_cols = dirs.shape[1] if scenario.feature_noise else 0
    scales = np.repeat([scenario.box_noise, scenario.feature_noise], [box_cols, noise_cols])
    rng = np.random.default_rng(scenario.seed)
    jitter = np.zeros((len(gt), 4))
    features = np.empty((len(gt), dirs.shape[1]), dtype=np.float32)
    for frame, rows in enumerate(np.split(np.arange(len(gt)), np.cumsum(seen.sum(axis=1))[:-1]), start=1):
        draws = rng.normal(0.0, scales, size=(len(rows), len(scales)))
        if box_cols:
            jitter[rows] = draws[:, :4]
        vec = dirs[tids[rows]] + (draws[:, box_cols:] if noise_cols else 0.0)
        norm = norms(vec)
        if (norm == 0.0).any():
            raise ValueError(f"feature collapsed to zero at frame {frame}")
        features[rows] = vec / norm[:, None]
    det = gt + jitter
    np.maximum(det[:, 2:], 1.0, out=det[:, 2:])
    frames = frame_ix + 1
    index = seen.cumsum(axis=1)[seen] - 1  # a detection's position in its frame
    det_path, feature_path, gt_path = Path(det_path), Path(feature_path), Path(gt_path)
    mot_io.write_rows(det_path, frames, np.full(len(det), -1), det, f",{scenario.confidence:.6f},-1,-1,-1")
    mot_io.write_rows(gt_path, frames, tids + 1, gt, ",1,1,1")
    mot_io.write_features(feature_path, zip(frames.tolist(), index.tolist(), features))
    return det_path, feature_path, gt_path


def generate_to_dir(scenario: Scenario, out_dir) -> tuple[Path, Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return generate(scenario, out / "det.txt", out / "features.feab", out / "gt.txt")


def _basis(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim)
    v[index] = 1.0
    return v


def crossing_scene(seed: int = 1) -> Scenario:
    """Two targets cross; the smaller one is hidden for the five overlap frames.

    The small target approaches from the right, passes behind the large one
    at mid-crossing (gt overlap above 0.5), and reappears displaced, so a
    motion-only tracker loses it while its orthogonal identity feature makes
    re-association trivial.
    """
    big = Target(
        feature_dir=_basis(8, 0),
        keyframes=[(1, center_box(100, 240, 64, 80)), (60, center_box(454, 240, 64, 80))],
    )
    small = Target(
        feature_dir=_basis(8, 1),
        keyframes=[
            (1, center_box(400, 240, 52, 64)),
            (23, center_box(268, 240, 52, 64)),
            (26, center_box(250, 240, 52, 64)),
            (29, center_box(300, 340, 52, 64)),
            (60, center_box(610, 380, 52, 64)),
        ],
    )
    return Scenario(seed=seed, frames=60, targets=[big, small], occlusions=[(1, 24, 28)])


def parade_scene(seed: int = 2, n_targets: int = 10, frames: int = 200) -> Scenario:
    """Parallel non-interacting lanes; every detection has a sole candidate."""
    dim = max(n_targets, 2)
    targets = []
    for i in range(n_targets):
        cy = 50.0 + 45.0 * i
        targets.append(
            Target(
                feature_dir=_basis(dim, i),
                keyframes=[
                    (1, center_box(50, cy, 30, 40)),
                    (frames, center_box(50 + 3.0 * (frames - 1), cy, 30, 40)),
                ],
            )
        )
    return Scenario(seed=seed, frames=frames, targets=targets, box_noise=0.3, feature_noise=0.03)


def enter_exit_scene(seed: int = 3) -> Scenario:
    """Targets entering and leaving mid-sequence exercise births and deaths."""
    targets = [
        Target(
            feature_dir=_basis(8, 0),
            keyframes=[(1, center_box(60, 100, 36, 48)), (80, center_box(640, 100, 36, 48))],
        ),
        Target(
            feature_dir=_basis(8, 1),
            keyframes=[(25, center_box(60, 220, 36, 48)), (80, center_box(500, 220, 36, 48))],
        ),
        Target(
            feature_dir=_basis(8, 2),
            keyframes=[(1, center_box(700, 340, 36, 48)), (50, center_box(200, 340, 36, 48))],
        ),
    ]
    return Scenario(seed=seed, frames=80, targets=targets, box_noise=0.3, feature_noise=0.03)


def grid_scene(seed: int = 4, side: int = 3, frames: int = 60) -> Scenario:
    """Dense grid of mutually overlapping targets: everything stays risky."""
    dim = max(side * side, 2)
    targets = []
    for r in range(side):
        for c in range(side):
            i = r * side + c
            cx = 120.0 + 24.0 * c
            cy = 120.0 + 40.0 * r
            targets.append(
                Target(
                    feature_dir=_basis(dim, i),
                    keyframes=[
                        (1, center_box(cx, cy, 40, 50)),
                        (frames, center_box(cx + 2.0 * (frames - 1), cy, 40, 50)),
                    ],
                )
            )
    return Scenario(seed=seed, frames=frames, targets=targets, box_noise=0.2, feature_noise=0.03)


def receding_scene(seed: int = 5, n_targets: int = 4, frames: int = 90) -> Scenario:
    """Targets walk away towards a vanishing point and are lost while small.

    Target i is seen from frame 1 + 10 i for 40 frames, shrinking at a steady
    rate from 48x120 to 9.6x24 px as it recedes, with a fixed aspect. Its
    track's coasting prediction keeps shrinking after the last detection, so
    the predicted height reaches 0 within about ten frames and the track ends
    as degenerate, long before `MatchConfig.max_age` misses would end it.
    """
    dim = max(n_targets, 2)
    targets = []
    for i in range(n_targets):
        first = 1 + 10 * i
        cx = 100.0 + 600.0 * i / max(n_targets - 1, 1)
        targets.append(
            Target(
                feature_dir=_basis(dim, i),
                keyframes=[
                    (first, center_box(cx, 480, 48, 120)),
                    (first + 39, center_box(400 + (cx - 400) / 5, 200, 9.6, 24)),
                ],
            )
        )
    return Scenario(seed=seed, frames=frames, targets=targets, box_noise=0.3, feature_noise=0.03)


PRESETS = {
    "crossing": crossing_scene,
    "parade": parade_scene,
    "enter_exit": enter_exit_scene,
    "grid": grid_scene,
    "receding": receding_scene,
}


def preset(name: str, **kwargs) -> Scenario:
    """The named preset's scenario; `kwargs` must be parameters of its scene function."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    params = inspect.signature(PRESETS[name]).parameters
    for key in kwargs:
        if key not in params:
            raise ValueError(f"preset {name!r} takes no {key!r}; it takes {sorted(params)}")
    return PRESETS[name](**kwargs)
