"""Deterministic synthetic scenes emitting detection, feature, and gt files.

Targets follow piecewise-linear box trajectories with a fixed identity
feature direction each; occlusion windows drop their detections (and gt
rows) for a frame interval. All randomness comes from numpy's PCG64
generator seeded from the scenario, so identical scenarios produce
byte-identical files on any platform.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from seltrack import io as mot_io
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

    def box_at(self, frame: int) -> BBox | None:
        ks = self.keyframes
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
        return ks[-1][1]  # single-keyframe target


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
        dirs = [t.feature_dir / np.linalg.norm(t.feature_dir) for t in self.targets]
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                if dirs[i].shape == dirs[j].shape and np.allclose(dirs[i], dirs[j]):
                    raise ValueError(f"targets {i} and {j} share a feature direction")
        for t, first, last in self.occlusions:
            if not 0 <= t < len(self.targets) or first > last:
                raise ValueError(f"bad occlusion window ({t}, {first}, {last})")

    def occluded(self, target: int, frame: int) -> bool:
        return any(
            t == target and first <= frame <= last for t, first, last in self.occlusions
        )

    def visible_boxes(self, frame: int) -> list[tuple[int, BBox]]:
        """(target index, gt box) for every visible target at this frame."""
        out = []
        for i, target in enumerate(self.targets):
            if self.occluded(i, frame):
                continue
            box = target.box_at(frame)
            if box is not None:
                out.append((i, box))
        return out


def generate(
    scenario: Scenario, det_path, feature_path, gt_path
) -> tuple[Path, Path, Path]:
    """Write the three files for the scenario; byte-identical per seed."""
    rng = np.random.default_rng(scenario.seed)
    width, height = scenario.bounds
    det_lines: list[str] = []
    gt_lines: list[str] = []
    feature_records = []
    for frame in range(1, scenario.frames + 1):
        visible = scenario.visible_boxes(frame)
        for index, (tid, gt_box) in enumerate(visible):
            if gt_box.x < 0 or gt_box.y < 0 or gt_box.x + gt_box.w > width or gt_box.y + gt_box.h > height:
                raise ValueError(
                    f"target {tid} leaves scene bounds at frame {frame}: {gt_box}"
                )
            jitter = rng.normal(0.0, scenario.box_noise, size=4) if scenario.box_noise else np.zeros(4)
            det_box = BBox(
                gt_box.x + jitter[0],
                gt_box.y + jitter[1],
                max(gt_box.w + jitter[2], 1.0),
                max(gt_box.h + jitter[3], 1.0),
            )
            direction = scenario.targets[tid].feature_dir
            noise = (
                rng.normal(0.0, scenario.feature_noise, size=direction.shape)
                if scenario.feature_noise
                else 0.0
            )
            vec = direction + noise
            norm = np.linalg.norm(vec)
            if norm == 0.0:
                raise ValueError(f"feature collapsed to zero at frame {frame}")
            feature_records.append(
                (frame, index, (vec / norm).astype(np.float32))
            )
            det_lines.append(
                f"{frame},-1,{det_box.x:.6f},{det_box.y:.6f},{det_box.w:.6f},"
                f"{det_box.h:.6f},{scenario.confidence:.6f},-1,-1,-1\n"
            )
            gt_lines.append(
                f"{frame},{tid + 1},{gt_box.x:.6f},{gt_box.y:.6f},{gt_box.w:.6f},"
                f"{gt_box.h:.6f},1,1,1\n"
            )
    det_path, feature_path, gt_path = Path(det_path), Path(feature_path), Path(gt_path)
    det_path.write_text("".join(det_lines), encoding="utf-8")
    gt_path.write_text("".join(gt_lines), encoding="utf-8")
    mot_io.write_features(feature_path, feature_records)
    return det_path, feature_path, gt_path


def generate_to_dir(scenario: Scenario, out_dir) -> tuple[Path, Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return generate(
        scenario, out / "det.txt", out / "features.feab", out / "gt.txt"
    )


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
    return Scenario(
        seed=seed,
        frames=60,
        targets=[big, small],
        occlusions=[(1, 24, 28)],
        box_noise=0.0,
        feature_noise=0.0,
    )


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
    return Scenario(
        seed=seed,
        frames=frames,
        targets=targets,
        box_noise=0.3,
        feature_noise=0.03,
    )


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
