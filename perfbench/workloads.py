"""Seeded benchmark workloads, written to disk through `seltrack.synth`.

Every workload is a `synth.Scenario` whose shape (lanes, grid side, frames,
birth schedule) is fixed; the seed only draws noise, positions and the
low-confidence detections, so every seed asks the tracker for the same
amount of work.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from seltrack import synth
from seltrack.tracker import STRATEGY_CASCADE, STRATEGY_FUSED, MatchConfig

PARADE_LANES = 12
PARADE_FRAMES = 400
PARADE_BOUNDS = (1300.0, 600.0)  # 12 lanes 45 px apart, 3 px/frame for 400 frames

GRID_SIDE = 5
GRID_FRAMES = 200

CHURN_TARGETS = 200  # one born per frame
CHURN_LIFETIME = 20  # frames each target is visible
CHURN_FRAMES = CHURN_TARGETS + CHURN_LIFETIME - 1  # the last target lives out its life
CHURN_LOW_SHARE = 0.2  # chance that a detection falls below conf_high
CHURN_BOUNDS = (1920.0, 1080.0)
CHURN_SLOTS = (12, 6)  # columns x rows of spawn cells
CHURN_FEATURE_DIM = 128
# A slot is reused only after the previous target's track has been deleted
# (max_age + 1 frames after its last detection), so a new target never lands
# on a coasting track: churn stays about births and deletions, not ambiguity.
CHURN_SLOT_COOLDOWN = CHURN_LIFETIME + MatchConfig().max_age + 1


@dataclass(frozen=True)
class Workload:
    name: str
    match: MatchConfig
    det: Path
    features: Path
    gt: Path


def _parade(seed: int) -> synth.Scenario:
    scenario = synth.parade_scene(seed=seed, n_targets=PARADE_LANES, frames=PARADE_FRAMES)
    return dataclasses.replace(scenario, bounds=PARADE_BOUNDS)


def _grid(seed: int) -> synth.Scenario:
    return synth.grid_scene(seed=seed, side=GRID_SIDE, frames=GRID_FRAMES)


def _churn(seed: int, rng: np.random.Generator) -> synth.Scenario:
    """One target is born per frame in a free spawn cell and lives CHURN_LIFETIME frames."""
    cols, rows = CHURN_SLOTS
    cell_w = CHURN_BOUNDS[0] / cols
    cell_h = CHURN_BOUNDS[1] / rows
    last_used = np.full(cols * rows, -CHURN_SLOT_COOLDOWN)
    targets = []
    for first in range(1, CHURN_TARGETS + 1):
        free = np.flatnonzero(first - last_used >= CHURN_SLOT_COOLDOWN)
        slot = int(rng.choice(free))
        last_used[slot] = first
        last = first + CHURN_LIFETIME - 1
        cx = (slot % cols + 0.5) * cell_w + rng.uniform(-10.0, 10.0)
        cy = (slot // cols + 0.5) * cell_h + rng.uniform(-10.0, 10.0)
        w = rng.uniform(30.0, 50.0)
        h = w * rng.uniform(1.8, 2.4)
        vx, vy = rng.uniform(-0.5, 0.5, size=2)
        span = last - first
        keyframes = [
            (first, synth.center_box(cx, cy, w, h)),
            (last, synth.center_box(cx + vx * span, cy + vy * span, w, h)),
        ]
        targets.append(synth.Target(rng.normal(size=CHURN_FEATURE_DIM), keyframes))
    return synth.Scenario(
        seed=seed,
        frames=CHURN_FRAMES,
        targets=targets,
        box_noise=0.5,
        feature_noise=0.05,
        bounds=CHURN_BOUNDS,
    )


def _lower_confidences(det_path: Path, rng: np.random.Generator, conf_high: float) -> None:
    """Rewrite a seeded CHURN_LOW_SHARE of detection rows below conf_high."""
    lines = det_path.read_text(encoding="utf-8").splitlines(keepends=True)
    out = []
    for line in lines:
        if rng.random() < CHURN_LOW_SHARE:
            fields = line.split(",")
            fields[6] = f"{rng.uniform(0.3, conf_high - 0.01):.6f}"
            line = ",".join(fields)
        out.append(line)
    det_path.write_text("".join(out), encoding="utf-8")


NAMES = ("parade", "grid", "churn")


def generate(name: str, seed: int, out_dir: Path) -> Workload:
    """Write det.txt, features.feab and gt.txt for the workload into out_dir."""
    if name == "parade":
        scenario, match = _parade(seed), MatchConfig(strategy=STRATEGY_CASCADE)
    elif name == "grid":
        scenario, match = _grid(seed), MatchConfig(strategy=STRATEGY_CASCADE)
    elif name == "churn":
        rng = np.random.default_rng([seed, 1])
        scenario, match = _churn(seed, rng), MatchConfig(strategy=STRATEGY_FUSED)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    det, features, gt = synth.generate_to_dir(scenario, out_dir)
    if name == "churn":
        _lower_confidences(det, rng, match.conf_high)
    return Workload(name, match, det, features, gt)
