"""Risk classification of detections against confirmed track boxes.

A detection is safe to match without appearance features only when exactly
one confirmed track overlaps it above the IoU threshold and, optionally,
the IoU-blended aspect-ratio similarity of that sole candidate clears its
own threshold. Everything else is risky and pays for a feature extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seltrack.geometry import ars, blend

MODE_SELECTIVE = "selective"
MODE_BASE_GATE = "base_gate"
MODE_ALWAYS_EXTRACT = "always_extract"
MODES = (MODE_SELECTIVE, MODE_BASE_GATE, MODE_ALWAYS_EXTRACT)

# A non-risky detection under base-gate semantics is pushed out of the
# appearance stage with the largest possible cosine distance.
SATURATED_COST = 2.0


@dataclass
class GateConfig:
    theta_iou: float = 0.2
    theta_alpha: float = 0.6
    ars_enabled: bool = True
    mode: str = MODE_SELECTIVE

    def __post_init__(self):
        if not 0.0 <= self.theta_iou <= 1.0:
            raise ValueError(f"theta_iou out of range: {self.theta_iou!r}")
        if not 0.0 <= self.theta_alpha <= 1.0:
            raise ValueError(f"theta_alpha out of range: {self.theta_alpha!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def reads_iou(self) -> bool:
        """Whether `candidates` looks at the IoUs: not under always_extract, where every detection is risky."""
        return self.mode != MODE_ALWAYS_EXTRACT


def candidates(ious: np.ndarray, det_xywh: np.ndarray, track_xywh: np.ndarray, cfg: GateConfig) -> np.ndarray:
    """Each detection's sole candidate track, or -1 where the detection is risky.

    `ious[i, j]` is the IoU of track i with detection j, and the box arrays
    hold (x, y, w, h) rows; a track whose row of `ious` is 0 is no candidate.
    """
    n_dets = ious.shape[1]
    if not cfg.reads_iou:
        return np.full(n_dets, -1)
    above = ious > cfg.theta_iou
    sole = np.add.reduce(above, axis=0) == 1
    dets = sole.nonzero()[0]
    if not len(dets):  # every detection is risky: the aspect check has no pair
        return np.full(n_dets, -1)
    cand = np.where(sole, above.argmax(axis=0), -1)
    if cfg.ars_enabled:
        # the sole pairs' IoUs and aspect similarities are in [0, 1], so `blend` needs no range check
        tracks = cand[dets]
        alpha = blend(ious[tracks, dets], ars(det_xywh[dets], track_xywh[tracks]))
        cand[dets[alpha < cfg.theta_alpha]] = -1
    return cand
