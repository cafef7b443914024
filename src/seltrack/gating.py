"""Risk classification of detections against confirmed track boxes.

A detection is safe to match without appearance features only when exactly
one confirmed track overlaps it above the IoU threshold and, optionally,
the IoU-blended aspect-ratio similarity of that sole candidate clears its
own threshold. Everything else is risky and pays for a feature extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seltrack.geometry import BBox, ars, blended_alpha

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


@dataclass(frozen=True)
class RiskLabel:
    """Risky, or non-risky with the index of the sole candidate track."""

    risky: bool
    candidate: int | None = None

    def __post_init__(self):
        if self.risky != (self.candidate is None):
            raise ValueError("candidate must be set exactly when non-risky")

    @staticmethod
    def make_risky() -> "RiskLabel":
        return RiskLabel(True)

    @staticmethod
    def non_risky(candidate: int) -> "RiskLabel":
        return RiskLabel(False, candidate)


def classify(
    ious: np.ndarray,
    det_boxes: list[BBox],
    confirmed_track_boxes: list[BBox],
    cfg: GateConfig,
) -> list[RiskLabel]:
    """Label each detection against the confirmed tracks' predicted boxes.

    `ious[i, j]` is the IoU of confirmed track i with detection j.
    """
    if cfg.mode == MODE_ALWAYS_EXTRACT:
        return [RiskLabel.make_risky() for _ in det_boxes]
    labels = []
    above = ious > cfg.theta_iou
    for j, d in enumerate(det_boxes):
        candidates = np.flatnonzero(above[:, j])
        if len(candidates) != 1:
            labels.append(RiskLabel.make_risky())
            continue
        c = int(candidates[0])
        if cfg.ars_enabled:
            alpha = blended_alpha(float(ious[c, j]), ars(d, confirmed_track_boxes[c]))
            if alpha < cfg.theta_alpha:
                labels.append(RiskLabel.make_risky())
                continue
        labels.append(RiskLabel.non_risky(c))
    return labels
