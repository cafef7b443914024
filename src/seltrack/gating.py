"""Risk classification of detections against confirmed track boxes.

A detection is safe to match without appearance features only when exactly
one confirmed track overlaps it above the IoU threshold and, optionally,
the IoU-blended aspect-ratio similarity of that sole candidate clears its
own threshold. Everything else is risky and pays for a feature extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from seltrack.geometry import BBox, ars, blended_alpha, iou

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
    det_boxes: list[BBox],
    confirmed_track_boxes: list[BBox],
    cfg: GateConfig,
) -> list[RiskLabel]:
    """Label each detection against the confirmed tracks' predicted boxes."""
    if cfg.mode == MODE_ALWAYS_EXTRACT:
        return [RiskLabel.make_risky() for _ in det_boxes]
    labels = []
    for d in det_boxes:
        overlaps = [(iou(d, t), i) for i, t in enumerate(confirmed_track_boxes)]
        above = [(o, i) for o, i in overlaps if o > cfg.theta_iou]
        if len(above) != 1:
            labels.append(RiskLabel.make_risky())
            continue
        o, c = above[0]
        if cfg.ars_enabled:
            alpha = blended_alpha(o, ars(d, confirmed_track_boxes[c]))
            if alpha < cfg.theta_alpha:
                labels.append(RiskLabel.make_risky())
                continue
        labels.append(RiskLabel.non_risky(c))
    return labels

