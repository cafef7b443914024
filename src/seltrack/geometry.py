"""Axis-aligned bounding-box math: IoU, aspect-ratio similarity, blended alpha."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BBox:
    """Top-left + size box in pixels. Width and height must be positive and finite."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"non-finite bbox field {name}={v!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"non-positive bbox size w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @property
    def aspect(self) -> float:
        return self.w / self.h

    def as_xyxy(self) -> tuple[float, float, float, float]:
        return self.x, self.y, self.x + self.w, self.y + self.h


def as_xywh(boxes) -> np.ndarray:
    """(n, 4) rows of (x, y, w, h) of a sequence of `BBox`, or of such an array itself."""
    if not isinstance(boxes, np.ndarray):
        boxes = np.array([(box.x, box.y, box.w, box.h) for box in boxes], dtype=float)
    return boxes.reshape(-1, 4)


def _corners(boxes) -> np.ndarray:
    """(n, 4) xyxy corners of the boxes `as_xywh` takes."""
    xywh = as_xywh(boxes)
    return np.concatenate([xywh[:, :2], xywh[:, :2] + xywh[:, 2:]], axis=1)


def _inter_union(ca: np.ndarray, cb: np.ndarray):
    """Intersection and union areas of corner arrays (..., 4) broadcast together."""
    # [width, height] of each pair's overlap, 0 where there is none
    overlap = np.maximum(np.minimum(ca[..., 2:], cb[..., 2:]) - np.maximum(ca[..., :2], cb[..., :2]), 0.0)
    inter = overlap[..., 0] * overlap[..., 1]
    # areas from the same corner coordinates so iou(a, a) is exactly 1
    size_a, size_b = ca[..., 2:] - ca[..., :2], cb[..., 2:] - cb[..., :2]
    return inter, size_a[..., 0] * size_a[..., 1] + size_b[..., 0] * size_b[..., 1] - inter


def iou_matrix(a, b) -> np.ndarray:
    """IoU of every box of `a` (rows) with every box of `b` (columns), in [0, 1].

    Either side is a sequence of `BBox` or an (n, 4) array of their (x, y, w, h).
    Touching edges count as disjoint; disjoint cells are exactly 0.
    """
    ca, cb = _corners(a), _corners(b)
    with np.errstate(over="ignore", invalid="ignore"):  # overflowed pairs are recomputed below
        inter, union = _inter_union(ca[:, None, :], cb[None, :, :])
    overflowed = ~np.isfinite(union)
    if overflowed.any():
        # an area beyond float64: IoU is scale-free, so recompute the pair
        # with both boxes scaled by one exact power of two below unit size
        rows, cols = np.nonzero(overflowed)
        pa, pb = ca[rows], cb[cols]
        _, exp = np.frexp(np.maximum(np.abs(pa).max(axis=1), np.abs(pb).max(axis=1)))
        inter[overflowed], union[overflowed] = _inter_union(np.ldexp(pa, -exp[:, None]), np.ldexp(pb, -exp[:, None]))
    # only overlapping cells are divided: the others are exactly 0, also for
    # two boxes narrower than their coordinates' spacing (zero corner area)
    return np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of one pair; see `iou_matrix`."""
    return float(iou_matrix([a], [b])[0, 0])


def ars(a, b):
    """Aspect-ratio similarity: 1 - (4/pi^2) * (atan(w_a/h_a) - atan(w_b/h_b))^2.

    Either two `BBox`, which give a float, or two (n, 4) arrays of (x, y, w, h)
    rows compared row by row. Equals 1 iff the aspect ratios match; invariant
    under uniform scaling of either box. Range (0, 1] since atan differences
    stay below pi/2.
    """
    if isinstance(a, BBox):
        return float(ars(as_xywh([a]), as_xywh([b]))[0])
    with np.errstate(over="ignore"):  # a ratio beyond float64 is inf, whose atan is pi/2
        d = np.arctan(a[:, 2] / a[:, 3]) - np.arctan(b[:, 2] / b[:, 3])
    return 1.0 - (4.0 / math.pi**2) * d * d


def blended_alpha(iou_value, v):
    """IoU-adaptive blending of the aspect similarity: V / ((1 - IoU) + V).

    Elementwise over arrays; two floats give a float. The 0/0 corner
    (iou=1, v=0) is defined as 0, the conservative outcome for a threshold
    test. Monotone non-decreasing in both arguments.
    """
    iou_value, v = np.asarray(iou_value, dtype=float), np.asarray(v, dtype=float)
    if not np.all((0.0 <= iou_value) & (iou_value <= 1.0)):
        raise ValueError(f"iou out of range: {iou_value!r}")
    if not np.all((0.0 <= v) & (v <= 1.0)):
        raise ValueError(f"v out of range: {v!r}")
    denom = (1.0 - iou_value) + v
    alpha = np.divide(v, denom, out=np.zeros_like(denom), where=denom != 0.0)
    return alpha if alpha.ndim else float(alpha)
