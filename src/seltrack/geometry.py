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
        x, y, w, h = self.x, self.y, self.w, self.h
        if math.isfinite(x) and math.isfinite(y) and math.isfinite(w) and math.isfinite(h) and w > 0 and h > 0:
            return
        # a refused box: its first non-finite field in field order names the error
        for name, v in zip("xywh", (x, y, w, h)):
            if not math.isfinite(v):
                raise ValueError(f"non-finite bbox field {name}={v!r}")
        raise ValueError(f"non-positive bbox size w={w}, h={h}")

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0


def refused_rows(xywh: np.ndarray) -> np.ndarray:
    """Mask of the (x, y, w, h) rows of an (n, 4) array that `BBox` refuses: a non-finite field, or w or h <= 0."""
    return ~np.isfinite(xywh).all(axis=1) | (xywh[:, 2] <= 0) | (xywh[:, 3] <= 0)


def _corners(xywh: np.ndarray) -> np.ndarray:
    """(4, n) rows x1, y1, x2, y2 of the (x, y, w, h) rows of an (n, 4) array.

    Each row is contiguous, so the calls of `_inter_union` walk whole
    (rows, columns) planes, several times faster than (rows, columns, 2)
    corner pairs.
    """
    xywh = xywh.T
    corners = np.empty(xywh.shape)
    corners[:2] = xywh[:2]
    np.add(xywh[:2], xywh[2:], out=corners[2:])
    return corners


def _inter_union(ca: np.ndarray, cb: np.ndarray):
    """Intersection and union areas of corner arrays (4, ...) broadcast together."""
    # [width, height] of each pair's overlap, 0 where there is none
    overlap = np.maximum(np.minimum(ca[2:], cb[2:]) - np.maximum(ca[:2], cb[:2]), 0.0)
    inter = overlap[0] * overlap[1]
    # areas from the same corner coordinates so a box's IoU with itself is exactly 1
    size_a, size_b = ca[2:] - ca[:2], cb[2:] - cb[:2]
    return inter, size_a[0] * size_a[1] + size_b[0] * size_b[1] - inter


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every (x, y, w, h) row of `a` (rows) with every row of `b` (columns), in [0, 1].

    Each side is an (n, 4) float array. Touching edges count as disjoint; disjoint cells are exactly 0.
    """
    # overflowed pairs are recomputed, and cells without overlap set to 0, below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ca, cb = _corners(a), _corners(b)
        inter, union = _inter_union(ca[:, :, None], cb[:, None, :])
        overflowed = ~np.isfinite(union)
        if overflowed.any():
            # an edge (x + w) or an area beyond float64: IoU is scale-free, so
            # rebuild the pair's corners with both boxes scaled by one exact
            # power of two below unit size
            rows, cols = overflowed.nonzero()
            pa, pb = a[rows], b[cols]
            _, exp = np.frexp(np.maximum(np.abs(pa).max(axis=1), np.abs(pb).max(axis=1)))
            ca, cb = _corners(np.ldexp(pa, -exp[:, None])), _corners(np.ldexp(pb, -exp[:, None]))
            inter[overflowed], union[overflowed] = _inter_union(ca, cb)
    # cells without overlap are exactly 0, also for two boxes narrower than
    # their coordinates' spacing (zero corner area, 0 / 0), which are not divided
    return np.divide(inter, union, out=np.zeros(inter.shape), where=inter > 0)


def ars(a, b):
    """Aspect-ratio similarity: 1 - (4/pi^2) * (atan(w_a/h_a) - atan(w_b/h_b))^2.

    Either two `BBox`, which give a float, or two (n, 4) arrays of (x, y, w, h)
    rows compared row by row. Equals 1 iff the aspect ratios match; invariant
    under uniform scaling of either box. Range [0, 1]: the atan difference is
    at most pi/2, and rounds to it (`ars` 0) for ratios such as 1e16 against 1e-16.
    """
    if isinstance(a, BBox):
        return float(ars(np.array([[a.x, a.y, a.w, a.h]], float), np.array([[b.x, b.y, b.w, b.h]], float))[0])
    with np.errstate(over="ignore"):  # a ratio beyond float64 is inf, whose atan is pi/2
        d = np.arctan(a[:, 2] / a[:, 3]) - np.arctan(b[:, 2] / b[:, 3])
    return 1.0 - (4.0 / math.pi**2) * d * d


def _in_unit_interval(a: np.ndarray) -> bool:
    """Every entry in [0, 1]: one min and one max pass with no temporary; NaN fails, empty passes."""
    return a.min(initial=0.0) >= 0.0 and a.max(initial=1.0) <= 1.0


def blend(iou_value: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`blended_alpha` of float arrays already in [0, 1], with no range check: V / ((1 - IoU) + V)."""
    denom = (1.0 - iou_value) + v
    return v / (denom + (denom == 0.0))  # the 0/0 corner divides by 1: v is 0 there


def blended_alpha(iou_value, v):
    """IoU-adaptive blending of the aspect similarity: V / ((1 - IoU) + V).

    Elementwise over arrays; two floats give a float. The 0/0 corner
    (iou=1, v=0) is defined as 0, the conservative outcome for a threshold
    test. Monotone non-decreasing in both arguments.
    """
    iou_value, v = np.asarray(iou_value, dtype=float), np.asarray(v, dtype=float)
    if not _in_unit_interval(iou_value):
        raise ValueError(f"iou out of range: {iou_value!r}")
    if not _in_unit_interval(v):
        raise ValueError(f"v out of range: {v!r}")
    alpha = blend(iou_value, v)
    return alpha if alpha.ndim else float(alpha)
