"""The scalar references the suite compares `seltrack` with, one per rule.

Each is written out loop by loop, independent of the vectorised code it
checks: the IoU, the gate, the lexicographic assignment, the IDF1 identity
bijection and the feature-file reader.
"""

import itertools
import struct

import numpy as np

from seltrack.gating import MODE_ALWAYS_EXTRACT, candidates
from seltrack.geometry import BBox, ars, blended_alpha, iou_matrix
from seltrack.io import FEATURE_MAGIC, FEATURE_VERSION

from providers import xywh


def iou_reference(a: BBox, b: BBox) -> float:
    """Scalar IoU, written out operation by operation: the matrix must equal it exactly."""
    ax1, ay1, ax2, ay2 = a.x, a.y, a.x + a.w, a.y + a.h
    bx1, by1, bx2, by2 = b.x, b.y, b.x + b.w, b.y + b.h
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    return inter / (area_a + area_b - inter)


def gate_oracle(ious, det_xywh, track_xywh, cfg) -> np.ndarray:
    """The gate per detection, on `candidates`' own inputs, through the public, checked `ars` and `blended_alpha`.

    A detection's candidate is its sole track above `theta_iou` whose
    blended aspect similarity clears `theta_alpha`; -1 marks it risky.
    """
    out = []
    for j in range(ious.shape[1]):
        found = [i for i in range(ious.shape[0]) if ious[i, j] > cfg.theta_iou]
        if cfg.mode == MODE_ALWAYS_EXTRACT or len(found) != 1:
            out.append(-1)
            continue
        c = found[0]
        v = ars(BBox(*det_xywh[j].tolist()), BBox(*track_xywh[c].tolist()))
        out.append(-1 if blended_alpha(float(ious[c, j]), v) < cfg.theta_alpha else c)
    return np.array(out, dtype=int)


def candidates_oracle(det_boxes, track_boxes, cfg) -> np.ndarray:
    """`gate_oracle` on the boxes' IoUs from `iou_reference`."""
    ious = np.array([[iou_reference(d, t) for d in det_boxes] for t in track_boxes], dtype=float)
    return gate_oracle(ious.reshape(len(track_boxes), len(det_boxes)), xywh(det_boxes), xywh(track_boxes), cfg)


def candidates_of(det_boxes, track_boxes, cfg) -> np.ndarray:
    """`candidates` with its IoU matrix and box arrays built from the boxes."""
    tracks, dets = xywh(track_boxes), xywh(det_boxes)
    return candidates(iou_matrix(tracks, dets), dets, tracks, cfg)


def matchings(costs: np.ndarray, gate: float):
    """Every partial injective row -> column matching of finite costs within `gate`, as (row, col) lists by row."""
    n, m = costs.shape

    def rec(r, used):
        if r == n:
            yield []
            return
        yield from rec(r + 1, used)  # row r unmatched
        for c in range(m):
            if c not in used and np.isfinite(costs[r, c]) and costs[r, c] <= gate:
                for rest in rec(r + 1, used | {c}):
                    yield [(r, c)] + rest

    return rec(0, frozenset())


def assignment_oracle(costs: np.ndarray, gate: float):
    """(cardinality, total cost, lexicographically smallest match list) of the max-cardinality min-cost matching."""
    card, cost, lex = min((-len(p), sum(costs[r, c] for r, c in p), p) for p in matchings(costs, gate))
    return -card, cost, lex


def idtp_oracle(gt, pred, iou_match=0.5) -> int:
    """The IDTP: the best total of frames matched at IoU >= `iou_match` over every injective gt -> pred id mapping.

    `gt` and `pred` are {track id: {frame: `BBox`}}.
    """
    gt_ids, pred_ids = sorted(gt), sorted(pred)

    def count(g, p):
        shared = gt[g].keys() & pred[p].keys()
        return sum(1 for f in shared if iou_reference(gt[g][f], pred[p][f]) >= iou_match)

    best = 0
    for r in range(min(len(gt_ids), len(pred_ids)) + 1):
        for gs in itertools.combinations(gt_ids, r):
            for ps in itertools.permutations(pred_ids, r):
                best = max(best, sum(count(g, p) for g, p in zip(gs, ps)))
    return best


def normalized(values) -> np.ndarray:
    """Test vectors scaled to unit norm, the form every embedding arrives in."""
    v = np.asarray(values, dtype=float).ravel()
    return v / np.linalg.norm(v)


def reference_read_features(path) -> dict:
    """A feature file as {(frame, det index): f32 vector}, each record unpacked, checked and normalized alone.

    The reference that `FeatureFileProvider` is compared with, byte for byte.
    """
    data = open(path, "rb").read()
    if len(data) < 13:
        raise ValueError("truncated feature file header")
    if data[:4] != FEATURE_MAGIC:
        raise ValueError("bad magic")
    version = data[4]
    if version != FEATURE_VERSION:
        raise ValueError(f"unsupported feature file version {version}")
    dim, count = struct.unpack_from("<II", data, 5)
    record_size = 8 + 4 * dim
    expected = 13 + count * record_size
    if len(data) != expected:
        raise ValueError(f"truncated feature file: expected {expected} bytes, got {len(data)}")
    out = {}
    offset = 13
    for _ in range(count):
        f, i = struct.unpack_from("<II", data, offset)
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=offset + 8).copy()
        offset += record_size
        if (f, i) in out:
            raise ValueError(f"duplicate feature key ({f}, {i})")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"non-finite feature vector at key ({f}, {i})")
        norm = float(np.linalg.norm(vec.astype(np.float64)))
        if norm == 0.0:
            raise ValueError(f"zero-norm feature vector at key ({f}, {i})")
        if abs(norm - 1.0) > 1e-6:
            vec = (vec.astype(np.float64) / norm).astype(np.float32)
        out[(f, i)] = vec
    return out
