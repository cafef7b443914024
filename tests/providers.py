"""Feature providers, a feature-file reader, and detection and trajectory builders for tests."""

import struct

import numpy as np

from seltrack.io import FEATURE_MAGIC, FEATURE_VERSION
from seltrack.tracker import TRAJECTORY, Frame, trajectory_table


def xywh(boxes) -> np.ndarray:
    """The (n, 4) array of the (x, y, w, h) of a `BBox` list."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=float).reshape(-1, 4)


def frame(f, boxes, conf=0.9):
    """The `Frame` of `boxes` in frame f, detection k being boxes[k]; `conf` is one confidence, or one per box."""
    return Frame(f, xywh(boxes), np.full(len(boxes), conf, dtype=float))


def batch(frame, indices, lookup):
    """`fetch_batch`'s answer from `lookup(frame, index)`, a vector or None for each of `indices`."""
    got = [(k, v) for k, i in enumerate(np.asarray(indices).tolist()) if (v := lookup(frame, i)) is not None]
    vectors = np.array([v for _, v in got]) if got else np.zeros((0, 0))
    return np.array([k for k, _ in got], dtype=int), vectors


class DictProvider:
    """Features by (frame, index); a missing key is a detection without one.

    The provider reads the dict it is given, so features put in it later are served too.
    """

    def __init__(self, features):
        self.features = features

    def fetch_batch(self, frame, indices):
        return batch(frame, indices, lambda f, i: self.features.get((f, i)))


def table(trajectories):
    """The trajectory table of {track id: {frame: `BBox`}}."""
    rows = [(f, tid, (box.x, box.y, box.w, box.h)) for tid, boxes in trajectories.items() for f, box in boxes.items()]
    return trajectory_table(np.array(rows, dtype=TRAJECTORY))


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
