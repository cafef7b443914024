"""Feature providers and a detection builder for tests."""

import numpy as np

from seltrack.geometry import as_xywh
from seltrack.tracker import Frame


def frame(f, boxes, conf=0.9):
    """The `Frame` of `boxes` in frame f, detection k being boxes[k]; `conf` is one confidence, or one per box."""
    return Frame(f, as_xywh(boxes), np.full(len(boxes), conf, dtype=float))


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
