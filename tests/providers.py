"""Feature providers and a detection builder for tests."""

import numpy as np

from seltrack.geometry import as_xywh
from seltrack.tracker import Frame


def frame(f, boxes, conf=0.9):
    """The `Frame` of `boxes` in frame f, detection k being boxes[k]; `conf` is one confidence, or one per box."""
    return Frame(f, as_xywh(boxes), np.full(len(boxes), conf, dtype=float))


class DictProvider:
    """Features by (frame, index); a missing key is a detection without one.

    The provider reads the dict it is given, so features put in it later are served too.
    """

    def __init__(self, features):
        self.features = features

    def fetch(self, frame, index):
        return self.features.get((frame, index))
