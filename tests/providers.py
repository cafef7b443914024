"""Feature providers, detection and trajectory builders, and the benchmark's workload module, for tests."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

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



def benchmark_workloads():
    """`perfbench/workloads.py`, imported from its file under a name of its own; nothing there is written."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up while they are built
        spec.loader.exec_module(module)
    return sys.modules[name]
