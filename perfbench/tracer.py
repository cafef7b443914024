"""Per-layer tracing from outside the package, by wrapping module attributes.

`Tracer.install` replaces public functions of the seltrack modules with
wrappers: timed ones record a span (name, start, end, parent span) in
memory, counted ones only bump a counter, because they are called so often
(per detection pair) that timing them would swamp what they measure. Names
that `seltrack.tracker`, `seltrack.gating` and `seltrack.metrics` import
directly (`iou`, `cosine_distance`) are wrapped where those modules look
them up. A function missing from its module is recorded as absent instead
of failing the run.
"""

from __future__ import annotations

import collections
import csv
from time import perf_counter

import numpy as np

from seltrack import appearance, assignment, gating, metrics, motion
from seltrack import tracker as tracker_mod

# (owner, attribute, layer metric name)
TIMED = [
    (gating, "classify", "gating.classify"),
    (motion, "predict", "motion.predict"),
    (motion, "update", "motion.update"),
    (appearance, "init_ema", "appearance.ema"),
    (appearance, "ema_update", "appearance.ema"),
    (assignment, "solve", "assignment.solve"),
    (metrics, "idf1", "metrics.idf1"),
    (metrics, "id_switches", "metrics.id_switches"),
]
COUNTED = [
    (tracker_mod, "iou", "geometry.iou"),
    (gating, "iou", "geometry.iou"),
    (metrics, "iou", "geometry.iou"),
    (tracker_mod, "cosine_distance", "appearance.cosine"),
    (appearance, "mark_skipped", "appearance.mark_skipped"),
    (motion, "state_to_box", "motion.state_to_box"),
    (assignment, "linear_sum_assignment", "assignment.lsa"),
]


class Tracer:
    """Spans and counters for one traced run; patches are undone by `uninstall`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def timed(self, fn, name: str, observe=None):
        """`fn` wrapped so each call records a span; `observe(args, result)` sees calls."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, name: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        observers = {"gating.classify": self._observe_classify, "assignment.solve": self._observe_solve}
        for owner, attr, name in TIMED:
            self._patch(owner, attr, name, lambda fn, n=name: self.timed(fn, n, observers.get(n)))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, name, lambda fn, n=name: self.counted(fn, n))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _observe_classify(self, args, labels) -> None:
        risky = sum(1 for label in labels if label.risky)
        self.counts["gating.risky"] += risky
        self.counts["gating.non_risky"] += len(labels) - risky

    def _observe_solve(self, args, result) -> None:
        self.counts["assignment.cells"] += int(np.size(args[0]))

    # -- summaries -----------------------------------------------------------

    def take(self) -> tuple[list[list], collections.Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), self.counts.copy()
        self.spans.clear()  # the wrappers hold these two objects, so reuse them
        self.counts.clear()
        return spans, counts


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, longest call in seconds.

    Self time is a span's duration minus its children's; calls run on one
    thread and children never overlap, so their durations simply add up.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), inner in zip(spans, child):
        t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
        duration = end - start
        t["calls"] += 1
        t["s"] += duration
        t["self_s"] += duration - inner
        t["max_s"] = max(t["max_s"], duration)
    return out


def write_spans(path, passes: list[tuple[str, list[list]]]) -> None:
    """One CSV row per span: scope, index, name, start, end, parent index."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scope", "index", "name", "start", "end", "parent"])
        for scope, spans in passes:
            for index, (name, start, end, parent) in enumerate(spans):
                writer.writerow([scope, index, name, repr(start), repr(end), parent])
