"""Evaluation: extraction percentage (PDE), IDF1, and ID switches.

Trajectories are `tracker.TRAJECTORY` tables, sorted by frame, then id.
IDF1 follows the standard identity-measure construction: count, for every
(gt id, predicted id) pair, the frames where both are present with box
overlap above the matching threshold, find the identity bijection that
maximizes the total, and score the harmonic mean of identity precision
and recall. PDE is the share of high-confidence detections whose features
were actually extracted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seltrack import assignment
from seltrack.geometry import iou_matrix
from seltrack.tracker import RunStats


@dataclass
class EvalReport:
    pde: float | None
    idf1: float
    id_switches: int
    idtp: int
    idfp: int
    idfn: int
    fetches: int = 0
    detections: int = 0

    def kv_lines(self) -> list[str]:
        pde = "n/a" if self.pde is None else f"{self.pde:.4f}"
        return [
            f"pde={pde}",
            f"idf1={self.idf1:.6f}",
            f"id_switches={self.id_switches}",
            f"idtp={self.idtp}",
            f"idfp={self.idfp}",
            f"idfn={self.idfn}",
            f"fetches={self.fetches}",
            f"detections={self.detections}",
        ]

    def table(self) -> str:
        pde = "n/a" if self.pde is None else f"{self.pde:.2f}"
        lines = [
            f"{'PDE (%)':<14}{pde:>10}",
            f"{'IDF1':<14}{self.idf1:>10.4f}",
            f"{'ID switches':<14}{self.id_switches:>10}",
            f"{'IDTP/IDFP/IDFN':<14}{self.idtp:>6}/{self.idfp}/{self.idfn}",
        ]
        return "\n".join(lines)


def pde(stats: RunStats) -> float | None:
    """Percentage of high-confidence detections that paid for an extraction."""
    if stats.high_detections == 0:
        return None
    return 100.0 * stats.fetches / stats.high_detections


def _check_iou_match(iou_match: float) -> None:
    """The matching threshold is an IoU, so it must lie in [0, 1] (NaN does not)."""
    if not 0.0 <= iou_match <= 1.0:
        raise ValueError(f"iou_match must be in [0, 1], got {iou_match!r}")


def _by_frame(table: np.ndarray) -> tuple[int, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """The number of distinct ids, and per frame the positions of its ids among them (sorted) and its boxes."""
    ids, positions = np.unique(table["id"], return_inverse=True)
    frames = table["frame"]
    starts = np.flatnonzero(np.diff(frames, prepend=frames[:1] - 1))  # row 0 starts a frame too
    stops = [*starts[1:].tolist(), len(table)]
    return len(ids), {
        frame: (positions[start:stop], table["xywh"][start:stop])
        for frame, start, stop in zip(frames[starts].tolist(), starts.tolist(), stops)
    }


def _frame_ious(gt_frames: dict, pred_frames: dict):
    """(gt positions, pred positions, their IoU matrix) for each frame both have, in order."""
    for frame in sorted(gt_frames.keys() & pred_frames.keys()):
        (rows, gt_boxes), (cols, pred_boxes) = gt_frames[frame], pred_frames[frame]
        yield rows, cols, iou_matrix(gt_boxes, pred_boxes)


def _overlap_counts(gt: np.ndarray, pred: np.ndarray, iou_match: float) -> np.ndarray:
    """Frames of above-threshold co-occurrence for every (gt id, pred id), ids sorted."""
    (n_gt, gt_frames), (n_pred, pred_frames) = _by_frame(gt), _by_frame(pred)
    counts = np.zeros((n_gt, n_pred), dtype=int)
    for rows, cols, ious in _frame_ious(gt_frames, pred_frames):
        counts[np.ix_(rows, cols)] += ious >= iou_match
    return counts


def idf1(gt: np.ndarray, pred: np.ndarray, iou_match: float = 0.5) -> EvalReport:
    """Identity F1 over the best global gt-to-prediction id mapping."""
    _check_iou_match(iou_match)
    n_gt, n_pred = len(gt), len(pred)
    if n_gt == 0 and n_pred == 0:
        return EvalReport(None, 1.0, 0, 0, 0, 0)
    if n_gt == 0 or n_pred == 0:
        return EvalReport(None, 0.0, 0, 0, n_pred, n_gt)
    counts = _overlap_counts(gt, pred, iou_match)
    if assignment.conflict_free(counts > 0):
        idtp = int(counts.sum())  # every count is in the optimal mapping
    else:
        # only the optimal total matters, so no tie-break among optimal mappings
        rows, cols = assignment.linear_sum_assignment(counts, maximize=True)
        idtp = int(counts[rows, cols].sum())
    idfp = n_pred - idtp
    idfn = n_gt - idtp
    score = 2.0 * idtp / (2.0 * idtp + idfp + idfn)
    return EvalReport(None, score, 0, idtp, idfp, idfn)


def id_switches(gt: np.ndarray, pred: np.ndarray, iou_match: float = 0.5) -> int:
    """Frames where a gt identity's matched prediction id changes."""
    _check_iou_match(iou_match)
    last_match: dict[int, int] = {}
    switches = 0
    for gt_pos, pred_pos, ious in _frame_ious(_by_frame(gt)[1], _by_frame(pred)[1]):
        cost = np.where(ious >= iou_match, 1.0 - ious, np.inf)
        rows, cols = assignment.solve(cost, gate=1.0 - iou_match)
        for g, p in zip(gt_pos[rows].tolist(), pred_pos[cols].tolist()):
            if g in last_match and last_match[g] != p:
                switches += 1
            last_match[g] = p
    return switches


def evaluate(
    gt: np.ndarray,
    pred: np.ndarray,
    iou_match: float = 0.5,
    stats: RunStats | None = None,
) -> EvalReport:
    """Full report: IDF1 fields, switch count, and PDE when stats are given."""
    report = idf1(gt, pred, iou_match)
    report.id_switches = id_switches(gt, pred, iou_match)
    if stats is not None:
        report.pde = pde(stats)
        report.fetches = stats.fetches
        report.detections = stats.high_detections
    return report
