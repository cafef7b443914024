"""Evaluation: extraction percentage (PDE), IDF1, and ID switches, all from `evaluate`.

Trajectories are `tracker.TRAJECTORY` tables, sorted by frame, then id.
`evaluate` walks the frames both tables have once and builds each frame's
IoU matrix once. IDF1 follows the standard identity-measure construction:
count, for every (gt id, predicted id) pair, the frames where both are
present with box overlap above the matching threshold, find the identity
bijection that maximizes the total, and score the harmonic mean of
identity precision and recall. ID switches count the frames where a gt
identity's matched prediction id changes, over each frame's gated
matching. PDE is the share of high-confidence detections whose features
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
    high_detections: int = 0

    def kv_lines(self) -> list[str]:
        return [
            f"pde={pde_text(self.pde, 4)}",
            f"idf1={self.idf1:.6f}",
            f"id_switches={self.id_switches}",
            f"idtp={self.idtp}",
            f"idfp={self.idfp}",
            f"idfn={self.idfn}",
            f"fetches={self.fetches}",
            f"high_detections={self.high_detections}",
        ]

    def table(self) -> str:
        lines = [
            f"{'PDE (%)':<14}{pde_text(self.pde, 2):>10}",
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


def pde_text(value: float | None, decimals: int) -> str:
    """A PDE as written out: "n/a" when there is none, else fixed-point to `decimals`."""
    return "n/a" if value is None else f"{value:.{decimals}f}"


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


def _identity(gt: np.ndarray, pred: np.ndarray, iou_match: float) -> EvalReport:
    """IDF1 fields and ID switches, from one IoU matrix per frame both tables have."""
    n_gt, n_pred = len(gt), len(pred)
    if n_gt == 0 and n_pred == 0:
        return EvalReport(None, 1.0, 0, 0, 0, 0)
    if n_gt == 0 or n_pred == 0:
        return EvalReport(None, 0.0, 0, 0, n_pred, n_gt)
    (n_gt_ids, gt_frames), (n_pred_ids, pred_frames) = _by_frame(gt), _by_frame(pred)
    counts = np.zeros((n_gt_ids, n_pred_ids), dtype=int)
    last_match: dict[int, int] = {}
    switches = 0
    for frame in sorted(gt_frames.keys() & pred_frames.keys()):
        (gt_pos, gt_boxes), (pred_pos, pred_boxes) = gt_frames[frame], pred_frames[frame]
        ious = iou_matrix(gt_boxes, pred_boxes)
        above = ious >= iou_match
        counts[np.ix_(gt_pos, pred_pos)] += above
        # the frame's matches: a gt identity whose matched prediction id changes switches
        rows, cols = assignment.solve(np.where(above, 1.0 - ious, np.inf), gate=1.0 - iou_match)
        for g, p in zip(gt_pos[rows].tolist(), pred_pos[cols].tolist()):
            if last_match.get(g, p) != p:
                switches += 1
            last_match[g] = p
    if assignment.conflict_free(*assignment.cells(counts > 0), n_pred_ids):
        idtp = int(counts.sum())  # every count is in the optimal mapping
    else:
        # only the optimal total matters, so no tie-break among optimal mappings
        rows, cols = assignment.linear_sum_assignment(counts, maximize=True)
        idtp = int(counts[rows, cols].sum())
    idfp = n_pred - idtp
    idfn = n_gt - idtp
    score = 2.0 * idtp / (2.0 * idtp + idfp + idfn)
    return EvalReport(None, score, switches, idtp, idfp, idfn)


def evaluate(
    gt: np.ndarray,
    pred: np.ndarray,
    iou_match: float = 0.5,
    stats: RunStats | None = None,
) -> EvalReport:
    """Full report: IDF1 fields, switch count, and PDE when stats are given."""
    if not 0.0 <= iou_match <= 1.0:  # the matching threshold is an IoU; NaN fails too
        raise ValueError(f"iou_match must be in [0, 1], got {iou_match!r}")
    report = _identity(gt, pred, iou_match)
    if stats is not None:
        report.pde = pde(stats)
        report.fetches = stats.fetches
        report.high_detections = stats.high_detections
    return report
