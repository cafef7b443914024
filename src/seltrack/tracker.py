"""Per-sequence tracking pipeline with selective feature extraction.

Each frame: predict all tracks, split detections by confidence, classify
the high-confidence ones as risky/non-risky against the confirmed tracks,
fetch features only for the risky ones (non-risky reuse their candidate's
embedding), associate, then update motion, appearance, and lifecycle.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from seltrack import appearance, assignment, gating, motion
from seltrack.appearance import EmaState
from seltrack.assignment import INFEASIBLE
from seltrack.gating import GateConfig, SATURATED_COST
from seltrack.geometry import BBox, iou_matrix
from seltrack.motion import KalmanState

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
DELETED = "deleted"  # never held: a track past max_age is dropped from `tracks`

STRATEGY_CASCADE = "cascade"
STRATEGY_FUSED = "fused"

EMIT_KALMAN = "kalman"
EMIT_DETECTION = "detection"

# The feature plan holds one entry per high-confidence detection, saying how
# it enters appearance matching: the vector fetched for a risky detection
# (None if the provider had none), the live index of the sole candidate whose
# embedding a non-risky detection copies, SATURATED to price a non-risky
# detection out of appearance matching (the base-gate ablation), or None.
SATURATED = "saturated"


@dataclass
class Detection:
    """One per-frame observation; `index` is its position within the frame."""

    frame: int
    index: int
    box: BBox
    confidence: float

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame must be >= 1, got {self.frame}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of range: {self.confidence!r}")


@dataclass
class MatchConfig:
    strategy: str = STRATEGY_CASCADE
    appearance_gate: float = 0.4
    iou_gate: float = 0.3
    fused_weight: float = 1.0
    conf_high: float = 0.6
    byte_low: bool | None = None  # default: off for cascade, on for fused
    min_hits: int = 1
    max_age: int = 30
    ema_alpha: float = 0.9
    emit: str = EMIT_KALMAN

    def __post_init__(self):
        if self.strategy not in (STRATEGY_CASCADE, STRATEGY_FUSED):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.byte_low is None:
            self.byte_low = self.strategy == STRATEGY_FUSED
        if not 0.0 <= self.appearance_gate <= 2.0:
            raise ValueError("appearance_gate must be in [0, 2]")
        if not 0.0 <= self.iou_gate <= 1.0:
            raise ValueError("iou_gate must be in [0, 1]")
        if self.fused_weight < 0:
            raise ValueError("fused_weight must be non-negative")
        if not 0.0 <= self.conf_high <= 1.0:
            raise ValueError("conf_high must be in [0, 1]")
        if self.min_hits < 1:
            raise ValueError("min_hits must be >= 1")
        if self.max_age < 1:
            raise ValueError("max_age must be >= 1")
        if not 0.0 < self.ema_alpha < 1.0:
            raise ValueError("ema_alpha must be in (0, 1)")
        if self.emit not in (EMIT_KALMAN, EMIT_DETECTION):
            raise ValueError(f"unknown emit convention {self.emit!r}")


class FeatureProvider(Protocol):
    """Source of appearance embeddings, deterministic per (frame, index)."""

    def fetch(self, frame: int, index: int) -> np.ndarray | None: ...


class NullFeatureProvider:
    """Never has features; turns any configuration into IoU-only tracking."""

    def fetch(self, frame: int, index: int) -> np.ndarray | None:
        return None


class CountingProvider:
    """Wraps a provider and counts every fetch — the PDE numerator."""

    def __init__(self, inner: FeatureProvider):
        self.inner = inner
        self.fetches = 0

    def fetch(self, frame: int, index: int) -> np.ndarray | None:
        self.fetches += 1
        return self.inner.fetch(frame, index)


@dataclass
class Track:
    id: int
    kalman: KalmanState
    ema: EmaState | None
    status: str
    hits: int
    age: int
    time_since_update: int


@dataclass
class TrackOutput:
    """All emitted (frame, track id, box) rows of a run."""

    rows: list[tuple[int, int, BBox]] = field(default_factory=list)

    def trajectories(self) -> dict[int, dict[int, BBox]]:
        out: dict[int, dict[int, BBox]] = {}
        for frame, tid, box in self.rows:
            out.setdefault(tid, {})[frame] = box
        return out


@dataclass
class RunStats:
    fetches: int = 0
    detections: int = 0
    high_detections: int = 0
    frames: int = 0


class SelectiveTracker:
    """Stateful per-sequence tracker; frames must arrive in increasing order."""

    def __init__(
        self,
        provider: FeatureProvider,
        gate: GateConfig | None = None,
        match: MatchConfig | None = None,
    ):
        self.provider = CountingProvider(provider)
        self.gate = gate or GateConfig()
        self.match = match or MatchConfig()
        self.tracks: list[Track] = []
        self.last_frame = 0
        self._next_id = 1
        self.stats = RunStats()

    # -- lifecycle helpers -------------------------------------------------

    def _drop(self, dead) -> None:
        """Forget the tracks `dead` selects; `_next_id` never hands out their ids again."""
        self.tracks = [t for t in self.tracks if not dead(t)]

    def _spawn(self, det: Detection, feat: np.ndarray | None) -> Track:
        ema = None if feat is None else appearance.init_ema(feat, self.match.ema_alpha)
        status = CONFIRMED if self.match.min_hits <= 1 else TENTATIVE
        t = Track(
            id=self._next_id,
            kalman=motion.initiate(det.box),
            ema=ema,
            status=status,
            hits=1,
            age=0,
            time_since_update=0,
        )
        self._next_id += 1
        self.tracks.append(t)
        return t

    def _mark_matched(self, track: Track, det: Detection, fresh: np.ndarray | None):
        track.kalman = motion.update(track.kalman, det.box)
        if fresh is not None:
            if track.ema is None:
                track.ema = appearance.init_ema(fresh, self.match.ema_alpha)
            else:
                track.ema = appearance.ema_update(track.ema, fresh)
        elif track.ema is not None:
            track.ema = appearance.mark_skipped(track.ema)
        track.hits += 1
        track.time_since_update = 0
        if track.status == TENTATIVE and track.hits >= self.match.min_hits:
            track.status = CONFIRMED

    # -- matching stages ---------------------------------------------------

    def _iou_costs(self, ious: np.ndarray) -> np.ndarray:
        return np.where(ious >= self.match.iou_gate, 1.0 - ious, INFEASIBLE)

    def _cosine_costs(self, tracks, plan) -> np.ndarray:
        """Cosine cost of every track (rows) to every plan entry (columns).

        NaN where the track has no embedding or the entry carries neither a
        fetched vector nor a copy (no feature, or SATURATED).
        """
        cost = np.full((len(tracks), len(plan)), np.nan)
        cols = [j for j, p in enumerate(plan) if p is not None and p is not SATURATED]
        embedded = [t.ema.embedding for t in tracks if t.ema is not None]
        if cols and embedded:
            # a zero row stands in for a missing embedding, so that copy
            # entries index rows by their live index without a remap
            blank = np.zeros_like(embedded[0])
            stacked = np.stack([blank if t.ema is None else t.ema.embedding for t in tracks])
            cost[:, cols] = appearance.cosine_costs(stacked, [plan[j] for j in cols])
            cost[[i for i, t in enumerate(tracks) if t.ema is None]] = np.nan
        return cost

    def _appearance_stage(self, tracks, plan, cosine):
        """Cascade stage 1: appearance-only assignment over confirmed tracks."""
        rows = [i for i, t in enumerate(tracks) if t.status == CONFIRMED and t.ema is not None]
        cols = [j for j, p in enumerate(plan) if p is not None]
        if not rows or not cols:
            return [], list(range(len(tracks))), list(range(len(plan)))
        # only SATURATED columns are NaN on embedded rows: base-gate semantics,
        # unbounded distance to every track, so they resolve in the IoU stage
        cost = np.nan_to_num(cosine[np.ix_(rows, cols)], nan=INFEASIBLE)
        result = assignment.solve(cost, self.match.appearance_gate)
        matches = [(rows[r], cols[c]) for r, c in result.matches]
        matched_t = {r for r, _ in matches}
        matched_d = {c for _, c in matches}
        unmatched_t = [i for i in range(len(tracks)) if i not in matched_t]
        unmatched_d = [j for j in range(len(plan)) if j not in matched_d]
        return matches, unmatched_t, unmatched_d

    def _fused_stage(self, ious, plan, cosine):
        """Single-stage assignment on weighted appearance plus IoU cost."""
        n_tracks, n_dets = ious.shape
        if not n_tracks or not n_dets:
            return [], list(range(n_tracks)), list(range(n_dets))
        cost = self._iou_costs(ious)
        w = self.match.fused_weight
        saturated = np.array([p is SATURATED for p in plan])
        extra = np.where(saturated, SATURATED_COST, cosine)
        priced = np.isfinite(cost) & ~np.isnan(extra)
        cost[priced] += w * extra[priced]
        gate = w * SATURATED_COST + (1.0 - self.match.iou_gate)
        result = assignment.solve(cost, gate)
        return result.matches, result.unmatched_rows, result.unmatched_cols

    def _iou_stage(self, ious, track_idx, det_idx):
        """IoU-only assignment over the given track/detection subsets."""
        if not track_idx or not det_idx:
            return [], list(track_idx), list(det_idx)
        cost = self._iou_costs(ious[np.ix_(track_idx, det_idx)])
        result = assignment.solve(cost, 1.0 - self.match.iou_gate)
        return (
            [(track_idx[r], det_idx[c]) for r, c in result.matches],
            [track_idx[r] for r in result.unmatched_rows],
            [det_idx[c] for c in result.unmatched_cols],
        )

    # -- the frame step ----------------------------------------------------

    def step(self, frame: int, detections: list[Detection]) -> list[tuple[int, BBox]]:
        """Process one frame and return (track id, box) for tracks matched now."""
        if frame <= self.last_frame:
            raise ValueError(
                f"frames must be strictly increasing: got {frame} after {self.last_frame}"
            )
        for d in detections:
            if d.frame != frame:
                raise ValueError(f"detection frame {d.frame} does not match step frame {frame}")
        if len({d.index for d in detections}) != len(detections):
            raise ValueError(f"duplicate detection indices in frame {frame}")

        snapshot = (
            [copy.copy(t) for t in self.tracks],
            self._next_id,
            self.last_frame,
            self.provider.fetches,
            self.stats.high_detections,
        )
        try:
            emitted = self._step_inner(frame, detections)
        except Exception:
            # the frame never happened: restore track state and counters
            (
                self.tracks,
                self._next_id,
                self.last_frame,
                self.provider.fetches,
                self.stats.high_detections,
            ) = snapshot
            raise
        self.stats.frames += 1
        self.stats.detections += len(detections)
        self.stats.fetches = self.provider.fetches
        return emitted

    def _step_inner(self, frame, detections):
        m = self.match

        # 1. motion prediction; a track whose predicted aspect or height is
        #    no longer positive has no box, so it ends here
        for t in self.tracks:
            t.kalman = motion.predict(t.kalman)
            t.age += 1
            t.time_since_update += 1
        self._drop(lambda t: motion.degenerate(t.kalman))
        live = list(self.tracks)

        # 2. confidence split; the selective mechanism sees only the high half
        high = [d for d in detections if d.confidence >= m.conf_high]
        low = [d for d in detections if d.confidence < m.conf_high]
        self.stats.high_detections += len(high)

        # 3. risk classification against confirmed tracks' predicted boxes;
        #    every stage below reads its IoUs from the same matrix
        boxes = [motion.state_to_box(t.kalman) for t in live]
        high_boxes = [d.box for d in high]
        high_iou = iou_matrix(boxes, high_boxes)
        confirmed = [i for i, t in enumerate(live) if t.status == CONFIRMED]
        labels = gating.classify(
            high_iou[confirmed], high_boxes, [boxes[i] for i in confirmed], self.gate
        )

        # 4. the feature plan: fetch for risky, copy (or saturate) for non-risky
        plan: list = []
        for det, label in zip(high, labels):
            if label.risky:
                plan.append(self.provider.fetch(frame, det.index))
            elif self.gate.mode == gating.MODE_BASE_GATE:
                plan.append(SATURATED)
            else:
                cand = confirmed[label.candidate]
                # a candidate without an embedding leaves nothing to copy
                plan.append(cand if live[cand].ema is not None else None)

        # 5. association
        cosine = self._cosine_costs(live, plan)
        if m.strategy == STRATEGY_CASCADE:
            stage1, left_t, left_d = self._appearance_stage(live, plan, cosine)
            stage2, left_t, left_d = self._iou_stage(high_iou, left_t, left_d)
            matches = stage1 + stage2
        else:
            matches, left_t, left_d = self._fused_stage(high_iou, plan, cosine)
        if m.byte_low and low:
            low_iou = iou_matrix(boxes, [d.box for d in low])
            byte_matches, left_t, _ = self._iou_stage(low_iou, left_t, list(range(len(low))))
        else:
            byte_matches = []

        # 6. update matched tracks; only a fetched vector refreshes the EMA,
        #    byte/copied/feature-less matches decay it
        emitted: list[tuple[int, BBox]] = []
        for i, j in matches:
            track, det = live[i], high[j]
            self._mark_matched(track, det, plan[j] if labels[j].risky else None)
            if track.status == CONFIRMED:
                emitted.append((track.id, self._emit_box(track, det)))
        for i, j in byte_matches:
            track, det = live[i], low[j]
            self._mark_matched(track, det, None)
            if track.status == CONFIRMED:
                emitted.append((track.id, self._emit_box(track, det)))

        # unmatched tracks also decay: skipped frames count toward the EMA age
        matched_tracks = {i for i, _ in matches} | {i for i, _ in byte_matches}
        for i, t in enumerate(live):
            if i not in matched_tracks and t.ema is not None:
                t.ema = appearance.mark_skipped(t.ema)

        # 7. births for unmatched high-confidence detections (eager feature)
        for j in left_d:
            det = high[j]
            feat = plan[j] if labels[j].risky else self.provider.fetch(frame, det.index)
            track = self._spawn(det, feat)
            if track.status == CONFIRMED:
                emitted.append((track.id, self._emit_box(track, det)))

        # deletions after max_age consecutive misses
        self._drop(lambda t: t.time_since_update > m.max_age)

        self.last_frame = frame
        emitted.sort(key=lambda pair: pair[0])
        return emitted

    def _emit_box(self, track: Track, det: Detection) -> BBox:
        if self.match.emit == EMIT_DETECTION:
            return det.box
        return motion.state_to_box(track.kalman)


def run_sequence(
    frames: dict[int, list[Detection]],
    provider: FeatureProvider,
    gate: GateConfig | None = None,
    match: MatchConfig | None = None,
) -> tuple[TrackOutput, RunStats]:
    """Fold the stepper over the frames (in increasing order)."""
    tracker = SelectiveTracker(provider, gate, match)
    output = TrackOutput()
    for frame in sorted(frames):
        for tid, box in tracker.step(frame, frames[frame]):
            output.rows.append((frame, tid, box))
    return output, tracker.stats
