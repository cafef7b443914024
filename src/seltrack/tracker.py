"""Per-sequence tracking pipeline with selective feature extraction.

Each frame: predict all tracks, split detections by confidence, give each
high-confidence one its sole candidate among the confirmed tracks (-1 when
it is risky) in one array pass of the gate, fetch features only for the
risky ones (non-risky reuse their candidate's embedding), associate, then
update motion, appearance, and lifecycle.
All per-track state lives in one `TrackTable` of stacked arrays, so each
of those per-track steps is one call over the rows it concerns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Protocol

import numpy as np

from seltrack import appearance, assignment, gating, motion
from seltrack.appearance import EmaState
from seltrack.assignment import INFEASIBLE
from seltrack.gating import GateConfig, SATURATED_COST
from seltrack.geometry import BBox, as_xywh, iou_matrix
from seltrack.motion import KalmanState

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
DELETED = "deleted"  # never held: a track past max_age is dropped from the table

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
        if not 0.0 <= self.fused_weight < np.inf:
            raise ValueError("fused_weight must be finite and non-negative")
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
class TrackTable:
    """Every held track as one row of stacked arrays, in birth order.

    Kalman and EMA columns are `motion`'s and `appearance`'s stacked states;
    a row without an embedding holds zeros there. No operation writes into
    an array a table holds, so a table is a snapshot later frames keep intact.
    """

    ids: np.ndarray
    mean: np.ndarray  # (n, 8)
    var_pos: np.ndarray  # (n, 4), as are cov and var_vel
    cov: np.ndarray
    var_vel: np.ndarray
    embedding: np.ndarray  # (n, d); d is 0 until the first feature
    has_embedding: np.ndarray
    effective_alpha: np.ndarray
    frames_since_feature: np.ndarray
    hits: np.ndarray
    age: np.ndarray
    time_since_update: np.ndarray
    confirmed: np.ndarray

    @classmethod
    def born(cls, ids: np.ndarray, state: KalmanState, dim: int) -> TrackTable:
        """Rows of new tracks: one hit, no embedding yet, not confirmed."""
        zeros = np.zeros(len(ids), dtype=int)
        no = zeros.astype(bool)
        return cls(ids, **vars(state), embedding=np.zeros((len(ids), dim)), has_embedding=no,
                   effective_alpha=zeros.astype(float), frames_since_feature=zeros, hits=zeros + 1,
                   age=zeros, time_since_update=zeros, confirmed=no)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def kalman(self) -> KalmanState:
        return KalmanState(self.mean, self.var_pos, self.cov, self.var_vel)

    def keep(self, mask: np.ndarray) -> TrackTable:
        return self if mask.all() else TrackTable(*(getattr(self, f.name)[mask] for f in fields(self)))

    def concat(self, other: TrackTable) -> TrackTable:
        return TrackTable(*(np.concatenate([getattr(self, f.name), getattr(other, f.name)]) for f in fields(self)))

    def put(self, rows, **columns) -> TrackTable:
        """This table with `rows` of the named columns set to the given values, in new arrays."""
        for name, values in list(columns.items()):
            columns[name] = getattr(self, name).copy()
            columns[name][rows] = values
        return replace(self, **columns)


class TrackView(NamedTuple):
    """A held track's id and status; its other fields are read from `SelectiveTracker.table`."""

    id: int
    status: str


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
        self.table = TrackTable.born(np.zeros(0, dtype=int), motion.initiate(np.zeros((0, motion.NDIM))), 0)
        self.last_frame = 0
        self._next_id = 1
        self.stats = RunStats()

    @property
    def tracks(self) -> list[TrackView]:
        """Each held track's id and status, in birth order."""
        t = self.table
        return [TrackView(i, CONFIRMED if c else TENTATIVE) for i, c in zip(t.ids.tolist(), t.confirmed.tolist())]

    # -- matching stages ---------------------------------------------------

    def _iou_costs(self, ious: np.ndarray) -> np.ndarray:
        return np.where(ious >= self.match.iou_gate, 1.0 - ious, INFEASIBLE)

    def _cosine_costs(self, t: TrackTable, plan) -> np.ndarray:
        """Cosine cost of every track (rows) to every plan entry (columns).

        NaN where the track has no embedding or the entry carries neither a
        fetched vector nor a copy (no feature, or SATURATED).
        """
        cost = np.full((len(t), len(plan)), np.nan)
        cols = [j for j, p in enumerate(plan) if p is not None and p is not SATURATED]
        if cols and t.has_embedding.any():
            # copy entries index the embedding matrix by live index; its zero
            # rows (no embedding) are priced and then blanked
            cost[:, cols] = appearance.cosine_costs(t.embedding, [plan[j] for j in cols])
            cost[~t.has_embedding] = np.nan
        return cost

    def _appearance_stage(self, t: TrackTable, plan, cosine):
        """Cascade stage 1: appearance-only assignment over confirmed tracks."""
        rows = np.flatnonzero(t.confirmed & t.has_embedding).tolist()
        cols = [j for j, p in enumerate(plan) if p is not None]
        if not rows or not cols:
            return [], list(range(len(t))), list(range(len(plan)))
        # only SATURATED columns are NaN on embedded rows: base-gate semantics,
        # unbounded distance to every track, so they resolve in the IoU stage
        cost = np.nan_to_num(cosine[np.ix_(rows, cols)], nan=INFEASIBLE)
        result = assignment.solve(cost, self.match.appearance_gate)
        matches = [(rows[r], cols[c]) for r, c in result.matches]
        matched_t = {r for r, _ in matches}
        matched_d = {c for _, c in matches}
        unmatched_t = [i for i in range(len(t)) if i not in matched_t]
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

        fetches = self.provider.fetches
        try:
            emitted = self._step_inner(frame, detections)
        except Exception:
            # the frame never happened: `_step_inner` commits nothing before it returns
            self.provider.fetches = fetches
            raise
        self.stats.frames += 1
        self.stats.detections += len(detections)
        self.stats.fetches = self.provider.fetches
        return emitted

    def _step_inner(self, frame, detections):
        """One frame on a local table; only its last lines write to `self`."""
        m = self.match

        # 1. motion prediction; a track whose predicted aspect or height is
        #    no longer positive has no box, so it ends here
        t = self.table
        t = replace(t, **vars(motion.predict(t.kalman)), age=t.age + 1, time_since_update=t.time_since_update + 1)
        t = t.keep(~motion.degenerate(t.kalman))

        # 2. confidence split; the selective mechanism sees only the high half
        high = [d for d in detections if d.confidence >= m.conf_high]
        low = [d for d in detections if d.confidence < m.conf_high]

        # 3. risk classification against confirmed tracks' predicted boxes
        #    (a tentative track's row is 0 for the gate); every stage below
        #    reads its IoUs from the same matrix
        boxes = motion.state_to_xywh(t.kalman)
        high_xywh = as_xywh([d.box for d in high])
        high_iou = iou_matrix(boxes, high_xywh)
        cand = gating.candidates(np.where(t.confirmed[:, None], high_iou, 0.0), high_xywh, boxes, self.gate)
        risky = (cand < 0).tolist()

        # 4. the feature plan: fetch for risky, copy (or saturate) for non-risky
        plan: list = []
        for det, c in zip(high, cand.tolist()):
            if c < 0:
                plan.append(self.provider.fetch(frame, det.index))
            elif self.gate.mode == gating.MODE_BASE_GATE:
                plan.append(SATURATED)
            else:
                # a candidate without an embedding leaves nothing to copy
                plan.append(c if t.has_embedding[c] else None)

        # 5. association
        cosine = self._cosine_costs(t, plan)
        if m.strategy == STRATEGY_CASCADE:
            stage1, left_t, left_d = self._appearance_stage(t, plan, cosine)
            stage2, left_t, left_d = self._iou_stage(high_iou, left_t, left_d)
            matches = stage1 + stage2
        else:
            matches, left_t, left_d = self._fused_stage(high_iou, plan, cosine)
        if m.byte_low and low:
            low_iou = iou_matrix(boxes, [d.box for d in low])
            byte_matches, left_t, _ = self._iou_stage(low_iou, left_t, list(range(len(low))))
        else:
            byte_matches = []

        # 6. one Kalman update over the matched rows
        rows = [i for i, _ in matches] + [i for i, _ in byte_matches]
        dets = [high[j] for _, j in matches] + [low[j] for _, j in byte_matches]
        if rows:
            state = motion.update(t.kalman[rows], motion.measurements(d.box for d in dets))
            t = t.put(rows, **vars(state), hits=t.hits[rows] + 1, time_since_update=0)

        # 7. births for unmatched high-confidence detections (eager feature)
        born = [high[j] for j in left_d]
        feats = [plan[j] if risky[j] else self.provider.fetch(frame, high[j].index) for j in left_d]
        if born:
            ids = np.arange(self._next_id, self._next_id + len(born))
            state = motion.initiate(motion.measurements(d.box for d in born))
            t = t.concat(TrackTable.born(ids, state, t.embedding.shape[1]))
        born_rows = range(len(t) - len(born), len(t))
        t = replace(t, confirmed=t.hits >= m.min_hits)

        # 8. appearance: only a fetched vector refreshes the EMA (or seeds a
        #    newborn's); byte/copied/feature-less matches and unmatched tracks decay it
        fresh = [(i, plan[j]) for i, j in matches if risky[j] and plan[j] is not None]
        fresh += [(i, f) for i, f in zip(born_rows, feats) if f is not None]
        t = self._refresh_appearance(t, fresh)

        # the confirmed matched and newborn tracks emit, by id
        is_confirmed = t.confirmed.tolist()
        shown = [(i, d) for i, d in zip(rows + list(born_rows), dets + born) if is_confirmed[i]]
        shown_rows = [i for i, _ in shown]
        if m.emit == EMIT_DETECTION:
            shown_boxes = [d.box for _, d in shown]
        else:
            shown_boxes = [BBox(*b) for b in motion.state_to_xywh(t.kalman[shown_rows]).tolist()]
        emitted = sorted(zip(t.ids[shown_rows].tolist(), shown_boxes), key=lambda pair: pair[0])

        # commit, with deletions after max_age consecutive misses
        self.table = t.keep(t.time_since_update <= m.max_age)
        self._next_id += len(born)
        self.last_frame = frame
        self.stats.high_detections += len(high)
        return emitted

    def _refresh_appearance(self, t: TrackTable, fresh) -> TrackTable:
        """Decay every row's EMA, then blend in each (row, vector) of `fresh`; a row without one is seeded."""
        alpha = self.match.ema_alpha
        before = EmaState(t.embedding, alpha, t.effective_alpha, t.frames_since_feature)
        decayed = appearance.mark_skipped(before)
        t = replace(t, effective_alpha=decayed.effective_alpha, frames_since_feature=decayed.frames_since_feature)
        if not fresh:
            return t
        rows = np.array([i for i, _ in fresh])
        vectors = np.array([f for _, f in fresh], dtype=float)
        if not t.embedding.shape[1]:
            t = replace(t, embedding=np.zeros((len(t), vectors.shape[1])))
        seed = ~t.has_embedding[rows]
        if seed.any():
            vectors[seed] = appearance.init_ema(vectors[seed], alpha).embedding
        if not seed.all():
            vectors[~seed] = appearance.ema_update(before[rows[~seed]], vectors[~seed]).embedding
        return t.put(rows, embedding=vectors, has_embedding=True, effective_alpha=alpha, frames_since_feature=0)


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
