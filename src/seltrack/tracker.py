"""Per-sequence tracking pipeline with selective feature extraction.

Each frame: predict all tracks, split detections by confidence, give each
high-confidence one its sole candidate among the confirmed tracks (-1 when
it is risky) in one array pass of the gate, fetch features only for the
risky ones, in one provider batch (non-risky reuse their candidate's
embedding), associate, then update motion, appearance, and lifecycle.
All per-track state lives in one `TrackTable` of stacked arrays, so each
of those per-track steps is one call over the rows it concerns, and each
per-frame quantity (the detections' box array and their Kalman
measurements, the IoU matrix, the innovation variances, the fetched
features) is built once and sliced by every stage that reads it. The IoU
matrix is built on first read: by the gate, the fused stage, the cascade's
IoU stage or the byte stage, so a frame that none of them reads, such as
an always_extract cascade frame whose appearance stage matches every row,
builds no boxes and no IoU. A frame copies a track column only when it
writes it, and builds a stage's cost matrix only when that stage runs. A
frame that writes every row of a column (every track matched or blended,
every high detection priced) builds that column new from its own arrays,
with no gather or scatter. Each stage is one method over the frame's
`_FrameRecord`, and only the commit after them writes to the tracker:
its table, next id, last frame and every `RunStats` count, so a step
that raises leaves the tracker as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, repeat
from typing import NamedTuple, Protocol

import numpy as np

from seltrack import appearance, assignment, gating, motion
from seltrack.assignment import INFEASIBLE
from seltrack.gating import GateConfig, SATURATED_COST
from seltrack.geometry import BBox, iou_matrix, refused_rows

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
DELETED = "deleted"  # never held: a track past max_age is dropped from the table

STRATEGY_CASCADE = "cascade"
STRATEGY_FUSED = "fused"
STRATEGIES = (STRATEGY_CASCADE, STRATEGY_FUSED)

EMIT_KALMAN = "kalman"
EMIT_DETECTION = "detection"
EMITS = (EMIT_KALMAN, EMIT_DETECTION)


class Detection(NamedTuple):
    """One detection of a `Frame`, as iterating the frame yields it; `index` is its row, `box` its (x, y, w, h)."""

    frame: int
    index: int
    box: tuple[float, float, float, float]
    confidence: float


def _is_count(value) -> bool:
    """Whether `value` is a Python or NumPy integer, and not a bool, which Python counts as one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class Frame:
    """One frame's detections as arrays: row k of `xywh` (n, 4) and of `confidence` (n,) is detection k.

    A detection's index is its row: its position within the frame in file
    order, the key of its feature. The constructor checks the arrays in one
    pass and raises the errors of `BBox` and of the frame and confidence
    checks for the first refused row: the frame is an integer >= 1, each
    box is finite with a positive size and each confidence is in [0, 1].
    """

    __slots__ = ("frame", "xywh", "confidence")

    def __init__(self, frame: int, xywh, confidence):
        xywh, confidence = np.asarray(xywh, dtype=float), np.asarray(confidence, dtype=float)
        if xywh.ndim != 2 or xywh.shape[1] != 4 or confidence.shape != xywh.shape[:1]:
            raise ValueError(f"expected (n, 4) boxes and (n,) confidences, got {xywh.shape} and {confidence.shape}")
        if not _is_count(frame):
            raise ValueError(f"frame must be an integer, got {frame!r}")
        if frame < 1:
            raise ValueError(f"frame must be >= 1, got {frame}")
        refused = refused_rows(xywh) | ~((0.0 <= confidence) & (confidence <= 1.0))
        if refused.any():
            k = np.argmax(refused)
            BBox(*xywh[k].tolist())  # raises for a refused box
            raise ValueError(f"confidence out of range: {confidence[k].item()!r}")
        self.frame, self.xywh, self.confidence = frame, xywh, confidence

    @classmethod
    def unchecked(cls, frame: int, xywh: np.ndarray, confidence: np.ndarray) -> Frame:
        """A frame of float64 arrays that passed the constructor's checks already, built without them."""
        built = object.__new__(cls)
        built.frame, built.xywh, built.confidence = frame, xywh, confidence
        return built

    def __len__(self) -> int:
        return len(self.confidence)

    def __iter__(self):
        """The `Detection` of each row."""
        return map(Detection, repeat(self.frame), count(), map(tuple, self.xywh.tolist()), self.confidence.tolist())

    def __repr__(self) -> str:
        return f"Frame(frame={self.frame!r}, detections={list(self)!r})"


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
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.byte_low is None:
            self.byte_low = self.strategy == STRATEGY_FUSED
        elif not isinstance(self.byte_low, (bool, np.bool_)):
            raise ValueError(f"byte_low must be a bool or None, got {self.byte_low!r}")
        if not 0.0 <= self.appearance_gate <= 2.0:
            raise ValueError("appearance_gate must be in [0, 2]")
        if not 0.0 <= self.iou_gate <= 1.0:
            raise ValueError("iou_gate must be in [0, 1]")
        if not 0.0 <= self.fused_weight < np.inf:
            raise ValueError("fused_weight must be finite and non-negative")
        if not 0.0 <= self.conf_high <= 1.0:
            raise ValueError("conf_high must be in [0, 1]")
        for name in ("min_hits", "max_age"):
            if not _is_count(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.min_hits < 1:
            raise ValueError("min_hits must be >= 1")
        if self.max_age < 1:
            raise ValueError("max_age must be >= 1")
        if not 0.0 < self.ema_alpha < 1.0:
            raise ValueError("ema_alpha must be in (0, 1)")
        if self.emit not in EMITS:
            raise ValueError(f"unknown emit convention {self.emit!r}")


class FeatureProvider(Protocol):
    """Source of appearance embeddings, deterministic per (frame, index), answered a batch at a time.

    `fetch_batch` returns the positions in `indices` that have a feature,
    in increasing order, and one (k, d) array of their features in that
    order, as a ReID network embeds a frame's crops in one forward pass.
    """

    def fetch_batch(self, frame: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...


class NullFeatureProvider:
    """Never has features; turns any configuration into IoU-only tracking."""

    def fetch_batch(self, frame: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(0, dtype=int), np.zeros((0, 0))


class CountingProvider:
    """Wraps a provider; `fetches` reads `RunStats.fetches`, the crops asked for in committed frames (the PDE numerator)."""

    def __init__(self, inner: FeatureProvider, stats: RunStats):
        self.inner, self._stats = inner, stats

    @property
    def fetches(self) -> int:
        return self._stats.fetches

    def fetch(self, frame: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One batch of the inner provider's `fetch_batch`; the tracker calls it by this name, so a wrapper bound here sees every batch."""
        return self.inner.fetch_batch(frame, indices)


@dataclass
class TrackTable:
    """Every held track as one row of stacked arrays, in birth order.

    `kalman_block` is `motion`'s stacked state block, whose last axis runs
    over the rows, and `effective_alpha` is the weight the next blend puts
    on a row's embedding; a row without an embedding holds zeros in both.
    A committed table (`SelectiveTracker.table`) is never written. A frame's
    table shares each column with it until the frame writes that column: it
    copies `embedding` and `has_embedding` only to blend a fetched feature
    into them while it still shares them, and builds its other changed
    columns anew. A frame that writes every row of a column
    builds that column new: the Kalman block when every row matched, the
    embeddings and blend weights when every row blends. A committed
    table is thus a snapshot later frames keep intact.
    """

    ids: np.ndarray
    kalman_block: np.ndarray  # (5, 4, n)
    embedding: np.ndarray  # (n, d); d is 0 until the first feature
    has_embedding: np.ndarray
    effective_alpha: np.ndarray
    hits: np.ndarray  # a row is confirmed from `MatchConfig.min_hits` hits on
    time_since_update: np.ndarray

    @classmethod
    def born(cls, ids: np.ndarray, kalman_block: np.ndarray, dim: int) -> TrackTable:
        """Rows of new tracks: one hit, no embedding yet."""
        zeros = np.zeros(len(ids), dtype=int)
        return cls(ids, kalman_block, embedding=np.zeros((len(ids), dim)), has_embedding=zeros.astype(bool),
                   effective_alpha=zeros.astype(float), hits=zeros + 1, time_since_update=zeros)

    def __len__(self) -> int:
        return len(self.ids)

    def keep(self, mask: np.ndarray) -> TrackTable:
        """The rows where `mask` is True; the table itself when that is every row."""
        if np.count_nonzero(mask) == len(mask):
            return self
        rows = mask.nonzero()[0]
        return TrackTable(kalman_block=self.kalman_block[..., rows],
                          **{c: getattr(self, c)[rows] for c in _ROW_COLUMNS})

    def concat(self, other: TrackTable) -> TrackTable:
        """This table's rows, then `other`'s."""
        return TrackTable(kalman_block=np.concatenate([self.kalman_block, other.kalman_block], axis=-1),
                          **{c: np.concatenate([getattr(self, c), getattr(other, c)]) for c in _ROW_COLUMNS})


# the `TrackTable` columns that hold one row per track on their first axis: all but `kalman_block`
_ROW_COLUMNS = ("ids", "embedding", "has_embedding", "effective_alpha", "hits", "time_since_update")


class TrackView(NamedTuple):
    """A held track's id and status; its other fields are read from `SelectiveTracker.table`."""

    id: int
    status: str


# a trajectory table: one record per (frame, track id) with its box
TRAJECTORY = np.dtype([("frame", "<i8"), ("id", "<i8"), ("xywh", "<f8", (4,))])


def trajectory_table(records: np.ndarray) -> np.ndarray:
    """The frame, id and xywh fields of `records` as a `TRAJECTORY` table sorted by frame, then id.

    The order is part of the form: the metrics solve each frame's matrix
    in it, and a solve breaks ties by row and column order.
    """
    table = records[list(TRAJECTORY.names)].astype(TRAJECTORY, copy=False)
    return table[np.lexsort((table["id"], table["frame"]))]


@dataclass
class TrackOutput:
    """All emitted (frame, track id, (x, y, w, h)) rows of a run."""

    rows: list[tuple[int, int, list[float]]] = field(default_factory=list)

    def trajectories(self) -> np.ndarray:
        """The rows as one `TRAJECTORY` table, sorted by frame, then id."""
        return trajectory_table(np.array(self.rows, dtype=TRAJECTORY))


@dataclass
class RunStats:
    fetches: int = 0  # crops asked for
    batches: int = 0  # provider calls, each with at least one crop
    late_fetches: int = 0  # crops of non-risky detections left unmatched, fetched for their birth
    detections: int = 0
    high_detections: int = 0
    frames: int = 0


class _FrameRecord:
    """One frame's arrays, as the stages of `SelectiveTracker.step` build them; `t` is the frame's own table.

    `xywh` holds the frame's boxes, the high rows first, each half in frame
    order; `order` maps its rows to the detections' indices (None when none
    moves). Each `js` array indexes those rows, each `rows` array `t`'s.
    """

    __slots__ = ("frame", "detections", "t", "s", "confirmed", "all_confirmed", "n_high", "n_iou", "order", "xywh",
                 "_box_ious", "cand", "risky", "risky_js", "fetched", "feats", "copies", "rows", "js", "born_js",
                 "late_js", "z", "det_of", "seen", "emitted")

    def __init__(self, frame: int, detections: Frame):
        self.frame, self.detections, self._box_ious = frame, detections, None

    def box_ious(self) -> tuple[np.ndarray | None, np.ndarray]:
        """`t`'s predicted boxes and their IoU matrix with the first `n_iou` rows of `xywh`, built on the first call.

        Every call must come before the Kalman update (stage 6) writes `t`'s
        block. With no `n_iou` rows there are no boxes (None) and no columns.
        """
        if self._box_ious is None:
            if self.n_iou:
                boxes = motion.state_to_xywh(self.t.kalman_block)
                self._box_ious = boxes, iou_matrix(boxes, self.xywh[:self.n_iou])
            else:
                self._box_ious = None, np.zeros((len(self.t), 0))
        return self._box_ious


class SelectiveTracker:
    """Stateful per-sequence tracker; frames must arrive in increasing order.

    A frame number left out between two steps is a frame without
    detections: the later step first ages and predicts every track over it.
    """

    def __init__(
        self,
        provider: FeatureProvider,
        gate: GateConfig | None = None,
        match: MatchConfig | None = None,
    ):
        self.stats = RunStats()
        self.provider = CountingProvider(provider, self.stats)
        self.gate = gate or GateConfig()
        self.match = match or MatchConfig()
        self.table = TrackTable.born(np.zeros(0, dtype=int), motion.initiate(np.zeros((0, motion.NDIM))), 0)
        self.last_frame = 0
        self._next_id = 1

    @property
    def tracks(self) -> list[TrackView]:
        """Each held track's id and status, in birth order."""
        t, min_hits = self.table, self.match.min_hits
        return [TrackView(i, CONFIRMED if h >= min_hits else TENTATIVE) for i, h in zip(t.ids.tolist(), t.hits.tolist())]

    # -- the frame step ----------------------------------------------------

    def step(self, frame: int, detections: Frame) -> list[tuple[int, list[float]]]:
        """Process one frame and return (track id, [x, y, w, h]) for tracks matched now, by id.

        The stages run in order on the frame's record. The commit after them
        is the only write to the tracker, so a step that raises leaves none.
        """
        if frame <= self.last_frame:
            raise ValueError(f"frames must be strictly increasing: got {frame} after {self.last_frame}")
        if detections.frame != frame or isinstance(frame, bool):  # a `Frame` refuses a bool
            raise ValueError(f"detection frame {detections.frame} does not match step frame {frame}")
        r = _FrameRecord(frame, detections)
        for stage in self._STAGES:
            stage(self, r)

        # commit, with deletions after max_age consecutive misses
        self.table = r.t.keep(r.t.time_since_update <= self.match.max_age)
        self._next_id += len(r.born_js)
        self.last_frame = frame
        stats, n_risky, n_late = self.stats, len(r.risky_js), len(r.late_js)
        stats.frames += 1
        stats.detections += len(detections)
        stats.high_detections += r.n_high
        stats.fetches += n_risky + n_late  # the crops of the frame's two provider calls
        stats.batches += (n_risky > 0) + (n_late > 0)
        stats.late_fetches += n_late
        return r.emitted

    def _prediction(self, r: _FrameRecord) -> None:
        """1. Motion prediction; a track whose predicted aspect or height is no longer positive has no box and ends.

        The innovation variances that tell so are kept for the update. Frames
        left out since the last step were frames without detections (`_missed`).
        """
        t, gap, min_hits = self.table, r.frame - self.last_frame - 1, self.match.min_hits
        if gap and len(t):
            t = self._missed(t, gap)
        t, r.s = _predicted(t)
        r.t, r.confirmed = t, t.hits >= min_hits  # the rows the gate and the cascade's first stage see
        r.all_confirmed = min_hits == 1 or np.count_nonzero(r.confirmed) == len(t)  # every held row has a hit

    def _confidence_split(self, r: _FrameRecord) -> None:
        """2. Confidence split; the selective mechanism sees only the high half, the first `n_high` rows of `xywh`."""
        detections, m = r.detections, self.match
        high = detections.confidence >= m.conf_high
        n_high = int(np.count_nonzero(high))
        if n_high == len(high):
            r.order, r.xywh = None, detections.xywh
        else:
            r.order = order = np.argsort(~high, kind="stable")
            r.xywh = detections.xywh[order]
        r.n_high, r.n_iou = n_high, len(high) if m.byte_low else n_high  # `box_ious` covers low rows for the byte stage

    def _gating(self, r: _FrameRecord) -> None:
        """3. Gate: each high detection's sole candidate among the confirmed tracks, -1 when it is risky.

        A tentative row's IoUs are 0 for the gate. A frame with no high
        detection has no gate to run, and always_extract's gate reads no IoU.
        """
        n_high, gate = r.n_high, self.gate
        if n_high and gate.reads_iou:
            boxes, ious = r.box_ious()
            high_iou = ious[:, :n_high]
            gate_iou = high_iou if r.all_confirmed else np.where(r.confirmed[:, None], high_iou, 0.0)
            cand = gating.candidates(gate_iou, r.xywh[:n_high], boxes, gate)
        else:
            cand = _filled(n_high, -1)
        r.cand, r.risky = cand, cand < 0

    def _features(self, r: _FrameRecord) -> None:
        """4. Features: fetched for risky detections; a non-risky one copies its candidate's embedding, if it has one.

        Under the base-gate ablation it copies nothing: it is saturated, priced out of appearance matching.
        """
        risky = r.risky
        r.risky_js = risky_js = risky.nonzero()[0]
        r.fetched, r.feats = self._fetch(r.frame, r.order, risky_js)
        if self.gate.mode == gating.MODE_BASE_GATE or len(risky_js) == r.n_high:
            r.copies = risky_js[:0]
        else:
            copies = (~risky).nonzero()[0]
            r.copies = copies[r.t.has_embedding[r.cand[copies]]]

    def _association(self, r: _FrameRecord) -> None:
        """5. Association: each stage is one solve over every live row and its detection group's columns.

        Costs are INFEASIBLE outside the stage. Appearance costs are also
        INFEASIBLE where a track has no embedding or a detection no feature
        (a saturated one included); only the fused stage prices saturated
        columns, at SATURATED_COST. The matches are (track row, detection
        row) index arrays, stage after stage; a later stage runs only while
        rows and columns are left unmatched. When every high detection is
        priced, the appearance costs are `cosine_costs`' own matrix.
        """
        m, t, cand, copies, fetched, n_high = self.match, r.t, r.cand, r.copies, r.fetched, r.n_high
        if len(copies):  # a copy's candidate has an embedding, so the costs below are built
            app_js = np.sort(np.concatenate([fetched, copies])) if len(fetched) else copies
            vectors = t.embedding[cand[app_js]]  # a fetched column's row (cand -1) is overwritten next
            if len(fetched):
                vectors[np.searchsorted(app_js, fetched)] = r.feats
        else:
            app_js, vectors = fetched, r.feats  # the fetched rows increase, as the columns do
        n_embedded = np.count_nonzero(t.has_embedding)
        if len(app_js) and n_embedded:
            costs = appearance.cosine_costs(t.embedding, vectors)
            if len(app_js) == n_high:
                app = costs
            else:
                app = _filled((len(t), n_high), INFEASIBLE)
                app[:, app_js] = costs
            if n_embedded < len(t):
                app[~t.has_embedding] = INFEASIBLE
            app[cand[copies], copies] = 0.0  # a copy is its candidate's own embedding
        else:
            app = _filled((len(t), n_high), INFEASIBLE)
        if m.strategy == STRATEGY_CASCADE:
            rows, js = assignment.solve(app if r.all_confirmed else np.where(r.confirmed[:, None], app, INFEASIBLE),
                                        m.appearance_gate)
            if len(rows) < len(t) and len(js) < n_high:
                within = _left(len(t), rows)[:, None] & _left(n_high, js)
                iou_rows, iou_js = assignment.solve(_iou_cost(r.box_ious()[1][:, :n_high], m.iou_gate, within),
                                                    1.0 - m.iou_gate)
                if len(iou_rows):
                    rows, js = np.concatenate([rows, iou_rows]), np.concatenate([js, iou_js])
        else:
            high_cost = _iou_cost(r.box_ious()[1][:, :n_high], m.iou_gate)
            extra = np.where(~r.risky, SATURATED_COST, app) if self.gate.mode == gating.MODE_BASE_GATE else app
            priced = np.isfinite(high_cost) & np.isfinite(extra)
            high_cost[priced] += m.fused_weight * extra[priced]
            rows, js = assignment.solve(high_cost, m.fused_weight * SATURATED_COST + (1.0 - m.iou_gate))
        r.born_js = _left(n_high, js).nonzero()[0] if len(js) < n_high else js[:0]
        if m.byte_low and n_high < r.n_iou and len(rows) < len(t):
            byte_cost = _iou_cost(r.box_ious()[1][:, n_high:], m.iou_gate, _left(len(t), rows)[:, None])
            byte_rows, byte_js = assignment.solve(byte_cost, 1.0 - m.iou_gate)
            rows, js = np.concatenate([rows, byte_rows]), np.concatenate([js, n_high + byte_js])
        r.rows, r.js = rows, js

    def _kalman_update(self, r: _FrameRecord) -> None:
        """6. One Kalman update over the matched rows, from the frame's one measurement pass (births read it too)."""
        t, rows, js = r.t, r.rows, r.js
        r.z = z = motion.measurements(r.xywh)
        r.det_of = det_of = _filled(len(t), -1)  # each row's detection this frame (matched, or born in 7), -1 for none
        det_of[rows] = js
        if 0 < len(rows) == len(t):
            t.kalman_block = motion.update(t.kalman_block, z[det_of], r.s)
            t.time_since_update[:] = 0
        elif len(rows):
            t.kalman_block[..., rows] = motion.update(t.kalman_block[..., rows], z[js], r.s[:, rows])
            t.time_since_update[rows] = 0
        if len(rows):
            t.hits = t.hits + (det_of >= 0)

    def _births(self, r: _FrameRecord) -> None:
        """7. Births for unmatched high-confidence detections (eager feature: a non-risky one is fetched late)."""
        born_js = r.late_js = r.born_js
        det_of = r.det_of
        if len(born_js):
            r.late_js = late_js = born_js[~r.risky[born_js]]
            late, late_feats = self._fetch(r.frame, r.order, late_js)
            if len(late):
                feats = r.feats
                r.fetched = np.concatenate([r.fetched, late])
                r.feats = late_feats if feats is None else np.concatenate([feats, late_feats])
            t, ids = r.t, np.arange(self._next_id, self._next_id + len(born_js))
            r.t = t.concat(TrackTable.born(ids, motion.initiate(r.z[born_js]), t.embedding.shape[1]))
            r.det_of = det_of = np.concatenate([det_of, born_js])
        r.seen = (det_of >= 0).nonzero()[0]

    def _appearance(self, r: _FrameRecord) -> None:
        """8. Appearance: only a fetched vector refreshes the EMA (or seeds a newborn's); other rows decay it.

        Byte, copied and feature-less matches and unmatched tracks decay. A
        column the frame's table still shares with the committed table is
        copied before it is written; when every row blends, the blend's
        result is the new `embedding` whole.
        """
        t, seen, fetched, feats, alpha = r.t, r.seen, r.fetched, r.feats, self.match.ema_alpha
        rows = ks = seen[:0]
        if len(fetched):
            feat_of = _filled(len(r.xywh), -1)  # detection row -> its row of `feats`, -1 when not fetched
            feat_of[fetched] = np.arange(len(fetched))
            ks = feat_of[r.det_of[seen]]
            rows, ks = seen[ks >= 0], ks[ks >= 0]
        if 0 < len(rows) == len(t) == np.count_nonzero(t.has_embedding):
            t.embedding = appearance.ema_update(t.embedding, t.effective_alpha, feats[ks])
            t.effective_alpha = _filled(len(t), alpha)
            return
        weight = t.effective_alpha[rows]  # what this frame's blends put on the old embedding
        t.effective_alpha = t.effective_alpha * alpha
        if not len(rows):
            return
        vectors = feats[ks]
        blend = t.has_embedding[rows]
        if np.count_nonzero(blend):
            vectors[blend] = appearance.ema_update(t.embedding[rows[blend]], weight[blend], vectors[blend])
        if not t.embedding.shape[1]:
            t.embedding = np.zeros((len(t), vectors.shape[1]))
        elif t.embedding is self.table.embedding:
            t.embedding = t.embedding.copy()
        if t.has_embedding is self.table.has_embedding:
            t.has_embedding = t.has_embedding.copy()
        t.embedding[rows] = vectors
        t.has_embedding[rows] = True
        t.effective_alpha[rows] = alpha

    def _emit(self, r: _FrameRecord) -> None:
        """9. Emit: the confirmed matched and newborn tracks; rows are in birth order, so in increasing id order."""
        t, seen, m = r.t, r.seen, self.match
        shown = seen if m.min_hits == 1 else seen[t.hits[seen] >= m.min_hits]
        if m.emit == EMIT_DETECTION:
            shown_xywh = r.xywh[r.det_of[shown]]
        else:
            shown_xywh = motion.state_to_xywh(t.kalman_block)[shown]
        r.emitted = list(zip(t.ids[shown].tolist(), shown_xywh.tolist()))

    _STAGES = (_prediction, _confidence_split, _gating, _features, _association, _kalman_update, _births, _appearance,
               _emit)

    def _missed(self, t: TrackTable, frames: int) -> TrackTable:
        """`t` after `frames` frames without detections, as steps of empty frames leave it.

        Each such frame predicts and ages every row and decays its blend
        weight, then drops the rows left without a box or past `max_age`
        misses. A gap that takes every row past `max_age` leaves an empty
        table, returned at once without a predict; a shorter gap, at most
        `max_age` frames, still costs one predict per frame, as stepping
        those frames empty does.
        """
        m = self.match
        if frames > m.max_age - t.time_since_update.min():
            return t.keep(np.zeros(len(t), dtype=bool))
        for _ in range(frames):
            t, _ = _predicted(t)
            t.effective_alpha = t.effective_alpha * m.ema_alpha
            t = t.keep(t.time_since_update <= m.max_age)
        return t

    def _fetch(self, frame: int, order: np.ndarray | None, js: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The rows among `js` whose detection the provider has a feature for, and those features.

        One provider call asks for every row of `js` (none when it is empty).
        Row j is the detection of index `order[j]`, or of index j when
        `order` is None. The features are one (k, d) float64 matrix, None
        when there are none; raises unless each is unit-norm and, once the
        table's embeddings have a width, of that width.
        """
        if not len(js):
            return js, None
        found, vectors = self.provider.fetch(frame, js if order is None else order[js])
        if not len(found):
            return js[found], None
        vectors = appearance.check_unit(vectors)
        dim = self.table.embedding.shape[1]
        if dim and vectors.shape[-1] != dim:
            raise ValueError(f"feature dimension {vectors.shape[-1]} does not match the embedding dimension {dim}")
        return js[found], vectors


def _predicted(t: TrackTable) -> tuple[TrackTable, np.ndarray]:
    """`t` one frame on, and the innovation variances of the rows it keeps.

    Every row is predicted and aged; a row whose predicted aspect or height
    is no longer positive has no box and is dropped. The new table shares
    every column but the Kalman block and `time_since_update` with `t`.
    """
    block, s = motion.predict(t.kalman_block)
    kept = ~motion.degenerate(block, s)
    t = TrackTable(t.ids, block, t.embedding, t.has_embedding, t.effective_alpha, t.hits, t.time_since_update + 1)
    if np.count_nonzero(kept) == len(kept):
        return t, s
    return t.keep(kept), s[:, kept]


def _iou_cost(ious: np.ndarray, iou_gate: float, within=True) -> np.ndarray:
    """1 - IoU where the IoU clears `iou_gate` and `within` holds, INFEASIBLE elsewhere."""
    return np.where(within & (ious >= iou_gate), 1.0 - ious, INFEASIBLE)


def _left(n: int, taken: np.ndarray) -> np.ndarray:
    """Mask of the indices below n that are not in `taken`."""
    left = _filled(n, True)
    left[taken] = False
    return left


def _filled(shape, value) -> np.ndarray:
    """`np.full(shape, value)`, at half its cost on a frame's small arrays; the dtype is that of `value`'s type."""
    filled = np.empty(shape, type(value))
    filled.fill(value)
    return filled


def run_sequence(
    frames: dict[int, Frame],
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
