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
with no gather or scatter.
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
        if not isinstance(frame, (int, np.integer)):
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
        if not 0.0 <= self.appearance_gate <= 2.0:
            raise ValueError("appearance_gate must be in [0, 2]")
        if not 0.0 <= self.iou_gate <= 1.0:
            raise ValueError("iou_gate must be in [0, 1]")
        if not 0.0 <= self.fused_weight < np.inf:
            raise ValueError("fused_weight must be finite and non-negative")
        if not 0.0 <= self.conf_high <= 1.0:
            raise ValueError("conf_high must be in [0, 1]")
        for name in ("min_hits", "max_age"):
            if not isinstance(getattr(self, name), (int, np.integer)):
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
    """Wraps a provider and counts every crop asked for — the PDE numerator."""

    def __init__(self, inner: FeatureProvider):
        self.inner = inner
        self.fetches = 0

    def fetch(self, frame: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One batch of the inner provider's `fetch_batch`; the tracker calls it by this name, so a wrapper bound here sees every batch."""
        self.fetches += len(indices)
        return self.inner.fetch_batch(frame, indices)


@dataclass
class TrackTable:
    """Every held track as one row of stacked arrays, in birth order.

    `kalman_block` is `motion`'s stacked state block, whose last axis runs
    over the rows, and `effective_alpha` is the weight the next blend puts
    on a row's embedding; a row without an embedding holds zeros in both.
    A committed table (`SelectiveTracker.table`) is never written. A frame's
    table shares each column with it until the frame writes that column: it
    copies `hits` up front, `embedding` and `has_embedding` only to blend a
    fetched feature into them while it still shares them, and builds its
    other changed columns anew. A frame that writes every row of a column
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
        if mask.all():
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
        t, min_hits = self.table, self.match.min_hits
        return [TrackView(i, CONFIRMED if h >= min_hits else TENTATIVE) for i, h in zip(t.ids.tolist(), t.hits.tolist())]

    # -- the frame step ----------------------------------------------------

    def step(self, frame: int, detections: Frame) -> list[tuple[int, list[float]]]:
        """Process one frame and return (track id, [x, y, w, h]) for tracks matched now, by id."""
        if frame <= self.last_frame:
            raise ValueError(
                f"frames must be strictly increasing: got {frame} after {self.last_frame}"
            )
        if detections.frame != frame:
            raise ValueError(f"detection frame {detections.frame} does not match step frame {frame}")

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
        #    no longer positive has no box, so it ends here. The innovation
        #    variances that tell so are kept for the update. Frames left out
        #    since the last step were frames without detections (`_missed`).
        #    `t` is the frame's own table from here on; it shares each column
        #    with the committed table until it writes it (see `TrackTable`)
        t = self.table
        if frame - self.last_frame > 1 and len(t):
            t = self._missed(t, frame - self.last_frame - 1)
        block, s = motion.predict(t.kalman_block)
        kept = ~motion.degenerate(block, s)
        t = TrackTable(t.ids, block, t.embedding, t.has_embedding, t.effective_alpha, hits=t.hits.copy(),
                       time_since_update=t.time_since_update + 1)
        if not kept.all():
            t, s = t.keep(kept), s[:, kept]
        confirmed = t.hits >= m.min_hits  # the rows the gate and the cascade's first stage see
        all_confirmed = m.min_hits == 1 or confirmed.all()  # every held row has a hit

        # 2. confidence split; the selective mechanism sees only the high
        #    half. The frame's boxes are one array, the high rows first, each
        #    half in frame order; `order` maps its rows to the detections'
        #    indices (None when every detection is high, so none moves)
        high = detections.confidence >= m.conf_high
        n_dets, n_high = len(high), int(np.count_nonzero(high))
        if n_high == n_dets:
            order, xywh = None, detections.xywh
        else:
            order = np.argsort(~high, kind="stable")
            xywh = detections.xywh[order]

        # 3. one IoU matrix of the predicted boxes with the high detections,
        #    and with the low ones when the byte stage may run, built by the
        #    first stage that reads it (`ious` is None until then): the gate,
        #    the fused stage, the cascade's IoU stage or the byte stage. Risk
        #    classification is against confirmed tracks' boxes (a tentative
        #    track's row is 0 for the gate); a frame with no high detection
        #    has no gate to run, and always_extract's gate reads no IoU
        n_iou = n_dets if m.byte_low else n_high
        ious = None
        if n_high and self.gate.reads_iou:
            boxes = motion.state_to_xywh(t.kalman_block)
            ious = iou_matrix(boxes, xywh[:n_iou])
            high_iou = ious[:, :n_high]
            gate_iou = high_iou if all_confirmed else np.where(confirmed[:, None], high_iou, 0.0)
            cand = gating.candidates(gate_iou, xywh[:n_high], boxes, self.gate)
        else:
            cand = np.full(n_high, -1)
        risky = cand < 0

        # 4. features: fetched for risky detections; a non-risky one copies
        #    its candidate's embedding, if it has one, or is saturated (priced
        #    out of appearance matching) under the base-gate ablation
        risky_js = risky.nonzero()[0]
        fetched, feats = self._fetch(frame, order, risky_js)
        base_gate = self.gate.mode == gating.MODE_BASE_GATE
        if base_gate or len(risky_js) == n_high:
            copies = risky_js[:0]
        else:
            copies = (~risky).nonzero()[0]
            copies = copies[t.has_embedding[cand[copies]]]

        # 5. association: each stage is one solve over every live row and its
        #    detection group's columns, with INFEASIBLE outside the stage.
        #    Appearance costs are INFEASIBLE where a track has no embedding or
        #    a detection no feature (a saturated one included); only the fused
        #    stage prices saturated columns, at SATURATED_COST. The matches
        #    are (track row, detection row) index arrays, stage after stage; a
        #    later stage runs only while rows and columns are left unmatched.
        #    When every high detection is priced, the appearance costs are
        #    `cosine_costs`' own matrix
        if len(copies):  # a copy's candidate has an embedding, so the costs below are built
            app_js = np.sort(np.concatenate([fetched, copies])) if len(fetched) else copies
            vectors = t.embedding[cand[app_js]]  # a fetched column's row (cand -1) is overwritten next
            if len(fetched):
                vectors[np.searchsorted(app_js, fetched)] = feats
        else:
            app_js, vectors = fetched, feats  # the fetched rows increase, as the columns do
        if len(app_js) and t.has_embedding.any():
            costs = appearance.cosine_costs(t.embedding, vectors)
            if len(app_js) == n_high:
                app = costs
            else:
                app = np.full((len(t), n_high), INFEASIBLE)
                app[:, app_js] = costs
            if not t.has_embedding.all():
                app[~t.has_embedding] = INFEASIBLE
            app[cand[copies], copies] = 0.0  # a copy is its candidate's own embedding
        else:
            app = np.full((len(t), n_high), INFEASIBLE)
        if m.strategy == STRATEGY_CASCADE:
            rows, js = assignment.solve(app if all_confirmed else np.where(confirmed[:, None], app, INFEASIBLE),
                                        m.appearance_gate)
            if len(rows) < len(t) and len(js) < n_high:
                if ious is None:
                    ious = _frame_ious(t.kalman_block, xywh, n_iou)
                iou_rows, iou_js = assignment.solve(
                    _iou_cost(ious[:, :n_high], m.iou_gate, _left(len(t), rows)[:, None] & _left(n_high, js)),
                    1.0 - m.iou_gate)
                if len(iou_rows):
                    rows, js = np.concatenate([rows, iou_rows]), np.concatenate([js, iou_js])
        else:
            if ious is None:
                ious = _frame_ious(t.kalman_block, xywh, n_iou)
            high_cost = _iou_cost(ious[:, :n_high], m.iou_gate)
            extra = np.where(~risky, SATURATED_COST, app) if base_gate else app
            priced = np.isfinite(high_cost) & np.isfinite(extra)
            high_cost[priced] += m.fused_weight * extra[priced]
            rows, js = assignment.solve(high_cost, m.fused_weight * SATURATED_COST + (1.0 - m.iou_gate))
        born_js = _left(n_high, js).nonzero()[0] if len(js) < n_high else js[:0]
        if m.byte_low and n_high < n_dets and len(rows) < len(t):
            if ious is None:
                ious = _frame_ious(t.kalman_block, xywh, n_iou)
            byte_cost = _iou_cost(ious[:, n_high:], m.iou_gate, _left(len(t), rows)[:, None])
            byte_rows, byte_js = assignment.solve(byte_cost, 1.0 - m.iou_gate)
            rows, js = np.concatenate([rows, byte_rows]), np.concatenate([js, n_high + byte_js])

        # 6. one Kalman update over the matched rows, from the frame's one
        #    measurement pass, which the births read too; when every row
        #    matched, the update's block is the frame's block. `det_of` is
        #    each row's detection this frame (matched or born), -1 for none
        z = motion.measurements(xywh)
        det_of = np.full(len(t), -1)
        det_of[rows] = js
        if 0 < len(rows) == len(t):
            t.kalman_block = motion.update(t.kalman_block, z[det_of], s)
            t.hits += 1
            t.time_since_update[:] = 0
        elif len(rows):
            t.kalman_block[..., rows] = motion.update(t.kalman_block[..., rows], z[js], s[:, rows])
            t.hits[rows] += 1
            t.time_since_update[rows] = 0

        # 7. births for unmatched high-confidence detections (eager feature)
        late_js = born_js
        if len(born_js):
            late_js = born_js[~risky[born_js]]
            late, late_feats = self._fetch(frame, order, late_js)
            if len(late):
                fetched = np.concatenate([fetched, late])
                feats = late_feats if feats is None else np.concatenate([feats, late_feats])
            ids = np.arange(self._next_id, self._next_id + len(born_js))
            block = motion.initiate(z[born_js])
            t = t.concat(TrackTable.born(ids, block, t.embedding.shape[1]))
            det_of = np.concatenate([det_of, born_js])
        seen = (det_of >= 0).nonzero()[0]

        # 8. appearance: only a fetched vector refreshes the EMA (or seeds a
        #    newborn's); byte/copied/feature-less matches and unmatched tracks decay it
        blended = ks = seen[:0]
        if len(fetched):
            feat_of = np.full(n_dets, -1)  # detection row -> its row of `feats`, -1 when not fetched
            feat_of[fetched] = np.arange(len(fetched))
            ks = feat_of[det_of[seen]]
            blended, ks = seen[ks >= 0], ks[ks >= 0]
        self._refresh_appearance(t, blended, ks, feats)

        # the confirmed matched and newborn tracks emit; rows are in birth
        # order, so in increasing id order
        shown = seen if m.min_hits == 1 else seen[t.hits[seen] >= m.min_hits]
        if m.emit == EMIT_DETECTION:
            shown_xywh = xywh[det_of[shown]]
        else:
            shown_xywh = motion.state_to_xywh(t.kalman_block)[shown]
        emitted = list(zip(t.ids[shown].tolist(), shown_xywh.tolist()))

        # commit, with deletions after max_age consecutive misses
        self.table = t.keep(t.time_since_update <= m.max_age)
        self._next_id += len(born_js)
        self.last_frame = frame
        self.stats.high_detections += n_high
        self.stats.batches += (len(risky_js) > 0) + (len(late_js) > 0)
        self.stats.late_fetches += len(late_js)
        return emitted

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
            block, s = motion.predict(t.kalman_block)
            t = TrackTable(t.ids, block, t.embedding, t.has_embedding, t.effective_alpha * m.ema_alpha, t.hits,
                           t.time_since_update + 1)
            t = t.keep(~motion.degenerate(block, s) & (t.time_since_update <= m.max_age))
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

    def _refresh_appearance(self, t: TrackTable, rows: np.ndarray, ks: np.ndarray, feats) -> None:
        """Decay every row's blend weight, then blend row `ks[n]` of `feats` into row `rows[n]`; a row without an embedding is seeded.

        `t` is the frame's own table; a column it still shares with the
        committed table is replaced by a copy before it is written. When
        every row blends, the blend's result is the new `embedding` whole.
        """
        alpha = self.match.ema_alpha
        if 0 < len(rows) == len(t) and t.has_embedding.all():
            t.embedding = appearance.ema_update(t.embedding, t.effective_alpha, feats[ks])
            t.effective_alpha = np.full(len(t), alpha)
            return
        weight = t.effective_alpha[rows]  # what this frame's blends put on the old embedding
        t.effective_alpha = t.effective_alpha * alpha
        if not len(rows):
            return
        vectors = feats[ks]
        blend = t.has_embedding[rows]
        if blend.any():
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


def _frame_ious(kalman_block: np.ndarray, xywh: np.ndarray, n: int) -> np.ndarray:
    """The IoU matrix of the block's predicted boxes with the first `n` rows of `xywh`; no columns when `n` is 0."""
    return iou_matrix(motion.state_to_xywh(kalman_block), xywh[:n]) if n else np.zeros((kalman_block.shape[-1], 0))


def _iou_cost(ious: np.ndarray, iou_gate: float, within=True) -> np.ndarray:
    """1 - IoU where the IoU clears `iou_gate` and `within` holds, INFEASIBLE elsewhere."""
    return np.where(within & (ious >= iou_gate), 1.0 - ious, INFEASIBLE)


def _left(n: int, taken: np.ndarray) -> np.ndarray:
    """Mask of the indices below n that are not in `taken`."""
    left = np.ones(n, dtype=bool)
    left[taken] = False
    return left


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
