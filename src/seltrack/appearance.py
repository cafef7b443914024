"""Per-track appearance state: decaying EMA of embeddings, and the cosine cost kernel.

The embedding is a unit vector updated as e <- normalize(a' * e + (1 - a') * f)
whenever a freshly extracted feature f arrives. While extractions are
skipped, the effective weight a' is multiplied by the base alpha once per
frame, so the old average keeps losing significance exactly as it would
have under per-frame updates (a' = alpha^(k+1) after k skipped frames).
The state of one track or of a stack of tracks (leading axes) goes through
the same calls, and each row of a stack gets the bytes it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_NORM_ATOL = 1e-6


def _norms(v: np.ndarray) -> np.ndarray:
    """Norms over the last axis, each `sqrt(v @ v)` as `np.linalg.norm` sums one vector.

    `np.linalg.norm(v, axis=-1)` sums in another order and can differ in the last bit.
    """
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _check_unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if np.any(np.abs(_norms(v) - 1.0) > UNIT_NORM_ATOL):
        raise ValueError("feature vector must be unit-norm")
    return v


@dataclass
class EmaState:
    """Unit embedding (..., d) plus the decayed blend weight bookkeeping.

    The weight and the frame count are (...) arrays, or scalars that hold
    for every row: a fresh state has full weight and no skipped frames.
    """

    embedding: np.ndarray
    base_alpha: float
    effective_alpha: float | np.ndarray
    frames_since_feature: int | np.ndarray

    def __getitem__(self, rows) -> EmaState:
        """The states at `rows` of a stacked state with per-row bookkeeping."""
        return EmaState(self.embedding[rows], self.base_alpha, self.effective_alpha[rows], self.frames_since_feature[rows])


def init_ema(f, base_alpha: float) -> EmaState:
    """First feature seeds the embedding directly; no prior average to blend."""
    if not 0.0 < base_alpha < 1.0:
        raise ValueError(f"base_alpha must be in (0, 1), got {base_alpha!r}")
    return EmaState(_check_unit(f), base_alpha, base_alpha, 0)


def mark_skipped(s: EmaState) -> EmaState:
    """One frame passed without a fresh feature: decay the blend weight."""
    return EmaState(
        s.embedding,
        s.base_alpha,
        s.effective_alpha * s.base_alpha,
        s.frames_since_feature + 1,
    )


def ema_update(s: EmaState, f) -> EmaState:
    """Blend freshly extracted features in and reset the decay."""
    f = _check_unit(f)
    alpha = np.asarray(s.effective_alpha)[..., None]
    blended = alpha * s.embedding + (1.0 - alpha) * f
    norm = _norms(blended)
    if np.any(norm == 0.0):
        raise ValueError("blended embedding cancelled to zero")
    return EmaState(blended / norm[..., None], s.base_alpha, s.base_alpha, 0)


def cosine_costs(embeddings, columns) -> np.ndarray:
    """1 - e.f for stacked unit track embeddings (rows) against detection columns.

    A column is a unit feature vector, or the row index of the track whose
    embedding a non-risky detection copies: such a column costs exactly zero
    to that track and the inter-track embedding distance to every other.
    Distances are clipped to [0, 2] against rounding.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    vectors, copies = [], {}
    for k, col in enumerate(columns):
        if col is None:
            raise ValueError(f"detection {k} has neither a feature nor a copy")
        if isinstance(col, (int, np.integer)):
            if not 0 <= col < len(embeddings):
                raise ValueError(f"copy candidate {col} out of range")
            copies[k] = col
            col = embeddings[col]
        vectors.append(np.asarray(col, dtype=float))
    cost = np.clip(1.0 - embeddings @ np.stack(vectors).T, 0.0, 2.0)
    for k, row in copies.items():
        cost[row, k] = 0.0
    return cost
