"""Appearance kernels on stacked arrays: the unit check, the EMA blend and cosine costs.

A track's embedding is a unit vector updated as e <- normalize(a' * e + (1 - a') * f)
whenever a freshly extracted feature f arrives. While extractions are
skipped, the tracker multiplies the effective weight a' by the base alpha
once per frame, so the old average keeps losing significance exactly as it
would have under per-frame updates (a' = alpha^(k+1) after k skipped
frames). One track or a stack of tracks (leading axes) goes through the
same calls, and each row of a stack gets the bytes it would get alone.
"""

from __future__ import annotations

import numpy as np

UNIT_NORM_ATOL = 1e-6


def norms(v: np.ndarray) -> np.ndarray:
    """Norms over the last axis, each `sqrt(v @ v)` as `np.linalg.norm` sums one vector.

    `np.linalg.norm(v, axis=-1)` sums in another order and can differ in the last bit.
    """
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def check_unit(v) -> np.ndarray:
    """`v` as a float array; raises unless every vector on its last axis is finite and unit-norm."""
    v = np.asarray(v, dtype=float)
    if not np.abs(norms(v) - 1.0).max(initial=0.0) <= UNIT_NORM_ATOL:  # a NaN norm makes the max NaN
        raise ValueError("feature vector must be unit-norm")
    return v


def ema_update(embedding: np.ndarray, weight, f) -> np.ndarray:
    """The unit embeddings blended with fresh unit features f (checked where they enter), `weight` on the old average."""
    alpha = np.asarray(weight)[..., None]
    blended = alpha * embedding + (1.0 - alpha) * f
    norm = norms(blended)
    if not norm.all():
        raise ValueError("blended embedding cancelled to zero")
    return blended / norm[..., None]


def cosine_costs(embeddings, features) -> np.ndarray:
    """1 - e.f for unit track embeddings (rows) against unit features (columns), clipped to [0, 2]."""
    costs = 1.0 - np.asarray(embeddings, dtype=float) @ np.asarray(features, dtype=float).T
    np.maximum(costs, 0.0, out=costs)
    return np.minimum(costs, 2.0, out=costs)
