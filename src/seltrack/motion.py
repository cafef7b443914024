"""Constant-velocity Kalman filter, for one track or a stack of them.

State is (cx, cy, a, h, vcx, vcy, va, vh) with a = w/h, so h carries the
scale and both noise models can be expressed relative to it (position std
h/20, velocity std h/160). Time step is one frame. Motion, measurement,
noise and initial spread tie each coordinate only to its own velocity, so
the filter is four independent (position, velocity) filters in closed form,
with a diagonal innovation covariance. Every operation is elementwise along
the last axis, so leading axes stack independent tracks and a stacked call
gives each row the bytes a call on that row alone would give. All
operations return fresh states; nothing is mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NDIM = 4
STD_WEIGHT_POSITION = 1.0 / 20
STD_WEIGHT_VELOCITY = 1.0 / 160


@dataclass
class KalmanState:
    """Mean (..., 8) and per-coordinate covariance; treat all four as immutable.

    For (cx, cy, a, h), (..., 4) arrays of the position variance, the
    position-velocity covariance and the velocity variance.
    """

    mean: np.ndarray
    var_pos: np.ndarray
    cov: np.ndarray
    var_vel: np.ndarray

    def __getitem__(self, rows) -> KalmanState:
        """The states at `rows` of a stacked state."""
        return KalmanState(self.mean[rows], self.var_pos[rows], self.cov[rows], self.var_vel[rows])


def measurements(boxes) -> np.ndarray:
    """(n, 4) rows of (cx, cy, a, h), the filter's measurement of each box."""
    return np.array([(b.cx, b.cy, b.aspect, b.h) for b in boxes], dtype=float).reshape(-1, NDIM)


def _variance(h, weight: float, aspect_std: float) -> np.ndarray:
    """Squared stds of (cx, cy, a, h) on a last axis: `weight * h` for the three lengths."""
    std = np.empty(np.shape(h) + (NDIM,))
    std[...] = weight * np.asarray(h)[..., None]
    std[..., 2] = aspect_std
    with np.errstate(over="ignore"):  # an inf variance marks the state `degenerate`
        return np.square(std, out=std)


def initiate(z) -> KalmanState:
    """Start states at measurements z (..., 4) with zero velocity and height-scaled spread."""
    z = np.asarray(z, dtype=float)
    h = z[..., 3]
    return KalmanState(
        np.concatenate([z, np.zeros_like(z)], axis=-1),
        _variance(h, 2 * STD_WEIGHT_POSITION, 1e-2),
        np.zeros_like(z),
        _variance(h, 10 * STD_WEIGHT_VELOCITY, 1e-5),
    )


def predict(state: KalmanState) -> KalmanState:
    """Advance one frame: position += velocity, covariance FPF' + Q."""
    h = state.mean[..., 3]
    pos, vel = state.mean[..., :NDIM], state.mean[..., NDIM:]
    cov = state.cov + state.var_vel
    return KalmanState(
        np.concatenate([pos + vel, vel], axis=-1),
        state.var_pos + state.cov + cov + _variance(h, STD_WEIGHT_POSITION, 1e-2),
        cov,
        state.var_vel + _variance(h, STD_WEIGHT_VELOCITY, 1e-5),
    )


def _innovation_variance(state: KalmanState) -> np.ndarray:
    """Diagonal of the innovation covariance HPH' + R."""
    return state.var_pos + _variance(state.mean[..., 3], STD_WEIGHT_POSITION, 1e-1)


def update(state: KalmanState, z) -> KalmanState:
    """Standard Kalman correction with measurements z (..., 4) of (cx, cy, a, h)."""
    s = _innovation_variance(state)
    if not s.min() > 0:
        raise ValueError("singular innovation covariance")
    residual = np.asarray(z, dtype=float) - state.mean[..., :NDIM]
    gain_pos, gain_vel = state.var_pos / s, state.cov / s
    return KalmanState(
        state.mean + np.concatenate([gain_pos * residual, gain_vel * residual], axis=-1),
        state.var_pos - gain_pos * s * gain_pos,
        state.cov - gain_pos * s * gain_vel,
        state.var_vel - gain_vel * s * gain_vel,
    )


def degenerate(state: KalmanState) -> np.ndarray:
    """True where a state has no box or no measurement can correct it.

    That is, the mean's aspect or height is not positive, or an innovation
    variance is not positive and finite (a tiny height underflows it to 0,
    a huge one overflows it).
    """
    s = _innovation_variance(state)
    corrects = np.all((s > 0) & (s < np.inf), axis=-1)
    return (state.mean[..., 2] <= 0) | (state.mean[..., 3] <= 0) | ~corrects


def state_to_xywh(state: KalmanState) -> np.ndarray:
    """(..., 4) top-left boxes (x, y, w, h) of the means, the fields of a `BBox`."""
    mean = state.mean
    w = mean[..., 2] * mean[..., 3]
    box = np.empty(mean.shape[:-1] + (NDIM,))
    box[..., 0] = mean[..., 0] - w / 2.0
    box[..., 1] = mean[..., 1] - mean[..., 3] / 2.0
    box[..., 2] = w
    box[..., 3] = mean[..., 3]
    return box
