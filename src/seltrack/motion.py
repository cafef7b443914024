"""Constant-velocity Kalman filter per track.

State is (cx, cy, a, h, vcx, vcy, va, vh) with a = w/h, so h carries the
scale and both noise models can be expressed relative to it (position std
h/20, velocity std h/160). Time step is one frame. Motion, measurement,
noise and initial spread tie each coordinate only to its own velocity, so
the filter is four independent (position, velocity) filters in closed form,
with a diagonal innovation covariance. All operations return fresh states;
nothing is mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seltrack.geometry import BBox

NDIM = 4
STD_WEIGHT_POSITION = 1.0 / 20
STD_WEIGHT_VELOCITY = 1.0 / 160


@dataclass
class KalmanState:
    """Mean (8,) and per-coordinate covariance; treat all four as immutable.

    For (cx, cy, a, h), (4,) arrays of the position variance, the
    position-velocity covariance and the velocity variance.
    """

    mean: np.ndarray
    var_pos: np.ndarray
    cov: np.ndarray
    var_vel: np.ndarray


def _variance(h: float, weight: float, aspect_std: float) -> np.ndarray:
    """Squared stds of (cx, cy, a, h): `weight * h` for the three lengths."""
    return np.square([weight * h, weight * h, aspect_std, weight * h])


def initiate(box: BBox) -> KalmanState:
    """Start a state at the box with zero velocity and height-scaled spread."""
    mean = np.zeros(2 * NDIM)
    mean[:NDIM] = (box.cx, box.cy, box.aspect, box.h)
    return KalmanState(
        mean,
        _variance(box.h, 2 * STD_WEIGHT_POSITION, 1e-2),
        np.zeros(NDIM),
        _variance(box.h, 10 * STD_WEIGHT_VELOCITY, 1e-5),
    )


def predict(state: KalmanState) -> KalmanState:
    """Advance one frame: position += velocity, covariance FPF' + Q."""
    h = state.mean[3]
    pos, vel = state.mean[:NDIM], state.mean[NDIM:]
    cov = state.cov + state.var_vel
    return KalmanState(
        np.concatenate([pos + vel, vel]),
        state.var_pos + state.cov + cov + _variance(h, STD_WEIGHT_POSITION, 1e-2),
        cov,
        state.var_vel + _variance(h, STD_WEIGHT_VELOCITY, 1e-5),
    )


def _innovation_variance(state: KalmanState) -> np.ndarray:
    """Diagonal of the innovation covariance HPH' + R."""
    return state.var_pos + _variance(state.mean[3], STD_WEIGHT_POSITION, 1e-1)


def update(state: KalmanState, measurement: BBox) -> KalmanState:
    """Standard Kalman correction with the box as (cx, cy, a, h)."""
    s = _innovation_variance(state)
    if not s.min() > 0:
        raise ValueError("singular innovation covariance")
    z = np.array([measurement.cx, measurement.cy, measurement.aspect, measurement.h])
    residual = z - state.mean[:NDIM]
    gain_pos, gain_vel = state.var_pos / s, state.cov / s
    return KalmanState(
        state.mean + np.concatenate([gain_pos * residual, gain_vel * residual]),
        state.var_pos - gain_pos * s * gain_pos,
        state.cov - gain_pos * s * gain_vel,
        state.var_vel - gain_vel * s * gain_vel,
    )


def degenerate(state: KalmanState) -> bool:
    """True when the state has no box or no measurement can correct it.

    That is, the mean's aspect or height is not positive, or an innovation
    variance is not (a tiny height underflows it to 0).
    """
    return bool(
        state.mean[2] <= 0 or state.mean[3] <= 0 or not _innovation_variance(state).min() > 0
    )


def state_to_box(state: KalmanState) -> BBox:
    """Mean back to a top-left box; degenerate aspect or height is an error."""
    cx, cy, a, h = state.mean[:NDIM]
    if a <= 0 or h <= 0:
        raise ValueError(f"degenerate state: aspect={a}, height={h}")
    w = a * h
    return BBox(cx - w / 2.0, cy - h / 2.0, w, h)
