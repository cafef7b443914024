"""Constant-velocity Kalman filter per track.

State is (cx, cy, a, h, vcx, vcy, va, vh) with a = w/h, so h carries the
scale and both noise models can be expressed relative to it (position std
h/20, velocity std h/160). Time step is one frame. All operations return
fresh states; nothing is mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from seltrack.geometry import BBox

NDIM = 4
STD_WEIGHT_POSITION = 1.0 / 20
STD_WEIGHT_VELOCITY = 1.0 / 160

_MOTION_MAT = np.eye(2 * NDIM)
for _i in range(NDIM):
    _MOTION_MAT[_i, NDIM + _i] = 1.0
_UPDATE_MAT = np.eye(NDIM, 2 * NDIM)


@dataclass
class KalmanState:
    """Mean (8,) and covariance (8, 8); treat both as immutable."""

    mean: np.ndarray
    covariance: np.ndarray


def initiate(box: BBox) -> KalmanState:
    """Start a state at the box with zero velocity and height-scaled spread."""
    mean = np.zeros(2 * NDIM)
    mean[:NDIM] = (box.cx, box.cy, box.aspect, box.h)
    std = [
        2 * STD_WEIGHT_POSITION * box.h,
        2 * STD_WEIGHT_POSITION * box.h,
        1e-2,
        2 * STD_WEIGHT_POSITION * box.h,
        10 * STD_WEIGHT_VELOCITY * box.h,
        10 * STD_WEIGHT_VELOCITY * box.h,
        1e-5,
        10 * STD_WEIGHT_VELOCITY * box.h,
    ]
    return KalmanState(mean, np.diag(np.square(std)))


def _process_noise(h: float) -> np.ndarray:
    std = [
        STD_WEIGHT_POSITION * h,
        STD_WEIGHT_POSITION * h,
        1e-2,
        STD_WEIGHT_POSITION * h,
        STD_WEIGHT_VELOCITY * h,
        STD_WEIGHT_VELOCITY * h,
        1e-5,
        STD_WEIGHT_VELOCITY * h,
    ]
    return np.diag(np.square(std))


def _measurement_noise(h: float) -> np.ndarray:
    std = [
        STD_WEIGHT_POSITION * h,
        STD_WEIGHT_POSITION * h,
        1e-1,
        STD_WEIGHT_POSITION * h,
    ]
    return np.diag(np.square(std))


def predict(state: KalmanState) -> KalmanState:
    """Advance one frame: mean through the motion matrix, covariance FPF' + Q."""
    mean = _MOTION_MAT @ state.mean
    covariance = (
        _MOTION_MAT @ state.covariance @ _MOTION_MAT.T + _process_noise(state.mean[3])
    )
    return KalmanState(mean, covariance)


def project(state: KalmanState) -> tuple[np.ndarray, np.ndarray]:
    """Measurement-space mean and innovation covariance (HPH' + R)."""
    mean = _UPDATE_MAT @ state.mean
    cov = _UPDATE_MAT @ state.covariance @ _UPDATE_MAT.T + _measurement_noise(
        state.mean[3]
    )
    return mean, cov


def update(state: KalmanState, measurement: BBox) -> KalmanState:
    """Standard Kalman correction with the box as (cx, cy, a, h)."""
    projected_mean, projected_cov = project(state)
    z = np.array([measurement.cx, measurement.cy, measurement.aspect, measurement.h])
    try:
        chol = scipy.linalg.cho_factor(projected_cov, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError("singular innovation covariance") from exc
    gain = scipy.linalg.cho_solve(
        chol, (state.covariance @ _UPDATE_MAT.T).T, check_finite=False
    ).T
    mean = state.mean + gain @ (z - projected_mean)
    covariance = state.covariance - gain @ projected_cov @ gain.T
    covariance = (covariance + covariance.T) / 2.0  # keep symmetric under fp error
    return KalmanState(mean, covariance)


def degenerate(state: KalmanState) -> bool:
    """True when the mean's aspect or height is not positive: it has no box."""
    return bool(state.mean[2] <= 0 or state.mean[3] <= 0)


def state_to_box(state: KalmanState) -> BBox:
    """Mean back to a top-left box; degenerate aspect or height is an error."""
    cx, cy, a, h = state.mean[:NDIM]
    if degenerate(state):
        raise ValueError(f"degenerate state: aspect={a}, height={h}")
    w = a * h
    return BBox(cx - w / 2.0, cy - h / 2.0, w, h)
