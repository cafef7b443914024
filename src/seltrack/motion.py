"""Constant-velocity Kalman filter, for one track or a stack of them.

State is (cx, cy, a, h, vcx, vcy, va, vh) with a = w/h, so h carries the
scale and both noise models can be expressed relative to it (position std
h/20, velocity std h/160). Time step is one frame. Motion, measurement,
noise and initial spread tie each coordinate only to its own velocity, so
the filter is four independent (position, velocity) filters in closed form,
with a diagonal innovation covariance. A state is one (..., 5, 4) block
whose rows hold, for (cx, cy, a, h), the position, the velocity, the
position variance, the position-velocity covariance and the velocity
variance, so the rows of a stack are taken with one index. Every
operation is elementwise along the last axis, so leading axes stack
independent tracks and a stacked call gives each row the bytes a call on
that row alone would give. All operations return fresh blocks; nothing is
mutated in place.
"""

from __future__ import annotations

import numpy as np

NDIM = 4
STD_WEIGHT_POSITION = 1.0 / 20
STD_WEIGHT_VELOCITY = 1.0 / 160

# the rows of a state block
POS, VEL, VAR_POS, COV, VAR_VEL = range(5)


def measurements(xywh) -> np.ndarray:
    """(n, 4) rows of (cx, cy, a, h), the filter's measurement of each (x, y, w, h) box row.

    Each is computed as `BBox.cx`, `cy` and `h` compute it, and a as w / h.
    """
    xywh = np.asarray(xywh, dtype=float).reshape(-1, NDIM)
    z = np.empty_like(xywh)
    z[:, :2] = xywh[:, :2] + xywh[:, 2:] / 2.0
    z[:, 2] = xywh[:, 2] / xywh[:, 3]
    z[:, 3] = xywh[:, 3]
    return z


# noise models: the std of each of (cx, cy, a, h) is its weight times h, except
# that a's is fixed; the initial and process models give a var_pos and a var_vel row
_INITIAL = np.array([[2 * STD_WEIGHT_POSITION] * NDIM, [10 * STD_WEIGHT_VELOCITY] * NDIM]), np.array([1e-2, 1e-5])
_PROCESS = np.array([[STD_WEIGHT_POSITION] * NDIM, [STD_WEIGHT_VELOCITY] * NDIM]), np.array([1e-2, 1e-5])
_MEASUREMENT = np.array([[STD_WEIGHT_POSITION] * NDIM]), np.array([1e-1])


def _variance(h: np.ndarray, noise) -> np.ndarray:
    """Squared stds (k, 4, n) of (cx, cy, a, h) under a noise model of k rows, for heights h (n,)."""
    weights, aspect_stds = noise
    std = weights[:, :, None] * h
    std[:, 2] = aspect_stds[:, None]
    with np.errstate(over="ignore"):  # an inf variance marks the state `degenerate`
        return np.square(std, out=std)


def _rows(block: np.ndarray) -> np.ndarray:
    """The block's rows as one (5, 4, n) array over its n states: a transposed copy.

    `predict` and `update` work on these contiguous (4, n) rows, which a
    numpy call goes through several times faster than the strided (n, 4)
    rows of a block.
    """
    return block.reshape(-1, 5, NDIM).transpose(1, 2, 0).copy()


def _of_rows(rows: np.ndarray, shape) -> np.ndarray:
    """The block of shape `shape` whose `_rows` are `rows`."""
    return np.ascontiguousarray(rows.transpose(2, 0, 1)).reshape(shape)


def initiate(z) -> np.ndarray:
    """Start states at measurements z (..., 4) with zero velocity and height-scaled spread."""
    z = np.asarray(z, dtype=float)
    coords = z.reshape(-1, NDIM).T
    rows = np.zeros((5,) + coords.shape)
    rows[POS] = coords
    rows[VAR_POS::2] = _variance(coords[3], _INITIAL)  # the var_pos and var_vel rows
    return _of_rows(rows, z.shape[:-1] + (5, NDIM))


def predict(block: np.ndarray) -> np.ndarray:
    """Advance one frame: position += velocity, covariance FPF' + Q."""
    rows = _rows(block)
    pos, vel, var_pos, cov, var_vel = rows
    q = _variance(pos[3], _PROCESS)  # from the height before the step
    pos += vel
    var_pos += cov
    cov += var_vel
    var_pos += cov
    rows[VAR_POS::2] += q
    return _of_rows(rows, block.shape)


def innovation_variance(block: np.ndarray) -> np.ndarray:
    """Diagonal (..., 4) of the innovation covariance HPH' + R."""
    b = block.reshape(-1, 5, NDIM)
    s = b[:, VAR_POS] + _variance(b[:, POS, 3], _MEASUREMENT)[0].T
    return s.reshape(block.shape[:-2] + (NDIM,))


def update(block: np.ndarray, z, s: np.ndarray) -> np.ndarray:
    """Standard Kalman correction with measurements z (..., 4) of (cx, cy, a, h).

    `s` is the block's `innovation_variance`.
    """
    if not s.min() > 0:
        raise ValueError("singular innovation covariance")
    rows = _rows(block)
    pos, vel, var_pos, cov, var_vel = rows
    s = np.ascontiguousarray(s.reshape(-1, NDIM).T)
    residual = np.asarray(z, dtype=float).reshape(-1, NDIM).T - pos
    gain_pos, gain_vel = var_pos / s, cov / s
    pos += gain_pos * residual
    vel += gain_vel * residual
    var_pos -= gain_pos * s * gain_pos
    cov -= gain_pos * s * gain_vel
    var_vel -= gain_vel * s * gain_vel
    return _of_rows(rows, block.shape)


def degenerate(block: np.ndarray, s: np.ndarray) -> np.ndarray:
    """True where a state has no box or no measurement can correct it.

    That is, the mean's aspect or height is not positive, or an innovation
    variance is not positive and finite (a tiny height underflows it to 0,
    a huge one overflows it). `s` is the block's `innovation_variance`.
    """
    corrects = np.logical_and.reduce((s > 0) & (s < np.inf), axis=-1)
    return np.logical_or.reduce(block[..., POS, 2:] <= 0, axis=-1) | ~corrects


def state_to_xywh(block: np.ndarray) -> np.ndarray:
    """(..., 4) top-left boxes (x, y, w, h) of the states' positions, the fields of a `BBox`."""
    pos = block[..., POS, :]
    box = np.empty(pos.shape)
    box[..., 2] = pos[..., 2] * pos[..., 3]
    box[..., 3] = pos[..., 3]
    box[..., :2] = pos[..., :2] - box[..., 2:] / 2.0
    return box
