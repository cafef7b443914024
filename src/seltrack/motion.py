"""Constant-velocity Kalman filter, for one track or a stack of them.

State is (cx, cy, a, h, vcx, vcy, va, vh) with a = w/h, so h carries the
scale and both noise models can be expressed relative to it (position std
h/20, velocity std h/160). Time step is one frame. Motion, measurement,
noise and initial spread tie each coordinate only to its own velocity, so
the filter is four independent (position, velocity) filters in closed form,
with a diagonal innovation covariance.

A state is one (5, 4) block whose rows hold, for (cx, cy, a, h), the
position, the velocity, the position variance, the position-velocity
covariance and the velocity variance. A stack of n states is one
(5, 4, n) block, with the tracks on its last axis: each of its 20 rows is
one contiguous (n,) array, which a numpy call walks several times faster
than the strided rows of an (n, 5, 4) stack, and a subset of tracks is
taken with one index, `block[..., tracks]`. Every operation is
elementwise along the tracks, so a stacked call gives each track the bytes
a call on that track alone would give. Measurements and boxes stay rows,
one (4,) row per track, as `geometry` takes them, and the innovation
variances are (4, n) like the rows they come from. All operations return
fresh blocks; nothing is mutated in place.
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
    z = np.empty(xywh.shape)
    np.add(xywh[:, :2], xywh[:, 2:] / 2.0, out=z[:, :2])
    np.divide(xywh[:, 2], xywh[:, 3], out=z[:, 2])
    z[:, 3] = xywh[:, 3]
    return z


# noise models: the std of each of (cx, cy, a, h) is its weight times h, except
# that a's is fixed; the initial and process models give a var_pos and a var_vel row
_INITIAL = np.array([[2 * STD_WEIGHT_POSITION] * NDIM, [10 * STD_WEIGHT_VELOCITY] * NDIM]), np.array([1e-2, 1e-5])
_PROCESS = np.array([[STD_WEIGHT_POSITION] * NDIM, [STD_WEIGHT_VELOCITY] * NDIM]), np.array([1e-2, 1e-5])
_MEASUREMENT = np.array([[STD_WEIGHT_POSITION] * NDIM]), np.array([1e-1])


def _variance(h: np.ndarray, noise) -> np.ndarray:
    """Squared stds (k, 4) or (k, 4, n) of (cx, cy, a, h) under a noise model of k rows, for one height or n.

    The caller ignores overflow: a variance beyond float64 is inf, which
    marks the state `degenerate`.
    """
    weights, aspect_stds = noise
    std = (weights[..., None] if h.ndim else weights) * h  # n heights broadcast along the last axis
    std[:, 2].T[...] = aspect_stds  # model row i's aspect std, for one track or each of n
    return np.square(std, out=std)


def initiate(z) -> np.ndarray:
    """Start states at measurements z, one (4,) row or (n, 4) rows, with zero velocity and height-scaled spread."""
    coords = np.asarray(z, dtype=float).T
    block = np.zeros((5,) + coords.shape)
    block[POS] = coords
    with np.errstate(over="ignore"):  # an inf variance marks the state `degenerate`
        block[VAR_POS::2] = _variance(coords[3], _INITIAL)  # the var_pos and var_vel rows
    return block


def predict(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance one frame: position += velocity, covariance FPF' + Q.

    Returns the new states and their innovation variances, the (4,) or (4, n)
    diagonal of the innovation covariance HPH' + R, taken in the same pass.
    """
    new = block.copy()
    pos, vel, var_pos, cov, var_vel = new
    pos += vel
    var_pos += cov
    cov += var_vel
    var_pos += cov
    with np.errstate(over="ignore"):  # an inf variance marks the state `degenerate`
        new[VAR_POS::2] += _variance(block[POS, 3], _PROCESS)  # from the height before the step
        return new, var_pos + _variance(pos[3], _MEASUREMENT)[0]


def update(block: np.ndarray, z, s: np.ndarray) -> np.ndarray:
    """Standard Kalman correction with measurements z of (cx, cy, a, h), one (4,) row or (n, 4) rows.

    `s` is the block's innovation variances, as `predict` returns them.
    """
    if not s.min() > 0:
        raise ValueError("singular innovation covariance")
    new = block.copy()
    pos, vel, var_pos, cov, var_vel = new
    residual = np.asarray(z, dtype=float).T - pos
    gain_pos, gain_vel = var_pos / s, cov / s
    gain_pos_s = gain_pos * s
    pos += gain_pos * residual
    vel += gain_vel * residual
    var_pos -= gain_pos_s * gain_pos
    cov -= gain_pos_s * gain_vel
    var_vel -= gain_vel * s * gain_vel
    return new


def degenerate(block: np.ndarray, s: np.ndarray) -> np.ndarray:
    """True where a state has no box or no measurement can correct it.

    That is, the mean's aspect or height is not positive, or an innovation
    variance is not positive and finite (a tiny height underflows it to 0,
    a huge one overflows it). `s` is the block's innovation variances.
    """
    corrects = np.logical_and.reduce((s > 0) & (s < np.inf), axis=0)
    return np.logical_or.reduce(block[POS, 2:] <= 0, axis=0) | ~corrects


def state_to_xywh(block: np.ndarray) -> np.ndarray:
    """The top-left box (x, y, w, h) of each state's position, the fields of a `BBox`: (4,) or (n, 4) rows."""
    pos = block[POS]
    box = np.empty(pos.shape)
    np.multiply(pos[2], pos[3], out=box[2, ...])
    box[3] = pos[3]
    np.subtract(pos[:2], box[2:] / 2.0, out=box[:2])
    return box.T
