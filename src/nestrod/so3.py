"""Rotation-group helpers used by the rod kinematics.

All functions broadcast over leading axes so the shooting Jacobian can be
evaluated as a batch: a ``(..., 3)`` vector argument yields a ``(..., 3, 3)``
matrix result.
"""

from __future__ import annotations

import numpy as np

# A matrix further than this (Frobenius) from the rotation group is not a
# drifted rotation any more; reorthonormalize() flags it instead of guessing.
DRIFT_LIMIT = 0.1

# Row j spreads component j of a vector over the flattened skew matrix, so
# that hat(v) is one constant contraction.
_HAT = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
                 [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
                 [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, so that ``hat(a) @ b == cross(a, b)``."""
    v = np.asarray(v, dtype=float)
    return (v @ _HAT).reshape(v.shape[:-1] + (3, 3))


def rot_d3(theta) -> np.ndarray:
    """Rotation by ``theta`` about the shared third axis (the tube tangent)."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros(theta.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    return out


def reorthonormalize(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closest proper rotation in the Frobenius sense (polar projection).

    Intended to clean up integration drift. Returns the projection and a
    per-matrix flag, set where the input is no drifted rotation: it is not
    finite, its rank collapsed, its nearest orthogonal matrix is a
    reflection, or it lies further than ``DRIFT_LIMIT`` (Frobenius) from the
    rotation group. A flagged entry of the projection means nothing.
    """
    r = np.asarray(r, dtype=float)
    finite = np.isfinite(r).all(axis=(-2, -1))
    if not finite.all():
        r = np.where(finite[..., None, None], r, np.eye(3))
    u, s, vt = np.linalg.svd(r)
    out = u @ vt
    # Clipped at 1, which flags the matrix anyway, so squares cannot overflow.
    drift = np.linalg.norm(np.minimum(abs(r - out), 1.0), axis=(-2, -1))
    bad = ~finite | (s[..., -1] <= 0.0) | (np.linalg.det(out) < 0.0) \
        | (drift > DRIFT_LIMIT)
    return out, bad
