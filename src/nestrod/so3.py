"""Rotation-group helpers used by the rod kinematics.

All functions broadcast over leading axes so the shooting Jacobian can be
evaluated as a batch: a ``(..., 3)`` vector argument yields a ``(..., 3, 3)``
matrix result and vice versa.
"""

from __future__ import annotations

import numpy as np

from .errors import NotSkew

# Absolute tolerance on the symmetric part accepted by vee().
SKEW_TOL = 1e-9

# A matrix further than this (Frobenius) from the rotation group is not a
# drifted rotation any more; reorthonormalize() flags it instead of guessing.
DRIFT_LIMIT = 0.1

E3 = np.array([0.0, 0.0, 1.0])
# Projector onto the shared-axis component: diag(0, 0, 1).
E33 = np.diag(E3)


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, so that ``hat(a) @ b == cross(a, b)``."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def vee(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hat`. Raises :class:`NotSkew` if the argument has a
    symmetric part larger than ``SKEW_TOL`` in any entry."""
    m = np.asarray(m, dtype=float)
    sym = m + np.swapaxes(m, -1, -2)
    worst = np.max(np.abs(sym))
    if worst > SKEW_TOL:
        raise NotSkew(f"symmetric part {worst:.3e} exceeds tolerance {SKEW_TOL:.0e}")
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


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
    drift = np.linalg.norm(r - out, axis=(-2, -1))
    bad = ~finite | (s[..., -1] <= 0.0) | (np.linalg.det(out) < 0.0) \
        | (drift > DRIFT_LIMIT)
    return out, bad
