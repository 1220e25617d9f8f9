"""Rotation-group helpers used by the rod kinematics.

All functions broadcast over leading axes so the shooting Jacobian can be
evaluated as a batch: a ``(..., 3)`` vector argument yields a ``(..., 3, 3)``
matrix result.
"""

from __future__ import annotations

import math

import numpy as np

# A matrix further than this (Frobenius) from the rotation group is not a
# drifted rotation any more; reorthonormalize() flags it instead of guessing.
DRIFT_LIMIT = 0.1


def _safe_turn() -> float:
    """Largest φ with √3·(φ + φ²/2 + φ³/6 + φ⁴/24) ≤ DRIFT_LIMIT, by
    bisection; the bound rises with φ."""
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        bound = math.sqrt(3.0) * (mid + mid**2 / 2 + mid**3 / 6 + mid**4 / 24)
        lo, hi = (mid, hi) if bound <= DRIFT_LIMIT else (lo, mid)
    return lo


# An RK4 step whose four stage curvatures all turn by at most this angle,
# ‖u‖·h ≤ SAFE_TURN (about 0.056 rad), has an increment M (rk4_increment)
# that reorthonormalize() cannot flag: ‖M − I‖₂ ≤ φ + φ²/2 + φ³/6 + φ⁴/24
# for stage turns up to φ (the RK4 weights sum to the exponential series'
# coefficients), so by Weyl's inequality every singular value of M is
# within that bound of one, M lies within √3 times it (Frobenius) of the
# rotation group, and, the bound being below one, M is regular with det M
# > 0.
SAFE_TURN = _safe_turn()

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


def rk4_increment(u: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """Body-frame increment of one RK4 step of the pose kinematics Ṙ = R û,
    ṗ = R v, from the curvatures ``u`` and strains ``v`` of its four stages
    (stage axis first, then any batch axes).

    Returns the (..., 3, 4) block [M | q]: from a pose [R | p], the step
    reaches [R M | p + R q], the stage frames being R, R A₂, R A₃, R A₄ with
    A₂ = I + h/2 û₁, A₃ = I + h/2 A₂ û₂ and A₄ = I + h A₃ û₃. Each A
    multiplies the block [h û | h v] of its stage, so M and q come out of
    the same products. M is not a rotation, only close to one (see
    ``SAFE_TURN``).
    """
    w = np.empty(u.shape[:-1] + (3, 4))
    w[..., 0:3] = hat(u * h)
    w[..., 3] = v * h
    eye = np.eye(3)
    w2 = (eye + 0.5 * w[0, ..., 0:3]) @ w[1]
    w3 = (eye + 0.5 * w2[..., 0:3]) @ w[2]
    w4 = (eye + w3[..., 0:3]) @ w[3]
    step = (w[0] + 2.0 * w2 + 2.0 * w3 + w4) / 6.0
    step[..., 0:3] += eye
    return step


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
