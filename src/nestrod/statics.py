"""Strain-rate balance of a nested-tube cross-section.

At a fixed station the unknown strain rates x = [u̇₁ (3), v̇₁ (3),
u̇_d3 per inner tube, β̇ per inner tube] satisfy a square linear system
A x = b built from four row groups:

  * bending/torsion balance of the whole stack, first two components (2 rows)
  * third (twist) component of each tube's own moment balance (k rows)
  * shear/extension balance of the whole stack, first two components (2 rows)
  * third (axial) component of each tube's own force balance (k rows)

for k active tubes, giving 2k + 4 equations for 2k + 4 unknowns. Tendon
loads enter each tube's rows through that tube's assigned tendons; the
rate-proportional parts of the tendon load land in A and the rest in b.

Each segment is one :class:`SegmentContext` record, built once per
problem: stiffness and constant rest strains stacked per active tube, and
the tendon loads stacked per carried tendon. :func:`tube_strains` is the
one map from a state to every tube's strains and internal wrench; the
assembly here, the boundary transfer and the recording pass all read it.

``nestrod.oracles.stack_system`` assembles the same system tube by tube
from first principles; a regression test pins this module against it.

Every function accepts a leading batch shape on the state arrays, so a
whole finite-difference Jacobian stencil integrates as one batch. A row
that cannot be evaluated (a collapsed tendon tangent, a singular or
ill-conditioned rate system) is flagged per row instead of raising, so one
bad row does not stop the rest of its batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .so3 import E33, hat, rot_d3

PB_DOT_MIN = 1e-9
COND_LIMIT = 1e12

_EYE3 = np.eye(3)
_DIAG = np.arange(3)
_ZERO = np.zeros(())


# ---------------------------------------------------------------------------
# per-segment record (constant between boundaries)
# ---------------------------------------------------------------------------


@dataclass
class TendonContext:
    """One tendon anchoring at a boundary: routing, current tension, and
    the routing station's offset from the composite station.

    The routing is a function of the terminating tube's own arc length.
    """

    routing: object
    tension: float
    offset: float = 0.0        # routing station = composite station + offset


@dataclass
class SegmentContext:
    """Everything the ODE needs between two boundaries, stacked per tube.

    Every per-tube array holds the segment's active tubes on its first
    axis, outermost first. ``tubes[0]`` is the segment's reference tube:
    its frame is the propagated R and its strains are u1/v1. Rest strains
    are segment constants, since every rest shape is constant along its
    tube. The tendon arrays hold one entry per tendon whose distributed
    load the segment carries, grouped by carrying tube under the
    scenario's strategy; ``path`` stacks their routings once, when every
    routing is station-independent.
    """

    start: float
    end: float
    tubes: list[int]              # global tube indices
    kse: np.ndarray               # (k, 3) (GA, GA, EA)
    kbt: np.ndarray               # (k, 3) (EI, EI, GJ)
    ustar: np.ndarray             # (k, 3) rest curvature
    vstar: np.ndarray             # (k, 3) rest stretch
    routings: list                # (T,) routing objects
    routing_offsets: np.ndarray   # (T,) routing station - composite station
    tensions: np.ndarray          # (T,)
    carriers: np.ndarray          # (T,) local index of the carrying tube
    path: tuple | None = field(init=False)

    def __post_init__(self):
        constant = all(getattr(r, "constant", False) for r in self.routings)
        self.path = _path_stacks(self.routings, self.routing_offsets,
                                 0.5 * (self.start + self.end)) \
            if self.routings and constant else None

    @property
    def n_active(self) -> int:
        return len(self.tubes)


# ---------------------------------------------------------------------------
# propagated state
# ---------------------------------------------------------------------------


@dataclass
class RodState:
    """Propagated quantities at one station, batchable on a leading axis.

    theta/u_d3/beta hold one entry per inner tube (local indices 1..k-1,
    relative to the segment's reference tube); they are empty for a
    single-tube segment.
    """

    p: np.ndarray       # (..., 3) world position
    R: np.ndarray       # (..., 3, 3) reference-tube material frame
    u1: np.ndarray      # (..., 3) reference curvature+twist
    v1: np.ndarray      # (..., 3) reference shear+extension
    theta: np.ndarray   # (..., k-1) relative twist angles
    u_d3: np.ndarray    # (..., k-1) inner-tube twist curvature
    beta: np.ndarray    # (..., k-1) inner-tube dilation
    s: float = 0.0


def pack_state(state: RodState) -> np.ndarray:
    """Flatten to (..., 18 + 3(k-1)) for the integrator."""
    batch = state.p.shape[:-1]
    return np.concatenate(
        [state.p, state.R.reshape(batch + (9,)), state.u1, state.v1,
         state.theta, state.u_d3, state.beta], axis=-1)


def unpack_state(y: np.ndarray, n_active: int, s: float) -> RodState:
    k1 = n_active - 1
    batch = y.shape[:-1]
    return RodState(p=y[..., 0:3], R=y[..., 3:12].reshape(batch + (3, 3)),
                    u1=y[..., 12:15], v1=y[..., 15:18],
                    theta=y[..., 18:18 + k1], u_d3=y[..., 18 + k1:18 + 2 * k1],
                    beta=y[..., 18 + 2 * k1:18 + 3 * k1], s=s)


# ---------------------------------------------------------------------------
# per-tube strains and wrench
# ---------------------------------------------------------------------------


class TubeStrains(NamedTuple):
    """Strains and internal wrench of every active tube in its own frame,
    stacked on the tube axis, outermost first."""

    u: np.ndarray        # (..., k, 3) curvature and twist
    v: np.ndarray        # (..., k, 3) shear and extension
    n: np.ndarray        # (..., k, 3) internal force
    m: np.ndarray        # (..., k, 3) internal moment
    rot: np.ndarray      # (..., k, 3, 3) rot_d3(θ_i); the identity for tube 0
    v_rot: np.ndarray    # (..., k, 3) rot_d3(θ_i)ᵀ v₁, so that v_i = β_i v_rot_i


def tube_strains(state: RodState, ctx: SegmentContext) -> TubeStrains:
    """Strains and wrench of every active tube at a (batched) state.

    Tube i sees the shared bending rotated into its frame plus its own twist
    component, and the shared tangent scaled by its dilation:
    u_i = rot_d3(θ_i)ᵀ u₁ with third component replaced by the stored twist
    curvature, and v_i = β_i rot_d3(θ_i)ᵀ v₁. Its wrench follows from its
    constitutive law, n_i = Kse_i (v_i − v*_i) and m_i = Kbt_i (u_i − u*_i).
    """
    if ctx.n_active == 1:
        u = state.u1[..., None, :]
        v = v_rot = state.v1[..., None, :]
        rot = np.broadcast_to(_EYE3, u.shape + (3,))
    else:
        zero = np.zeros(state.theta.shape[:-1] + (1,))
        rot = rot_d3(np.concatenate([zero, state.theta], axis=-1))
        rot_t = np.swapaxes(rot, -1, -2)
        u = (rot_t @ state.u1[..., None, :, None])[..., 0]
        v_rot = (rot_t @ state.v1[..., None, :, None])[..., 0]
        u[..., 1:, 2] = state.u_d3
        u[..., 0, :] = state.u1
        beta = np.concatenate([np.ones_like(zero), state.beta], axis=-1)
        v = beta[..., None] * v_rot
        v[..., 0, :] = state.v1
    return TubeStrains(u, v, ctx.kse * (v - ctx.vstar),
                       ctx.kbt * (u - ctx.ustar), rot, v_rot)


# ---------------------------------------------------------------------------
# stacked assembly
# ---------------------------------------------------------------------------


def _path_stacks(routings, offsets, s: float) -> tuple:
    """(r, ṙ, r̈, hat(r)) of every routing at composite station ``s``."""
    r, rdot, rddot = (np.stack(col) for col in zip(
        *(path.eval(s + o) for path, o in zip(routings, offsets))))
    return r, rdot, rddot, hat(r)


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Last-axis cross product without np.cross's axis juggling.

    ``a`` must already have the full output shape; ``b`` may broadcast up.
    """
    out = np.empty(a.shape)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def assemble_system(state: RodState, ctx: SegmentContext):
    """Build the (2k+4)-square system A x = b at the current station.

    Every tube is stacked on one array axis so batched shooting stays
    cheap. Returns (A, b, collapsed): ``collapsed`` flags the batch rows
    where a tendon path tangent vanished (‖ṗᵇ‖ < PB_DOT_MIN); their tendon
    load is evaluated with ‖ṗᵇ‖ set to one instead and means nothing.
    """
    k = ctx.n_active
    m = 2 * k + 4
    batch = state.u1.shape[:-1]
    u_all, v_all, n_int, m_int, rt, v_rot = tube_strains(state, ctx)

    # Tendon operators accumulated per carrying tube.
    collapsed = np.zeros(batch, dtype=bool)
    if ctx.routings:
        r_t, rdot_t, rddot_t, hr = ctx.path or _path_stacks(
            ctx.routings, ctx.routing_offsets, state.s)
        idx = ctx.carriers
        u_t = u_all[..., idx, :]                                 # (..., T, 3)
        v_t = v_all[..., idx, :]
        pb = _cross3(u_t, r_t) + rdot_t + v_t
        norm2 = (pb * pb).sum(axis=-1)
        short = norm2 < PB_DOT_MIN**2
        if short.any():
            collapsed = short.any(axis=-1)
            norm2 = np.where(short, 1.0, norm2)
        scale = ctx.tensions / norm2**1.5
        hp = hat(pb)
        pw = scale[..., None, None] * (hp @ hp)
        pw_hr = pw @ hr
        mu_t = hr @ pw_hr
        mv_t = hr @ pw
        w = _cross3(u_t, pb + rdot_t) + rddot_t
        wc = w[..., None]
        f_w_t = (pw @ wc)[..., 0]
        m_w_t = (mv_t @ wc)[..., 0]
        if len(ctx.routings) == 1 and k == 1:
            mu, mv, fu, fv, m_w, f_w = mu_t, mv_t, pw_hr, pw, m_w_t, f_w_t
        else:
            mu = np.zeros(batch + (k, 3, 3))
            mv = np.zeros(batch + (k, 3, 3))
            fu = np.zeros(batch + (k, 3, 3))
            fv = np.zeros(batch + (k, 3, 3))
            m_w = np.zeros(batch + (k, 3))
            f_w = np.zeros(batch + (k, 3))
            for t, i in enumerate(idx):
                mu[..., i, :, :] += mu_t[..., t, :, :]
                mv[..., i, :, :] += mv_t[..., t, :, :]
                fu[..., i, :, :] += pw_hr[..., t, :, :]
                fv[..., i, :, :] += pw[..., t, :, :]
                m_w[..., i, :] += m_w_t[..., t, :]
                f_w[..., i, :] += f_w_t[..., t, :]
        op_m_u = mu.copy() if mu is mu_t else mu
        op_m_u[..., _DIAG, _DIAG] += ctx.kbt
        op_m_v = -mv
        op_f_u = fu
        op_f_v = -fv
        op_f_v[..., _DIAG, _DIAG] += ctx.kse
        bmom = -_cross3(u_all, m_int) - _cross3(v_all, n_int) + m_w
        bfor = -_cross3(u_all, n_int) + f_w
    else:
        op_m_u = np.zeros(batch + (k, 3, 3))
        op_m_u[..., _DIAG, _DIAG] = ctx.kbt
        op_f_v = np.zeros(batch + (k, 3, 3))
        op_f_v[..., _DIAG, _DIAG] = ctx.kse
        op_m_v = np.zeros(batch + (k, 3, 3))
        op_f_u = op_m_v
        bmom = -_cross3(u_all, m_int) - _cross3(v_all, n_int)
        bfor = -_cross3(u_all, n_int)

    if k == 1:
        # Single tube: no rotation, no extra columns; the system is the
        # plain 2x2 block matrix of the tube's own balance operators.
        top = np.concatenate([op_m_u[..., 0, :, :], op_m_v[..., 0, :, :]],
                             axis=-1)
        bot = np.concatenate([op_f_u[..., 0, :, :], op_f_v[..., 0, :, :]],
                             axis=-1)
        return (np.concatenate([top, bot], axis=-2),
                np.concatenate([bmom[..., 0, :], bfor[..., 0, :]], axis=-1),
                collapsed)

    # Substitution maps u̇_i = c_uu·u̇₁ + e₃·u̇_d3 + k_u,
    # v̇_i = c_vv·v̇₁ + c_vb·β̇ + k_v (identity for the reference tube).
    zero = np.zeros(batch + (1,))
    beta_all = np.concatenate([np.ones_like(zero), state.beta], axis=-1)
    thdot_all = np.concatenate([zero, state.u_d3 - state.u1[..., 2:3]],
                               axis=-1)
    rt_t = np.swapaxes(rt, -1, -2)
    c_uu = rt_t - E33
    c_uu[..., 0, :, :] = _EYE3
    c_vv = beta_all[..., None, None] * rt_t
    c_vv[..., 0, :, :] = _EYE3
    c_vb = v_rot
    spin_u = np.empty(batch + (k, 3))
    spin_u[..., 0] = u_all[..., 1]
    spin_u[..., 1] = -u_all[..., 0]
    spin_u[..., 2] = 0.0
    spin_v = np.empty(batch + (k, 3))
    spin_v[..., 0] = v_rot[..., 1]
    spin_v[..., 1] = -v_rot[..., 0]
    spin_v[..., 2] = 0.0
    k_u = thdot_all[..., None] * spin_u
    k_v = (beta_all * thdot_all)[..., None] * spin_v

    a_m_u1 = op_m_u @ c_uu
    a_m_v1 = op_m_v @ c_vv
    a_f_u1 = op_f_u @ c_uu
    a_f_v1 = op_f_v @ c_vv
    b_m = bmom - (op_m_u @ k_u[..., None])[..., 0] \
        - (op_m_v @ k_v[..., None])[..., 0]
    b_f = bfor - (op_f_u @ k_u[..., None])[..., 0] \
        - (op_f_v @ k_v[..., None])[..., 0]
    a_m_uz = op_m_u[..., :, 2]
    a_m_b = (op_m_v @ c_vb[..., None])[..., 0]
    a_f_uz = op_f_u[..., :, 2]
    a_f_b = (op_f_v @ c_vb[..., None])[..., 0]

    # Rotated copies for the two stack rows.
    ra_m_u1 = rt @ a_m_u1
    ra_m_v1 = rt @ a_m_v1
    ra_f_u1 = rt @ a_f_u1
    ra_f_v1 = rt @ a_f_v1
    rb_m = (rt @ b_m[..., None])[..., 0]
    rb_f = (rt @ b_f[..., None])[..., 0]
    ra_m_uz = (rt @ a_m_uz[..., None])[..., 0]
    ra_m_b = (rt @ a_m_b[..., None])[..., 0]
    ra_f_uz = (rt @ a_f_uz[..., None])[..., 0]
    ra_f_b = (rt @ a_f_b[..., None])[..., 0]

    a_sys = np.zeros(batch + (m, m))
    b_sys = np.zeros(batch + (m,))
    rows = np.arange(k)

    a_sys[..., 0:2, 0:3] = ra_m_u1.sum(axis=-3)[..., 0:2, :]
    a_sys[..., 0:2, 3:6] = ra_m_v1.sum(axis=-3)[..., 0:2, :]
    a_sys[..., 2 + k:4 + k, 0:3] = ra_f_u1.sum(axis=-3)[..., 0:2, :]
    a_sys[..., 2 + k:4 + k, 3:6] = ra_f_v1.sum(axis=-3)[..., 0:2, :]
    b_sys[..., 0:2] = rb_m.sum(axis=-2)[..., 0:2]
    b_sys[..., 2 + k:4 + k] = rb_f.sum(axis=-2)[..., 0:2]

    a_sys[..., 2 + rows, 0:3] = a_m_u1[..., 2, :]
    a_sys[..., 2 + rows, 3:6] = a_m_v1[..., 2, :]
    a_sys[..., 4 + k + rows, 0:3] = a_f_u1[..., 2, :]
    a_sys[..., 4 + k + rows, 3:6] = a_f_v1[..., 2, :]
    b_sys[..., 2 + rows] = b_m[..., 2]
    b_sys[..., 4 + k + rows] = b_f[..., 2]

    cols_uz = 5 + rows[1:]
    cols_b = 4 + k + rows[1:]
    a_sys[..., 2 + rows[1:], cols_uz] = a_m_uz[..., 1:, 2]
    a_sys[..., 2 + rows[1:], cols_b] = a_m_b[..., 1:, 2]
    a_sys[..., 4 + k + rows[1:], cols_uz] = a_f_uz[..., 1:, 2]
    a_sys[..., 4 + k + rows[1:], cols_b] = a_f_b[..., 1:, 2]
    a_sys[..., 0:2, cols_uz] = np.swapaxes(ra_m_uz[..., 1:, 0:2], -1, -2)
    a_sys[..., 0:2, cols_b] = np.swapaxes(ra_m_b[..., 1:, 0:2], -1, -2)
    a_sys[..., 2 + k:4 + k, cols_uz] = np.swapaxes(ra_f_uz[..., 1:, 0:2], -1, -2)
    a_sys[..., 2 + k:4 + k, cols_b] = np.swapaxes(ra_f_b[..., 1:, 0:2], -1, -2)
    return a_sys, b_sys, collapsed


# ---------------------------------------------------------------------------
# rate solve
# ---------------------------------------------------------------------------


def solve_rates(a_sys: np.ndarray, b_sys: np.ndarray,
                condition: bool = False):
    """LU solve of A x = b. Returns (x, condition estimate, failed).

    With ``condition`` the solve also yields A⁻¹, which gives the
    infinity-norm condition estimate; without it the estimate is zero.
    ``failed`` flags the batch rows whose system is singular, has no finite
    solution, or (with ``condition``) an estimate above COND_LIMIT; their
    rates read zero.
    """
    m = a_sys.shape[-1]
    if condition:
        rhs = np.empty(a_sys.shape[:-1] + (m + 1,))
        rhs[..., 0] = b_sys
        rhs[..., 1:] = np.eye(m)
    else:
        rhs = b_sys[..., None]
    try:
        sol = np.linalg.solve(a_sys, rhs)
        singular = False
    except np.linalg.LinAlgError:
        # One exactly singular matrix refuses the whole stack: solve the
        # others again with the identity in its place.
        finite = np.isfinite(a_sys).all(axis=(-2, -1))
        probe = np.where(finite[..., None, None], a_sys, np.eye(m))
        singular = finite & (np.linalg.slogdet(probe)[0] == 0.0)
        sol = np.linalg.solve(
            np.where(singular[..., None, None], np.eye(m), a_sys), rhs)
    failed = singular | ~np.isfinite(sol).all(axis=(-2, -1))
    x = sol[..., 0]
    if condition:
        cond = (np.abs(a_sys).sum(axis=-1).max(axis=-1)
                * np.abs(sol[..., 1:]).sum(axis=-1).max(axis=-1))
        failed = failed | (cond > COND_LIMIT)
    else:
        cond = _ZERO
    if failed.any():
        x = np.where(failed[..., None], 0.0, x)
    return x, cond, failed


def state_derivative(state: RodState, ctx: SegmentContext,
                     diagnostics: bool = True):
    """Full ODE right-hand side: pose kinematics plus solved strain rates.

    Returns (dy, cond, collapsed, failed): dy is d/ds of the packed state,
    in the layout of :func:`pack_state`; cond is the rate system's
    condition estimate, or zero with ``diagnostics=False``, which skips
    estimating it; ``collapsed`` and ``failed`` are the per-row flags of
    :func:`assemble_system` and :func:`solve_rates`. A flagged row's
    derivative stays finite but means nothing.
    """
    k = ctx.n_active
    a_sys, b_sys, collapsed = assemble_system(state, ctx)
    x, cond, failed = solve_rates(a_sys, b_sys, condition=diagnostics)
    batch = x.shape[:-1]
    dy = np.empty(batch + (18 + 3 * (k - 1),))
    dy[..., 0:3] = (state.R @ state.v1[..., None])[..., 0]
    dy[..., 3:12] = (state.R @ hat(state.u1)).reshape(batch + (9,))
    dy[..., 12:18] = x[..., 0:6]                             # u̇₁, v̇₁
    dy[..., 18:17 + k] = state.u_d3 - state.u1[..., 2:3]     # θ̇
    dy[..., 17 + k:] = x[..., 6:]                            # u̇_d3, β̇
    return dy, cond, collapsed, failed
