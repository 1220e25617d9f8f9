"""Strain-rate balance of a nested-tube cross-section.

At a fixed station the unknown strain rates x = [u̇₁ (3), v̇₁ (3),
u̇_d3 per inner tube, β̇ per inner tube] satisfy a square linear system
A x = b built from four row groups:

  * bending/torsion balance of the whole stack, first two components (2 rows)
  * third (twist) component of each tube's own moment balance (k rows)
  * shear/extension balance of the whole stack, first two components (2 rows)
  * third (axial) component of each tube's own force balance (k rows)

for k active tubes, giving 2k + 4 equations for 2k + 4 unknowns.

The system is built from per-tube blocks. Tube i balances its own rates
[u̇_i, v̇_i] with a 6x6 operator Op_i = diag(Kbt_i, Kse_i) + Σ L_t pw_t R_t
over the tendons t it carries, where L_t = [hat(r); I], R_t = [hat(r), −I]
and pw_t is the tendon's tension-scaled tangent projector; its right-hand
side b_i holds the wrench cross products and the rest of the tendon load.
The substitution map C_i writes [u̇_i, v̇_i] in the unknowns (rotated by the
tube's twist, with its own twist and dilation rates), and a constant 0/1
placement P_i sums rows 0-1 of each rotated half into the stack rows and
sends row 2 to the tube's own row:

  A = Σ_i P_i blockdiag(rot_i, rot_i) Op_i C_i,

and b likewise, carried as one extra column. With one tube the block is
the system.

Each segment is one :class:`SegmentContext` record, built once per
problem: stiffness and constant rest strains stacked per active tube, the
tendon loads stacked per carried tendon, the boundary at the segment's end
(the tubes that end there and the tendons that anchor there), and the
constant parts of the assembly (the tendon-free blocks, the carrier
one-hot, the constant part of C_i, the placement, and the tendon levers of
station-independent routings). :func:`tube_strains` is the one map from a
state to every tube's strains and internal wrench; the assembly here, the
boundary transfer and the recording pass all read it.

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

from .so3 import hat, rot_d3

PB_DOT_MIN = 1e-9
COND_LIMIT = 1e12

_EYE3 = np.eye(3)
_DIAG6 = np.arange(6)
_ZERO = np.zeros(())
# The index arrays below are read with ``take``: a list used as a fancy
# index would be converted again on every call.
# The wrench cross products u×m, v×n and u×n as one stacked product, read
# from the joined [u, v] and [m, n] rows.
_CROSS_A = np.array([0, 1, 2, 3, 4, 5, 0, 1, 2])
_CROSS_B = np.array([0, 1, 2, 3, 4, 5, 3, 4, 5])
# Spin terms of the substitution map, θ̇_i [−u_y, u_x, −v_y, v_x], in its
# rows 0, 1, 3 and 4.
_SPIN = np.array([1, 0, 4, 3])
_SPIN_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])
_SPIN_ROWS = [0, 1, 3, 4]


# ---------------------------------------------------------------------------
# per-segment record (constant between boundaries)
# ---------------------------------------------------------------------------


@dataclass
class SegmentContext:
    """Everything the ODE needs between two boundaries, stacked per tube,
    and the boundary at the segment's ``end``.

    Every per-tube array holds the segment's active tubes on its first
    axis, outermost first. ``tubes[0]`` is the segment's reference tube:
    its frame is the propagated R and its strains are u1/v1. Rest strains
    are segment constants, since every rest shape is constant along its
    tube. The tendon arrays hold one entry per tendon whose distributed
    load the segment carries, grouped by carrying tube under the
    scenario's strategy; they are the problem's one record of the tendon
    tensions, and the anchor loads at the segment's end read them too.

    The boundary at ``end``, in local tube indices: the ``ending`` tubes
    leave the stack there and the ``continuing`` ones go on (none at the
    robot's tip); each ``terminating`` tendon is (its index among the
    carried tendons, its carrying tube, its anchor tube).

    The constant parts of the assembly are built once, here: ``stiffness``
    and ``rest`` join [Kbt, Kse] and [u*, v*] per tube; ``block`` is each
    tube's tendon-free balance [diag(Kbt, Kse) | 0]; ``carry`` is the
    (k, T) one-hot of the carrying tubes; ``subst`` is the constant part of
    each tube's (7, 2k+5) substitution map and ``subst_at`` the flat
    positions of its state-dependent v_rot and spin entries; ``place`` is
    the (2k+4, 6k) 0/1 placement of the rotated per-tube rows; ``path``
    stacks (r, ṙ, r̈, L, R) of the routings when every routing is
    station-independent.
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
    ending: list[int]             # local tubes that end at ``end``
    continuing: list[int]         # local tubes that go on past ``end``
    terminating: list[tuple[int, int, int]]  # (tendon, carrier, anchor)
    stiffness: np.ndarray = field(init=False)   # (k, 6) [Kbt, Kse]
    rest: np.ndarray = field(init=False)        # (k, 6) [u*, v*]
    block: np.ndarray = field(init=False)       # (k, 6, 7)
    carry: np.ndarray = field(init=False)       # (k, T)
    subst: np.ndarray = field(init=False)       # (k, 7, 2k+5)
    subst_at: np.ndarray = field(init=False)    # (7(k-1),)
    place: np.ndarray = field(init=False)       # (2k+4, 6k)
    path: tuple | None = field(init=False)

    def __post_init__(self):
        k, n_tendons = len(self.tubes), len(self.routings)
        m = 2 * k + 4
        tubes, inner = np.arange(k), np.arange(1, k)
        self.stiffness = np.concatenate([self.kbt, self.kse], axis=-1)
        self.rest = np.concatenate([self.ustar, self.vstar], axis=-1)
        self.block = np.zeros((k, 6, 7))
        self.block[:, _DIAG6, _DIAG6] = self.stiffness
        self.carry = np.zeros((k, n_tendons))
        self.carry[self.carriers, np.arange(n_tendons)] = 1.0
        # Row 2 picks u̇₁,₃ for the reference tube and u̇_d3,i for the
        # others; row 6 carries the constant one.
        self.subst = np.zeros((k, 7, m + 1))
        self.subst[0, 2, 2] = 1.0
        self.subst[inner, 2, 5 + inner] = 1.0
        self.subst[:, 6, m] = 1.0
        at = np.arange(self.subst.size).reshape(self.subst.shape)
        self.subst_at = np.concatenate(
            [at[inner, 3:6, 4 + k + inner], at[inner, :, m][:, _SPIN_ROWS]],
            axis=-1).ravel()
        # Rows 0-1 of each rotated half sum into the stack rows; row 2 is
        # the tube's own twist or axial row.
        self.place = np.zeros((m, 6 * k))
        for half, top in ((0, 0), (1, 2 + k)):
            col = 6 * tubes + 3 * half
            self.place[top, col] = 1.0
            self.place[top + 1, col + 1] = 1.0
            self.place[top + 2 + tubes, col + 2] = 1.0
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
    single-tube segment. No strain rate reads the pose, so the states that
    only feed the right-hand side leave p and R None.
    """

    p: np.ndarray | None    # (..., 3) world position
    R: np.ndarray | None    # (..., 3, 3) reference-tube material frame
    u1: np.ndarray          # (..., 3) reference curvature+twist
    v1: np.ndarray          # (..., 3) reference shear+extension
    theta: np.ndarray       # (..., k-1) relative twist angles
    u_d3: np.ndarray        # (..., k-1) inner-tube twist curvature
    beta: np.ndarray        # (..., k-1) inner-tube dilation
    s: float = 0.0


# The packed state is the pose [p (3), R (9)] followed by the strain block
# [u₁ (3), v₁ (3), θ, u_d3, β (k-1 each)], which starts at this column.
POSE = 12


def pack_strains(state: RodState) -> np.ndarray:
    """Flatten the strains to the (..., 6 + 3(k-1)) strain block."""
    return np.concatenate([state.u1, state.v1, state.theta, state.u_d3,
                           state.beta], axis=-1)


def unpack_strains(x: np.ndarray, n_active: int, s: float,
                   p: np.ndarray | None = None,
                   R: np.ndarray | None = None) -> RodState:
    """State over the strain block ``x`` (views of it) and the pose ``p``,
    ``R``."""
    k1 = n_active - 1
    return RodState(p=p, R=R, u1=x[..., 0:3], v1=x[..., 3:6],
                    theta=x[..., 6:6 + k1], u_d3=x[..., 6 + k1:6 + 2 * k1],
                    beta=x[..., 6 + 2 * k1:6 + 3 * k1], s=s)


def pack_state(state: RodState) -> np.ndarray:
    """Flatten to (..., 18 + 3(k-1)): the pose, then the strain block."""
    batch = state.p.shape[:-1]
    return np.concatenate(
        [state.p, state.R.reshape(batch + (9,)), pack_strains(state)], axis=-1)


def unpack_state(y: np.ndarray, n_active: int, s: float) -> RodState:
    batch = y.shape[:-1]
    return unpack_strains(y[..., POSE:], n_active, s, p=y[..., 0:3],
                          R=y[..., 3:POSE].reshape(batch + (3, 3)))


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
                         # (a single tube's is one (1, 3, 3) identity)
    v_rot: np.ndarray    # (..., k, 3) rot_d3(θ_i)ᵀ v₁, so that v_i = β_i v_rot_i
    uv: np.ndarray       # (..., k, 6) [u, v] joined
    mn: np.ndarray       # (..., k, 6) [m, n] joined; n and m are views of it


def tube_strains(state: RodState, ctx: SegmentContext) -> TubeStrains:
    """Strains and wrench of every active tube at a (batched) state.

    Tube i sees the shared bending rotated into its frame plus its own twist
    component, and the shared tangent scaled by its dilation:
    u_i = rot_d3(θ_i)ᵀ u₁ with third component replaced by the stored twist
    curvature, and v_i = β_i rot_d3(θ_i)ᵀ v₁. Its wrench follows from its
    constitutive law, n_i = Kse_i (v_i − v*_i) and m_i = Kbt_i (u_i − u*_i).
    Of ``ctx`` it reads ``n_active``, ``stiffness`` and ``rest`` only, which
    a recorded ``nestrod.shooting.SegmentSolution`` has as well.
    """
    uv1 = np.concatenate([state.u1, state.v1], axis=-1)
    if ctx.n_active == 1:
        # u and v stay views of the state, so that a recorded trail is not
        # held twice.
        uv = uv1[..., None, :]
        u, v = state.u1[..., None, :], state.v1[..., None, :]
        rot, v_rot = _EYE3[None], v
    else:
        batch = uv1.shape[:-1]
        rot = rot_d3(np.concatenate([np.zeros(batch + (1,)), state.theta],
                                    axis=-1))
        # rot_d3(θ_i)ᵀ applied to u₁ and v₁ at once, as the 3x2 [u₁ v₁].
        turned = rot.swapaxes(-1, -2) @ uv1.reshape(batch + (1, 2, 3)) \
            .swapaxes(-1, -2)
        v_rot = turned[..., 1]
        uv = np.empty(batch + (ctx.n_active, 6))
        uv[..., 0:3] = turned[..., 0]
        uv[..., 1:, 2] = state.u_d3
        uv[..., 3:6] = v_rot
        uv[..., 1:, 3:6] *= state.beta[..., None]
        u, v = uv[..., 0:3], uv[..., 3:6]
    mn = ctx.stiffness * (uv - ctx.rest)
    return TubeStrains(u, v, mn[..., 3:6], mn[..., 0:3], rot, v_rot, uv, mn)


# ---------------------------------------------------------------------------
# fused assembly
# ---------------------------------------------------------------------------


def _path_stacks(routings, offsets, s: float) -> tuple:
    """(r, ṙ, r̈, L, R) of every routing at composite station ``s``: the
    tendon load on [u̇, v̇] is L pw R with L = [hat(r); I], R = [hat(r), −I]."""
    r, rdot, rddot = (np.stack(col) for col in zip(
        *(path.eval(s + o) for path, o in zip(routings, offsets))))
    lever = np.empty(r.shape[:-1] + (6, 3))
    lever[..., 0:3, :] = hat(r)
    lever[..., 3:6, :] = _EYE3
    return r, rdot, rddot, lever, -lever.swapaxes(-1, -2)


def assemble_system(state: RodState, ctx: SegmentContext):
    """Build the (2k+4)-square system A x = b at the current station.

    Each tube's own balance is a (6, 7) block [Op_i | b_i] on its rates
    [u̇_i, v̇_i]; the substitution map C_i turns it into rows over the
    unknowns, blockdiag(rot_i, rot_i) moves them into the reference frame,
    and the placement sums rows 0-1 of both halves into the stack rows and
    sends row 2 to the tube's own row (see :class:`SegmentContext`). Every
    tube is stacked on one array axis so batched shooting stays cheap.
    Returns (A, b, collapsed): ``collapsed`` flags the batch rows where a
    tendon path tangent vanished (‖ṗᵇ‖ < PB_DOT_MIN); their tendon load is
    evaluated with ‖ṗᵇ‖ set to one instead and means nothing.
    """
    k = ctx.n_active
    m = 2 * k + 4
    batch = state.u1.shape[:-1]
    _, _, _, _, rot, v_rot, uv, mn = tube_strains(state, ctx)

    # Tendon loads per carried tendon: L pw [R | w] with R = [hat(r), −I],
    # summed onto the carrying tubes.
    collapsed = np.zeros(batch, dtype=bool)
    if ctx.routings:
        r, rdot, rddot, lever, right = ctx.path or _path_stacks(
            ctx.routings, ctx.routing_offsets, state.s)
        uv_t = uv.take(ctx.carriers, axis=-2)                    # (..., T, 6)
        hu = hat(uv_t[..., 0:3])
        pb = (hu @ r[..., None])[..., 0] + rdot + uv_t[..., 3:6]
        norm2 = (pb * pb).sum(axis=-1)
        short = norm2 < PB_DOT_MIN**2
        if short.any():
            collapsed = short.any(axis=-1)
            norm2 = np.where(short, 1.0, norm2)
        hp = hat(pb)
        pw = (ctx.tensions / norm2**1.5)[..., None, None] * (hp @ hp)
        rw = np.empty(pb.shape[:-1] + (3, 7))
        rw[..., 0:6] = right
        rw[..., 6] = (hu @ (pb + rdot)[..., None])[..., 0] + rddot
        loads = (lever @ pw @ rw).reshape(batch + (len(ctx.routings), 42))
        block = ctx.block + (ctx.carry @ loads).reshape(batch + (k, 6, 7))
    else:
        block = np.empty(batch + (k, 6, 7))
        block[...] = ctx.block
    # b_i = −[u×m + v×n, u×n], the three cross products stacked in one.
    cr = (hat(uv.take(_CROSS_A, axis=-1).reshape(batch + (k, 3, 3)))
          @ mn.take(_CROSS_B, axis=-1).reshape(batch + (k, 3, 3, 1)))[..., 0]
    block[..., 0:3, 6] -= cr[..., 0, :] + cr[..., 1, :]
    block[..., 3:6, 6] -= cr[..., 2, :]
    if k == 1:
        return block[..., 0, :, 0:6], block[..., 0, :, 6], collapsed

    # C_i: [u̇_i, v̇_i, 1] = C_i [x, 1], with u̇_i = rot_iᵀ u̇₁ (third
    # component u̇_d3,i), v̇_i = β_i rot_iᵀ v̇₁ + β̇_i v_rot_i, and the spin
    # terms θ̇_i [−u_y, u_x, ·, −v_y, v_x, ·] in the last column.
    rt = rot.swapaxes(-1, -2)
    subst = np.empty(batch + ctx.subst.shape)
    subst[...] = ctx.subst
    subst[..., 0:2, 0:3] = rt[..., 0:2, :]
    subst[..., 3:6, 3:6] = rt
    subst[..., 1:, 3:6, 3:6] *= state.beta[..., None, None]
    theta_dot = state.u_d3 - state.u1[..., 2:3]
    spin = theta_dot[..., None] * uv[..., 1:, :].take(_SPIN, axis=-1) \
        * _SPIN_SIGN
    subst.reshape(batch + (-1,))[..., ctx.subst_at] = np.concatenate(
        [v_rot[..., 1:, :], spin], axis=-1).reshape(batch + (-1,))

    rows = rot[..., None, :, :] @ (block @ subst).reshape(batch + (k, 2, 3, m + 1))
    system = ctx.place @ rows.reshape(batch + (6 * k, m + 1))
    return system[..., 0:m], system[..., m], collapsed


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
    """ODE right-hand side of the strain block: the solved strain rates
    and the twist rates. The pose kinematics ṗ = R v₁, Ṙ = R û₁ read the
    strains but feed nothing back, so the integrator builds the pose from
    the strains apart (see ``nestrod.shooting.integrate_segment``) and
    ``state``'s p and R are not read.

    Returns (dx, cond, collapsed, failed): dx is d/ds of the strain block,
    in the layout of :func:`pack_strains`; cond is the rate system's
    condition estimate, or zero with ``diagnostics=False``, which skips
    estimating it; ``collapsed`` and ``failed`` are the per-row flags of
    :func:`assemble_system` and :func:`solve_rates`. A flagged row's
    derivative stays finite but means nothing.
    """
    a_sys, b_sys, collapsed = assemble_system(state, ctx)
    x, cond, failed = solve_rates(a_sys, b_sys, condition=diagnostics)
    dx = np.concatenate([
        x[..., 0:6],                                         # u̇₁, v̇₁
        state.u_d3 - state.u1[..., 2:3],                     # θ̇
        x[..., 6:]], axis=-1)                                # u̇_d3, β̇
    return dx, cond, collapsed, failed
