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

``nestrod.oracles.stack_system`` assembles the same system tube by tube
from first principles; a regression test pins this module against it.

Every function accepts a leading batch shape on the state arrays, so a
whole finite-difference Jacobian stencil integrates as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTendon, IllConditioned
from .so3 import E33, hat, rot_d3

PB_DOT_MIN = 1e-9
COND_LIMIT = 1e12

_EYE3 = np.eye(3)
_DIAG = np.arange(3)
_ZERO = np.zeros(())


# ---------------------------------------------------------------------------
# per-segment context (constant between boundaries)
# ---------------------------------------------------------------------------


@dataclass
class TubeContext:
    """Stiffness and rest-shape data of one active tube within a segment."""

    index: int                 # global tube index (0 = outermost of assembly)
    kse_diag: np.ndarray       # (GA, GA, EA)
    kbt_diag: np.ndarray       # (EI, EI, GJ)
    rest: object               # rest-shape object with curvature()/stretch()
    offset: float              # local station = composite station + offset


@dataclass
class TendonContext:
    """One tendon while active: routing, current tension, anchor data."""

    routing: object
    tension: float
    tube: int                  # global index of the terminating tube
    termination: float         # composite anchor station


@dataclass
class SegmentContext:
    """Everything the ODE needs between two boundaries.

    ``loads[i]`` lists the tendons whose distributed load is assigned to
    active tube ``i`` (local index, outermost first) under the scenario's
    strategy. ``tubes[0]`` is the segment's reference tube: its frame is the
    propagated R and its strains are u1/v1.
    """

    start: float
    end: float
    tubes: list[TubeContext]
    loads: list[list[TendonContext]] = field(default_factory=list)
    _compiled: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_active(self) -> int:
        return len(self.tubes)

    @property
    def state_width(self) -> int:
        return 18 + 3 * (self.n_active - 1)


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

    def copy(self) -> "RodState":
        return RodState(self.p.copy(), self.R.copy(), self.u1.copy(),
                        self.v1.copy(), self.theta.copy(), self.u_d3.copy(),
                        self.beta.copy(), self.s)


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
# derived per-tube strains
# ---------------------------------------------------------------------------


def _mat_t_vec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...ji,...j->...i", m, v)


def derived_strains(state: RodState) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Curvature and stretch of every active tube in its own frame.

    Tube i sees the shared bending rotated into its frame plus its own twist
    component, and the shared tangent scaled by its dilation:
    u_i = rot_d3(θ_i)ᵀ u₁ with third component replaced by the stored twist
    curvature, and v_i = β_i rot_d3(θ_i)ᵀ v₁.
    """
    us = [state.u1]
    vs = [state.v1]
    for i in range(state.theta.shape[-1]):
        rt = rot_d3(state.theta[..., i])
        u_i = _mat_t_vec(rt, state.u1)
        u_i[..., 2] = state.u_d3[..., i]
        v_i = state.beta[..., i, None] * _mat_t_vec(rt, state.v1)
        us.append(u_i)
        vs.append(v_i)
    return us, vs


# ---------------------------------------------------------------------------
# stacked assembly
# ---------------------------------------------------------------------------


@dataclass
class _Compiled:
    """Per-segment constants hoisted out of the integration loop."""

    k: int
    kse: np.ndarray             # (k, 3)
    kbt: np.ndarray             # (k, 3)
    offsets: np.ndarray         # (k,)
    rests: list
    rest_const: bool
    ustar: np.ndarray | None    # (k, 3) when every rest shape is constant
    ustar_dot: np.ndarray | None
    vstar: np.ndarray | None
    vstar_dot: np.ndarray | None
    routings: list
    tensions: np.ndarray        # (T,)
    tendon_tube: np.ndarray     # (T,) local tube index
    path_const: tuple | None    # cached (r, rdot, rddot, hat(r)) stacks


def _compile(ctx: SegmentContext) -> _Compiled:
    if ctx._compiled is not None:
        return ctx._compiled
    k = ctx.n_active
    kse = np.stack([t.kse_diag for t in ctx.tubes])
    kbt = np.stack([t.kbt_diag for t in ctx.tubes])
    offsets = np.array([t.offset for t in ctx.tubes])
    rests = [t.rest for t in ctx.tubes]
    rest_const = all(getattr(r, "constant", False) for r in rests)
    if rest_const:
        mid = 0.5 * (ctx.start + ctx.end)
        ustar = np.stack([r.curvature(mid + o)[0]
                          for r, o in zip(rests, offsets)])
        ustar_dot = np.stack([r.curvature(mid + o)[1]
                              for r, o in zip(rests, offsets)])
        vstar = np.stack([r.stretch(mid + o)[0]
                          for r, o in zip(rests, offsets)])
        vstar_dot = np.stack([r.stretch(mid + o)[1]
                              for r, o in zip(rests, offsets)])
    else:
        ustar = ustar_dot = vstar = vstar_dot = None
    routings = []
    tensions = []
    tendon_tube = []
    for i, per_tube in enumerate(ctx.loads or []):
        for tendon in per_tube:
            routings.append(tendon.routing)
            tensions.append(tendon.tension)
            tendon_tube.append(i)
    path_const = None
    if routings and all(getattr(r, "constant", False) for r in routings):
        mid = 0.5 * (ctx.start + ctx.end)
        evals = [r.eval(mid) for r in routings]
        r_t = np.stack([e[0] for e in evals])
        rdot_t = np.stack([e[1] for e in evals])
        rddot_t = np.stack([e[2] for e in evals])
        path_const = (r_t, rdot_t, rddot_t, hat(r_t))
    compiled = _Compiled(k=k, kse=kse, kbt=kbt, offsets=offsets, rests=rests,
                         rest_const=rest_const, ustar=ustar,
                         ustar_dot=ustar_dot, vstar=vstar,
                         vstar_dot=vstar_dot, routings=routings,
                         tensions=np.asarray(tensions, dtype=float),
                         tendon_tube=np.asarray(tendon_tube, dtype=int),
                         path_const=path_const)
    ctx._compiled = compiled
    return compiled


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


def _rest_arrays(comp: _Compiled, s: float):
    if comp.rest_const:
        return comp.ustar, comp.ustar_dot, comp.vstar, comp.vstar_dot
    ustar = np.stack([r.curvature(s + o)[0]
                      for r, o in zip(comp.rests, comp.offsets)])
    ustar_dot = np.stack([r.curvature(s + o)[1]
                          for r, o in zip(comp.rests, comp.offsets)])
    vstar = np.stack([r.stretch(s + o)[0]
                      for r, o in zip(comp.rests, comp.offsets)])
    vstar_dot = np.stack([r.stretch(s + o)[1]
                          for r, o in zip(comp.rests, comp.offsets)])
    return ustar, ustar_dot, vstar, vstar_dot


def assemble_system(state: RodState, ctx: SegmentContext):
    """Build the (2k+4)-square system A x = b at the current station.

    Every tube is stacked on one array axis so batched shooting stays
    cheap.
    """
    comp = _compile(ctx)
    k = comp.k
    m = 2 * k + 4
    batch = state.u1.shape[:-1]
    flat = int(np.prod(batch)) if batch else 1

    u1 = state.u1.reshape(flat, 3)
    v1 = state.v1.reshape(flat, 3)

    if k == 1:
        u_all = u1[:, None]
        v_all = v1[:, None]
    else:
        theta = state.theta.reshape(flat, k - 1)
        u_d3 = state.u_d3.reshape(flat, k - 1)
        beta = state.beta.reshape(flat, k - 1)

        zero = np.zeros((flat, 1))
        one = np.ones((flat, 1))
        th_all = np.concatenate([zero, theta], axis=1)           # (B, k)
        beta_all = np.concatenate([one, beta], axis=1)
        thdot_all = np.concatenate([zero, u_d3 - u1[:, 2:3]], axis=1)

        rt = rot_d3(th_all)                                      # (B, k, 3, 3)
        rt_t = np.swapaxes(rt, -1, -2)
        u_rot = (rt_t @ u1[:, None, :, None])[..., 0]            # rotᵀ u1
        v_rot = (rt_t @ v1[:, None, :, None])[..., 0]

        u_all = u_rot.copy()
        u_all[:, 1:, 2] = u_d3
        u_all[:, 0] = u1
        v_all = beta_all[..., None] * v_rot
        v_all[:, 0] = v1

    ustar, ustar_dot, vstar, vstar_dot = _rest_arrays(comp, state.s)
    m_int = comp.kbt * (u_all - ustar)
    n_int = comp.kse * (v_all - vstar)

    # Tendon operators accumulated per carrying tube.
    if comp.routings:
        if comp.path_const is not None:
            r_t, rdot_t, rddot_t, hr = comp.path_const
        else:
            evals = [rt_.eval(state.s) for rt_ in comp.routings]
            r_t = np.stack([e[0] for e in evals])                # (T, 3)
            rdot_t = np.stack([e[1] for e in evals])
            rddot_t = np.stack([e[2] for e in evals])
            hr = hat(r_t)
        idx = comp.tendon_tube
        u_t = u_all[:, idx]                                      # (B, T, 3)
        v_t = v_all[:, idx]
        pb = _cross3(u_t, r_t) + rdot_t + v_t
        norm2 = (pb * pb).sum(axis=-1)
        if np.any(norm2 < PB_DOT_MIN**2):
            raise DegenerateTendon(
                f"tendon path tangent collapsed (‖ṗᵇ‖ < {PB_DOT_MIN}) "
                f"at station {state.s:.6f} m"
            )
        scale = comp.tensions / norm2**1.5
        hp = hat(pb)
        pw = scale[..., None, None] * (hp @ hp)
        pw_hr = pw @ hr
        mu_t = hr @ pw_hr
        mv_t = hr @ pw
        w = _cross3(u_t, pb + rdot_t) + rddot_t
        wc = w[..., None]
        f_w_t = (pw @ wc)[..., 0]
        m_w_t = (mv_t @ wc)[..., 0]
        if len(comp.routings) == 1 and k == 1:
            mu, mv, fu, fv, m_w, f_w = mu_t, mv_t, pw_hr, pw, m_w_t, f_w_t
        else:
            mu = np.zeros((flat, k, 3, 3))
            mv = np.zeros((flat, k, 3, 3))
            fu = np.zeros((flat, k, 3, 3))
            fv = np.zeros((flat, k, 3, 3))
            m_w = np.zeros((flat, k, 3))
            f_w = np.zeros((flat, k, 3))
            for t, i in enumerate(idx):
                mu[:, i] += mu_t[:, t]
                mv[:, i] += mv_t[:, t]
                fu[:, i] += pw_hr[:, t]
                fv[:, i] += pw[:, t]
                m_w[:, i] += m_w_t[:, t]
                f_w[:, i] += f_w_t[:, t]
        op_m_u = mu.copy() if mu is mu_t else mu
        op_m_u[..., _DIAG, _DIAG] += comp.kbt
        op_m_v = -mv
        op_f_u = fu
        op_f_v = -fv
        op_f_v[..., _DIAG, _DIAG] += comp.kse
        bmom = comp.kbt * ustar_dot - _cross3(u_all, m_int) \
            - _cross3(v_all, n_int) + m_w
        bfor = comp.kse * vstar_dot - _cross3(u_all, n_int) + f_w
    else:
        op_m_u = np.zeros((flat, k, 3, 3))
        op_m_u[..., _DIAG, _DIAG] = comp.kbt
        op_f_v = np.zeros((flat, k, 3, 3))
        op_f_v[..., _DIAG, _DIAG] = comp.kse
        op_m_v = np.zeros((flat, k, 3, 3))
        op_f_u = op_m_v
        bmom = comp.kbt * ustar_dot - _cross3(u_all, m_int) \
            - _cross3(v_all, n_int)
        bfor = comp.kse * vstar_dot - _cross3(u_all, n_int)

    if k == 1:
        # Single tube: no rotation, no extra columns; the system is the
        # plain 2x2 block matrix of the tube's own balance operators.
        top = np.concatenate([op_m_u[:, 0], op_m_v[:, 0]], axis=-1)
        bot = np.concatenate([op_f_u[:, 0], op_f_v[:, 0]], axis=-1)
        a_sys = np.concatenate([top, bot], axis=-2)
        b_sys = np.concatenate([bmom[:, 0], bfor[:, 0]], axis=-1)
        return a_sys.reshape(batch + (m, m)), b_sys.reshape(batch + (m,))

    # Substitution maps u̇_i = c_uu·u̇₁ + e₃·u̇_d3 + k_u,
    # v̇_i = c_vv·v̇₁ + c_vb·β̇ + k_v (identity for the reference tube).
    c_uu = rt_t - E33
    c_uu[:, 0] = _EYE3
    c_vv = beta_all[..., None, None] * rt_t
    c_vv[:, 0] = _EYE3
    c_vb = v_rot
    spin_u = np.empty((flat, k, 3))
    spin_u[..., 0] = u_rot[..., 1]
    spin_u[..., 1] = -u_rot[..., 0]
    spin_u[..., 2] = 0.0
    spin_v = np.empty((flat, k, 3))
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

    a_sys = np.zeros((flat, m, m))
    b_sys = np.zeros((flat, m))
    rows = np.arange(k)

    a_sys[:, 0:2, 0:3] = ra_m_u1.sum(axis=1)[:, 0:2, :]
    a_sys[:, 0:2, 3:6] = ra_m_v1.sum(axis=1)[:, 0:2, :]
    a_sys[:, 2 + k:4 + k, 0:3] = ra_f_u1.sum(axis=1)[:, 0:2, :]
    a_sys[:, 2 + k:4 + k, 3:6] = ra_f_v1.sum(axis=1)[:, 0:2, :]
    b_sys[:, 0:2] = rb_m.sum(axis=1)[:, 0:2]
    b_sys[:, 2 + k:4 + k] = rb_f.sum(axis=1)[:, 0:2]

    a_sys[:, 2 + rows, 0:3] = a_m_u1[:, :, 2, :]
    a_sys[:, 2 + rows, 3:6] = a_m_v1[:, :, 2, :]
    a_sys[:, 4 + k + rows, 0:3] = a_f_u1[:, :, 2, :]
    a_sys[:, 4 + k + rows, 3:6] = a_f_v1[:, :, 2, :]
    b_sys[:, 2 + rows] = b_m[:, :, 2]
    b_sys[:, 4 + k + rows] = b_f[:, :, 2]

    cols_uz = 5 + rows[1:]
    cols_b = 4 + k + rows[1:]
    a_sys[:, 2 + rows[1:], cols_uz] = a_m_uz[:, 1:, 2]
    a_sys[:, 2 + rows[1:], cols_b] = a_m_b[:, 1:, 2]
    a_sys[:, 4 + k + rows[1:], cols_uz] = a_f_uz[:, 1:, 2]
    a_sys[:, 4 + k + rows[1:], cols_b] = a_f_b[:, 1:, 2]
    a_sys[:, 0:2, cols_uz] = np.swapaxes(ra_m_uz[:, 1:, 0:2], 1, 2)
    a_sys[:, 0:2, cols_b] = np.swapaxes(ra_m_b[:, 1:, 0:2], 1, 2)
    a_sys[:, 2 + k:4 + k, cols_uz] = np.swapaxes(ra_f_uz[:, 1:, 0:2], 1, 2)
    a_sys[:, 2 + k:4 + k, cols_b] = np.swapaxes(ra_f_b[:, 1:, 0:2], 1, 2)

    return a_sys.reshape(batch + (m, m)), b_sys.reshape(batch + (m,))


# ---------------------------------------------------------------------------
# rate solve
# ---------------------------------------------------------------------------


def solve_rates(a_sys: np.ndarray, b_sys: np.ndarray,
                condition: bool = False):
    """LU solve of A x = b. Returns (x, condition estimate).

    With ``condition`` the solve also yields A⁻¹, which gives the
    infinity-norm condition estimate; without it the estimate is zero. A
    singular or non-finite system, or an estimate above COND_LIMIT, raises
    :class:`IllConditioned`.
    """
    if condition:
        m = a_sys.shape[-1]
        rhs = np.empty(a_sys.shape[:-1] + (m + 1,))
        rhs[..., 0] = b_sys
        rhs[..., 1:] = np.eye(m)
    else:
        rhs = b_sys[..., None]
    try:
        sol = np.linalg.solve(a_sys, rhs)
    except np.linalg.LinAlgError:
        raise IllConditioned("strain-rate system is singular") from None
    if not np.all(np.isfinite(sol)):
        raise IllConditioned("strain-rate system has no finite solution")
    x = sol[..., 0]
    if not condition:
        return x, _ZERO
    cond = (np.abs(a_sys).sum(axis=-1).max(axis=-1)
            * np.abs(sol[..., 1:]).sum(axis=-1).max(axis=-1))
    if np.any(cond > COND_LIMIT):
        raise IllConditioned(
            f"strain-rate system condition estimate {np.max(cond):.3e} "
            f"exceeds {COND_LIMIT:.0e}"
        )
    return x, cond


def state_derivative(state: RodState, ctx: SegmentContext,
                     diagnostics: bool = True):
    """Full ODE right-hand side: pose kinematics plus solved strain rates.

    Returns (dy, cond): dy is d/ds of the packed state, in the layout of
    :func:`pack_state`; cond is the rate system's condition estimate, or
    zero with ``diagnostics=False``, which skips estimating it.
    """
    k = ctx.n_active
    a_sys, b_sys = assemble_system(state, ctx)
    x, cond = solve_rates(a_sys, b_sys, condition=diagnostics)
    batch = x.shape[:-1]
    dy = np.empty(batch + (18 + 3 * (k - 1),))
    dy[..., 0:3] = (state.R @ state.v1[..., None])[..., 0]
    dy[..., 3:12] = (state.R @ hat(state.u1)).reshape(batch + (9,))
    dy[..., 12:18] = x[..., 0:6]                             # u̇₁, v̇₁
    dy[..., 18:17 + k] = state.u_d3 - state.u1[..., 2:3]     # θ̇
    dy[..., 17 + k:] = x[..., 6:]                            # u̇_d3, β̇
    return dy, cond


def tube_wrench(state: RodState, ctx: SegmentContext):
    """Internal force and moment of every active tube in its own frame."""
    us, vs = derived_strains(state)
    ns, ms = [], []
    for i, tube in enumerate(ctx.tubes):
        ustar, _ = tube.rest.curvature(state.s + tube.offset)
        vstar, _ = tube.rest.stretch(state.s + tube.offset)
        ns.append(tube.kse_diag * (vs[i] - vstar))
        ms.append(tube.kbt_diag * (us[i] - ustar))
    return ns, ms
