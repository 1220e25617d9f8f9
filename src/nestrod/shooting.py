"""Two-point boundary-value solve for a tendon-loaded nested-tube stack.

The base pose and base twists are clamped; the unknown base strains
[u₁, v₁, twist curvature and dilation of each inner tube] are found by
shooting: integrate the cross-section ODE station by station, apply the
load transfer at every tube end / tendon anchor, and drive the terminal
wrench mismatches to zero with a damped Newton iteration. A solve
compiles the assembly once (:class:`Problem`); only the tendon tensions
move, by :meth:`Problem.scaled`. A caller's start guess is one Newton
solve at full tension; without one, or if it stalls, tension is ramped
from the rest guess, so high-tension scenarios start from an already-bent
warm guess. The ramp sizes its first step by the stack's load parameter
T·ℓ²/EI, doubles it after an easy step and halves it after a failed one;
each step is one Newton solve. The ramp and Newton's damped phase run on
the coarsest grid of a ladder read off the compiled problem: the requested
step count N, then N/4, N/16, … down to the coarsest count at which no
RK4 step turns a tube's rest frame, or a tendon's path about the axis, by
more than a quarter turn (‖u*‖·h ≤ π/2), the step-size condition of
Runge–Kutta on rotations. Each rung above then polishes the one below with
one Newton solve (nested iteration): it integrates the lower rung's
solution alone; if that misses the tolerances, chord steps with the lower
rung's Jacobian follow, and the FD stencil is integrated only when a chord
step contracts the residual too little. A rung that converges without an
iteration hands its solution straight to the rung just below the requested
grid. Every rung, the requested one too, falls back to the ramp from rest
when its start stalls, and a rung that fails hands the next rung its own
start.

A pass of one batch row, as the polish and the chord steps run, is
integrated time-parallel segment by segment where the segment allows it
(:func:`_time_parallel`): Parareal with one RK4 step per slice as the
coarse propagator and all slices integrated at the fine step as one batch
as the fine one, since a batch of ten rows costs numpy about as much per
call as one row. It stays serial for a multi-row batch, a routing that
reads the station, too few steps or no fitting slice count, or a slice
whose one coarse step would turn a rest frame by more than a quarter turn;
and a pass that fails or does not reach round-off is integrated again
serially, so failures read exactly as before.

A batch row that cannot be integrated (see :data:`FAILURES`) is a state
of that row, not an exception: it carries a failure code, reads an
infinite residual, and the other rows of its batch go on unchanged.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .assembly import AssemblySpec, Strategy, section_stiffness, segment_plan
from .errors import NoConvergence, ValidationError
from .so3 import DRIFT_LIMIT, reorthonormalize, rot_d3
from .statics import (COND_LIMIT, PB_DOT_MIN, RodState, SegmentContext,
                      TubeStrains, pack_state, state_derivative, tube_strains,
                      unpack_state)

# Why a batch row failed, by failure code; code 0 is a row that integrated
# cleanly. Newton and the ramp back off from a failed row instead of
# aborting the solve.
FAILURES = (
    "",
    f"frame drifted off the rotation group (limit {DRIFT_LIMIT})",
    f"tendon path tangent collapsed (below {PB_DOT_MIN})",
    f"strain-rate system singular, non-finite or above {COND_LIMIT:.0e}",
    "boundary transfer singular",
)
_FRAME, _TENDON, _RATES, _TRANSITION = 1, 2, 3, 4

# Backtracking halves the Newton step at most this many times (down to 2^-10).
_LINE_SEARCH_HALVINGS = 10

# A chord step, taken with a Jacobian carried over from another grid, is
# kept only if it cuts the scaled residual to at most this fraction: the
# simplified-Newton contraction test.
_CHORD_CONTRACTION = 0.5

# Intermediate tension-ramp steps only need to stay inside Newton's basin,
# so they stop this factor short of the final tolerances.
_RAMP_RELAX = 1e4

# Iteration budget of every Newton solve: a caller's start guess, each
# ramp step, the final one included, and the polish. A healthy solve
# converges in a handful of iterations; past this many it is cheaper to
# subdivide the tension step than to keep crawling along a damped valley.
_NEWTON_CAP = 12

# The ramp's first step takes at most this much of the stack's load
# parameter λ, the largest over the segments s of Σⱼ Tⱼ·(ℓⱼ − sₛ)² / Σᵢ EIᵢ
# (tendons j anchored at ℓⱼ past the segment's start sₛ, its tubes i): on
# the bundled presets, a load that small still converges from the rest
# state within the iteration cap.
_RAMP_LOAD_STEP = 4.0

# An intermediate step that converges in at most this many iterations
# doubles the next one; a failed step is retried at half its size, down to
# the first step over _RAMP_FLOOR. _RAMP_ATTEMPTS bounds the Newton solves
# of one ramp: all-easy steps reach full tension from a first step of
# 2^-20 in 21.
_RAMP_EASY_ITERATIONS = 2
_RAMP_FLOOR = 64
_RAMP_ATTEMPTS = 48

# Coarse-to-fine: the ramp and Newton's damped phase only have to stay in
# the basin of the solution, so they run on the coarsest grid of a ladder
# whose rungs grow by this factor up to the requested step count, and each
# rung above polishes the one below (nested iteration).
_RUNG_FACTOR = 4

# Largest angle in rad by which one coarse RK4 step may turn a tube's rest
# frame, ‖u*‖·h, or a tendon's path about the axis. Runge–Kutta on
# rotations is accurate only for steps well inside half a turn (Iserles et
# al., Lie-group methods, Acta Numerica 2000); a quarter turn passes the
# helix backbone at 18 steps (1.09 rad), where its rest guess integrates,
# and fails it at 12 (1.64 rad).
_COARSE_TURN = math.pi / 2

# Finite-difference steps of the Jacobian stencil on the curvatures (u₁,
# inner twist curvatures), the strains v₁ and the dilations β.
_FD_CURVATURE, _FD_STRAIN, _FD_BETA = 1e-6, 1e-8, 1e-8

# Parareal on a one-row pass (Lions, Maday & Turinici 2001; Gander &
# Vandewalle 2007): a segment of at least _PARAREAL_MIN_STEPS steps splits
# into at least _PARAREAL_MIN_SLICES slices of at least _PARAREAL_MIN_SLICE
# steps each. A slice start counts as converged when it is within
# _PARAREAL_JUMP, per component scaled by max(1, |U|), of the fine
# integration that ends there: over every one-row pass of the bundled
# presets' solves at 50 and 200 steps, the converged jumps lie between
# 2e-16 and 8e-15, reached in 0-3 corrections. Past _PARAREAL_CORRECTIONS
# corrections the segment is integrated serially.
_PARAREAL_MIN_STEPS = 50
_PARAREAL_MIN_SLICES = 4
_PARAREAL_MIN_SLICE = 5
_PARAREAL_JUMP = 1e-14
_PARAREAL_CORRECTIONS = 4


@dataclass
class SolverOptions:
    """Knobs of the shooting driver; defaults suit the bundled scenarios.
    The ramp sizes its own steps, and every Newton solve has one budget."""

    steps_per_segment: int = 200
    force_tol: float = 1e-8          # N, per residual component
    moment_tol: float = 1e-10        # N·m, per residual component

    def validate(self) -> None:
        """Raise :class:`ValidationError` listing every unusable setting."""
        problems = []
        steps = self.steps_per_segment
        if not (isinstance(steps, numbers.Integral) and steps > 0):
            problems.append("solver: steps_per_segment must be a positive "
                            f"integer, got {steps!r}")
        for key in ("force_tol", "moment_tol"):
            tol = getattr(self, key)
            if not (isinstance(tol, numbers.Real) and 0 < tol < math.inf):
                problems.append(f"solver: {key} must be positive and finite, "
                                f"got {tol!r}")
        if problems:
            raise ValidationError(problems)


@dataclass
class Problem:
    """Assembly compiled to per-segment contexts; :meth:`scaled` gives it
    at another tension."""

    assembly: AssemblySpec
    contexts: list[SegmentContext]
    residual_classes: list[str]          # "f" or "m" per residual component

    @property
    def n_tubes(self) -> int:
        return len(self.assembly.tubes)

    @property
    def guess_size(self) -> int:
        return 4 + 2 * self.n_tubes

    def scaled(self, scale: float) -> Problem:
        """A copy with every tendon tension times ``scale``; the segments
        hold the only tension arrays, and all else is shared."""
        contexts = [copy.copy(ctx) for ctx in self.contexts]
        for ctx in contexts:
            ctx.tensions = ctx.tensions * scale
        return replace(self, contexts=contexts)


def build_problem(assembly: AssemblySpec, options: SolverOptions) -> Problem:
    """Check every input of a solve, ``options`` first, and compile
    ``assembly`` at full tension, once per solve. Other tensions come from
    :meth:`Problem.scaled`; the step count stays in the options that each
    grid passes on, so one problem serves every grid."""
    options.validate()
    segments = segment_plan(assembly)
    stiff = [section_stiffness(tube) for tube in assembly.tubes]
    kse = np.stack([pair.kse_diag for pair in stiff])
    kbt = np.stack([pair.kbt_diag for pair in stiff])
    # Rest shapes are constant along their tubes (TubeSpec.validate), so
    # one reading per tube serves every segment.
    ustar = np.stack([tube.rest_shape.curvature(0.0)[0]
                      for tube in assembly.tubes])
    vstar = np.stack([tube.rest_shape.stretch(0.0)[0]
                      for tube in assembly.tubes])

    tendons = assembly.tendons
    outermost = assembly.strategy is Strategy.OUTERMOST_OF_SEGMENT
    contexts = []
    classes: list[str] = []
    for seg in segments:
        local = {g: a for a, g in enumerate(seg.tubes)}
        # Local index of the tube that carries each tendon's distributed load.
        carrier = {j: 0 if outermost else local[tendons[j].tube]
                   for j in seg.tendons}
        carried = sorted(seg.tendons, key=carrier.get)
        ending = [local[g] for g in seg.ending_tubes]
        continuing = [a for a in range(len(seg.tubes)) if a not in ending]
        contexts.append(SegmentContext(
            start=seg.start, end=seg.end, tubes=list(seg.tubes),
            kse=kse[seg.tubes], kbt=kbt[seg.tubes],
            ustar=ustar[seg.tubes], vstar=vstar[seg.tubes],
            routings=[tendons[j].routing for j in carried],
            routing_offsets=np.array([assembly.base_offsets[tendons[j].tube]
                                      for j in carried]),
            tensions=np.array([tendons[j].tension for j in carried],
                              dtype=float),
            carriers=np.array([carrier[j] for j in carried], dtype=int),
            ending=ending, continuing=continuing,
            # A tendon anchoring here runs over the whole segment, so the
            # segment carries it.
            terminating=[(carried.index(j), carrier[j], local[tendons[j].tube])
                         for j in seg.terminating_tendons]))
        classes.extend(["f", "m"] * len(ending))
        if not continuing:
            classes.extend(["f", "f", "m", "m"])
    return Problem(assembly=assembly, contexts=contexts,
                   residual_classes=classes)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def _flag(failed: np.ndarray, rows: np.ndarray, code: int) -> None:
    """Give ``code`` to the flagged ``rows`` that have not failed yet."""
    if rows.any():
        np.copyto(failed, code, where=rows & (failed == 0))


def _neutral_state(k: int) -> np.ndarray:
    """Packed straight, unstrained state that a failed row is reset to, so
    that it stays finite for the rest of its batch's integration."""
    y = np.zeros(18 + 3 * (k - 1))
    y[3:12] = np.eye(3).ravel()
    y[17] = 1.0
    y[18 + 2 * (k - 1):] = 1.0
    return y


def integrate_segment(state: RodState, ctx: SegmentContext, steps: int,
                      failed: np.ndarray | None = None):
    """March the cross-section ODE across one segment with fixed-step RK4.

    The frame is re-projected onto the rotation group after every step so
    drift never accumulates. ``failed`` holds the failure code of each
    batch row so far (default: none failed); a failed row is held at a
    neutral state. Returns (end state, packed states at every station,
    shaped (steps + 1, *batch, width), worst condition estimate seen per
    batch row, failure codes).
    """
    h = (ctx.end - ctx.start) / steps
    k = ctx.n_active
    y = pack_state(state)
    batch = y.shape[:-1]
    failed = np.zeros(batch, dtype=np.int8) if failed is None else failed.copy()
    neutral = _neutral_state(k)
    if failed.any():
        np.copyto(y, neutral, where=failed[..., None] != 0)
    cond_max = np.zeros(batch)
    trail = np.empty((steps + 1,) + y.shape)
    trail[0] = y

    def rhs(yv: np.ndarray, s: float, diagnostics: bool = False) -> np.ndarray:
        nonlocal cond_max
        dy, cond, collapsed, singular = state_derivative(
            unpack_state(yv, k, s), ctx, diagnostics=diagnostics)
        if diagnostics:
            cond_max = np.maximum(cond_max, cond)
        _flag(failed, collapsed, _TENDON)
        _flag(failed, singular, _RATES)
        return dy

    for i in range(steps):
        s = ctx.start + i * h
        # The condition estimate is sampled once per macro step; the three
        # inner stages run the cheap solve.
        k1 = rhs(y, s, diagnostics=True)
        k2 = rhs(y + 0.5 * h * k1, s + 0.5 * h)
        k3 = rhs(y + 0.5 * h * k2, s + 0.5 * h)
        k4 = rhs(y + h * k3, s + h)
        trail[i + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y = trail[i + 1]
        frame, drifted = reorthonormalize(y[..., 3:12].reshape(batch + (3, 3)))
        y[..., 3:12] = frame.reshape(batch + (9,))
        _flag(failed, drifted, _FRAME)
        if failed.any():
            np.copyto(y, neutral, where=failed[..., None] != 0)

    return unpack_state(y, k, ctx.end), trail, cond_max, failed


def _turn(ctx: SegmentContext) -> float:
    """Angle in rad by which the segment turns its most curved rest frame
    or its fastest-winding tendon path: the segment's length times the
    larger of the largest ‖u*ᵢ‖ and the largest angular rate of a routing
    about the axis over the segment (``routing.angular_rate``)."""
    rates = [float(np.linalg.norm(ctx.ustar, axis=-1).max())]
    rates += [routing.angular_rate(ctx.start + offset, ctx.end + offset)
              for routing, offset in zip(ctx.routings, ctx.routing_offsets)]
    return max(rates) * (ctx.end - ctx.start)


def _time_slices(ctx: SegmentContext, steps: int) -> int | None:
    """Slice count of a time-parallel pass over ``ctx`` at ``steps`` steps,
    or None if the segment is integrated serially.

    The right-hand side must not read the station, since every slice is
    integrated over the first one's stations; the slice count is the
    divisor of ``steps`` nearest √steps that gives enough slices of enough
    steps; and one RK4 step over a slice, the coarse propagator, must turn
    no rest frame by more than ``_COARSE_TURN`` (see :func:`_turn`).
    """
    if (ctx.routings and ctx.path is None) or steps < _PARAREAL_MIN_STEPS:
        return None
    fits = [m for m in range(_PARAREAL_MIN_SLICES,
                             steps // _PARAREAL_MIN_SLICE + 1)
            if steps % m == 0]
    slices = min(fits, key=lambda m: (abs(m - math.sqrt(steps)), m),
                 default=None)
    if slices is None or _turn(ctx) / slices > _COARSE_TURN:
        return None
    return slices


def _time_parallel(state: RodState, ctx: SegmentContext, steps: int):
    """Parareal over one batch row of one segment, or None where the
    segment must be integrated serially (see :func:`_time_slices`).

    Both propagators are :func:`integrate_segment` over one slice: the
    coarse one G takes a single RK4 step, the fine one F the slice's share
    of ``steps``, and F integrates every slice at once as one batch. A
    serial G sweep seeds the slice starts U_j, then each correction sets
    U_{j+1} ← F(U_j^old) + G(U_j^new) − G(U_j^old) until every start is
    at round-off from the F row that ends there. Returns what
    :func:`integrate_segment` returns, with the F trails stitched together;
    None also when a row of a G or F pass fails, or the starts are not at
    round-off after ``_PARAREAL_CORRECTIONS`` corrections.
    """
    slices = _time_slices(ctx, steps)
    if slices is None:
        return None
    k = ctx.n_active
    batch = state.u1.shape[:-1]
    sub = copy.copy(ctx)
    sub.end = ctx.start + (ctx.end - ctx.start) / slices

    def coarse(y: np.ndarray) -> np.ndarray | None:
        _, rec, _, failed = integrate_segment(unpack_state(y, k, sub.start),
                                              sub, 1)
        return None if failed else rec[-1]

    y0 = pack_state(state).reshape(-1)
    starts = np.empty((slices, y0.size))
    starts[0] = y0
    coarse_ends = np.empty((slices - 1, y0.size))  # G of each start
    for j in range(slices - 1):
        end = coarse(starts[j])
        if end is None:
            return None
        coarse_ends[j] = starts[j + 1] = end
    for correction in range(_PARAREAL_CORRECTIONS + 1):
        _, rec, cond, failed = integrate_segment(
            unpack_state(starts, k, sub.start), sub, steps // slices)
        if failed.any():
            return None
        ends = rec[-1]
        scale = np.maximum(1.0, np.abs(starts[1:]))
        if (np.abs(ends[:-1] - starts[1:]) <= _PARAREAL_JUMP * scale).all():
            break
        if correction == _PARAREAL_CORRECTIONS:
            return None
        moved = starts.copy()
        for j in range(slices - 1):
            # An unmoved start has an unmoved G, so F alone sets the next.
            moved[j + 1] = ends[j]
            if not np.array_equal(moved[j], starts[j]):
                end = coarse(moved[j])
                if end is None:
                    return None
                moved[j + 1] += end - coarse_ends[j]
                coarse_ends[j] = end
        starts = moved

    width = starts.shape[1]
    trail = np.empty((steps + 1, width))
    trail[0] = starts[0]
    trail[1:] = rec[1:].swapaxes(0, 1).reshape(steps, width)
    trail = trail.reshape((steps + 1,) + batch + (width,))
    return (unpack_state(trail[-1], k, ctx.end), trail,
            np.full(batch, cond.max()), np.zeros(batch, dtype=np.int8))


# ---------------------------------------------------------------------------
# boundary transfer
# ---------------------------------------------------------------------------


def _mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (m @ v[..., None])[..., 0]


def apply_transition(state: RodState, ctx: SegmentContext, failed: np.ndarray):
    """Transfer loads across the boundary at the end of segment ``ctx`` and
    rebuild the next segment's state.

    Tendons anchoring here pull a point force/moment on their anchor tube.
    Each ending tube's remaining twist/axial wrench components become
    residual entries; its bending/shear components transfer into the
    continuing stack. The continuing tubes' strains are re-solved in closed
    form from their post-boundary wrench targets.

    ``failed`` holds the failure code of each batch row so far. Returns
    (next state or None at the final station, residual component list,
    failure codes with the rows whose transfer is singular added).
    """
    strains = tube_strains(state, ctx)
    theta = np.concatenate([np.zeros(state.theta.shape[:-1] + (1,)),
                            state.theta], axis=-1)

    # Each tube's leftover wrench, in its own frame, after the point loads
    # of the tendons anchoring on it.
    left_n, left_m = strains.n, strains.m
    for i, assigned, anchored in ctx.terminating:
        r, rdot, _ = ctx.routings[i].eval(state.s + ctx.routing_offsets[i])
        pb = np.cross(strains.u[..., assigned, :], r) + rdot \
            + strains.v[..., assigned, :]
        f_a = -ctx.tensions[i] * pb \
            / np.linalg.norm(pb, axis=-1, keepdims=True)
        spin = rot_d3(theta[..., assigned] - theta[..., anchored])
        left_n[..., anchored, :] -= _mv(spin, f_a)
        left_m[..., anchored, :] -= _mv(spin, np.cross(r, f_a))

    residual = []
    for e in ctx.ending:
        residual.append(left_n[..., e, 2])
        residual.append(left_m[..., e, 2])

    # The whole stack's leftover wrench in the segment's reference frame.
    comp_f = _mv(strains.rot, left_n).sum(axis=-2)
    comp_m = _mv(strains.rot, left_m).sum(axis=-2)
    if not ctx.continuing:
        residual.extend([comp_f[..., 0], comp_f[..., 1],
                         comp_m[..., 0], comp_m[..., 1]])
        return None, residual, failed

    cont = ctx.continuing
    ref = cont[0]
    rot_ref = strains.rot[..., ref, :, :]
    rel = theta[..., cont] - theta[..., ref, None]

    # Twist/axial components re-solve per continuing tube. A row whose
    # transfer is singular is flagged and divided by one instead; its next
    # state means nothing.
    u_z = ctx.ustar[cont, 2] + left_m[..., cont, 2] / ctx.kbt[cont, 2]
    v_z = ctx.vstar[cont, 2] + left_n[..., cont, 2] / ctx.kse[cont, 2]
    v1_z = v_z[..., 0]
    singular = v1_z <= 0.0
    if singular.any():
        v1_z = np.where(singular, 1.0, v1_z)
    betas = v_z[..., 1:] / v1_z[..., None]
    singular = singular | (betas <= 0.0).any(axis=-1)

    # Shared bending/shear from the continuing stack's 2x2 stiffness: the
    # whole stack's leftover, ending tubes included, moved into the new
    # reference frame, plus the continuing tubes' rest wrench.
    to_ref = np.swapaxes(rot_ref, -1, -2)
    rel_rot = rot_d3(rel)[..., 0:2, 0:2]                 # (..., c, 2, 2)
    ei = ctx.kbt[cont, 0:2]
    ga = ctx.kse[cont, 0]
    s_mat = ((rel_rot * ei[:, None, :]) @ np.swapaxes(rel_rot, -1, -2)) \
        .sum(axis=-3)
    rhs_m = _mv(to_ref, comp_m)[..., 0:2] \
        + _mv(rel_rot, ei * ctx.ustar[cont, 0:2]).sum(axis=-2)
    rhs_f = _mv(to_ref, comp_f)[..., 0:2] \
        + _mv(rel_rot, ga[:, None] * ctx.vstar[cont, 0:2]).sum(axis=-2)
    ga_beta = ga[0] + (ga[1:] * betas).sum(axis=-1)

    det = (s_mat[..., 0, 0] * s_mat[..., 1, 1]
           - s_mat[..., 0, 1] * s_mat[..., 1, 0])
    singular = singular | (np.abs(det) < 1e-300) | (ga_beta <= 0.0)
    if singular.any():
        det = np.where(singular, 1.0, det)
        ga_beta = np.where(singular, 1.0, ga_beta)
        failed = failed.copy()
        _flag(failed, singular, _TRANSITION)
    u1_xy = np.stack([
        (s_mat[..., 1, 1] * rhs_m[..., 0] - s_mat[..., 0, 1] * rhs_m[..., 1]) / det,
        (s_mat[..., 0, 0] * rhs_m[..., 1] - s_mat[..., 1, 0] * rhs_m[..., 0]) / det,
    ], axis=-1)
    v1_xy = rhs_f / ga_beta[..., None]

    new_state = RodState(
        p=state.p.copy(),
        R=state.R @ rot_ref,
        u1=np.concatenate([u1_xy, u_z[..., 0:1]], axis=-1),
        v1=np.concatenate([v1_xy, v1_z[..., None]], axis=-1),
        theta=rel[..., 1:], u_d3=u_z[..., 1:], beta=betas,
        s=ctx.end,
    )
    return new_state, residual, failed


# ---------------------------------------------------------------------------
# residual and Newton driver
# ---------------------------------------------------------------------------


def _base_state(problem: Problem, guess: np.ndarray) -> RodState:
    n = problem.n_tubes
    batch = guess.shape[:-1]
    eye = np.broadcast_to(np.eye(3), batch + (3, 3)).copy()
    twists = np.broadcast_to(
        np.asarray(problem.assembly.base_twists[1:], dtype=float),
        batch + (n - 1,)).copy()
    return RodState(p=np.zeros(batch + (3,)), R=eye,
                    u1=guess[..., 0:3].copy(), v1=guess[..., 3:6].copy(),
                    theta=twists, u_d3=guess[..., 6:5 + n].copy(),
                    beta=guess[..., 5 + n:4 + 2 * n].copy(), s=0.0)


def boundary_residual(guess: np.ndarray, problem: Problem,
                      options: SolverOptions):
    """Residual vector of the shooting map for a (batched) base-strain guess.

    Component order: per boundary in station order, [axial force, twist
    moment] of each tube ending there; the final station appends the whole
    stack's transverse force then bending moment mismatch. Returns
    (residual (..., size), the recorded states of every segment as from
    :func:`integrate_segment`, worst condition estimate per batch row,
    failure code per batch row). A failed row reads an infinite residual
    and a zero condition estimate; :data:`FAILURES` names its code.
    """
    state = _base_state(problem, guess)
    failed = np.zeros(guess.shape[:-1], dtype=np.int8)
    parts: list[np.ndarray] = []
    trail = []
    cond_max = np.zeros(guess.shape[:-1])
    one_row = guess.size == guess.shape[-1]
    for ctx in problem.contexts:
        # A lone row that has not failed is integrated time-parallel where
        # the segment allows it (see _time_parallel).
        out = _time_parallel(state, ctx, options.steps_per_segment) \
            if one_row and not failed.any() else None
        state, rec, cond, failed = out or integrate_segment(
            state, ctx, options.steps_per_segment, failed)
        cond_max = np.maximum(cond_max, cond)
        trail.append(rec)
        state, res, failed = apply_transition(state, ctx, failed)
        parts.extend(res)
    residual = np.stack(parts, axis=-1)
    if failed.any():
        bad = failed != 0
        residual = np.where(bad[..., None], np.inf, residual)
        cond_max = np.where(bad, 0.0, cond_max)
    return residual, trail, cond_max, failed


@dataclass
class ConvergenceReport:
    converged: bool
    iterations: int
    # Newton solves run: those of every ramp and warm start, and one per
    # polished rung.
    continuation_steps: int
    scaled_residual: float            # max |component| / its tolerance
    residual: np.ndarray
    condition_max: float
    message: str = ""
    # Richardson estimate in m of the requested grid's tip error (RK4: d /
    # ((N / N_c)⁴ − 1) for the tip gap d to the rung of N_c steps just below
    # the requested grid on the ladder), and N_c; both None when the ladder
    # has no rung below the requested grid or that rung did not converge.
    discretization_error: float | None = None
    coarse_steps: int | None = None

    def as_dict(self) -> dict:
        """Plain-JSON record; a non-finite figure reads None (JSON null)."""
        out = {
            "converged": self.converged,
            "iterations": self.iterations,
            "continuation_steps": self.continuation_steps,
            "scaled_residual": _finite(self.scaled_residual),
            "residual_norm": _finite(np.linalg.norm(self.residual)),
            "condition_max": _finite(self.condition_max),
            "message": self.message,
        }
        # Left out when unset, so a solve without a rung below writes the
        # same record as before there was a coarse grid.
        if self.discretization_error is not None:
            out["discretization_error"] = _finite(self.discretization_error)
            out["coarse_steps"] = self.coarse_steps
        return out


def _finite(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


@dataclass
class SegmentSolution:
    """Sampled solution of one segment, tubes listed outermost first.

    The state arrays are views of one recorded trail; the per-tube strains
    and wrench are derived from them and the segment's ``stiffness`` and
    ``rest`` through :func:`~nestrod.statics.tube_strains` on each access,
    so a kept solution holds its trail once.
    """

    start: float
    end: float
    tubes: list[int]                 # global tube indices
    stations: np.ndarray             # (S,)
    p: np.ndarray                    # (S, 3)
    R: np.ndarray                    # (S, 3, 3)
    u1: np.ndarray                   # (S, 3)
    v1: np.ndarray                   # (S, 3)
    theta: np.ndarray                # (S, k-1)
    u_d3: np.ndarray                 # (S, k-1)
    beta: np.ndarray                 # (S, k-1)
    stiffness: np.ndarray            # (k, 6) [Kbt, Kse] per tube
    rest: np.ndarray                 # (k, 6) [u*, v*] per tube

    @property
    def n_active(self) -> int:
        return len(self.tubes)

    def _strains(self) -> TubeStrains:
        state = RodState(p=self.p, R=self.R, u1=self.u1, v1=self.v1,
                         theta=self.theta, u_d3=self.u_d3, beta=self.beta,
                         s=self.start)
        return tube_strains(state, self)

    @property
    def tube_u(self) -> np.ndarray:
        """(S, k, 3) per-tube curvature and twist."""
        return self._strains().u

    @property
    def tube_v(self) -> np.ndarray:
        """(S, k, 3) per-tube shear and extension."""
        return self._strains().v

    @property
    def tube_n(self) -> np.ndarray:
        """(S, k, 3) internal force, in each tube's own frame."""
        return self._strains().n

    @property
    def tube_m(self) -> np.ndarray:
        """(S, k, 3) internal moment, in each tube's own frame."""
        return self._strains().m


@dataclass
class Solution:
    """Converged robot shape plus everything the exporters need."""

    assembly: AssemblySpec
    options: SolverOptions
    guess: np.ndarray
    segments: list[SegmentSolution]
    report: ConvergenceReport

    @property
    def tip_position(self) -> np.ndarray:
        return self.segments[-1].p[-1]

    @property
    def tip_frame(self) -> np.ndarray:
        return self.segments[-1].R[-1]

    @property
    def total_length(self) -> float:
        return self.segments[-1].end


def _expand_segment(ctx: SegmentContext, trail: np.ndarray) -> SegmentSolution:
    steps = len(trail) - 1
    h = (ctx.end - ctx.start) / steps
    state = unpack_state(trail, ctx.n_active, ctx.start)
    return SegmentSolution(
        start=ctx.start, end=ctx.end, tubes=list(ctx.tubes),
        stations=ctx.start + h * np.arange(steps + 1), p=state.p, R=state.R,
        u1=state.u1, v1=state.v1, theta=state.theta, u_d3=state.u_d3,
        beta=state.beta, stiffness=ctx.stiffness, rest=ctx.rest)


def rest_guess(problem: Problem) -> np.ndarray:
    """Initial guess: every tube keeps its rest strains, no dilation."""
    # Every tube reaches past the base plate, so the first segment holds
    # them all.
    first = problem.contexts[0]
    n = problem.n_tubes
    g = np.ones(problem.guess_size)
    g[0:3] = first.ustar[0]
    g[3:6] = first.vstar[0]
    g[6:5 + n] = first.ustar[1:, 2]
    return g


def _scaled_max(res: np.ndarray, tol: np.ndarray) -> float:
    return float(np.max(np.abs(res) / tol))


def _row(trail: list[np.ndarray], j: int) -> list[np.ndarray]:
    """Recorded states of batch row ``j``, one (steps + 1, width) per segment."""
    return [rec[:, j].copy() for rec in trail]


class _Outcome(NamedTuple):
    """Where one Newton solve ended, and whether that meets its target."""

    guess: np.ndarray
    residual: np.ndarray
    metric: float                 # scaled residual against the tolerances
    iterations: int
    condition_max: float
    converged: bool
    trail: list[np.ndarray]       # recorded states at ``guess``
    failure: int = 0              # failure code of the start guess itself
    # FD Jacobian at ``guess`` when its stencil rows were integrated anyway,
    # else the last one formed (or handed in); set only on a converged solve.
    jacobian: np.ndarray | None = None


def _newton_step(jac: np.ndarray, res: np.ndarray) -> np.ndarray:
    # An exactly singular Jacobian (a zero LU pivot) takes the least-squares
    # step instead.
    try:
        return np.linalg.solve(jac, -res)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(jac, -res, rcond=None)[0]


def _newton(problem: Problem, options: SolverOptions, guess: np.ndarray,
            relax: float = 1.0,
            jacobian: np.ndarray | None = None) -> _Outcome:
    """Damped Newton on the shooting residual.

    ``relax`` loosens the convergence target by that factor (the returned
    metric is always against the unrelaxed tolerances); every solve stops
    after ``_NEWTON_CAP`` iterations.

    Each iteration costs one batched integration. The first batch is the
    FD stencil at the guess, and every line-search batch also carries the
    stencil around the full-step candidate, so when the full step is taken
    the next Jacobian is already there; a shorter step integrates the
    stencil rows around it on their own. A failed row reads an infinite
    residual, so the line search passes over it, and a stencil with a
    failed row ends the solve where it stands: no Jacobian can be formed
    there. If the start guess itself fails, the outcome carries its code.

    With a ``jacobian`` in hand (the rung below's, for the polish), the
    first batch is the guess alone, and the iterations start as chord
    (simplified Newton) steps: each integrates only its full-step candidate
    and is kept while it cuts the scaled residual by ``_CHORD_CONTRACTION``
    at least. The first step that does not drops the Jacobian, and the
    iteration goes on from the current guess as above, starting with the
    stencil rows alone.
    """
    n = problem.n_tubes
    tol = np.where(np.array(problem.residual_classes) == "f",
                   options.force_tol, options.moment_tol)
    h = np.repeat([_FD_CURVATURE, _FD_STRAIN, _FD_CURVATURE, _FD_BETA],
                  [3, 3, n - 1, n - 1])
    offsets = np.diag(h)
    factors = 0.5 ** np.arange(_LINE_SEARCH_HALVINGS + 1)
    ladder = factors.size

    chord = jacobian is not None
    first = guess[None, :] if chord \
        else np.concatenate([guess[None, :], guess + offsets])
    res_all, trail_all, cond, failed = boundary_residual(first, problem,
                                                         options)
    res, trail, cond_max = res_all[0], _row(trail_all, 0), float(cond[0])
    metric = _scaled_max(res, tol)
    if failed[0]:
        return _Outcome(guess, res, metric, 0, cond_max, False, trail,
                        int(failed[0]))
    # Residuals and condition estimates of the stencil rows around the
    # guess, once integrated; their estimates count only once they are used.
    stencil = None if chord else (res_all[1:], cond[1:])
    jac = jacobian
    iterations = 0
    while metric >= relax and iterations < _NEWTON_CAP:
        if chord:
            cand = guess + _newton_step(jac, res)
            res_all, trail_all, cond, _ = boundary_residual(
                cand[None, :], problem, options)
            cond_max = max(cond_max, float(cond[0]))
            cand_metric = _scaled_max(res_all[0], tol)
            iterations += 1
            if cand_metric <= _CHORD_CONTRACTION * metric:
                guess, res, metric = cand, res_all[0], cand_metric
                trail = _row(trail_all, 0)
            else:
                chord = False
            continue
        if stencil is None:
            rows, _, cond, _ = boundary_residual(guess + offsets, problem,
                                                 options)
            stencil = rows, cond
        rows, cond = stencil
        stencil = None
        if not np.isfinite(rows).all():
            break
        cond_max = max(cond_max, float(np.max(cond)))
        jac = ((rows - res) / h[:, None]).T
        step = _newton_step(jac, res)

        # One batched call covers the whole backtracking ladder plus the
        # stencil around the full step; take the longest step that still
        # reduces the scaled residual (a failed row never does).
        cands = guess + factors[:, None] * step
        res_all, trail_all, cond, _ = boundary_residual(
            np.concatenate([cands, cands[0] + offsets]), problem, options)
        cond_max = max(cond_max, float(np.max(cond[:ladder])))
        cand_metrics = np.max(np.abs(res_all[:ladder]) / tol, axis=-1)
        better = np.flatnonzero(cand_metrics < metric)
        iterations += 1
        if not better.size:
            break
        j = int(better[0])
        guess, res, metric = cands[j], res_all[j], float(cand_metrics[j])
        trail = _row(trail_all, j)
        if j == 0:
            stencil = res_all[ladder:], cond[ladder:]
    converged = metric < relax
    if converged and stencil is not None and np.isfinite(stencil[0]).all():
        jac = ((stencil[0] - res) / h[:, None]).T
    return _Outcome(guess, res, metric, iterations, cond_max, converged, trail,
                    jacobian=jac if converged else None)


class _Level(NamedTuple):
    """How the solve on one grid ended."""

    solves: list[_Outcome]        # every Newton solve run, in order
    outcome: _Outcome | None      # Newton's accepted full-tension solve
    scale: float                  # tension scale where a failed ramp stalled
    message: str = ""             # why the grid failed


def _report(solves: list[_Outcome], failure: str | None = None
            ) -> ConvergenceReport:
    """The report of every Newton solve run, in order; ``failure`` says why
    the solve failed, None for a converged one. The residual and its scaled
    figure are those of the last solve that evaluated its start guess, or
    of the last solve if none did."""
    last = next((out for out in reversed(solves) if not out.failure),
                solves[-1])
    return ConvergenceReport(
        converged=failure is None,
        iterations=sum(out.iterations for out in solves),
        continuation_steps=len(solves), scaled_residual=last.metric,
        residual=last.residual,
        condition_max=max(out.condition_max for out in solves),
        message=failure or "")


def _first_ramp_step(problem: Problem) -> float:
    """Tension scale of the ramp's first step: 1 / ⌈λ / _RAMP_LOAD_STEP⌉
    for the stack's load parameter λ, and the whole tension for a small λ."""
    assembly = problem.assembly
    anchors = [(t.tension, assembly.termination_station(j))
               for j, t in enumerate(assembly.tendons)]
    load = max(sum(tension * (station - ctx.start) ** 2
                   for tension, station in anchors if station > ctx.start)
               / ctx.kbt[:, 0].sum() for ctx in problem.contexts)
    return 1.0 / max(1, math.ceil(load / _RAMP_LOAD_STEP))


def _solve_level(problem: Problem, options: SolverOptions,
                 guess: np.ndarray | None,
                 jacobian: np.ndarray | None) -> _Level:
    """The solve on one grid of the full-tension ``problem``. A given
    ``guess`` is one Newton solve, with ``jacobian`` if there is one (see
    :func:`_newton`). Without a guess, or if it does not converge, the
    tension ramp runs from the rest guess, one Newton solve per step; a
    failed step, the final one too, is retried at half its size, and a step
    whose start guess fails caps every later step at that half. The level
    lists every Newton solve run."""
    solves: list[_Outcome] = []
    if guess is not None:
        out = _newton(problem, options, np.asarray(guess, dtype=float),
                      jacobian=jacobian)
        solves.append(out)
        if out.converged:
            return _Level(solves, out, 1.0)

    step = _first_ramp_step(problem)
    floor = step / _RAMP_FLOOR
    cap = math.inf               # largest step after a start-guess failure
    history = [(0.0, rest_guess(problem))]  # (scale, guess) of converged steps
    rest_checked = False
    for _ in range(_RAMP_ATTEMPTS):
        s_done, start = history[-1]
        # A remainder below the floor joins this step, so that steps whose
        # sum rounds to just under one still end at full tension.
        final = s_done + step > 1.0 - floor
        scale = 1.0 if final else s_done + step
        if len(history) >= 2:
            # Secant prediction along the ramp (the rest guess is its
            # zero-tension point): steps then land inside Newton's fast
            # region instead of re-entering the damped phase every time.
            s_a, g_a = history[-2]
            start = start + (start - g_a) * ((scale - s_done) / (s_done - s_a))
        out = _newton(problem if final else problem.scaled(scale), options,
                      start, 1.0 if final else _RAMP_RELAX)
        solves.append(out)
        if out.converged and final:
            return _Level(solves, out, 1.0)
        if out.converged:
            history.append((scale, out.guess))
            if out.iterations <= _RAMP_EASY_ITERATIONS:
                step = min(2.0 * step, cap)
            continue
        failure = ("integration left the physical domain "
                   f"({FAILURES[out.failure]})" if out.failure
                   else "stalled line search or iteration cap")
        # The step was too ambitious: retry at half of it, until it falls
        # below the floor or the rest guess itself fails without tension; no
        # shorter step can get past such a failure.
        step = 0.5 * (scale - s_done)
        if out.failure:
            # A start guess that leaves the physical domain is not a basin
            # Newton can stall in: doubling back to it only fails again.
            cap = min(cap, step)
        if step < floor:
            break
        if s_done == 0.0 and not rest_checked:
            rest_checked = True
            rest = problem.scaled(0.0)
            code = int(boundary_residual(rest_guess(rest), rest, options)[3])
            if code:
                failure = ("integration fails without tension "
                           f"({FAILURES[code]})")
                break
    else:
        failure = f"no full tension after {_RAMP_ATTEMPTS} ramp steps"
    return _Level(solves, None, scale, failure)


def _coarse_steps(problem: Problem, options: SolverOptions) -> list[int]:
    """Step counts of the grid ladder for ``options``, coarsest first and
    the requested count last.

    Below the requested count N the rungs are N // 4, N // 16, … while a
    rung has at least one step per segment and no step of any segment turns
    by more than ``_COARSE_TURN`` (see :func:`_turn`). Where the next ×4
    rung fails that rule, half the last rung, the coarsest that the halving
    ladder could still admit, ends the ladder if it passes. It reads the
    compiled problem and integrates nothing.
    """
    turn = max(_turn(ctx) for ctx in problem.contexts)

    def admits(steps: int) -> bool:
        return steps >= 1 and turn / steps <= _COARSE_TURN

    rungs = [options.steps_per_segment]
    while admits(rungs[-1] // _RUNG_FACTOR):
        rungs.append(rungs[-1] // _RUNG_FACTOR)
    if admits(rungs[-1] // 2):
        rungs.append(rungs[-1] // 2)
    return rungs[::-1]


def shoot(assembly: AssemblySpec, options: SolverOptions | None = None,
          initial_guess: np.ndarray | None = None) -> Solution:
    """Solve the clamped-base statics of an assembly.

    The assembly is compiled once (:func:`build_problem`); the ramp steps
    scale its tensions. The solve climbs a ladder of grids (see
    :func:`_coarse_steps`). The coarsest rung takes a caller-supplied
    ``initial_guess`` (e.g. the previous point of a sweep) as one Newton
    solve at full tension and falls back to the tension ramp from the rest
    guess if that stalls. Every rung above polishes the solution of the
    rung below: it integrates that solution alone, takes chord steps with
    the lower rung's Jacobian if it misses the tolerances, and falls back
    to the FD stencil when one contracts too little. A rung that converges
    without an iteration hands its solution straight to the rung just
    below the requested grid, skipping the rungs between. Every rung, the
    requested one too, falls back to the ramp from rest when its start
    stalls, and a rung that fails hands the next rung its own start.
    Raises :class:`ValidationError` for unusable ``options`` before any
    integration, and :class:`NoConvergence` with a diagnostic report when
    the requested grid fails.
    """
    options = options or SolverOptions()
    problem = build_problem(assembly, options)
    rungs = _coarse_steps(problem, options)
    guess, jacobian = initial_guess, None
    solves: list[_Outcome] = []
    level = None
    for i, steps in enumerate(rungs):
        # A rung that converged without an iteration, its start already
        # within the tolerances there, hands its solution straight to the
        # rung just below the requested grid: the rungs between would only
        # verify it again.
        if (i < len(rungs) - 2 and level is not None
                and level.outcome is not None and not level.outcome.iterations):
            continue
        below = level
        level = _solve_level(problem, replace(options, steps_per_segment=steps),
                             guess, jacobian)
        solves += level.solves
        if level.outcome is not None:
            guess, jacobian = level.outcome.guess, level.outcome.jacobian
    if level.outcome is None:
        report = _report(solves, level.message)
        raise NoConvergence(
            f"shooting stalled at tension scale {level.scale:.3g} with "
            f"scaled residual {report.scaled_residual:.3e} after "
            f"{report.iterations} iterations: {report.message}", report=report)
    report = _report(solves)
    segments = [_expand_segment(ctx, rec)
                for ctx, rec in zip(problem.contexts, level.outcome.trail)]
    if below is not None and below.outcome is not None:
        coarse = rungs[-2]
        gap = np.linalg.norm(segments[-1].p[-1]
                             - below.outcome.trail[-1][-1, 0:3])
        report.discretization_error = float(
            gap / ((options.steps_per_segment / coarse) ** 4 - 1.0))
        report.coarse_steps = coarse
    return Solution(assembly=assembly, options=options,
                    guess=level.outcome.guess, segments=segments,
                    report=report)


def twist_consistency(solution: Solution) -> float:
    """Worst |θ_i(s) − θ_i(0) − ∫(u_d3,i − u1,z)| per 0.1 m, by Simpson.

    A pure bookkeeping identity of the integrator: the relative twist
    angle must match the quadrature of its own rate over every segment.
    """
    worst = 0.0
    for seg in solution.segments:
        if seg.theta.shape[-1] == 0:
            continue
        stations = seg.stations
        span = seg.end - seg.start
        if span <= 0 or len(stations) < 3:
            continue
        integrand = seg.u_d3 - seg.u1[:, 2:3]
        m = len(stations) - 1
        if m % 2 == 1:      # Simpson needs an even interval count
            integrand = integrand[:-1]
            stations = stations[:-1]
            m -= 1
        h = (stations[-1] - stations[0]) / m
        weights = np.ones(m + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        integral = h / 3.0 * np.einsum("s,si->i", weights, integrand)
        drift = np.abs(seg.theta[m] - seg.theta[0] - integral)
        scale = max(stations[-1] - stations[0], 1e-12) / 0.1
        worst = max(worst, float(np.max(drift) / scale))
    return worst
