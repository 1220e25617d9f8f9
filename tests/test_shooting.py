"""Shooting solver tests: segment integration accuracy, rest equilibria,
boundary bookkeeping, warm starts, and the failure report."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from nestrod.assembly import (
    ArcRest,
    AssemblySpec,
    HelicalRouting,
    PiecewiseAngularRouting,
    StraightRest,
    StraightRouting,
    TendonSpec,
    TubeSpec,
    section_stiffness,
    segment_plan,
)
from nestrod import shooting
from nestrod.errors import NoConvergence, ValidationError
from nestrod.oracles import single_tube_shoot
from nestrod.scenario import preset, preset_names
from nestrod.shooting import (
    ConvergenceReport,
    SolverOptions,
    boundary_residual,
    build_problem,
    integrate_segment,
    rest_guess,
    shoot,
    twist_consistency,
)
from nestrod.so3 import hat, reorthonormalize
from nestrod.statics import (POSE, RodState, pack_state, state_derivative,
                             unpack_state)


def _tube(length=0.2, od=1.0e-3, idi=0.8e-3, e=60e9, g=23e9, **kw):
    return TubeSpec(length=length, elastic_modulus=e, shear_modulus=g,
                    outer_diameter=od, inner_diameter=idi, **kw)


def _count_rows(monkeypatch) -> list[tuple[int, int]]:
    """Record (steps per segment, batch rows) of every shooting-map call."""
    calls = []
    inner = shooting.boundary_residual

    def counted(guess, problem, options):
        calls.append((options.steps_per_segment,
                      guess.shape[0] if guess.ndim == 2 else 1))
        return inner(guess, problem, options)

    monkeypatch.setattr(shooting, "boundary_residual", counted)
    return calls


def _two_tube(tension=0.2):
    return AssemblySpec(
        tubes=[_tube(length=0.10, od=1.2e-3, idi=1.0e-3),
               _tube(length=0.16, od=0.9e-3, idi=0.7e-3)],
        tendons=[TendonSpec(routing=StraightRouting([3e-3, 0.0]),
                            tension=tension, tube=1)])


def _full_state_rk4(state, ctx, steps, failed=None):
    """Reference integrator: RK4 on the whole packed state [p, R, strains],
    with ṗ = R v₁ and Ṙ = R û₁ in every stage, the frame projected after
    every step and its drift flagged there, and a failed row held at the
    neutral state. Returns what integrate_segment returns."""
    h = (ctx.end - ctx.start) / steps
    k = ctx.n_active
    y = pack_state(state)
    batch = y.shape[:-1]
    failed = np.zeros(batch, dtype=np.int8) if failed is None \
        else failed.copy()
    neutral = shooting._neutral_state(k)
    np.copyto(y, neutral, where=failed[..., None] != 0)
    cond_max = np.zeros(batch)
    trail = [y.copy()]

    def flag(rows, code):
        failed[rows & (failed == 0)] = code

    def rhs(yv, s, diagnostics=False):
        nonlocal cond_max
        state = unpack_state(yv, k, s)
        dx, cond, collapsed, singular = state_derivative(
            state, ctx, diagnostics=diagnostics)
        cond_max = np.maximum(cond_max, cond)
        flag(collapsed, shooting._TENDON)
        flag(singular, shooting._RATES)
        return np.concatenate([(state.R @ state.v1[..., None])[..., 0],
                               (state.R @ hat(state.u1)).reshape(batch + (9,)),
                               dx], axis=-1)

    for i in range(steps):
        s = ctx.start + i * h
        k1 = rhs(y, s, diagnostics=True)
        k2 = rhs(y + 0.5 * h * k1, s + 0.5 * h)
        k3 = rhs(y + 0.5 * h * k2, s + 0.5 * h)
        k4 = rhs(y + h * k3, s + h)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        frame, drifted = reorthonormalize(y[..., 3:12].reshape(batch + (3, 3)))
        y[..., 3:12] = frame.reshape(batch + (9,))
        flag(drifted, shooting._FRAME)
        np.copyto(y, neutral, where=failed[..., None] != 0)
        trail.append(y.copy())
    return unpack_state(y, k, ctx.end), np.stack(trail), cond_max, failed


class TestIntegration:
    def test_arc_tube_matches_closed_form(self):
        kappa, length = 10.0, 0.1
        asm = AssemblySpec(tubes=[_tube(length=length,
                                        rest_shape=ArcRest(kappa=kappa))])
        ctx = build_problem(asm, SolverOptions()).contexts[0]
        state = RodState(p=np.zeros(3), R=np.eye(3),
                         u1=np.array([kappa, 0.0, 0.0]),
                         v1=np.array([0.0, 0.0, 1.0]),
                         theta=np.zeros(0), u_d3=np.zeros(0),
                         beta=np.zeros(0), s=0.0)
        end, trail, cond, failed = integrate_segment(state, ctx, 200)
        assert not failed
        angle = kappa * length
        expect_p = np.array([0.0, (math.cos(angle) - 1.0) / kappa,
                             math.sin(angle) / kappa])
        np.testing.assert_allclose(end.p, expect_p, atol=1e-9)
        np.testing.assert_allclose(
            end.R, expm(hat([kappa, 0.0, 0.0]) * length), atol=1e-9)
        # strains stay at rest the whole way
        np.testing.assert_allclose(end.u1, [kappa, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(end.v1, [0.0, 0.0, 1.0], atol=1e-9)
        assert trail.shape == (201, 18)
        assert cond >= 1.0

    @pytest.mark.parametrize("steps", [50, 200])
    @pytest.mark.parametrize("name, rows", [
        ("two_tube_0", 1), ("three_tube_c", 1),
        ("single_tube_helical_backbone", 1),   # every step turns past SAFE_TURN
        ("two_tube_helical", 1),               # the routing reads the station
        ("two_tube_0", 9),                     # a row drifts, one is failed
    ])
    def test_matches_rk4_on_the_whole_state(self, name, rows, steps):
        # The strains are marched with the same arithmetic as RK4 on the
        # whole state, so they, the condition estimates and the failure
        # codes are bit-equal; the pose trail is built apart and matches
        # to round-off.
        asm, _ = preset(name, allow_placeholders=True)
        problem = build_problem(asm, SolverOptions(steps_per_segment=steps))
        rng = np.random.default_rng(7)
        size = problem.guess_size
        guess = rest_guess(problem) + rng.normal(size=(rows, size)) \
            * np.repeat([3.0, 1e-3], [3, size - 3])
        failed = np.zeros(rows, dtype=np.int8)
        if rows > 1:
            guess[1, 0] = 2.0e4          # leaves the rotation group at once
            failed[2] = shooting._RATES  # failed before this pass
        state = shooting._base_state(problem, guess)
        for ctx in problem.contexts:
            got = integrate_segment(state, ctx, steps, failed)
            want = _full_state_rk4(state, ctx, steps, failed)
            np.testing.assert_array_equal(got[1][..., POSE:],
                                          want[1][..., POSE:])
            np.testing.assert_allclose(got[1][..., 0:POSE],
                                       want[1][..., 0:POSE], rtol=0,
                                       atol=1e-13)
            np.testing.assert_array_equal(got[2], want[2])
            np.testing.assert_array_equal(got[3], want[3])
            failed = got[3]
            state, _, failed = shooting.apply_transition(got[0], ctx, failed)
        if rows > 1:
            assert list(failed[:3]) == [0, shooting._FRAME, shooting._RATES]

    def test_step_doubling_converges(self):
        asm = _two_tube(tension=0.0)
        asm.tendons = []
        problem = build_problem(asm, SolverOptions())
        state = RodState(p=np.zeros(3), R=np.eye(3), u1=np.zeros(3),
                         v1=np.array([0.0, 0.0, 1.0]), theta=np.zeros(1),
                         u_d3=np.zeros(1), beta=np.ones(1), s=0.0)
        coarse = integrate_segment(state, problem.contexts[0], 25)[0]
        fine = integrate_segment(state, problem.contexts[0], 50)[0]
        np.testing.assert_allclose(coarse.p, fine.p, atol=1e-10)


class TestRestEquilibrium:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rest_guess_residual_is_zero(self, n):
        tubes = [
            _tube(length=0.20, od=1.4e-3, idi=1.16e-3),
            _tube(length=0.24, od=1.0e-3, idi=0.8e-3),
            _tube(length=0.30, od=0.6e-3, idi=0.0),
        ][:n]
        problem = build_problem(AssemblySpec(tubes=tubes), SolverOptions())
        res, _, _, failed = boundary_residual(rest_guess(problem), problem,
                                              SolverOptions())
        assert not failed
        assert res.shape == (2 * n + 4,)
        np.testing.assert_allclose(res, 0.0, atol=1e-9)

    def test_residual_class_layout(self):
        tubes = [
            _tube(length=0.20, od=1.4e-3, idi=1.16e-3),
            _tube(length=0.24, od=1.0e-3, idi=0.8e-3),
            _tube(length=0.30, od=0.6e-3, idi=0.0),
        ]
        problem = build_problem(AssemblySpec(tubes=tubes), SolverOptions())
        classes = problem.residual_classes
        assert len(classes) == 10
        assert classes.count("f") == 5
        assert classes.count("m") == 5
        # two interior boundaries then the four composite tip rows
        assert classes == ["f", "m", "f", "m", "f", "m", "f", "f", "m", "m"]


class TestProblem:
    @pytest.mark.parametrize("strategy", ["outermost", "terminating"])
    def test_scaled_matches_a_recompile(self, strategy):
        # two_tube_0 anchors a tendon at the outer tube's tip, an interior
        # boundary, so its anchor load is scaled along with the segments'.
        asm, _ = preset("two_tube_0", allow_placeholders=True,
                        overrides=(f"strategy={strategy}",))
        opts = SolverOptions(steps_per_segment=20)
        scale = 0.37
        problem = build_problem(asm, opts)
        guess = rest_guess(problem) + np.outer([0.0, 1.0, -1.0], np.full(
            problem.guess_size, 1e-4))
        at_scale = replace(asm, tendons=[
            replace(t, tension=t.tension * scale) for t in asm.tendons])
        scaled = boundary_residual(guess, problem.scaled(scale), opts)
        compiled = boundary_residual(guess, build_problem(at_scale, opts),
                                     opts)
        assert not scaled[3].any()
        np.testing.assert_array_equal(scaled[0], compiled[0])
        assert not np.array_equal(scaled[0], boundary_residual(
            guess, problem, opts)[0])


class TestShoot:
    def test_single_tube_against_independent_integrator(self):
        length = 0.15
        routing = StraightRouting([3e-3, 0.0])
        asm = AssemblySpec(
            tubes=[_tube(length=length)],
            tendons=[TendonSpec(routing=routing, tension=1.0)])
        sol = shoot(asm, SolverOptions(steps_per_segment=200))
        assert sol.report.converged
        section_pair = section_stiffness(asm.tubes[0])
        oracle = single_tube_shoot(length, section_pair.kse_diag,
                                   section_pair.kbt_diag,
                                   asm.tubes[0].rest_shape,
                                   tendons=[(routing, 1.0)])
        np.testing.assert_allclose(sol.tip_position, oracle.tip_position,
                                   atol=1e-6)

    def test_two_tube_solution_is_continuous(self):
        sol = shoot(_two_tube(tension=0.2), SolverOptions(steps_per_segment=60))
        assert sol.report.converged
        assert len(sol.segments) == 2
        first, second = sol.segments
        # position is continuous across the tube-end boundary
        np.testing.assert_allclose(first.p[-1], second.p[0], atol=1e-12)
        assert first.stations[-1] == pytest.approx(second.stations[0])
        # twist bookkeeping closes on itself
        assert twist_consistency(sol) < 1e-8
        # residual satisfied at the tolerances
        assert sol.report.scaled_residual < 1.0

    def test_recorded_tube_wrench_matches_each_station(self):
        # The recording pass maps a whole segment trail in one call; every
        # station must read as the constitutive law gives it on its own.
        assembly, options = preset("three_tube_a", allow_placeholders=True)
        options.steps_per_segment = 10
        sol = shoot(assembly, options)
        for seg in sol.segments:
            assert len(seg.stations) == 11
            for j, s in enumerate(seg.stations):
                theta = np.concatenate([[0.0], seg.theta[j]])
                beta = np.concatenate([[1.0], seg.beta[j]])
                u_d3 = np.concatenate([[seg.u1[j, 2]], seg.u_d3[j]])
                for i, g in enumerate(seg.tubes):
                    tube = assembly.tubes[g]
                    local = s + assembly.base_offsets[g]
                    pair = section_stiffness(tube)
                    ustar, _ = tube.rest_shape.curvature(local)
                    vstar, _ = tube.rest_shape.stretch(local)
                    c, sn = math.cos(theta[i]), math.sin(theta[i])
                    rot = np.array([[c, -sn, 0.0], [sn, c, 0.0],
                                    [0.0, 0.0, 1.0]])
                    u = rot.T @ seg.u1[j]
                    u[2] = u_d3[i]
                    v = beta[i] * (rot.T @ seg.v1[j])
                    # Each figure to a few ulps of the strains behind it.
                    scale = 1.0 + np.max(np.abs(u))
                    for got, want, size in (
                            (seg.tube_u[j, i], u, scale),
                            (seg.tube_v[j, i], v, 1.0),
                            (seg.tube_n[j, i], pair.kse_diag * (v - vstar),
                             np.max(pair.kse_diag)),
                            (seg.tube_m[j, i], pair.kbt_diag * (u - ustar),
                             np.max(pair.kbt_diag) * scale)):
                        np.testing.assert_allclose(got, want, rtol=0,
                                                   atol=1e-15 * size)

    def test_rest_assembly_tip(self):
        asm = AssemblySpec(tubes=[_tube(length=0.10, od=1.2e-3, idi=1.0e-3),
                                  _tube(length=0.16, od=0.9e-3, idi=0.7e-3)])
        sol = shoot(asm, SolverOptions(steps_per_segment=40))
        np.testing.assert_allclose(sol.tip_position, [0.0, 0.0, 0.16],
                                   atol=1e-10)
        np.testing.assert_allclose(sol.tip_frame, np.eye(3), atol=1e-10)
        assert sol.total_length == pytest.approx(0.16)
        assert sol.report.iterations == 0

    def test_warm_start_skips_the_ramp(self):
        # The ladder is [1, 3, 15, 60]. The coarsest rung takes the given
        # guess in a single full-tension step without an iteration, so it
        # hands the guess straight to the 15-step rung below the requested
        # grid; each of the three takes it unchanged.
        opts = SolverOptions(steps_per_segment=60)
        first = shoot(_two_tube(tension=1.0), opts)
        again = shoot(_two_tube(tension=1.0), opts, initial_guess=first.guess)
        assert again.report.discretization_error is not None
        assert again.report.continuation_steps == 3
        assert again.report.iterations == 0
        np.testing.assert_allclose(again.tip_position, first.tip_position,
                                   atol=1e-12)

    def test_routing_stations_are_tube_local(self):
        # A tendon's routing is a function of its own tube's arc length: a
        # tube of length L retracted by d carries its helix along, so it
        # bends like an unretracted tube of length L - d whose helix starts
        # d further on.
        length, d, period, phase = 0.2, 0.03, 0.25, 0.4
        # Tolerances well below the defaults, so that the two Newton solves
        # agree to round-off and not just to where each one stopped.
        opts = SolverOptions(steps_per_segment=40, force_tol=1e-11,
                             moment_tol=1e-13)

        def tip(tube_length, offset, helix_phase):
            asm = AssemblySpec(
                tubes=[_tube(length=tube_length)], base_offsets=[offset],
                tendons=[TendonSpec(routing=HelicalRouting(
                    radius=3e-3, period=period, phase=helix_phase),
                    tension=1.0)])
            return shoot(asm, opts).tip_position

        retracted = tip(length, d, phase)
        shifted = tip(length - d, 0.0, phase + 2.0 * math.pi * d / period)
        np.testing.assert_allclose(retracted, shifted, rtol=0, atol=1e-12)
        # the shift matters: the unshifted helix ends elsewhere
        assert np.max(np.abs(tip(length - d, 0.0, phase) - retracted)) > 1e-4

    def test_base_twist_rotates_deflection_plane(self):
        def tip(twist):
            asm = AssemblySpec(
                tubes=[_tube(length=0.10, od=1.2e-3, idi=1.0e-3),
                       _tube(length=0.16, od=0.9e-3, idi=0.7e-3,
                             rest_shape=ArcRest(kappa=5.0))],
                base_twists=[0.0, twist])
            return shoot(asm, SolverOptions(steps_per_segment=60)).tip_position

        # the pre-curved inner tube pulls the tip off-axis (curvature about
        # the first axis deflects within the y-z plane); twisting its base by
        # a right angle moves the deflection into the other plane
        t0 = tip(0.0)
        t90 = tip(math.pi / 2.0)
        assert abs(t0[1]) > 1e-4 and abs(t0[0]) < 1e-9
        assert abs(t90[0]) > 1e-4
        assert abs(t90[1]) < abs(t0[1])


class TestNewtonBatches:
    def test_one_evaluation_per_iteration(self, monkeypatch):
        # On the coarsest rung, every continuation step starts from one
        # stencil batch, every full step carries the next stencil, and the
        # recorded shape comes from the accepted row: no record pass. Each
        # rung above polishes the one below: it integrates that solution
        # alone and then chord steps with the Jacobian handed up, a single
        # row each. Nothing else is integrated: the ladder is read off the
        # rest curvatures.
        calls = _count_rows(monkeypatch)
        asm, opts = preset("ctr_theta_90")
        opts.steps_per_segment = 50
        report = shoot(asm, opts).report
        size = 8
        ladder = shooting._LINE_SEARCH_HALVINGS + 1
        assert [c for c in calls if c[1] == 1] == \
            [(3, 1)] * 4 + [(12, 1)] * 3 + [(50, 1)] * 2
        assert len(calls) == report.iterations + report.continuation_steps
        # coarsest rung: the ramp's one step and four Newton iterations
        assert Counter(c for c in calls if c[1] > 1) == \
            {(1, size + 1): 1, (1, ladder + size): 4}
        # one polish per rung, each after all batches of the rung below
        assert [c[0] for c in calls] == [1] * 5 + [3] * 4 + [12] * 3 + [50] * 2

    def test_polish_without_iterations_is_one_row(self, monkeypatch):
        # two_tube_0's coarse solution already meets the tolerances at 50
        # steps: the requested grid integrates it once, alone, and no
        # stencil there.
        calls = _count_rows(monkeypatch)
        asm, opts = preset("two_tube_0", allow_placeholders=True)
        opts.steps_per_segment = 50
        shoot(asm, opts)
        assert [c for c in calls if c[0] == 50] == [(50, 1)]

    @staticmethod
    def _chord_after_failed_step(monkeypatch, steps):
        """Newton on ctr_theta_90 at ``steps`` from its 12-step solution,
        without a Jacobian and with the negated 12-step one, which steps
        away from the solution. Returns both outcomes and the rows of
        every shooting-map call of each."""
        asm, opts = preset("ctr_theta_90")
        coarse_opts = replace(opts, steps_per_segment=12)
        opts.steps_per_segment = steps
        guess = shoot(asm, coarse_opts).guess
        coarse = shooting._newton(build_problem(asm, coarse_opts),
                                  coarse_opts, guess)
        assert coarse.iterations == 0 and coarse.jacobian.shape == (8, 8)
        problem = build_problem(asm, opts)
        calls = _count_rows(monkeypatch)
        plain = shooting._newton(problem, opts, guess)
        plain_rows = [rows for _, rows in calls]
        calls.clear()
        out = shooting._newton(problem, opts, guess, jacobian=-coarse.jacobian)
        size = problem.guess_size
        assert plain.converged and plain.iterations >= 1
        assert plain_rows[0] == size + 1
        assert [rows for _, rows in calls] == [1, 1, size] + plain_rows[1:]
        assert out.converged
        assert out.iterations == plain.iterations + 1
        return plain, out, plain_rows

    def test_failed_chord_step_falls_back_to_the_stencil(self, monkeypatch):
        # A chord step that does not halve the scaled residual is dropped:
        # the iteration goes on from the same guess with the FD stencil
        # rows alone (its centre row is known), and ends exactly where
        # Newton without a Jacobian in hand ends. At 40 steps every pass is
        # serial, so both end on the same bits.
        plain, out, _ = self._chord_after_failed_step(monkeypatch, 40)
        np.testing.assert_array_equal(out.guess, plain.guess)
        np.testing.assert_array_equal(out.trail[-1], plain.trail[-1])

    def test_failed_chord_step_with_a_time_parallel_guess_row(
            self, monkeypatch):
        # At 50 steps the chord iteration's lone guess row is integrated
        # time-parallel and the stencil rows serially, so the two ends
        # agree at round-off, with the same batches and iterations.
        plain, out, plain_rows = self._chord_after_failed_step(monkeypatch, 50)
        assert plain_rows == [9, 19]
        assert plain.iterations == 1 and out.iterations == 2
        np.testing.assert_allclose(out.guess, plain.guess, rtol=0, atol=1e-13)
        np.testing.assert_allclose(out.trail[-1], plain.trail[-1], rtol=0,
                                   atol=1e-13)

    def test_warm_start_at_the_tolerance_stays_on_one_row(self, monkeypatch):
        # A guess solved at 200 steps is warm-started at 400: the coarse
        # grid moves it by its own discretization error, and the requested
        # grid brings it back with single-row chord steps, no stencil.
        asm, opts = preset("two_tube_helical", allow_placeholders=True)
        opts.steps_per_segment = 200
        first = shoot(asm, opts)
        calls = _count_rows(monkeypatch)
        fine = shoot(asm, replace(opts, steps_per_segment=400),
                     initial_guess=first.guess)
        assert fine.report.converged
        assert {rows for steps, rows in calls if steps == 400} == {1}
        np.testing.assert_allclose(fine.tip_position, first.tip_position,
                                   atol=1e-6)

    def test_stalled_warm_start_is_capped_and_counted(self, monkeypatch):
        # A start guess 100 rad/m off in u₁ gets _NEWTON_CAP Newton
        # iterations before the ramp from rest takes over. The report counts
        # every ladder batch run, the warm start's included, as an iteration
        # and every Newton solve as a step. The helix backbone's rest frame
        # admits no rung below 19 steps, so its ladder is that one grid and
        # no step is a chord step.
        asm, opts = preset("single_tube_helical_backbone",
                           allow_placeholders=True)
        opts.steps_per_segment = 19
        assert shooting._coarse_steps(build_problem(asm, opts), opts) == [19]
        guess = shoot(asm, opts).guess.copy()
        guess[0:3] += 100.0
        calls = _count_rows(monkeypatch)
        report = shoot(asm, opts, initial_guess=guess).report
        rows = [r for _, r in calls]
        size, ladder = guess.size, shooting._LINE_SEARCH_HALVINGS + 1
        assert report.converged and report.continuation_steps > 1
        assert rows.count(size + 1) == report.continuation_steps
        assert rows.count(ladder + size) == report.iterations
        ramp_start = rows.index(size + 1, 1)
        assert rows[:ramp_start].count(ladder + size) == shooting._NEWTON_CAP

    def test_one_segment_plan_per_solve(self, monkeypatch):
        # The assembly is compiled once per solve: the ramp's steps, the
        # rest passes and every rung scale that one problem's tensions.
        calls = []
        inner = shooting.segment_plan

        def counted(assembly):
            calls.append(assembly)
            return inner(assembly)

        monkeypatch.setattr(shooting, "segment_plan", counted)
        asm, opts = preset("two_tube_helical", allow_placeholders=True)
        opts.steps_per_segment = 50
        ramped = shoot(asm, opts)
        assert ramped.report.continuation_steps > 2
        assert ramped.report.discretization_error is not None
        assert len(calls) == 1
        calls.clear()
        warm = shoot(asm, opts, initial_guess=ramped.guess)
        assert warm.report.continuation_steps == 4    # rungs 1, 3, 12, 50
        assert len(calls) == 1

    def test_discretization_error_estimates_the_requested_grid(self):
        # The coarse-to-fine tip gap d over (N / N_c)⁴ − 1, with N_c beside
        # it in the record.
        asm, opts = preset("ctr_theta_90")
        opts.steps_per_segment = 50
        report = shoot(asm, opts).report
        assert 0.0 < report.discretization_error < 1e-7
        assert report.coarse_steps == 12
        record = report.as_dict()
        assert record["discretization_error"] == report.discretization_error
        assert record["coarse_steps"] == 12

    def test_discretization_error_matches_a_finer_solve(self):
        # Against the tip moved by a solve at 4N steps, scaled by 4⁴ / (4⁴ −
        # 1) to the requested grid's own error: within a factor of 2 on the
        # helix backbone, whose rungs [25, 50, 200] are the roughest of the
        # bundled presets; the estimate reads the 50-step rung.
        asm, opts = preset("single_tube_helical_backbone",
                           allow_placeholders=True)
        opts.steps_per_segment = 200
        solution = shoot(asm, opts)
        finer = shoot(asm, replace(opts, steps_per_segment=800),
                      initial_guess=solution.guess)
        actual = 256.0 / 255.0 * np.linalg.norm(solution.tip_position
                                                - finer.tip_position)
        assert solution.report.coarse_steps == 50
        assert actual / 2.0 < solution.report.discretization_error < 2.0 * actual

    @pytest.mark.parametrize("requested", [10, 19])
    def test_no_coarse_grid_below_twice_the_floor(self, monkeypatch,
                                                  requested):
        # The helix backbone's rest frame turns 19.7 rad over its one
        # segment, so no rung of fewer than 13 steps passes the quarter-turn
        # rule: a solve asking for fewer than 26 has no rung below, and
        # neither grid of a request at 10 or 19 (N / 4 and N / 2) admits
        # one. Converged (at 19) or not (at 10, where the rest guess drifts),
        # it runs on its one grid and reports no error estimate.
        calls = _count_rows(monkeypatch)
        asm, opts = preset("single_tube_helical_backbone",
                           allow_placeholders=True)
        opts.steps_per_segment = requested
        problem = build_problem(asm, opts)
        assert shooting._coarse_steps(problem, opts) == [requested]
        assert shooting._coarse_steps(
            problem, replace(opts, steps_per_segment=26)) == [13, 26]
        try:
            report = shoot(asm, opts).report
        except NoConvergence as err:
            report = err.report
        assert {steps for steps, _ in calls} == {opts.steps_per_segment}
        assert report.discretization_error is None
        assert report.coarse_steps is None
        assert report.as_dict()["discretization_error"] is None
        assert report.as_dict()["coarse_steps"] is None

    def test_coarse_grid_skips_steps_that_drift(self):
        # The helix backbone's rest frame turns 1.09 rad per step at 18
        # steps, but 2.0 at 10, where its rest guess drifts off the rotation
        # group. So the ×4 ladder from 150 stops at 37, half of it ends the
        # ladder at 18, and a solve at 20 steps gets no rung below.
        asm, opts = preset("single_tube_helical_backbone",
                           allow_placeholders=True)
        problem = build_problem(asm, opts)
        opts.steps_per_segment = 150
        assert shooting._coarse_steps(problem, opts) == [18, 37, 150]
        opts.steps_per_segment = 20
        assert shooting._coarse_steps(problem, opts) == [20]

    @pytest.mark.parametrize("name", preset_names())
    def test_coarse_grid_matches_rest_step_doubling(self, name):
        # The ladder rule on its own terms, recomputed from the scenario:
        # a segment turns by its length times the larger of its tubes'
        # largest rest curvature and its helical tendons' winding rate
        # 2π / period. Every rung below the requested count N is N // 4ᵏ
        # or, at the bottom only, half the rung above it; each step of a
        # rung turns by at most a quarter turn, and the next ×4 or halving
        # rung has no step or turns by more. The tension-free rest guess
        # integrates on every rung with no failed row.
        asm, opts = preset(name, allow_placeholders=True)
        problem = build_problem(asm, opts)
        rest = problem.scaled(0.0)
        turn = 0.0
        for seg in segment_plan(asm):
            rate = max(np.linalg.norm(asm.tubes[g].rest_shape.curvature(0.0)[0])
                       for g in seg.tubes)
            for j in seg.tendons:
                routing = asm.tendons[j].routing
                if isinstance(routing, HelicalRouting):
                    rate = max(rate, 2.0 * math.pi / routing.period)
            turn = max(turn, rate * (seg.end - seg.start))

        def admits(steps):
            return steps >= 1 and turn / steps <= math.pi / 2

        for requested in (10, 20, 50, 150, 200):
            opts.steps_per_segment = requested
            rungs = shooting._coarse_steps(problem, opts)
            assert rungs[-1] == requested
            for low, high in zip(rungs[1:-1], rungs[2:]):
                assert low == high // 4
            if len(rungs) > 1:
                assert rungs[0] in (rungs[1] // 4, rungs[1] // 2)
            assert all(admits(steps) for steps in rungs[:-1])
            assert not admits(rungs[0] // 2)
            for steps in rungs[:-1]:
                failed = boundary_residual(
                    rest_guess(rest), rest,
                    replace(opts, steps_per_segment=steps))[3]
                assert not failed

    def test_failed_coarse_grid_leaves_the_requested_grid_as_before(
            self, monkeypatch):
        # A rung that ends in NoConvergence (here: 10 steps, where the helix
        # drifts) hands the next rung the caller's start guess, so the
        # solution is the one without that rung, whose one stalled Newton
        # solve counts too: on [10, 40] the requested grid ramps as on [40]
        # alone, and on [10, 20, 40] the 20-step rung ramps as on [20, 40].
        asm, opts = preset("single_tube_helical_backbone",
                           allow_placeholders=True)
        opts.steps_per_segment = 40
        for rungs in ([40], [20, 40]):
            monkeypatch.setattr(shooting, "_coarse_steps",
                                lambda *args, rungs=rungs: rungs)
            alone = shoot(asm, opts)
            monkeypatch.setattr(shooting, "_coarse_steps",
                                lambda *args, rungs=rungs: [10] + rungs)
            after = shoot(asm, opts)
            np.testing.assert_array_equal(after.tip_position,
                                          alone.tip_position)
            assert after.report.iterations == alone.report.iterations
            assert after.report.continuation_steps == \
                alone.report.continuation_steps + 1
            assert after.report.coarse_steps == alone.report.coarse_steps
            assert after.report.discretization_error == \
                alone.report.discretization_error
        assert after.report.coarse_steps == 20

    def test_ladder_rungs_of_the_presets(self):
        # Eleven presets turn by less than a quarter turn per segment, so
        # their ladders reach a single step; the helix backbone's rest frame
        # and strategy_ab_demo's arc tube stop theirs higher up.
        common = {10: [1, 2, 10], 20: [1, 5, 20], 50: [1, 3, 12, 50],
                  150: [1, 2, 9, 37, 150], 200: [1, 3, 12, 50, 200]}
        special = {
            "single_tube_helical_backbone": {
                10: [10], 20: [20], 50: [25, 50], 150: [18, 37, 150],
                200: [25, 50, 200]},
            "strategy_ab_demo": {
                10: [5, 10], 20: [5, 20], 50: [3, 12, 50],
                150: [4, 9, 37, 150], 200: [3, 12, 50, 200]},
        }
        for name in preset_names():
            asm, opts = preset(name, allow_placeholders=True)
            problem = build_problem(asm, opts)
            got = {steps: shooting._coarse_steps(
                problem, replace(opts, steps_per_segment=steps))
                for steps in common}
            assert got == special.get(name, common), name

    def test_routing_turn_stops_the_ladder(self, monkeypatch):
        # A straight tube of 0.249 m whose helical tendon winds once per
        # 99.3 mm (TestRamp's fuzz draw): the path turns 63.3 rad/m, 9.2 rad
        # over the distal segment, so no rung of 5 steps or fewer passes: a
        # request at 5 steps runs on its one grid, where it converges, and
        # the ladder from 20 stops at 10. The same tube with a straight
        # tendon, or with a period ten times as long, gets a 1-step rung.
        def assembly(routing):
            return AssemblySpec(
                tubes=[_tube(length=0.104, od=1.02e-3, idi=0.565e-3,
                             e=198e9, g=20.5e9),
                       _tube(length=0.249, od=0.454e-3, idi=0.355e-3,
                             e=114e9, g=58.5e9)],
                tendons=[TendonSpec(routing=routing, tension=0.1075,
                                    tube=1)])

        def rungs(routing, steps):
            opts = SolverOptions(steps_per_segment=steps)
            return shooting._coarse_steps(
                build_problem(assembly(routing), opts), opts)

        helix = HelicalRouting(radius=0.519e-3, period=0.0993, phase=3.67)
        problem = build_problem(assembly(helix), SolverOptions())
        assert shooting._turn(problem.contexts[1]) == pytest.approx(
            2.0 * math.pi / 0.0993 * 0.145)
        assert rungs(helix, 5) == [5]
        assert rungs(helix, 20) == [10, 20]
        assert rungs(helix, 50) == [6, 12, 50]
        slow = HelicalRouting(radius=0.519e-3, period=0.993, phase=3.67)
        assert rungs(slow, 5) == rungs(StraightRouting([0.5e-3, 0.0]), 5) \
            == [1, 5]
        # A piecewise routing whose angle climbs 6 rad between its knots at
        # 0.12 and 0.18 m turns fastest in between, where its spline's rate
        # peaks: 16.4 rad over the distal segment, against 10.8 read at the
        # segment's ends and middle. So no rung of 10 steps or fewer passes.
        radius = 0.519e-3
        piecewise = PiecewiseAngularRouting([
            (0.0, 0.0, radius), (0.12, 0.0, radius), (0.18, 6.0, radius),
            (0.249, 6.0, radius)])
        distal = build_problem(assembly(piecewise), SolverOptions()).contexts[1]
        rates = [np.linalg.norm(np.cross(*piecewise.eval(s)[:2])) / radius**2
                 for s in np.linspace(distal.start, distal.end, 2001)]
        assert shooting._turn(distal) == pytest.approx(
            max(rates) * (distal.end - distal.start), rel=1e-6)
        assert shooting._turn(distal) > 16.4
        assert rungs(piecewise, 20) == [20]
        assert rungs(piecewise, 50) == [12, 50]
        calls = _count_rows(monkeypatch)
        assert shoot(assembly(helix), SolverOptions(steps_per_segment=5)) \
            .report.converged
        assert {steps for steps, _ in calls} == {5}

    @pytest.mark.parametrize("name, steps", [
        ("ctr_theta_90", 50), ("single_tube_helical_backbone", 150),
        ("two_tube_helical", 20), ("three_tube_c", 10)])
    def test_rungs_above_the_coarsest_polish_on_one_row(self, monkeypatch,
                                                         name, steps):
        # The cold solves of the benchmark: the ramp and every FD stencil
        # run on the coarsest rung, and each rung above opens with the
        # rung below's solution as a one-row batch and integrates nothing
        # wider.
        asm, opts = preset(name, allow_placeholders=True)
        opts.steps_per_segment = steps
        rungs = shooting._coarse_steps(build_problem(asm, opts), opts)
        calls = _count_rows(monkeypatch)
        assert shoot(asm, opts).report.converged
        assert len(rungs) > 1
        assert [grid for grid, _ in calls if grid != rungs[0]][0] == rungs[1]
        for grid in rungs[1:]:
            assert {rows for at, rows in calls if at == grid} == {1}
        assert min(rows for at, rows in calls if at == rungs[0]) > 1

    def test_condition_estimate_per_row(self):
        # Each batch row reads exactly as when it is run alone, so Newton
        # may take any row of a batch as that guess's evaluation.
        opts = SolverOptions(steps_per_segment=20)
        problem = build_problem(_two_tube(tension=1.0), opts)
        # Stretching the base moves the estimate; bending alone does not.
        rows = np.repeat(rest_guess(problem)[None, :], 3, axis=0)
        rows[:, 5] += [0.0, 0.1, -0.1]
        res, trail, cond, failed = boundary_residual(rows, problem, opts)
        assert cond.shape == (3,)
        assert len(set(cond.tolist())) == 3
        assert failed.shape == (3,) and not failed.any()
        for j, row in enumerate(rows):
            alone_res, alone_trail, alone_cond, _ = boundary_residual(
                row, problem, opts)
            assert cond[j] == alone_cond
            np.testing.assert_array_equal(res[j], alone_res)
            for rec, alone in zip(trail, alone_trail, strict=True):
                assert rec.shape[:2] == (21, 3)
                np.testing.assert_array_equal(rec[:, j], alone)

    def test_failed_row_leaves_its_batch_alone(self):
        # A bold curvature drives one row off the rotation group. That row
        # reads an infinite residual and its failure code; every other row
        # reads exactly as when it is run alone.
        opts = SolverOptions(steps_per_segment=20)
        problem = build_problem(_two_tube(tension=1.0), opts)
        rows = np.repeat(rest_guess(problem)[None, :], 4, axis=0)
        rows[1, 0] = 2000.0
        rows[2, 5] += 0.1
        rows[3, 1] = 5.0
        res, trail, cond, failed = boundary_residual(rows, problem, opts)
        assert "rotation group" in shooting.FAILURES[failed[1]]
        assert np.all(np.isinf(res[1])) and cond[1] == 0.0
        np.testing.assert_array_equal(failed[[0, 2, 3]], 0)
        for j in (0, 2, 3):
            alone_res, alone_trail, alone_cond, alone_failed = \
                boundary_residual(rows[j], problem, opts)
            assert alone_failed == 0
            assert cond[j] == alone_cond
            np.testing.assert_array_equal(res[j], alone_res)
            for rec, alone in zip(trail, alone_trail, strict=True):
                np.testing.assert_array_equal(rec[:, j], alone)
        alone_res, _, alone_cond, alone_failed = boundary_residual(
            rows[1], problem, opts)
        assert alone_failed == failed[1]
        assert np.all(np.isinf(alone_res)) and alone_cond == 0.0

    def test_one_batch_per_iteration_on_a_hard_draw(self, monkeypatch):
        # A thin inner tube runs 10 mm past its outer one with a tendon
        # 3 mm off its axis. At 10 steps per segment the ladder is [1, 2, 10],
        # and on its 1- and 2-step rungs some line-search candidates leave
        # the physical domain. Each Newton solve of their ramps, one per ramp
        # step, still starts with one stencil batch and spends one
        # ladder-plus-stencil batch per iteration; the other batches are
        # stencils after a shorter step. The only single-row evaluations are
        # each ramp's tension-free check of the rest guess, made once when
        # its first step stalls, and the requested grid's polish, which keeps
        # the 2-step rung's solution.
        asm = AssemblySpec(
            tubes=[_tube(length=0.12, od=1.0e-3, idi=0.45e-3, e=75e9, g=29e9),
                   _tube(length=0.13, od=0.30e-3, idi=0.18e-3, e=110e9,
                         g=42e9)],
            tendons=[TendonSpec(routing=StraightRouting([3e-3, 0.0]),
                                tension=2.0, tube=1)])
        opts = SolverOptions(steps_per_segment=10)
        size = build_problem(asm, opts).guess_size
        ladder = shooting._LINE_SEARCH_HALVINGS + 1
        steps, widths, tensions, failed_rows = [], [], [], []
        inner = shooting.boundary_residual

        def counted(guess, problem, options):
            out = inner(guess, problem, options)
            steps.append(options.steps_per_segment)
            widths.append(guess.shape[0] if guess.ndim == 2 else 1)
            tensions.append(problem.contexts[0].tensions[0])
            failed_rows.append(int(np.count_nonzero(out[3])))
            return out

        monkeypatch.setattr(shooting, "boundary_residual", counted)
        assert shooting._coarse_steps(build_problem(asm, opts), opts) == \
            [1, 2, 10]
        report = shoot(asm, opts).report
        assert report.converged and sum(failed_rows) > 0
        assert widths.count(size + 1) == report.continuation_steps - 1
        assert widths.count(ladder + size) == report.iterations
        assert set(widths) == {1, size, size + 1, ladder + size}
        assert [(n, t) for n, w, t in zip(steps, widths, tensions)
                if w == 1] == [(1, 0.0), (2, 0.0), (10, 2.0)]


class TestTimeParallel:
    """A lone row that the segment allows is integrated by Parareal; the
    reference is the same pass with every segment on integrate_segment."""

    @staticmethod
    def _passes(monkeypatch, guess, problem, opts):
        """(the pass as run, the serial pass, (batch rows, steps) of every
        integrate_segment call of the pass as run)."""
        calls = []
        inner = shooting.integrate_segment

        def logged(state, ctx, steps, failed=None):
            calls.append((math.prod(state.u1.shape[:-1]), steps))
            return inner(state, ctx, steps, failed)

        monkeypatch.setattr(shooting, "integrate_segment", logged)
        fast = boundary_residual(guess, problem, opts)
        monkeypatch.setattr(shooting, "integrate_segment", inner)
        monkeypatch.setattr(shooting, "_time_parallel", lambda *args: None)
        serial = boundary_residual(guess, problem, opts)
        return fast, serial, calls

    @pytest.mark.parametrize("name", ["two_tube_0", "three_tube_b",
                                      "tendon_tube"])
    def test_stitched_trail_matches_the_serial_pass(self, monkeypatch, name):
        # At 200 steps a segment splits into 10 slices of 20 steps: the F
        # passes run 10 rows, and the G steps one step each.
        if name == "tendon_tube":
            asm = AssemblySpec(
                tubes=[_tube(length=0.15)],
                tendons=[TendonSpec(routing=StraightRouting([3e-3, 0.0]),
                                    tension=1.0)])
        else:
            asm, _ = preset(name, allow_placeholders=True)
        opts = SolverOptions(steps_per_segment=200)
        # The guess of a two-grid solve at 20 steps, which the tolerances
        # were set on; the ladder's own guess moves three_tube_b's strains
        # by up to 4.5e-12 from the serial pass, with the jump test on the
        # strains alone as with the pose in it.
        with monkeypatch.context() as patch:
            patch.setattr(shooting, "_coarse_steps", lambda *args: [10, 20])
            guess = shoot(asm, replace(opts, steps_per_segment=20)).guess
        problem = build_problem(asm, opts)
        fast, serial, calls = self._passes(monkeypatch, guess[None, :],
                                           problem, opts)
        assert set(calls) <= {(1, 1), (10, 20)}
        assert calls.count((10, 20)) >= len(problem.contexts)
        assert not fast[3].any() and not serial[3].any()
        for got, want in zip(fast[1], serial[1], strict=True):
            assert got.shape == want.shape == (201, 1, want.shape[-1])
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
        tip_gap = np.linalg.norm(fast[1][-1][-1, 0, 0:3]
                                 - serial[1][-1][-1, 0, 0:3])
        assert tip_gap < 1e-12
        np.testing.assert_allclose(fast[2], serial[2], rtol=1e-12)

    def test_strains_converge_in_one_fine_pass(self, monkeypatch):
        # two_tube_0's one-row pass at its 50-step solution: the G sweep
        # already puts the slice starts' strains at round-off, so each
        # segment takes one F pass (with the pose in the jump test, two).
        asm, _ = preset("two_tube_0", allow_placeholders=True)
        opts = SolverOptions(steps_per_segment=50)
        guess = shoot(asm, opts).guess
        problem = build_problem(asm, opts)
        fast, serial, calls = self._passes(monkeypatch, guess[None, :],
                                           problem, opts)
        assert calls.count((5, 10)) == len(problem.contexts) == 2
        assert calls.count((1, 1)) == 4 * len(problem.contexts)
        for got, want in zip(fast[1], serial[1], strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_failed_row_reads_as_the_serial_pass(self, monkeypatch):
        # A far-off curvature drifts off the rotation group in the first
        # G step: the segment is integrated again serially from the same
        # start, so every output, the failure code too, is the serial one.
        asm, _ = preset("two_tube_0", allow_placeholders=True)
        opts = SolverOptions(steps_per_segment=200)
        problem = build_problem(asm, opts)
        guess = rest_guess(problem)
        guess[0] = 2.0e4
        fast, serial, calls = self._passes(monkeypatch, guess, problem, opts)
        assert (1, 1) in calls and (1, 200) in calls
        assert "rotation group" in shooting.FAILURES[fast[3]]
        assert fast[3] == serial[3]
        for got, want in zip(fast, serial, strict=True):
            if isinstance(got, list):
                for a, b in zip(got, want, strict=True):
                    np.testing.assert_array_equal(a, b)
            else:
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name, steps, rows", [
        ("single_tube_helical_backbone", 150, 1),  # a slice turns too far
        ("two_tube_helical", 200, 1),              # routing reads the station
        ("two_tube_0", 200, 2),                    # more than one row
        ("two_tube_0", 211, 1),                    # prime step count
    ])
    def test_ineligible_passes_stay_serial(self, monkeypatch, name, steps,
                                           rows):
        asm, _ = preset(name, allow_placeholders=True)
        opts = SolverOptions(steps_per_segment=steps)
        problem = build_problem(asm, opts)
        guess = rest_guess(problem) + np.linspace(0.0, 1e-3, rows)[:, None]
        fast, serial, calls = self._passes(monkeypatch, guess, problem, opts)
        assert set(calls) == {(rows, steps)}
        np.testing.assert_array_equal(fast[0], serial[0])
        for got, want in zip(fast[1], serial[1], strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(fast[2], serial[2])


class TestRamp:
    def test_requested_grid_ramps_when_no_rung_below_converges(
            self, monkeypatch):
        # A fuzz draw whose 0.22 mm middle tube carries 80 N: on its ladder
        # [2, 4, 19] the 2-step rung leaves the rotation group at every
        # start, and the 4-step ramp, capped after three drifting starts,
        # crawls out of attempts. The requested grid then ramps from rest
        # itself and converges, as it does without the rungs below it.
        rests = [ArcRest(kappa=18.98004286817969, plane_angle=0.0016),
                 ArcRest(kappa=5.960464477539063e-08,
                         plane_angle=3.2218374955717146),
                 StraightRest()]
        tubes = [_tube(length=length, od=od, idi=idi, e=e, g=g,
                       rest_shape=rest)
                 for (length, od, idi, e, g), rest in zip((
                     (0.25540907073941893, 0.5e-3, 0.000365652173727733,
                      213440524032.99292, 17066597649.309317),
                     (0.06325064183793568, 0.00021939130423663983,
                      0.00017764256390558525, 143638706549.96655,
                      57048208591.63069),
                     (0.09738936343306884, 0.00012790264601202138,
                      7.854084466414886e-05, 219999999999.0, 85000000000.0)),
                     rests)]
        asm = AssemblySpec(
            tubes=tubes, base_twists=[0.0, 1.3764174594594354,
                                      2.690669231613787],
            tendons=[
                TendonSpec(routing=StraightRouting([0.0005252049857978625,
                                                    -0.0009212531969022992]),
                           tension=6.981019638722449, tube=1),
                TendonSpec(routing=StraightRouting([-0.0007125007488593568,
                                                    0.0010883068548460178]),
                           tension=79.97247148016275, tube=1)])
        opts = SolverOptions(steps_per_segment=19)
        assert shooting._coarse_steps(build_problem(asm, opts), opts) == \
            [2, 4, 19]
        spent = []
        inner = shooting._solve_level

        def logged(problem, options, *args):
            solves, scale, failure = inner(problem, options, *args)
            spent.append((options.steps_per_segment, failure is None))
            return solves, scale, failure

        monkeypatch.setattr(shooting, "_solve_level", logged)
        solution = shoot(asm, opts)
        assert solution.report.converged
        assert spent == [(2, False), (4, False), (19, True)]
        assert solution.report.coarse_steps is None

    def test_first_step_is_sized_by_the_load_parameter(self):
        # No tendon, no load: the whole tension in one step. three_tube_c's
        # load parameter Σ T·ℓ² / Σ EI is 72.3, so a nineteenth of it.
        problem = build_problem(AssemblySpec(tubes=[_tube()]), SolverOptions())
        assert shooting._first_ramp_step(problem) == 1.0
        asm, opts = preset("three_tube_c", allow_placeholders=True)
        assert shooting._first_ramp_step(build_problem(asm, opts)) == \
            pytest.approx(1.0 / 19.0)
        # λ is read per segment. A thin inner tube 30 mm past a stiff outer
        # one, 1 N at 3 mm: at the base λ is 6.3, but the distal segment
        # alone carries T·ℓ² / EI ≈ 17.7, so a fifth of the tension.
        asm = AssemblySpec(
            tubes=[_tube(length=0.12, od=1.0e-3, idi=0.45e-3, e=75e9, g=29e9),
                   _tube(length=0.15, od=0.32e-3, idi=0.18e-3, e=110e9,
                         g=42e9)],
            tendons=[TendonSpec(routing=StraightRouting([3e-3, 0.0]),
                                tension=1.0, tube=1)])
        problem = build_problem(asm, SolverOptions())
        assert shooting._first_ramp_step(problem) == pytest.approx(0.2)

    def test_every_newton_solve_stays_within_the_cap(self, monkeypatch):
        # A fuzz draw at 5 steps per segment that takes 44 iterations in one
        # full-tension Newton solve: no Newton solve, the final ramp step
        # included, may run past the one cap.
        asm = AssemblySpec(
            tubes=[_tube(length=0.104, od=1.02e-3, idi=0.565e-3, e=198e9,
                         g=20.5e9),
                   _tube(length=0.249, od=0.454e-3, idi=0.355e-3, e=114e9,
                         g=58.5e9)],
            tendons=[TendonSpec(routing=HelicalRouting(
                radius=0.519e-3, period=0.0993, phase=3.67),
                tension=0.1075, tube=1)])
        spent = []
        inner = shooting._newton

        def counted(*args, **kwargs):
            out = inner(*args, **kwargs)
            spent.append((out.iterations, out.converged))
            return out

        monkeypatch.setattr(shooting, "_newton", counted)
        opts = SolverOptions(steps_per_segment=5)
        report = shoot(asm, opts).report
        assert report.converged
        assert len(spent) == report.continuation_steps
        assert max(n for n, _ in spent) <= shooting._NEWTON_CAP
        # With the whole tension as its first step, the ramp's first step is
        # its final one: it spends the cap and is retried at half its size.
        spent.clear()
        monkeypatch.setattr(shooting, "_first_ramp_step", lambda problem: 1.0)
        assert shoot(asm, opts).report.converged
        assert spent[0] == (shooting._NEWTON_CAP, False)
        assert max(n for n, _ in spent) <= shooting._NEWTON_CAP


    def test_start_guess_failure_caps_later_steps(self, monkeypatch):
        # 100 N on a bare tube at 8 steps: each rung of the ladder [1, 2, 8]
        # ramps from rest, and its steps past a tension scale of about
        # 0.045, 0.09 and 0.36 fail at their start guess (the frame drifts).
        # After such a failure no step of that ramp grows past that step's
        # half again, so a ramp never retries a size that already failed at
        # its start. Every rung fails, so the requested grid ramps as it
        # would alone.
        asm = AssemblySpec(
            tubes=[_tube(length=0.2)],
            tendons=[TendonSpec(routing=StraightRouting([3e-3, 0.0]),
                                tension=100.0)])
        spent = []
        inner = shooting._newton

        def counted(problem, options, *args, **kwargs):
            out = inner(problem, options, *args, **kwargs)
            spent.append((options.steps_per_segment,
                          problem.contexts[0].tensions[0] / 100.0,
                          out.failure, out.converged))
            return out

        monkeypatch.setattr(shooting, "_newton", counted)
        with pytest.raises(NoConvergence) as err:
            shoot(asm, SolverOptions(steps_per_segment=8))
        report = err.value.report
        assert report.continuation_steps == len(spent) == 79
        assert report.iterations == 11
        assert "rotation group" in report.message
        assert [steps for steps, *_ in spent] == [1] * 23 + [2] * 26 + [8] * 30
        done, cap, grid = 0.0, math.inf, None
        for steps, scale, failure, converged in spent:
            if steps != grid:
                done, cap, grid = 0.0, math.inf, steps
            assert scale - done <= cap * (1.0 + 1e-12)
            if converged:
                done = scale
            elif failure:
                cap = min(cap, 0.5 * (scale - done))
        assert cap < math.inf


class TestFailureReport:
    @pytest.mark.parametrize("settings", [
        {"steps_per_segment": 20.0}, {"steps_per_segment": -1},
        {"force_tol": math.nan}, {"moment_tol": math.inf},
        {"steps_per_segment": 0}, {"steps_per_segment": True},
        {"force_tol": True},
    ])
    def test_unusable_options_raise_before_integrating(self, monkeypatch,
                                                       settings):
        def never(*args, **kwargs):
            raise AssertionError("ran with unusable options")

        # build_problem, the one compile step of a solve, checks the
        # settings before it plans the segments.
        monkeypatch.setattr(shooting, "integrate_segment", never)
        monkeypatch.setattr(shooting, "segment_plan", never)
        for solve in (shoot, build_problem):
            with pytest.raises(ValidationError, match="solver: "):
                solve(AssemblySpec(tubes=[_tube()]), SolverOptions(**settings))

    @pytest.mark.parametrize("case", [
        {"tension": math.inf}, {"tension": math.nan}, {"e": math.nan},
        {"od": math.inf}, {"base_offset": math.nan},
        {"termination": math.nan}, {"offset": math.nan},
    ], ids=lambda case: "-".join(f"{k}={v}" for k, v in case.items()))
    def test_non_finite_input_raises_before_integrating(self, monkeypatch,
                                                        case):
        # A non-finite number is bad input: validate() (or the routing's
        # constructor) names it before any integration, so it neither
        # escapes as a numpy error nor ends as a NoConvergence.
        def never(*args, **kwargs):
            raise AssertionError("integrated non-finite input")

        monkeypatch.setattr(shooting, "integrate_segment", never)
        with pytest.raises(ValidationError, match="finite"):
            routing = StraightRouting([case.get("offset", 0.5e-3), 0.0])
            asm = AssemblySpec(
                tubes=[_tube(length=0.1, e=case.get("e", 60e9),
                             od=case.get("od", 1.0e-3))],
                tendons=[TendonSpec(routing=routing,
                                    tension=case.get("tension", 1.0),
                                    termination=case.get("termination"))],
                base_offsets=[case.get("base_offset", 0.0)])
            shoot(asm, SolverOptions(steps_per_segment=10))

    @pytest.mark.parametrize("guess", [
        np.zeros(3), [0.0] * 10, np.zeros((2, 8)), "abc",
        np.full(8, math.inf), np.full(8, math.nan),
    ], ids=["short", "long-list", "matrix", "text", "inf", "nan"])
    def test_unusable_start_guess_raises_before_integrating(
            self, monkeypatch, guess):
        # A caller's start guess is input like the options: a wrong shape
        # or a non-finite entry is named before any integration, neither
        # escaping as a numpy error nor integrating to a false answer or
        # falling back to the ramp unseen.
        def never(*args, **kwargs):
            raise AssertionError("integrated from an unusable start guess")

        asm, opts = preset("two_tube_0", allow_placeholders=True)
        monkeypatch.setattr(shooting, "integrate_segment", never)
        with pytest.raises(ValidationError,
                           match=r"8 finite numbers \(4 \+ 2n for n = 2 "):
            shoot(asm, replace(opts, steps_per_segment=20),
                  initial_guess=guess)

    def test_no_convergence_carries_a_report(self):
        asm = AssemblySpec(
            tubes=[_tube(length=0.2)],
            tendons=[TendonSpec(routing=StraightRouting([3e-3, 0.0]),
                                tension=100.0)])
        opts = SolverOptions(steps_per_segment=8)
        with pytest.raises(NoConvergence) as err:
            shoot(asm, opts)
        report = err.value.report
        assert isinstance(report, ConvergenceReport)
        assert report.converged is False
        assert report.iterations >= 1
        assert report.continuation_steps >= 1
        assert report.scaled_residual > 1.0
        assert report.message
        # The scaled figure and the residual come from the same Newton
        # solve, although most ramp steps here fail at their start guess.
        tol = np.where(np.array(build_problem(asm, opts).residual_classes)
                       == "f", opts.force_tol, opts.moment_tol)
        assert math.isfinite(report.scaled_residual)
        assert report.scaled_residual == \
            pytest.approx(np.max(np.abs(report.residual) / tol), rel=1e-12)
        d = report.as_dict()
        assert d["converged"] is False
        assert "residual_norm" in d
        assert d["scaled_residual"] is not None

    def test_every_report_has_the_same_keys(self):
        # A converged solve with a rung below and a failed one (the helix
        # backbone at 10 steps drifts off the rotation group) write the same
        # nine keys; the failed one's error estimate is unknown, so null.
        asm, opts = preset("ctr_theta_0", allow_placeholders=True)
        converged = shoot(asm, replace(opts, steps_per_segment=50)).report
        asm, opts = preset("single_tube_helical_backbone",
                           allow_placeholders=True)
        with pytest.raises(NoConvergence) as err:
            shoot(asm, replace(opts, steps_per_segment=10))
        failed = err.value.report.as_dict()
        assert sorted(converged.as_dict()) == sorted(failed) == [
            "coarse_steps", "condition_max", "continuation_steps",
            "converged", "discretization_error", "iterations", "message",
            "residual_norm", "scaled_residual"]
        assert converged.coarse_steps == 12
        assert failed["coarse_steps"] is None
        assert failed["discretization_error"] is None
