"""Shooting solver tests: segment integration accuracy, rest equilibria,
boundary bookkeeping, warm starts, and the failure report."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm

from nestrod.assembly import (
    ArcRest,
    AssemblySpec,
    StraightRouting,
    TendonSpec,
    TubeSpec,
)
from nestrod import shooting
from nestrod.errors import IllConditioned, NoConvergence
from nestrod.oracles import single_tube_shoot
from nestrod.scenario import preset
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
from nestrod.so3 import hat
from nestrod.statics import RodState


def _tube(length=0.2, od=1.0e-3, idi=0.8e-3, e=60e9, g=23e9, **kw):
    return TubeSpec(length=length, elastic_modulus=e, shear_modulus=g,
                    outer_diameter=od, inner_diameter=idi, **kw)


def _two_tube(tension=0.2):
    return AssemblySpec(
        tubes=[_tube(length=0.10, od=1.2e-3, idi=1.0e-3),
               _tube(length=0.16, od=0.9e-3, idi=0.7e-3)],
        tendons=[TendonSpec(routing=StraightRouting([3e-3, 0.0]),
                            tension=tension, tube=1)])


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
        end, trail, cond = integrate_segment(state, ctx, 200)
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

    def test_step_doubling_converges(self):
        asm = _two_tube(tension=0.0)
        asm.tendons = []
        problem = build_problem(asm, SolverOptions())
        state = RodState(p=np.zeros(3), R=np.eye(3), u1=np.zeros(3),
                         v1=np.array([0.0, 0.0, 1.0]), theta=np.zeros(1),
                         u_d3=np.zeros(1), beta=np.ones(1), s=0.0)
        coarse, _, _ = integrate_segment(state, problem.contexts[0], 25)
        fine, _, _ = integrate_segment(state, problem.contexts[0], 50)
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
        res, _, _ = boundary_residual(rest_guess(problem), problem,
                                      SolverOptions())
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


class TestShoot:
    def test_single_tube_against_independent_integrator(self):
        length = 0.15
        routing = StraightRouting([3e-3, 0.0])
        asm = AssemblySpec(
            tubes=[_tube(length=length)],
            tendons=[TendonSpec(routing=routing, tension=1.0)])
        sol = shoot(asm, SolverOptions(steps_per_segment=200))
        assert sol.report.converged
        from nestrod.assembly import section_stiffness
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
        opts = SolverOptions(steps_per_segment=60)
        first = shoot(_two_tube(tension=1.0), opts)
        again = shoot(_two_tube(tension=1.0), opts, initial_guess=first.guess)
        assert again.report.continuation_steps == 1
        assert again.report.iterations == 0
        np.testing.assert_allclose(again.tip_position, first.tip_position,
                                   atol=1e-12)

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
        # The solve starts from one stencil batch, every full step carries
        # the next stencil, and the recorded shape comes from the accepted
        # row: no record pass.
        calls = []
        inner = shooting.boundary_residual

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return inner(*args, **kwargs)

        monkeypatch.setattr(shooting, "boundary_residual", counted)
        asm, opts = preset("ctr_theta_90")
        opts.steps_per_segment = 50
        report = shoot(asm, opts).report
        assert len(calls) == report.iterations + report.continuation_steps
        assert len(calls) == 5

    def test_condition_estimate_per_row(self):
        # Each batch row reads exactly as when it is run alone, so Newton
        # may take any row of a batch as that guess's evaluation.
        opts = SolverOptions(steps_per_segment=20)
        problem = build_problem(_two_tube(tension=1.0), opts)
        # Stretching the base moves the estimate; bending alone does not.
        rows = np.repeat(rest_guess(problem)[None, :], 3, axis=0)
        rows[:, 5] += [0.0, 0.1, -0.1]
        res, trail, cond = boundary_residual(rows, problem, opts)
        assert cond.shape == (3,)
        assert len(set(cond.tolist())) == 3
        for j, row in enumerate(rows):
            alone_res, alone_trail, alone_cond = boundary_residual(
                row, problem, opts)
            assert cond[j] == alone_cond
            np.testing.assert_array_equal(res[j], alone_res)
            for rec, alone in zip(trail, alone_trail, strict=True):
                assert rec.shape[:2] == (21, 3)
                np.testing.assert_array_equal(rec[:, j], alone)

    def test_fused_batch_failure_falls_back(self, monkeypatch):
        # A failure anywhere in a fused batch (ladder plus stencil) must not
        # cost a step: the plain ladder batch runs instead, not the serial
        # one-candidate-at-a-time ladder.
        opts = SolverOptions(steps_per_segment=30)
        plain = shoot(_two_tube(tension=1.0), opts)
        inner = shooting.boundary_residual
        ladder = shooting._LINE_SEARCH_HALVINGS + 1
        refused, run = [], []

        def refuse_wide(guess, *args, **kwargs):
            rows = guess.shape[0] if guess.ndim == 2 else 1
            if rows > ladder:
                refused.append(rows)
                raise IllConditioned("refused wide batch")
            run.append(rows)
            return inner(guess, *args, **kwargs)

        monkeypatch.setattr(shooting, "boundary_residual", refuse_wide)
        patched = shoot(_two_tube(tension=1.0), opts)
        assert refused and ladder in run and 1 not in run
        np.testing.assert_array_equal(patched.tip_position, plain.tip_position)
        assert patched.report.iterations == plain.report.iterations
        assert patched.report.continuation_steps == \
            plain.report.continuation_steps


class TestFailureReport:
    def test_no_convergence_carries_a_report(self):
        asm = AssemblySpec(
            tubes=[_tube(length=0.2)],
            tendons=[TendonSpec(routing=StraightRouting([3e-3, 0.0]),
                                tension=3.0)])
        opts = SolverOptions(steps_per_segment=8, max_iterations=1)
        with pytest.raises(NoConvergence) as err:
            shoot(asm, opts)
        report = err.value.report
        assert isinstance(report, ConvergenceReport)
        assert report.converged is False
        assert report.iterations >= 1
        assert report.continuation_steps >= 1
        assert report.scaled_residual > 1.0
        assert report.message
        d = report.as_dict()
        assert d["converged"] is False
        assert "residual_norm" in d
