"""End-to-end acceptance battery.

Each test below is one gate on the released behavior and prints exactly one
``PASS``/``FAIL`` line so the battery can be skimmed from the terminal.

Proves:

1. exactness — an unloaded straight stack stays straight to round-off and
   solves in under a second (TestExactness);
2. agreement with independent models — the one-tube cross-section system and
   converged shapes match a separately written single-tube implementation
   over random parameter draws, and planar tendon pulls land on the discrete
   energy-minimization equilibrium (TestSingleTubeAgreement);
3. tube-pair behavior — overlap curvature follows the stiffness-weighted
   closed form, opposed equal pre-curvatures cancel, and the base-twist
   sweep fans the tip monotonically while the 0/180 degree cases stay in
   plane (TestOverlapBehavior);
4. routing behavior — 0/90/180 degree guide placements bend the two-segment
   robot in one plane, in two orthogonal planes, and in opposing directions
   respectively, while a helical guide deflects the tip on all three axes
   and self-converges under step doubling (TestRoutingBehavior);
5. load-attachment strategies — assigning shared tendons to the outermost
   versus the terminating tube splits the tip by more than five percent of
   the robot length, yet both strategies agree exactly when only the
   outermost-terminating tendon is pulled (TestStrategies);
6. solution quality — every bundled preset converges with boundary residuals
   inside the force/moment budgets and twist-rate bookkeeping consistent
   with the integrated angles (TestConvergenceQuality);
7. health battery — the built-in validation run is green as shipped and
   turns red under a one-percent stiffness perturbation, demonstrating the
   comparisons actually bite (TestValidationBattery).

Absolute tip-error targets for specific physical prototypes are deliberately
absent: the cross-sections behind those figures are not documented anywhere
in this repository, so the battery pins qualitative shape families and
self-consistency instead of unreachable millimetre values.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from nestrod.assembly import (
    ArcRest,
    AssemblySpec,
    StiffnessPair,
    StraightRouting,
    TendonSpec,
    TubeSpec,
    section_stiffness,
)
from nestrod.oracles import (
    ctr_overlap_curvature,
    planar_energy_minimize,
    run_validate,
    single_tube_shoot,
    single_tube_system,
)
from nestrod.scenario import preset, preset_names
from nestrod.shooting import (
    SolverOptions,
    build_problem,
    shoot,
    twist_consistency,
)
from nestrod.statics import RodState, assemble_system

FORCE_TOL = 1.0e-8     # N, boundary force residual budget
MOMENT_TOL = 1.0e-10   # N*m, boundary moment residual budget
TWIST_TOL = 1.0e-8     # rad per 0.1 m of arc length

# Equal bend/twist stiffness used by the tube-pair closed-form checks.
_PAIR = StiffnessPair([5000.0, 5000.0, 14500.0], [0.0065, 0.0065, 0.005])

_CTR_KAPPA = 4.566210045662100  # shared rest curvature of the sweep presets


def _verdict(capfd, label: str, ok: bool) -> None:
    """Emit the one-line battery verdict past pytest's capture."""
    with capfd.disabled():
        print(f"{'PASS' if ok else 'FAIL'}  {label}", flush=True)


def _stiff_tube(length, od=1.0e-3, idi=0.6e-3, **kw):
    """Tube with the shared explicit stiffness pair (geometry only nests)."""
    return TubeSpec(length=length, elastic_modulus=1.0, shear_modulus=1.0,
                    outer_diameter=od, inner_diameter=idi,
                    stiffness=_PAIR, **kw)


@pytest.fixture(scope="module")
def preset_runs():
    """Solve every bundled preset once; several gates share the results."""
    runs = {}
    for name in preset_names():
        assembly, options = preset(name, allow_placeholders=True)
        runs[name] = shoot(assembly, options)
    return runs


class TestExactness:
    def test_rest_state_exact_and_fast(self, capfd):
        ok = False
        try:
            assembly = AssemblySpec(
                tubes=[_stiff_tube(0.20),
                       _stiff_tube(0.24, od=0.55e-3, idi=0.3e-3),
                       _stiff_tube(0.28, od=0.25e-3, idi=0.0)],
                tendons=[])
            start = time.perf_counter()
            sol = shoot(assembly, SolverOptions(steps_per_segment=64))
            elapsed = time.perf_counter() - start

            length = sol.segments[-1].end
            tip_err = np.linalg.norm(sol.tip_position - [0.0, 0.0, length])
            flat = True
            for seg in sol.segments:
                flat &= bool(np.all(np.abs(seg.u1) < 1e-12))
                flat &= bool(np.all(np.abs(seg.v1 - [0.0, 0.0, 1.0]) < 1e-12))
                flat &= bool(np.all(np.abs(seg.theta) < 1e-12))
                flat &= bool(np.all(np.abs(seg.u_d3) < 1e-12))
                flat &= bool(np.all(np.abs(seg.beta - 1.0) < 1e-12))
            ok = tip_err <= 1e-9 * length and flat and elapsed < 1.0
            assert ok, (f"tip error {tip_err:.2e} m, fields flat: {flat}, "
                        f"elapsed {elapsed:.2f} s")
        finally:
            _verdict(capfd, "rest state exact and solved in under a second", ok)


class TestSingleTubeAgreement:
    def test_single_tube_reduction_matches_reference(self, capfd):
        ok = False
        try:
            rng = np.random.default_rng(20260814)
            worst_entry = 0.0
            worst_tip = 0.0
            for _ in range(20):
                length = rng.uniform(0.08, 0.20)
                od = rng.uniform(0.8e-3, 1.6e-3)
                idi = od * rng.uniform(0.50, 0.85)
                e_mod = rng.uniform(40e9, 210e9)
                g_mod = e_mod / (2.0 * (1.0 + rng.uniform(0.30, 0.42)))
                radius = rng.uniform(1.5e-3, 3.2e-3)
                angle = rng.uniform(0.0, 2.0 * math.pi)
                offset = np.array([radius * math.cos(angle),
                                   radius * math.sin(angle)])
                tension = rng.uniform(0.3, 1.2)

                tube = TubeSpec(length=length, elastic_modulus=e_mod,
                                shear_modulus=g_mod, outer_diameter=od,
                                inner_diameter=idi)
                pair = section_stiffness(tube)
                # keep the accumulated bend shallow enough for a direct solve
                bend = tension * radius * length / pair.kbt_diag[0]
                if bend > 2.0:
                    tension *= 2.0 / bend
                routing = StraightRouting(offset)
                assembly = AssemblySpec(
                    tubes=[tube],
                    tendons=[TendonSpec(routing=routing, tension=tension)])
                options = SolverOptions(steps_per_segment=150)

                # assembled 6x6 system at a random smooth state
                problem = build_problem(assembly, options)
                ctx = problem.contexts[0]
                state = RodState(
                    p=np.zeros(3), R=np.eye(3),
                    u1=rng.normal(scale=4.0, size=3),
                    v1=np.array([0.0, 0.0, 1.0]) + rng.normal(scale=0.01, size=3),
                    theta=np.zeros(0), u_d3=np.zeros(0), beta=np.zeros(0),
                    s=rng.uniform(0.0, length))
                a_got, b_got, _ = assemble_system(state, ctx)
                zero3 = np.zeros(3)
                a_want, b_want = single_tube_system(
                    state.u1, state.v1, pair.kse_diag, pair.kbt_diag,
                    ustar=zero3, ustar_dot=zero3,
                    vstar=np.array([0.0, 0.0, 1.0]), vstar_dot=zero3,
                    tendons=[(np.append(offset, 0.0), zero3, zero3, tension)])
                scale_a = np.maximum(1.0, np.abs(a_want))
                scale_b = np.maximum(1.0, np.abs(b_want))
                worst_entry = max(worst_entry,
                                  float(np.max(np.abs(a_got - a_want) / scale_a)),
                                  float(np.max(np.abs(b_got - b_want) / scale_b)))

                # converged shape against the separately written model
                sol = shoot(assembly, options)
                ref = single_tube_shoot(length, pair.kse_diag, pair.kbt_diag,
                                        tube.rest_shape,
                                        tendons=[(routing, tension)])
                worst_tip = max(worst_tip, float(np.linalg.norm(
                    sol.tip_position - ref.tip_position)))

            ok = worst_entry <= 1e-10 and worst_tip <= 1e-6
            assert ok, (f"worst scaled entry delta {worst_entry:.2e}, "
                        f"worst tip delta {worst_tip:.2e} m")
        finally:
            _verdict(capfd, "single-tube reduction matches the independent "
                            "model over 20 draws", ok)

    def test_planar_pulls_match_energy_minimization(self, capfd):
        ok = False
        try:
            tube = TubeSpec(length=0.15, elastic_modulus=60e9,
                            shear_modulus=23e9, outer_diameter=1.2e-3,
                            inner_diameter=0.9e-3)
            pair = section_stiffness(tube)
            offset = 3e-3
            start = time.perf_counter()
            worst = 0.0
            for tension in (0.5, 1.0, 2.0):
                assembly = AssemblySpec(
                    tubes=[tube],
                    tendons=[TendonSpec(routing=StraightRouting([offset, 0.0]),
                                        tension=tension)])
                sol = shoot(assembly)
                chain = planar_energy_minimize(
                    tube.length, pair.kbt_diag[0], pair.kse_diag[2],
                    offset, tension)
                worst = max(worst, float(np.linalg.norm(
                    sol.tip_position[[0, 2]] - chain.tip)))
            elapsed = time.perf_counter() - start
            ok = worst <= 0.01 * tube.length and elapsed < 30.0
            assert ok, f"worst tip delta {worst:.2e} m, elapsed {elapsed:.1f} s"
        finally:
            _verdict(capfd, "planar tendon pulls land on the energy-"
                            "minimization equilibrium", ok)


class TestOverlapBehavior:
    def test_equal_stiffness_overlap_is_weighted_average(self, capfd):
        ok = False
        try:
            assembly = AssemblySpec(
                tubes=[_stiff_tube(0.15, rest_shape=ArcRest(kappa=4.0)),
                       _stiff_tube(0.15, od=0.55e-3, idi=0.3e-3,
                                   rest_shape=ArcRest(kappa=7.0))],
                tendons=[])
            sol = shoot(assembly)
            want = ctr_overlap_curvature(
                _PAIR.kbt_diag, _PAIR.kbt_diag,
                np.array([4.0, 0.0, 0.0]), np.array([7.0, 0.0, 0.0]), 0.0)
            got = sol.segments[0].u1[0, :2]
            blend_err = np.linalg.norm(got - want) / np.linalg.norm(want)
            ok = blend_err <= 5e-3
            assert ok, f"aligned overlap curvature off by {blend_err:.2e}"
        finally:
            _verdict(capfd, "aligned equal-stiffness overlap follows the "
                            "weighted closed form", ok)

    def test_opposed_pair_cancels_and_sweep_fans(self, capfd, preset_runs):
        ok = False
        try:
            # aligned pair: overlap curvature equals the shared value
            base0 = preset_runs["ctr_theta_0"].segments[0].u1[0, :2]
            aligned_err = abs(np.linalg.norm(base0) - _CTR_KAPPA) / _CTR_KAPPA

            # opposed pair: the overlap nearly straightens
            base180 = preset_runs["ctr_theta_180"].segments[0].u1[0, :2]
            cancel = np.linalg.norm(base180) / _CTR_KAPPA

            # base-twist sweep: tip walks monotonically around the axis and
            # the 0/180 degree cases stay in the bending plane
            tips = {a: preset_runs[f"ctr_theta_{a}"].tip_position
                    for a in (0, 45, 90, 135, 180)}
            azimuth = [math.atan2(tips[a][0], -tips[a][1])
                       for a in (0, 45, 90, 135)]
            monotone = bool(np.all(np.diff(azimuth) > 0.05))
            in_plane = (abs(tips[0][0]) < 1e-9 and abs(tips[180][0]) < 1e-9)
            shrink = (np.linalg.norm(tips[180][:2])
                      / np.linalg.norm(tips[0][:2]))

            ok = (aligned_err <= 5e-3 and cancel < 0.01 and monotone
                  and in_plane and shrink < 0.01)
            assert ok, (f"aligned err {aligned_err:.2e}, cancel {cancel:.4f}, "
                        f"azimuths {np.round(azimuth, 3)}, in-plane {in_plane}, "
                        f"tip shrink {shrink:.4f}")
        finally:
            _verdict(capfd, "tube-pair overlap cancels when opposed and the "
                            "twist sweep fans monotonically", ok)


class TestRoutingBehavior:
    def test_routing_angles_bend_as_advertised(self, capfd, preset_runs):
        ok = False
        try:
            # 0 degrees: one shared bending plane, nothing out of plane
            sol0 = preset_runs["two_tube_0"]
            tip0 = sol0.tip_position
            length = sol0.segments[-1].end
            in_plane = math.hypot(tip0[0], length - tip0[2])
            planar = abs(tip0[1]) < 0.02 * in_plane

            # 90 degrees: orthogonal components, each toward its guide
            sol90 = preset_runs["two_tube_90"]
            tip90 = sol90.tip_position
            seg0, seg1 = sol90.segments
            u_shared = seg0.u1.mean(axis=0)
            u_solo = seg1.u1.mean(axis=0)
            ortho = (tip90[0] > 1e-3 and tip90[1] > 1e-3
                     and u_shared[0] < -0.5 and u_shared[1] > 0.5
                     and abs(u_solo[0]) < 0.05 and u_solo[1] > 0.5)

            # 180 degrees: the two spans curve in opposite directions
            sol180 = preset_runs["two_tube_180"]
            s_shared = sol180.segments[0].u1[:, 1].mean()
            s_solo = sol180.segments[1].u1[:, 1].mean()
            opposing = (s_shared < -0.3 and s_solo > 0.5
                        and s_shared * s_solo < 0.0)

            ok = planar and ortho and opposing
            assert ok, (f"planar {planar} (|y|={abs(tip0[1]):.2e} vs "
                        f"{0.02 * in_plane:.2e}), ortho {ortho} "
                        f"(tip {np.round(tip90, 4)}), opposing {opposing} "
                        f"({s_shared:.3f} vs {s_solo:.3f})")
        finally:
            _verdict(capfd, "0/90/180 degree guides bend planar, orthogonal, "
                            "and opposing", ok)

    def test_helical_routing_deflects_on_all_axes(self, capfd, preset_runs):
        ok = False
        try:
            sol = preset_runs["two_tube_helical"]
            rest_tip = np.array([0.0, 0.0, sol.segments[-1].end])
            deflection = sol.tip_position - rest_tip
            three_axis = (abs(deflection[0]) > 1e-3
                          and abs(deflection[1]) > 2e-4
                          and abs(deflection[2]) > 1e-3)

            # step doubling from the converged guess barely moves the tip
            assembly, options = preset("two_tube_helical",
                                       allow_placeholders=True)
            fine = shoot(assembly,
                         replace(options,
                                 steps_per_segment=2 * options.steps_per_segment),
                         initial_guess=sol.guess)
            drift = float(np.linalg.norm(fine.tip_position - sol.tip_position))

            ok = (sol.report.converged and three_axis and fine.report.converged
                  and drift < 1e-6)
            assert ok, (f"deflection {np.round(deflection, 5)}, "
                        f"step-doubling drift {drift:.2e} m")
        finally:
            _verdict(capfd, "helical guide deflects on all three axes and "
                            "self-converges", ok)


class TestStrategies:
    def test_attachment_strategies_split_only_when_shared(self, capfd,
                                                          preset_runs):
        ok = False
        try:
            sol_a = preset_runs["strategy_ab_demo"]
            length = sol_a.segments[-1].end

            assembly_b, options = preset("strategy_ab_demo",
                                         overrides=("strategy=terminating",))
            sol_b = shoot(assembly_b, options)
            split = float(np.linalg.norm(sol_a.tip_position
                                         - sol_b.tip_position))

            # only the tendon anchored on the outermost tube: identical
            solo_tips = []
            for strategy in ("outermost", "terminating"):
                assembly, opts = preset(
                    "strategy_ab_demo",
                    overrides=(f"strategy={strategy}",))
                assembly.tendons = assembly.tendons[:1]
                solo_tips.append(shoot(assembly, opts).tip_position)
            agree = float(np.linalg.norm(solo_tips[0] - solo_tips[1]))

            ok = split > 0.05 * length and agree < 1e-9
            assert ok, (f"split {split * 1e3:.2f} mm "
                        f"({split / length * 100:.1f}% of {length} m), "
                        f"solo-tendon disagreement {agree:.2e} m")
        finally:
            _verdict(capfd, "attachment strategies split the tip by over 5% "
                            "yet agree for the solo tendon", ok)


class TestConvergenceQuality:
    def test_presets_meet_residual_and_twist_budgets(self, capfd, preset_runs):
        ok = False
        try:
            failures = []
            for name, sol in preset_runs.items():
                problem = build_problem(sol.assembly, sol.options)
                residual = np.asarray(sol.report.residual)
                classes = np.array(problem.residual_classes)
                force_max = float(np.max(np.abs(residual[classes == "f"])))
                moment_max = float(np.max(np.abs(residual[classes == "m"])))
                twist = twist_consistency(sol)
                if not (sol.report.converged and force_max < FORCE_TOL
                        and moment_max < MOMENT_TOL and twist < TWIST_TOL):
                    failures.append(
                        f"{name}: converged={sol.report.converged} "
                        f"force={force_max:.2e} moment={moment_max:.2e} "
                        f"twist={twist:.2e}")
            ok = not failures
            assert ok, "; ".join(failures)
        finally:
            _verdict(capfd, "every preset meets the residual and twist "
                            "budgets", ok)


class TestValidationBattery:
    def test_validation_green_and_mutation_sensitive(self, capfd):
        ok = False
        try:
            healthy = run_validate()
            described = all(
                check.name and check.tolerance > 0.0
                and np.isfinite(check.measured)
                for check in healthy.checks)
            mutated = run_validate(mutation=1.01)
            ok = healthy.passed and described and not mutated.passed
            assert ok, (f"healthy passed={healthy.passed}, "
                        f"fields described={described}, mutated "
                        f"passed={mutated.passed}")
        finally:
            _verdict(capfd, "validation battery green as shipped and red "
                            "under a 1% stiffness perturbation", ok)
