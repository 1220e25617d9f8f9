"""The benchmark's checks pass on right solutions and fail on wrong ones.

Each wrong input is the assembly the check guards, perturbed (a modulus
1 % off, a guide turned out of its plane, a load where none should be),
or a recorded solution corrupted after the solve. Run with

    python -m pytest bench
"""

from __future__ import annotations

import copy
import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nestrod import scenario, shooting  # noqa: E402
from nestrod.assembly import StiffnessPair, StraightRouting  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from layers import Target, Tracer  # noqa: E402
from workloads import SingleTubeDraws  # noqa: E402


def _solve(assembly, steps, **options):
    return shooting.shoot(assembly, shooting.SolverOptions(
        steps_per_segment=steps, **options))


@pytest.fixture(scope="module")
def ctr():
    sc = scenario.preset_scenario("ctr_theta_90")
    return sc.assembly, _solve(sc.assembly, 50)


@pytest.fixture(scope="module")
def draw(tmp_path_factory):
    draws = SingleTubeDraws(seed=7, out_dir=tmp_path_factory.mktemp("draws"))
    draws.load()
    spec = draws.specs[0]
    return spec, _solve(draws.loaded[0].assembly, 50)


@pytest.fixture(scope="module")
def track():
    """two_tube_0 unloaded and at a fifth of its nominal tensions."""
    sc = scenario.preset_scenario("two_tube_0", allow_placeholders=True)
    assembly = sc.assembly
    nominal = [t.tension for t in assembly.tendons]
    sols = []
    for scale in (0.0, 0.2):
        loaded = copy.deepcopy(assembly)
        for tendon, pull in zip(loaded.tendons, nominal):
            tendon.tension = scale * pull
        sols.append(_solve(loaded, 25))
    return assembly, sols


def test_budgets_fail_on_a_loosely_converged_solve(draw):
    spec, sol = draw
    assert checks.solve_budgets(sol) == []
    loose = _solve(spec, 50, force_tol=1e-3, moment_tol=1e-5)
    assert any("residual component" in m for m in checks.solve_budgets(loose))


def test_twist_budget_fails_on_drifted_twist(ctr):
    _, sol = ctr
    bad = copy.deepcopy(sol)
    bad.segments[0].theta[-1] += 1e-6
    assert any("twist" in m for m in checks.solve_budgets(bad))


def test_quadrature_fails_on_turned_frames(ctr):
    _, sol = ctr
    assert checks.tip_quadrature(sol) == []
    assert checks.frames_orthonormal(sol) == []
    bad = copy.deepcopy(sol)
    c, s = math.cos(1e-4), math.sin(1e-4)
    bad.segments[0].R = bad.segments[0].R @ np.array(
        [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    assert checks.frames_orthonormal(bad) == []
    assert checks.tip_quadrature(bad) != []


def test_frames_fail_when_not_orthonormal(ctr):
    _, sol = ctr
    bad = copy.deepcopy(sol)
    bad.segments[0].R[5] *= 1.0 + 1e-9
    assert checks.frames_orthonormal(bad) != []


def test_overlap_fails_on_one_percent_modulus(ctr):
    spec, sol = ctr
    assert checks.overlap_closed_form(sol, spec) == []
    wrong = copy.deepcopy(spec)
    stiff = wrong.tubes[1].stiffness
    wrong.tubes[1].stiffness = StiffnessPair(
        stiff.kse_diag * [1.0, 1.0, 1.01], stiff.kbt_diag * [1.01, 1.01, 1.0])
    assert checks.overlap_closed_form(_solve(wrong, 50), spec) != []


def test_oracle_fails_on_one_percent_modulus(draw):
    spec, sol = draw
    assert checks.oracle_tip(sol, spec) == []
    wrong = copy.deepcopy(spec)
    wrong.tubes[0].elastic_modulus *= 1.01
    assert checks.oracle_tip(_solve(wrong, 50), spec) != []


def test_rest_tip_fails_under_load(track):
    _, (unloaded, loaded) = track
    assert checks.rest_tip(unloaded) == []
    assert checks.rest_tip(loaded) != []


def test_plane_fails_on_a_guide_turned_off_the_plane(track):
    assembly, (_, loaded) = track
    assert checks.in_plane(loaded) == []
    turned = copy.deepcopy(assembly)
    for tendon in turned.tendons:
        tendon.tension *= 0.2
    radius = float(np.linalg.norm(turned.tendons[0].routing.offset))
    angle = math.radians(5.0)
    turned.tendons[0].routing = StraightRouting(
        [radius * math.cos(angle), radius * math.sin(angle)])
    assert checks.in_plane(_solve(turned, 25)) != []


def test_monotone_fails_when_tension_falls(track):
    _, sols = track
    assert checks.monotone_deflection(sols) == []
    assert checks.monotone_deflection(sols[::-1]) != []


def test_tracer_counts_restores_and_reports_absent(draw):
    spec, _ = draw
    original = shooting.shoot
    targets = [Target("shooting.shoot", "nestrod.shooting", "shoot"),
               Target("shooting.boundary_residual", "nestrod.shooting",
                      "boundary_residual"),
               Target("gone", "nestrod.shooting", "no_such_function"),
               Target("gone", "nestrod.assembly", "NoSuchClass.eval")]
    tracer = Tracer(targets)
    assert tracer.absent == ["nestrod.shooting:no_such_function",
                             "nestrod.assembly:NoSuchClass.eval"]
    with tracer.installed():
        assert shooting.shoot is not original
        shooting.shoot(spec, shooting.SolverOptions(steps_per_segment=10))
    assert shooting.shoot is original
    outer = tracer.stats["shooting.shoot"]
    inner = tracer.stats["shooting.boundary_residual"]
    assert outer.calls == 1 and inner.calls > 1
    assert outer.self_s == pytest.approx(outer.s - inner.s)


def _spin(cpu_seconds):
    start = time.process_time()
    while time.process_time() - start < cpu_seconds:
        pass


def test_meter_samples_inside_and_takes_the_passes_out():
    meter = reference.Meter()
    with meter.measure():
        _spin(0.6)
    # one pass before, about one each INTERVAL_S inside, one after
    assert len(meter.passes) >= 4
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.5 < meter.seconds < 0.6 + 0.5 * reference.INTERVAL_S
    assert reference.scaled(1.0, [reference.REFERENCE_S] * 3) == 1.0
