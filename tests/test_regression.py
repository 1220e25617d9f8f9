"""Regression pins: two presets and one hard fuzz draw must solve exactly
as the pinned build did, and a slow tube within its iteration budget.

The tip, the Newton iteration and continuation step counts, and the scaled
residual were recorded from a build whose acceptance battery passed. A
solver change that claims identical results has to reproduce them; one
that moves them on purpose re-pins them and says why.
"""

from __future__ import annotations

import pytest

from nestrod import shooting
from nestrod.assembly import (AssemblySpec, HelicalRouting, StraightRouting,
                              TendonSpec, TubeSpec)
from nestrod.scenario import preset
from nestrod.shooting import SolverOptions, shoot

# (preset, steps per segment, tip in m, iterations, continuation steps,
#  scaled residual). Both run a coarse grid (12 and 10 steps per segment)
#  before the requested one; the counts add up both grids. Their tips lie
#  3.3e-11 m and 1.4e-11 m from those of the single-grid build before.
#  The scaled residuals are the round-off left at convergence, so they were
#  re-pinned when the boundary transfer began to read the assembly's
#  per-tube strains (matmul instead of einsum, one ulp apart; from 7.98e-7
#  and 8.20e-3 of tolerance), and again when the polish's last step became
#  a chord step with the coarse grid's Jacobian (from 4.51e-7 and 8.50e-3);
#  tips and counts held both times.
_PINS = [
    ("ctr_theta_90", 50,
     (0.026736597121270744, -0.026987057546531214, 0.14328992228271406),
     5, 2, 3.0878077872387166e-06),
    ("two_tube_helical", 20,
     (0.059349485360322536, -0.003396979260875325, 0.27082436704353596),
     17, 5, 0.0062088722136854095),
]


@pytest.mark.parametrize("name,steps,tip,iterations,ramp,scaled", _PINS,
                         ids=[pin[0] for pin in _PINS])
def test_tip_matches_pinned_build(name, steps, tip, iterations, ramp, scaled):
    assembly, options = preset(name, allow_placeholders=True)
    options.steps_per_segment = steps
    solution = shoot(assembly, options)
    assert solution.tip_position.tolist() == pytest.approx(tip, rel=0, abs=1e-12)
    assert solution.report.iterations == iterations
    assert solution.report.continuation_steps == ramp
    assert solution.report.scaled_residual == pytest.approx(scaled, rel=1e-9)


def test_fuzz_draw_matches_pinned_build():
    # A draw of the tests/test_fuzz.py generator at 5 steps per segment,
    # below the coarse-grid floor, so it runs on one grid as it always did,
    # where bold line-search candidates drift off the rotation group: many
    # Newton batches hold rows that fail while the others go on.
    tube = TubeSpec(length=0.05, elastic_modulus=40e9, shear_modulus=15e9,
                    outer_diameter=0.5e-3, inner_diameter=0.2e-3)
    tendon = TendonSpec(routing=HelicalRouting(radius=0.5e-3, period=0.05),
                        tension=1.0)
    options = SolverOptions(steps_per_segment=5, max_iterations=15)
    solution = shoot(AssemblySpec(tubes=[tube], tendons=[tendon]), options)
    tip = (1.6962581560872787e-05, 0.001690194351583599, 0.04993617927703931)
    assert solution.tip_position.tolist() == pytest.approx(tip, rel=0, abs=1e-12)
    assert solution.report.iterations == 24
    assert solution.report.continuation_steps == 4
    assert solution.report.scaled_residual == pytest.approx(
        9.279244039817058e-05, rel=1e-9)


def test_slow_tube_polishes_in_one_iteration(monkeypatch):
    # A slender tube under a high load parameter (T·L²/EI ≈ 22) crawls
    # through 26 Newton iterations. They belong on the coarse grid: the
    # requested grid spends single rows only, the coarse solution and at
    # most one chord step, and integrates no FD stencil.
    tube = TubeSpec(length=0.188, elastic_modulus=63.34e9,
                    shear_modulus=22.99e9, outer_diameter=0.826e-3,
                    inner_diameter=0.4329e-3)
    tendon = TendonSpec(routing=StraightRouting([1.251e-3, 2.22e-3]),
                        tension=0.8278)
    calls = []
    inner = shooting.boundary_residual

    def counted(guess, problem, options):
        rows = guess.shape[0] if guess.ndim == 2 else 1
        calls.append((options.steps_per_segment, rows))
        return inner(guess, problem, options)

    monkeypatch.setattr(shooting, "boundary_residual", counted)
    options = SolverOptions()
    solution = shoot(AssemblySpec(tubes=[tube], tendons=[tendon]), options)
    assert solution.report.converged
    fine = [rows for steps, rows in calls
            if steps == options.steps_per_segment]
    assert set(fine) == {1} and len(fine) <= 2
    assert solution.report.discretization_error < 1e-8
