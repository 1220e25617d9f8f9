"""Regression pins: two presets and one hard fuzz draw must solve exactly
as the pinned build did, and a slow tube within its iteration budget.

The tip and the Newton iteration and continuation step counts were
recorded from a build whose acceptance battery passed. A solver change
that claims identical results has to reproduce them; one that moves them
on purpose re-pins them and says why. The scaled residual of a converged
solve is the round-off left after Newton's last step, so a one-ulp change
anywhere moves it by tens of percent while the tip holds: it is pinned as
converged (below one) and within a decade of the recorded value.
"""

from __future__ import annotations

import pytest

from nestrod import shooting
from nestrod.assembly import (AssemblySpec, HelicalRouting, StraightRouting,
                              TendonSpec, TubeSpec)
from nestrod.scenario import preset
from nestrod.shooting import SolverOptions, shoot

# (preset, steps per segment, tip in m, iterations, continuation steps,
#  scaled residual). Both climb a grid ladder, [1, 3, 12, 50] and [1, 5,
#  20]: the ramp runs on the 1-step rung and each rung above polishes the
#  one below, and the counts add up every rung. Their tips lie 6.0e-12 m
#  and 3.4e-11 m from those of the two-grid build before (12 and 10 steps,
#  then the requested count; 5 / 2 and 9 / 5 iterations / steps). Before
#  that, the two-grid build moved them 3.3e-11 m and 1.4e-11 m from the
#  single-grid build, and the load-sized ramp moved the helical pair's
#  counts from 17 / 5 to 9 / 5 with its tip held within 1e-12 m.
_PINS = [
    ("ctr_theta_90", 50,
     (0.02673659711956028, -0.026987057552174638, 0.14328992228173879),
     10, 4, 0.06801862892369392),
    ("two_tube_helical", 20,
     (0.05934948534955017, -0.0033969792286833874, 0.27082436704591206),
     14, 6, 0.11228358520742887),
]


def _assert_converged_near(scaled: float, pinned: float) -> None:
    assert scaled < 1.0
    assert pinned / 10.0 <= scaled <= pinned * 10.0


@pytest.mark.parametrize("name,steps,tip,iterations,ramp,scaled", _PINS,
                         ids=[pin[0] for pin in _PINS])
def test_tip_matches_pinned_build(name, steps, tip, iterations, ramp, scaled):
    assembly, options = preset(name, allow_placeholders=True)
    options.steps_per_segment = steps
    solution = shoot(assembly, options)
    assert solution.tip_position.tolist() == pytest.approx(tip, rel=0, abs=1e-12)
    assert solution.report.iterations == iterations
    assert solution.report.continuation_steps == ramp
    _assert_converged_near(solution.report.scaled_residual, scaled)


def test_fuzz_draw_matches_pinned_build():
    # A draw of the tests/test_fuzz.py generator at 5 steps per segment,
    # where its tendon's one helical turn over the tube admits no rung
    # below, so it runs on one grid as it always did, where bold
    # line-search candidates of the old uniform ramp drifted off
    # the rotation group. The load-sized ramp (T·L²/EI ≈ 21, a first step
    # of 1/6 that grows) holds its tip within 1e-13 m and cuts its counts
    # from 24 / 4 to 5 / 4.
    tube = TubeSpec(length=0.05, elastic_modulus=40e9, shear_modulus=15e9,
                    outer_diameter=0.5e-3, inner_diameter=0.2e-3)
    tendon = TendonSpec(routing=HelicalRouting(radius=0.5e-3, period=0.05),
                        tension=1.0)
    options = SolverOptions(steps_per_segment=5)
    solution = shoot(AssemblySpec(tubes=[tube], tendons=[tendon]), options)
    tip = (1.6962581560872787e-05, 0.001690194351583599, 0.04993617927703931)
    assert solution.tip_position.tolist() == pytest.approx(tip, rel=0, abs=1e-12)
    assert solution.report.iterations == 5
    assert solution.report.continuation_steps == 4
    _assert_converged_near(solution.report.scaled_residual,
                           9.279244039817058e-05)


def test_slow_tube_polishes_in_one_iteration(monkeypatch):
    # A slender tube under a high load parameter (T·L²/EI ≈ 22) takes a
    # few Newton iterations, all on the coarse grid: the requested grid
    # spends single rows only, the coarse solution and at most one chord
    # step, and integrates no FD stencil.
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
    assert solution.report.iterations <= 10
    fine = [rows for steps, rows in calls
            if steps == options.steps_per_segment]
    assert set(fine) == {1} and len(fine) <= 2
    assert solution.report.discretization_error < 1e-8
