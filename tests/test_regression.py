"""Regression pins: two presets must solve exactly as the pinned build did.

The tip, the Newton iteration and continuation step counts, and the scaled
residual were recorded from a build whose acceptance battery passed. A
solver change that claims identical results has to reproduce them; one
that moves them on purpose re-pins them and says why.
"""

from __future__ import annotations

import pytest

from nestrod.scenario import preset
from nestrod.shooting import shoot

# (preset, steps per segment, tip in m, iterations, continuation steps,
#  scaled residual)
_PINS = [
    ("ctr_theta_90", 50,
     (0.026736597095954395, -0.026987057567171478, 0.1432899222837296),
     4, 1, 0.34938158269270936),
    ("two_tube_helical", 20,
     (0.059349485347196765, -0.003396979258294366, 0.27082436704708784),
     16, 4, 0.017256622464330764),
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
