"""Seeded fuzzing of the solver's failure handling.

Random one- and two-tube assemblies with straight and helical tendons are
solved at coarse step counts, where bold Newton candidates easily leave the
physical domain (frame drift, collapsed tendon tangents, singular rate
systems). Whatever happens inside, ``shoot()`` must either return a
``Solution`` or raise ``NoConvergence`` carrying a report: no other
exception may escape. A failed batch row is held at a finite state, so no
numpy overflow or invalid-value warning may be emitted either. The draws
are derandomized, so every run sees the same cases.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nestrod.assembly import (AssemblySpec, HelicalRouting, StraightRouting,
                              TendonSpec, TubeSpec)
from nestrod.errors import NoConvergence
from nestrod.shooting import ConvergenceReport, Solution, SolverOptions, shoot


@st.composite
def _cases(draw):
    n_tubes = draw(st.integers(1, 2))
    tubes = []
    outer = draw(st.floats(0.5e-3, 2.0e-3))
    for _ in range(n_tubes):
        inner = outer * draw(st.floats(0.4, 0.85))
        tubes.append(TubeSpec(
            length=draw(st.floats(0.05, 0.3)),
            elastic_modulus=draw(st.floats(40e9, 220e9)),
            shear_modulus=draw(st.floats(15e9, 85e9)),
            outer_diameter=outer, inner_diameter=inner))
        outer = inner * draw(st.floats(0.6, 0.95))   # next tube fits inside
    tendons = []
    for _ in range(draw(st.integers(1, 2))):
        radius = draw(st.floats(0.5e-3, 5e-3))
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        if draw(st.booleans()):
            routing = StraightRouting([radius * math.cos(angle),
                                       radius * math.sin(angle)])
        else:
            routing = HelicalRouting(radius=radius,
                                     period=draw(st.floats(0.05, 1.0)),
                                     phase=angle)
        tendons.append(TendonSpec(
            routing=routing, tension=10.0 ** draw(st.floats(-1.0, 2.2)),
            tube=draw(st.integers(0, n_tubes - 1))))
    assembly = AssemblySpec(tubes=tubes, tendons=tendons)
    options = SolverOptions(steps_per_segment=draw(st.integers(5, 30)))
    return assembly, options


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_solve_converges_or_reports(case):
    assembly, options = case
    assembly.validate()
    try:
        solution = shoot(assembly, options)
    except NoConvergence as exc:
        assert isinstance(exc.report, ConvergenceReport)
        assert exc.report.converged is False
        assert exc.report.message
        return
    assert isinstance(solution, Solution)
    assert np.all(np.isfinite(solution.tip_position))
