"""Seeded fuzzing of the solver's failure handling.

Random stacks of one to three tubes, straight, arc-shaped or helical at
rest, at random base twists, with up to two straight or helical tendons or
none, are solved at coarse step counts, where bold Newton candidates easily
leave the physical domain (frame drift, collapsed tendon tangents, singular
rate systems), and where the grid ladder is read off strong rest
curvatures and fast-winding tendons; a second, smaller set is solved at 50
to 200 steps, where the ladder's upper rungs and the time-parallel pass
run, seeded from the rung below or not. That set also retracts tubes
behind the base plate, anchors tendons inside their tubes, routes them
through guide knots, and attaches their loads by either strategy. Whatever
happens inside, ``shoot()`` must either return a
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

from nestrod.assembly import (ArcRest, AssemblySpec, HelicalRouting,
                              HelixRest, PiecewiseAngularRouting,
                              StraightRest, StraightRouting, Strategy,
                              TendonSpec, TubeSpec)
from nestrod.errors import NoConvergence
from nestrod.shooting import ConvergenceReport, Solution, SolverOptions, shoot


_ANGLES = st.floats(0.0, 2.0 * math.pi)


@st.composite
def _rest_shapes(draw):
    kind = draw(st.sampled_from(("straight", "arc", "helix")))
    if kind == "arc":
        return ArcRest(kappa=draw(st.floats(0.0, 25.0)),
                       plane_angle=draw(_ANGLES))
    if kind == "helix":
        return HelixRest(radius=draw(st.floats(1e-3, 10e-3)),
                         pitch=draw(st.floats(0.01, 0.2)),
                         phase=draw(_ANGLES))
    return StraightRest()


@st.composite
def _cases(draw, steps=st.integers(5, 40), wide=False):
    """An assembly and options; ``wide`` also draws base offsets, interior
    tendon terminations, knot routings and the load strategy."""
    n_tubes = draw(st.integers(1, 3))
    tubes = []
    outer = draw(st.floats(0.5e-3, 2.0e-3))
    for _ in range(n_tubes):
        inner = outer * draw(st.floats(0.4, 0.85))
        tubes.append(TubeSpec(
            length=draw(st.floats(0.05, 0.3)),
            elastic_modulus=draw(st.floats(40e9, 220e9)),
            shear_modulus=draw(st.floats(15e9, 85e9)),
            outer_diameter=outer, inner_diameter=inner,
            rest_shape=draw(_rest_shapes())))
        outer = inner * draw(st.floats(0.6, 0.95))   # next tube fits inside
    # Retraction behind the base plate, as a share of each tube's length.
    offsets = [tube.length * draw(st.floats(0.0, 0.5)) if wide else 0.0
               for tube in tubes]
    tendons = []
    for _ in range(draw(st.integers(0, 2))):
        radius = draw(st.floats(0.5e-3, 5e-3))
        angle = draw(_ANGLES)
        if wide:
            kind = draw(st.sampled_from(("straight", "helical", "knots")))
        else:
            kind = "straight" if draw(st.booleans()) else "helical"
        if kind == "straight":
            routing = StraightRouting([radius * math.cos(angle),
                                       radius * math.sin(angle)])
        elif kind == "helical":
            routing = HelicalRouting(radius=radius,
                                     period=draw(st.floats(0.05, 1.0)),
                                     phase=angle)
        else:
            # Guide knots spread over the whole tube, in its own arc length.
            count = draw(st.integers(2, 4))
            knots = [(i / (count - 1), angle + draw(st.floats(-1.5, 1.5)),
                      radius * draw(st.floats(0.5, 1.5)))
                     for i in range(count)]
        tension = 10.0 ** draw(st.floats(-1.0, 2.2))
        tube = draw(st.integers(0, n_tubes - 1))
        length, offset = tubes[tube].length, offsets[tube]
        if kind == "knots":
            routing = PiecewiseAngularRouting([(length * share, a, r)
                                               for share, a, r in knots])
        # An anchor inside the tube's part past the base plate, or its tip.
        termination = None
        if wide and draw(st.booleans()):
            termination = offset + (length - offset) * draw(
                st.floats(0.3, 0.9))
        tendons.append(TendonSpec(routing=routing, tension=tension,
                                  tube=tube, termination=termination))
    twists = [0.0] + [draw(_ANGLES) for _ in range(n_tubes - 1)]
    strategy = draw(st.sampled_from(Strategy)) if wide \
        else Strategy.OUTERMOST_OF_SEGMENT
    assembly = AssemblySpec(tubes=tubes, tendons=tendons, base_twists=twists,
                            base_offsets=offsets, strategy=strategy)
    options = SolverOptions(steps_per_segment=draw(steps))
    return assembly, options


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cases(st.integers(50, 200), wide=True))
def test_fine_solve_converges_or_reports(case):
    # At 50 steps and more, the upper rungs of the grid ladder polish, and
    # a lone row of a segment without a helical or knot-routed tendon is
    # integrated time-parallel, seeded from the rung below where its trail
    # allows. The invariants are those of the coarse draws.
    test_solve_converges_or_reports.hypothesis.inner_test(case)
