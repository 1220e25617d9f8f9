"""Assembly description tests: sections, rest shapes, routing paths, and
the segment/boundary plan of a telescoped stack."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nestrod.assembly import (
    ArcRest,
    AssemblySpec,
    HelicalRouting,
    HelixRest,
    PiecewiseAngularRouting,
    StiffnessPair,
    StraightRest,
    StraightRouting,
    Strategy,
    TendonSpec,
    TubeSpec,
    section_stiffness,
    segment_plan,
)
from nestrod.errors import OutOfDomain, ValidationError
from nestrod.shooting import SolverOptions, build_problem


def _tube(length=0.2, od=1.0e-3, idi=0.8e-3, e=60e9, g=23e9, **kw):
    return TubeSpec(length=length, elastic_modulus=e, shear_modulus=g,
                    outer_diameter=od, inner_diameter=idi, **kw)


class TestSectionStiffness:
    def test_annulus_formulas(self):
        od, idi, e, g = 1.0e-3, 0.8e-3, 60e9, 23e9
        pair = section_stiffness(_tube(od=od, idi=idi, e=e, g=g))
        area = math.pi / 4.0 * (od**2 - idi**2)
        second = math.pi / 64.0 * (od**4 - idi**4)
        np.testing.assert_allclose(pair.kse_diag,
                                   [g * area, g * area, e * area], rtol=1e-14)
        np.testing.assert_allclose(
            pair.kbt_diag, [e * second, e * second, g * 2.0 * second],
            rtol=1e-14)

    def test_solid_rod(self):
        od, e, g = 0.5e-3, 200e9, 77e9
        pair = section_stiffness(_tube(od=od, idi=0.0, e=e, g=g))
        area = math.pi / 4.0 * od**2
        second = math.pi / 64.0 * od**4
        assert pair.kse_diag[2] == pytest.approx(e * area, rel=1e-14)
        assert pair.kbt_diag[0] == pytest.approx(e * second, rel=1e-14)

    def test_override_wins(self):
        override = StiffnessPair([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        tube = TubeSpec(length=0.1, stiffness=override)
        assert section_stiffness(tube) is override

    def test_missing_data_raises(self):
        with pytest.raises(ValidationError):
            section_stiffness(TubeSpec(length=0.1, elastic_modulus=60e9))

    def test_pair_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            StiffnessPair([1.0, 1.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValidationError):
            StiffnessPair([1.0, 1.0, 1.0], [1.0, -2.0, 1.0])

    def test_pair_matrices_and_scaling(self):
        pair = StiffnessPair([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        np.testing.assert_array_equal(pair.scaled(2.0).kbt_diag,
                                      [8.0, 10.0, 12.0])


class TestRestShapes:
    def test_straight(self):
        rest = StraightRest()
        u, udot = rest.curvature(0.123)
        v, vdot = rest.stretch(0.123)
        np.testing.assert_array_equal(u, 0.0)
        np.testing.assert_array_equal(v, [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(udot, 0.0)
        np.testing.assert_array_equal(vdot, 0.0)

    def test_arc(self):
        rest = ArcRest(kappa=10.0, plane_angle=math.pi / 2.0)
        u, _ = rest.curvature(0.05)
        np.testing.assert_allclose(u, [0.0, 10.0, 0.0], atol=1e-14)

    def test_helix_constant_and_consistent(self):
        rest = HelixRest(radius=3e-3, pitch=15e-3)
        u, udot = rest.curvature(0.0)
        v, vdot = rest.stretch(0.0)
        np.testing.assert_array_equal(udot, 0.0)
        np.testing.assert_array_equal(vdot, 0.0)
        # the tangent advances one turn of frame spin per turn of arc length
        turn = math.hypot(2.0 * math.pi * rest.radius, rest.pitch)
        assert u[2] == pytest.approx(2.0 * math.pi / turn)
        assert np.linalg.norm(v) == pytest.approx(1.0)  # unit-speed backbone
        assert v[2] == pytest.approx(rest.pitch / turn)

    def test_helix_rejects_bad_geometry(self):
        with pytest.raises(ValidationError):
            HelixRest(radius=-1e-3, pitch=1e-2)
        with pytest.raises(ValidationError):
            HelixRest(radius=1e-3, pitch=0.0)


class TestRoutingPaths:
    def test_straight_promotes_2d_offset(self):
        path = StraightRouting([3e-3, 0.0])
        r, rdot, rddot = path.eval(0.4)
        np.testing.assert_array_equal(r, [3e-3, 0.0, 0.0])
        np.testing.assert_array_equal(rdot, 0.0)
        np.testing.assert_array_equal(rddot, 0.0)

    def test_straight_rejects_out_of_plane(self):
        with pytest.raises(ValidationError):
            StraightRouting([1e-3, 0.0, 1e-3])

    def test_helical_derivatives_by_central_difference(self):
        path = HelicalRouting(radius=6.5e-3, period=0.72, phase=1.1)
        rng = np.random.default_rng(31)
        h = 1e-6
        for s in rng.uniform(0.0, 1.0, size=10):
            r, rdot, rddot = path.eval(s)
            rp, _, _ = path.eval(s + h)
            rm, _, _ = path.eval(s - h)
            np.testing.assert_allclose(rdot, (rp - rm) / (2 * h),
                                       rtol=1e-6, atol=1e-10)
            np.testing.assert_allclose(rddot, (rp - 2 * r + rm) / h**2,
                                       rtol=1e-3, atol=1e-6)

    def test_helical_radius_preserved(self):
        path = HelicalRouting(radius=5e-3, period=0.3)
        for s in np.linspace(0.0, 0.6, 7):
            r, _, _ = path.eval(s)
            assert np.linalg.norm(r) == pytest.approx(5e-3)
            assert r[2] == 0.0

    def test_helical_rejects_bad_geometry(self):
        with pytest.raises(ValidationError):
            HelicalRouting(radius=0.0, period=0.3)
        with pytest.raises(ValidationError):
            HelicalRouting(radius=1e-3, period=-0.3)

    def test_piecewise_hits_knots(self):
        knots = [(0.0, 0.0, 3e-3), (0.1, math.pi / 2, 4e-3), (0.2, math.pi, 3e-3)]
        path = PiecewiseAngularRouting(knots)
        for s, a, rho in knots:
            r, _, _ = path.eval(s)
            expect = rho * np.array([math.cos(a), math.sin(a), 0.0])
            np.testing.assert_allclose(r, expect, atol=1e-15)

    def test_piecewise_derivatives_by_central_difference(self):
        path = PiecewiseAngularRouting(
            [(0.0, 0.2, 3e-3), (0.08, 1.4, 5e-3), (0.15, 2.1, 2e-3),
             (0.25, 3.3, 4e-3)])
        rng = np.random.default_rng(37)
        h = 1e-6
        for s in rng.uniform(0.01, 0.24, size=10):
            r, rdot, rddot = path.eval(s)
            rp = path.eval(s + h)[0]
            rm = path.eval(s - h)[0]
            np.testing.assert_allclose(rdot, (rp - rm) / (2 * h),
                                       rtol=1e-5, atol=1e-9)
            np.testing.assert_allclose(rddot, (rp - 2 * r + rm) / h**2,
                                       rtol=1e-3, atol=1e-4)

    def test_piecewise_out_of_domain(self):
        path = PiecewiseAngularRouting([(0.0, 0.0, 1e-3), (0.1, 1.0, 1e-3)])
        with pytest.raises(OutOfDomain):
            path.eval(0.11)
        with pytest.raises(OutOfDomain):
            path.eval(-0.01)

    def test_piecewise_rejects_degenerate_knots(self):
        with pytest.raises(ValidationError):
            PiecewiseAngularRouting([(0.0, 0.0, 1e-3)])
        with pytest.raises(ValidationError):
            PiecewiseAngularRouting([(0.0, 0.0, 1e-3), (0.0, 1.0, 1e-3)])
        with pytest.raises(ValidationError):
            PiecewiseAngularRouting([(0.0, 0.0, 1e-3), (0.1, 1.0, -1e-3)])


class TestValidation:
    def test_good_assembly_passes(self):
        asm = AssemblySpec(
            tubes=[_tube(length=0.2, od=1.2e-3, idi=1.0e-3),
                   _tube(length=0.3, od=0.9e-3, idi=0.7e-3)],
            tendons=[TendonSpec(routing=StraightRouting([3e-3, 0]),
                                tension=1.0, tube=1)],
            base_twists=[0.0, 0.5])
        asm.validate()  # should not raise

    def test_problems_are_aggregated(self):
        asm = AssemblySpec(
            tubes=[_tube(length=0.2, od=1.0e-3, idi=0.8e-3),
                   _tube(length=0.3, od=0.9e-3, idi=0.7e-3)],   # does not nest
            tendons=[TendonSpec(routing=StraightRouting([3e-3, 0]),
                                tension=-1.0, tube=5)],
            base_twists=[0.4, 0.0])                              # twist on tube 1
        with pytest.raises(ValidationError) as err:
            asm.validate()
        text = str(err.value)
        assert "does not fit inside" in text
        assert "angular reference" in text
        assert "tension" in text
        assert "out of range" in text

    @pytest.mark.parametrize("tube", [True, False])
    def test_tube_index_must_be_a_whole_number(self, tube):
        # A bool is an Integral, but True is no tube index.
        asm = AssemblySpec(
            tubes=[_tube(length=0.2, od=1.2e-3, idi=1.0e-3),
                   _tube(length=0.3, od=0.9e-3, idi=0.7e-3)],
            tendons=[TendonSpec(routing=StraightRouting([3e-3, 0]),
                                tension=1.0, tube=tube)])
        with pytest.raises(ValidationError,
                           match="tendon 1: terminating tube index"):
            asm.validate()

    def test_station_varying_rest_is_rejected(self):
        # The solver reads rest strains once per segment, so a rest shape
        # that varies along its tube is bad input, not something to sample
        # at one station.
        class TaperedRest:
            def curvature(self, s):
                return np.array([10.0 * s, 0.0, 0.0]), np.array([10.0, 0.0, 0.0])

            def stretch(self, s):
                return np.array([0.0, 0.0, 1.0]), np.zeros(3)

        asm = AssemblySpec(tubes=[_tube(length=0.2),
                                  _tube(length=0.3, od=0.7e-3, idi=0.5e-3,
                                        rest_shape=TaperedRest())])
        with pytest.raises(ValidationError,
                           match="tube 2: rest shape TaperedRest is not constant"):
            asm.validate()
        asm.tubes[1].rest_shape = ArcRest(kappa=2.0)
        asm.validate()

    def test_retraction_limits(self):
        asm = AssemblySpec(tubes=[_tube(length=0.2)], base_offsets=[0.2])
        with pytest.raises(ValidationError, match="retracted"):
            asm.validate()
        asm = AssemblySpec(tubes=[_tube(length=0.2)], base_offsets=[-0.01])
        with pytest.raises(ValidationError, match="offset"):
            asm.validate()

    def test_routing_knots_must_cover_the_tendon(self):
        # The knots are stations of the tendon's own tube and have to span
        # the tendon from the base plate to its anchor.
        def asm(stations, offset=0.0, termination=None):
            knots = [(st, 0.3 * i, 3e-3) for i, st in enumerate(stations)]
            return AssemblySpec(
                tubes=[_tube(length=0.1)], base_offsets=[offset],
                tendons=[TendonSpec(routing=PiecewiseAngularRouting(knots),
                                    tension=1.0, termination=termination)])

        asm([0.0, 0.05, 0.1]).validate()
        asm([0.0, 0.05], termination=0.05).validate()
        asm([0.02, 0.1], offset=0.02).validate()
        with pytest.raises(ValidationError,
                           match=r"knots span \[0.0, 0.05\] m .* over "
                                 r"\[0.0, 0.1\] m"):
            asm([0.0, 0.05]).validate()
        with pytest.raises(ValidationError, match="tendon 1: routing knots"):
            asm([0.03, 0.1], offset=0.02).validate()
        with pytest.raises(ValidationError, match="tendon 1: routing knots"):
            asm([0.01, 0.1]).validate()

    def test_routing_knots_must_reach_the_snapped_anchor(self):
        # A termination within STATION_TOL below the tube tip snaps onto
        # the tip, so the routing is evaluated up to the tip: knots that
        # end at the termination stop short of the tendon.
        def asm(end, termination):
            knots = [(0.0, 0.0, 3e-3), (end, 0.3, 3e-3)]
            return AssemblySpec(
                tubes=[_tube(length=0.1)],
                tendons=[TendonSpec(routing=PiecewiseAngularRouting(knots),
                                    tension=1.0, termination=termination)])

        with pytest.raises(ValidationError,
                           match=r"knots span \[0.0, 0.0999995\] m .* over "
                                 r"\[0.0, 0.1\] m"):
            asm(0.0999995, 0.0999995).validate()
        asm(0.1, 0.0999995).validate()
        # further from the tip the termination opens its own boundary
        asm(0.09999, 0.09999).validate()

    def test_termination_beyond_tube(self):
        asm = AssemblySpec(
            tubes=[_tube(length=0.2)],
            tendons=[TendonSpec(routing=StraightRouting([3e-3, 0]),
                                tension=1.0, termination=0.25)])
        with pytest.raises(ValidationError, match="beyond"):
            asm.validate()

    def test_termination_behind_the_base_plate(self):
        # 30 mm along a tube retracted by 50 mm is 20 mm behind the base.
        asm = AssemblySpec(
            tubes=[_tube(length=0.2)], base_offsets=[0.05],
            tendons=[TendonSpec(routing=StraightRouting([3e-3, 0]),
                                tension=1.0, termination=0.03)])
        with pytest.raises(ValidationError,
                           match="tendon 1: anchors at/behind the base plate"):
            asm.validate()
        asm.tendons[0].termination = 0.06
        asm.validate()


class TestSegmentPlan:
    def _three_tube(self, strategy=Strategy.OUTERMOST_OF_SEGMENT):
        return AssemblySpec(
            tubes=[_tube(length=0.14, od=1.4e-3, idi=1.16e-3),
                   _tube(length=0.20, od=1.0e-3, idi=0.8e-3),
                   _tube(length=0.26, od=0.6e-3, idi=0.0)],
            tendons=[
                TendonSpec(routing=StraightRouting([3e-3, 0]), tension=1.0,
                           tube=0),
                TendonSpec(routing=StraightRouting([0, 3e-3]), tension=1.0,
                           tube=2, termination=0.17),
            ],
            strategy=strategy)

    def test_stations_and_membership(self):
        plan = segment_plan(self._three_tube())
        starts = [seg.start for seg in plan]
        ends = [seg.end for seg in plan]
        assert starts == [0.0, 0.14, 0.17, 0.20]
        assert ends == [0.14, 0.17, 0.20, 0.26]
        assert [seg.tubes for seg in plan] == \
            [[0, 1, 2], [1, 2], [1, 2], [2]]
        assert [seg.tendons for seg in plan] == \
            [[0, 1], [1], [], []]

    def test_events(self):
        plan = segment_plan(self._three_tube())
        assert [seg.ending_tubes for seg in plan] == \
            [[0], [], [1], [2]]
        assert [seg.terminating_tendons for seg in plan] == \
            [[0], [1], [], []]

    def test_retraction_shifts_boundaries(self):
        asm = self._three_tube()
        asm.tendons = []
        asm.base_offsets = [0.0, 0.03, 0.0]
        plan = segment_plan(asm)
        assert [seg.end for seg in plan] == \
            pytest.approx([0.14, 0.17, 0.26])
        assert asm.tip_station(1) == pytest.approx(0.17)

    def test_tendon_termination_station_respects_offset(self):
        asm = AssemblySpec(
            tubes=[_tube(length=0.2)],
            tendons=[TendonSpec(routing=StraightRouting([3e-3, 0]),
                                tension=1.0, termination=0.15)],
            base_offsets=[0.04])
        assert asm.termination_station(0) == pytest.approx(0.11)

    def test_nearby_stations_merge(self):
        asm = AssemblySpec(
            tubes=[_tube(length=0.14, od=1.4e-3, idi=1.16e-3),
                   _tube(length=0.20, od=1.0e-3, idi=0.8e-3)],
            tendons=[TendonSpec(routing=StraightRouting([3e-3, 0]),
                                tension=1.0, tube=1,
                                termination=0.14 + 2e-7)])
        plan = segment_plan(asm)
        assert len(plan) == 2  # termination snapped onto the tip

    def test_assignment_outermost(self):
        contexts = build_problem(self._three_tube(), SolverOptions()).contexts
        assert contexts[0].carriers.tolist() == [0, 0]
        assert contexts[1].carriers.tolist() == [0]

    def test_assignment_terminating(self):
        asm = self._three_tube(strategy=Strategy.TERMINATING_TUBE)
        contexts = build_problem(asm, SolverOptions()).contexts
        assert contexts[0].carriers.tolist() == [0, 2]
        assert contexts[1].carriers.tolist() == [1]

    @pytest.mark.parametrize("strategy, carriers, terminating", [
        (Strategy.OUTERMOST_OF_SEGMENT, [[0, 0], [0]], [(0, 0, 0), (0, 0, 1)]),
        (Strategy.TERMINATING_TUBE, [[0, 2], [1]], [(0, 0, 0), (0, 1, 1)]),
    ])
    def test_compiled_boundaries(self, strategy, carriers, terminating):
        # Per segment, in local tube indices: who carries each tendon, who
        # ends and who goes on at the segment's end, and the anchors there
        # as (index among the carried tendons, carrier, anchor tube).
        problem = build_problem(self._three_tube(strategy), SolverOptions())
        ctxs = problem.contexts
        assert [c.carriers.tolist() for c in ctxs] == carriers + [[], []]
        assert [c.ending for c in ctxs] == [[0], [], [0], [0]]
        assert [c.continuing for c in ctxs] == [[1, 2], [0, 1], [1], []]
        assert [c.terminating for c in ctxs] == \
            [[terminating[0]], [terminating[1]], [], []]
        assert "".join(problem.residual_classes) == "fmfmfmffmm"
