"""Tests of the independent cross-check routines.

These routines exist to validate the production solver, so they get their
own tests against closed forms and small analytic limits — if an oracle is
wrong the whole validation harness is worthless.
"""

from __future__ import annotations

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nestrod
from nestrod import oracles
from nestrod.assembly import ArcRest, StraightRest, StraightRouting, TubeSpec, \
    section_stiffness
from nestrod.oracles import (
    ctr_overlap_curvature,
    fd_jacobian_check,
    planar_energy_minimize,
    run_validate,
    section_quadrature,
    single_tube_shoot,
    single_tube_system,
    stack_system,
)


class TestSectionQuadrature:
    def test_matches_closed_form(self):
        od, idi, e, g = 1.1e-3, 0.9e-3, 45e9, 16.91e9
        kse_q, kbt_q = section_quadrature(od, idi, e, g)
        pair = section_stiffness(TubeSpec(length=0.1, elastic_modulus=e,
                                          shear_modulus=g, outer_diameter=od,
                                          inner_diameter=idi))
        np.testing.assert_allclose(kse_q, pair.kse_diag, rtol=1e-12)
        np.testing.assert_allclose(kbt_q, pair.kbt_diag, rtol=1e-12)

    def test_solid_section(self):
        kse_q, kbt_q = section_quadrature(0.6e-3, 0.0, 200e9, 77e9)
        area = math.pi / 4.0 * 0.6e-3**2
        assert kse_q[2] == pytest.approx(200e9 * area, rel=1e-12)
        assert kbt_q[2] == pytest.approx(2.0 * kbt_q[0] * 77e9 / 200e9,
                                         rel=1e-12)


class TestSingleTubeSystem:
    def test_rest_no_tendons(self):
        kse = np.array([5e3, 5e3, 1.4e4])
        kbt = np.array([6.5e-3, 6.5e-3, 5e-3])
        a, b = single_tube_system(
            u=np.zeros(3), v=[0.0, 0.0, 1.0], kse_diag=kse, kbt_diag=kbt,
            ustar=np.zeros(3), ustar_dot=np.zeros(3),
            vstar=[0.0, 0.0, 1.0], vstar_dot=np.zeros(3), tendons=[])
        np.testing.assert_array_equal(a[0:3, 0:3], np.diag(kbt))
        np.testing.assert_array_equal(a[3:6, 3:6], np.diag(kse))
        np.testing.assert_array_equal(a[0:3, 3:6], 0.0)
        np.testing.assert_allclose(b, 0.0, atol=0)

    def test_tendon_couples_the_blocks(self):
        kse = np.array([5e3, 5e3, 1.4e4])
        kbt = np.array([6.5e-3, 6.5e-3, 5e-3])
        a, _ = single_tube_system(
            u=[1.0, -2.0, 0.5], v=[0.01, 0.0, 1.0], kse_diag=kse,
            kbt_diag=kbt, ustar=np.zeros(3), ustar_dot=np.zeros(3),
            vstar=[0.0, 0.0, 1.0], vstar_dot=np.zeros(3),
            tendons=[(np.array([3e-3, 0.0, 0.0]), np.zeros(3), np.zeros(3),
                      2.0)])
        assert np.max(np.abs(a[0:3, 3:6])) > 0.0
        assert np.max(np.abs(a[3:6, 0:3])) > 0.0


class TestStackSystem:
    _KSE = np.array([5e3, 5e3, 1.4e4])
    _KBT = np.array([6.5e-3, 6.5e-3, 5e-3])

    def _section(self, scale=1.0, tendons=()):
        return (scale * self._KSE, scale * self._KBT, np.zeros(3), np.zeros(3),
                np.array([0.0, 0.0, 1.0]), np.zeros(3), list(tendons))

    def test_one_tube_is_the_single_tube_system(self):
        u, v = np.array([1.0, -2.0, 0.5]), np.array([0.01, 0.0, 1.0])
        section = self._section(tendons=[(np.array([3e-3, 0.0, 0.0]),
                                          np.zeros(3), np.zeros(3), 2.0)])
        a_one, b_one = single_tube_system(u, v, *section)
        a, b = stack_system(u, v, [], [], [], [section])
        np.testing.assert_allclose(a, a_one, rtol=1e-15, atol=0)
        np.testing.assert_allclose(b, b_one, rtol=1e-15, atol=0)

    def test_aligned_straight_pair_at_rest(self):
        # Two straight tubes, untwisted and undilated at rest: nothing
        # drives the rates, the stack rows add the two stiffnesses, and each
        # tube's twist and axial rows see only its own stiffness.
        a, b = stack_system(np.zeros(3), [0.0, 0.0, 1.0], [0.0], [0.0], [1.0],
                            [self._section(), self._section(scale=2.0)])
        ei, gj = self._KBT[0], self._KBT[2]
        ga, ea = self._KSE[0], self._KSE[2]
        np.testing.assert_array_equal(b, 0.0)
        np.testing.assert_allclose(a[0:2, 0:2], 3.0 * ei * np.eye(2))
        np.testing.assert_allclose(a[4:6, 3:5], 3.0 * ga * np.eye(2))
        # rows 2, 3: own twist of tube 1 (on u̇₁z) and tube 2 (on u̇_d3)
        assert a[2, 2] == pytest.approx(gj)
        np.testing.assert_array_equal(a[3, 0:3], 0.0)
        assert a[3, 6] == pytest.approx(2.0 * gj)
        # rows 6, 7: own axial force of tube 1 (on v̇₁z) and tube 2 (on
        # v̇₁z and its dilation rate β̇)
        assert a[6, 5] == pytest.approx(ea)
        assert a[7, 5] == pytest.approx(2.0 * ea)
        assert a[7, 7] == pytest.approx(2.0 * ea)


class TestIndependence:
    def test_oracles_import_no_solver_module_outside_run_validate(self):
        tree = ast.parse(Path(oracles.__file__).read_text())
        solver = {"statics", "shooting", "so3"}
        outside, inside = [], []

        class Imports(ast.NodeVisitor):
            def __init__(self, sink):
                self.sink = sink

            def visit_FunctionDef(self, node):
                if node.name == "run_validate":
                    Imports(inside).generic_visit(node)
                else:
                    self.generic_visit(node)

            def visit_Import(self, node):
                self.sink.extend(alias.name for alias in node.names)

            def visit_ImportFrom(self, node):
                base = node.module or ""
                self.sink.append(base)
                self.sink.extend(f"{base}.{alias.name}" for alias in node.names)

        Imports(outside).visit(tree)
        touches = [name for name in outside if solver & set(name.split("."))]
        assert touches == []
        # the walk does see run_validate's own imports of the solver
        assert any(solver & set(name.split(".")) for name in inside)

    def test_package_import_does_not_load_scipy(self):
        src = str(Path(nestrod.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, nestrod; print('scipy' in sys.modules)"],
            capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "False"


class TestSingleTubeShoot:
    _KSE = np.array([6.5e3, 6.5e3, 1.7e4])
    _KBT = np.array([8.5e-3, 8.5e-3, 6.6e-3])

    def test_unloaded_straight_tube(self):
        out = single_tube_shoot(0.2, self._KSE, self._KBT, StraightRest(),
                                tendons=[])
        np.testing.assert_allclose(out.tip_position, [0.0, 0.0, 0.2],
                                   atol=1e-9)
        np.testing.assert_allclose(out.base_strains, [0, 0, 0, 0, 0, 1],
                                   atol=1e-9)
        np.testing.assert_allclose(out.tip_residual, 0.0, atol=1e-8)

    def test_unloaded_arc_tube(self):
        kappa, length = 10.0, 0.1
        out = single_tube_shoot(length, self._KSE, self._KBT,
                                ArcRest(kappa=kappa), tendons=[])
        angle = kappa * length
        np.testing.assert_allclose(
            out.tip_position,
            [0.0, (math.cos(angle) - 1.0) / kappa, math.sin(angle) / kappa],
            atol=1e-8)

    def test_tension_bends_toward_the_tendon(self):
        routing = StraightRouting([3e-3, 0.0])
        out = single_tube_shoot(0.15, self._KSE, self._KBT, StraightRest(),
                                tendons=[(routing, 1.0)])
        # offset along +x: the moment bends the tip into +x, shortening z
        assert out.tip_position[0] > 1e-3
        assert out.tip_position[2] < 0.15
        np.testing.assert_allclose(out.tip_residual, 0.0, atol=1e-8)


class TestPlanarChain:
    def test_zero_tension_is_straight(self):
        out = planar_energy_minimize(length=0.15, bending_stiffness=6.5e-3,
                                     axial_stiffness=1.45e4, offset=3e-3,
                                     tension=0.0, n_segments=60)
        np.testing.assert_allclose(out.tip, [0.0, 0.15], atol=1e-9)
        assert abs(out.turning) < 1e-9
        assert out.energy == pytest.approx(0.0, abs=1e-12)
        assert out.grad_inf < 1e-8

    def test_small_tension_linear_response(self):
        length, ei, offset, tension = 0.15, 6.5e-3, 3e-3, 0.1
        out = planar_energy_minimize(length=length, bending_stiffness=ei,
                                     axial_stiffness=1.45e4, offset=offset,
                                     tension=tension, n_segments=100)
        kappa = tension * offset / ei
        assert abs(out.tip[0]) == pytest.approx(kappa * length**2 / 2.0,
                                                rel=0.05)
        assert abs(out.turning) == pytest.approx(kappa * length, rel=0.05)
        assert out.grad_inf < 1e-8


class TestOverlapCurvature:
    _KBT = np.array([6.5e-3, 6.5e-3, 5e-3])

    def test_aligned_tubes_average_by_stiffness(self):
        u1 = np.array([4.0, 0.0, 0.0])
        u2 = np.array([7.0, 0.0, 0.0])
        out = ctr_overlap_curvature(2.0 * self._KBT, self._KBT, u1, u2, 0.0)
        expect = (2.0 * 4.0 + 7.0) / 3.0
        np.testing.assert_allclose(out, [expect, 0.0], atol=1e-12)

    def test_opposed_equal_tubes_cancel(self):
        u = np.array([4.566, 0.0, 0.0])
        out = ctr_overlap_curvature(self._KBT, self._KBT, u, u, math.pi)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_opposed_near_equal_leaves_the_difference(self):
        u = np.array([4.566, 0.0, 0.0])
        out = ctr_overlap_curvature(1.01 * self._KBT, self._KBT, u, u,
                                    math.pi)
        np.testing.assert_allclose(out, [4.566 * 0.01 / 2.01, 0.0],
                                   atol=1e-12)

    def test_right_angle_mixes_planes(self):
        u = np.array([5.0, 0.0, 0.0])
        out = ctr_overlap_curvature(self._KBT, self._KBT, u, u, math.pi / 2)
        np.testing.assert_allclose(out, [2.5, 2.5], atol=1e-12)


class TestJacobianCheck:
    @staticmethod
    def _fun(x):
        return np.array([math.sin(x[0]) + x[1] ** 2, math.cos(x[1])])

    @staticmethod
    def _jac(x):
        return np.array([[math.cos(x[0]), 2.0 * x[1]],
                         [0.0, -math.sin(x[1])]])

    def test_correct_jacobian_passes(self):
        assert fd_jacobian_check(self._fun, self._jac,
                                 [0.3, -0.7]) < 1e-9

    def test_corrupted_jacobian_is_caught(self):
        bad = lambda x: self._jac(x) + 0.05
        assert fd_jacobian_check(self._fun, bad, [0.3, -0.7]) > 1e-2


class TestRunValidate:
    def test_healthy_subset_passes(self):
        report = run_validate(checks=("section", "reference", "routing",
                                      "planar", "pair"))
        assert report.passed
        assert len(report.checks) == 5
        assert report.checks[0].name.startswith("section")
        for c in report.checks:
            assert c.measured <= c.tolerance
        assert any("PASS" in line for line in report.lines())
        d = report.as_dict()
        assert d["passed"] is True
        assert len(d["checks"]) == 5

    def test_stiffness_mutation_is_detected(self):
        report = run_validate(mutation=1.01, checks=("section", "reference"))
        assert not report.passed
        failing = [c.name for c in report.checks if not c.passed]
        assert any(name.startswith("section") for name in failing)
        assert any(name.startswith("cross-section system") for name in failing)
        assert any("FAIL" in line for line in report.lines())
