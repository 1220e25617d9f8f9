"""Cross-section statics tests.

The heart of the model is the linear system in the strain rates that every
integration step solves. The stacked production assembly is pinned over
random states against ``oracles.stack_system``, an independently written
tube-by-tube reference; the file also checks the LU rate solve's failure
handling, the tendon-path kinematics and the packed derivative layout.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from nestrod.assembly import (
    ArcRest,
    AssemblySpec,
    HelicalRouting,
    StraightRouting,
    TendonSpec,
    TubeSpec,
)
from nestrod.errors import DegenerateTendon, IllConditioned
from nestrod.oracles import stack_system
from nestrod.shooting import build_problem, SolverOptions
from nestrod.so3 import hat
from nestrod.statics import (
    RodState,
    assemble_system,
    derived_strains,
    pack_state,
    solve_rates,
    state_derivative,
    tube_wrench,
    unpack_state,
)


def _tube(length=0.2, od=1.0e-3, idi=0.8e-3, e=60e9, g=23e9, **kw):
    return TubeSpec(length=length, elastic_modulus=e, shear_modulus=g,
                    outer_diameter=od, inner_diameter=idi, **kw)


def _context(k: int):
    """First-segment context of a k-tube assembly with one tendon per tube."""
    tubes = [
        _tube(length=0.20, od=1.4e-3, idi=1.16e-3),
        _tube(length=0.24, od=1.0e-3, idi=0.8e-3,
              rest_shape=ArcRest(kappa=5.0)),
        _tube(length=0.30, od=0.6e-3, idi=0.0, e=200e9, g=77e9),
    ][:k]
    routings = [
        HelicalRouting(radius=4e-3, period=0.5, phase=0.4),
        StraightRouting([0.0, 3e-3]),
        StraightRouting([-2e-3, 1e-3]),
    ]
    tendons = [TendonSpec(routing=routings[i], tension=1.5, tube=i)
               for i in range(k)]
    asm = AssemblySpec(tubes=tubes, tendons=tendons)
    return build_problem(asm, SolverOptions()).contexts[0]


def _random_state(rng, k: int, batch=(), s=0.05) -> RodState:
    w = rng.normal(scale=0.8, size=batch + (3,))
    if batch:
        rot = np.stack([expm(hat(wi)) for wi in w.reshape(-1, 3)])
        rot = rot.reshape(batch + (3, 3))
    else:
        rot = expm(hat(w))
    return RodState(
        p=rng.normal(scale=0.05, size=batch + (3,)),
        R=rot,
        u1=rng.normal(scale=6.0, size=batch + (3,)),
        v1=np.array([0.0, 0.0, 1.0]) + rng.normal(scale=0.01,
                                                  size=batch + (3,)),
        theta=rng.uniform(-np.pi, np.pi, size=batch + (k - 1,)),
        u_d3=rng.normal(scale=6.0, size=batch + (k - 1,)),
        beta=1.0 + rng.normal(scale=0.005, size=batch + (k - 1,)),
        s=s,
    )


def _reference_system(state: RodState, ctx):
    """``oracles.stack_system`` fed from a segment context at one state."""
    sections = []
    for tube, loads in zip(ctx.tubes, ctx.loads):
        ustar, ustar_dot = tube.rest.curvature(state.s + tube.offset)
        vstar, vstar_dot = tube.rest.stretch(state.s + tube.offset)
        tendons = [t.routing.eval(state.s) + (t.tension,) for t in loads]
        sections.append((tube.kse_diag, tube.kbt_diag, ustar, ustar_dot,
                         vstar, vstar_dot, tendons))
    return stack_system(state.u1, state.v1, state.theta, state.u_d3,
                        state.beta, sections)


class TestStateLayout:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(41)
        for k in (1, 3):
            state = _random_state(rng, k, s=0.07)
            y = pack_state(state)
            assert y.shape == (18 + 3 * (k - 1),)
            back = unpack_state(y, k, 0.07)
            for field in ("p", "R", "u1", "v1", "theta", "u_d3", "beta"):
                np.testing.assert_array_equal(getattr(back, field),
                                              getattr(state, field))
            assert back.s == state.s

    def test_pack_unpack_batched(self):
        rng = np.random.default_rng(43)
        state = _random_state(rng, 2, batch=(4,))
        y = pack_state(state)
        assert y.shape == (4, 21)
        back = unpack_state(y, 2, state.s)
        np.testing.assert_array_equal(back.R, state.R)
        np.testing.assert_array_equal(back.beta, state.beta)


class TestDerivedStrains:
    def test_reference_tube_passthrough(self):
        rng = np.random.default_rng(47)
        state = _random_state(rng, 3)
        us, vs = derived_strains(state)
        np.testing.assert_array_equal(us[0], state.u1)
        np.testing.assert_array_equal(vs[0], state.v1)

    def test_inner_tube_frame_change(self):
        rng = np.random.default_rng(53)
        state = _random_state(rng, 2)
        us, vs = derived_strains(state)
        theta = state.theta[0]
        c, sn = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
        expect_u = rot.T @ state.u1
        expect_u[2] = state.u_d3[0]
        np.testing.assert_allclose(us[1], expect_u, atol=1e-14)
        np.testing.assert_allclose(vs[1], state.beta[0] * (rot.T @ state.v1),
                                   atol=1e-14)


class TestAssemblyRoutes:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_vectorized_matches_reference(self, k):
        ctx = _context(k)
        rng = np.random.default_rng(59 + k)
        for _ in range(10):
            state = _random_state(rng, k)
            a_ref, b_ref = _reference_system(state, ctx)
            a_vec, b_vec = assemble_system(state, ctx)
            assert a_vec.shape == (2 * k + 4, 2 * k + 4)
            scale_a = np.max(np.abs(a_ref))
            scale_b = max(np.max(np.abs(b_ref)), 1.0)
            np.testing.assert_allclose(a_vec, a_ref, atol=1e-12 * scale_a)
            np.testing.assert_allclose(b_vec, b_ref, atol=1e-12 * scale_b)

    def test_batched_assembly(self):
        ctx = _context(2)
        rng = np.random.default_rng(61)
        state = _random_state(rng, 2, batch=(5,))
        a_vec, b_vec = assemble_system(state, ctx)
        assert a_vec.shape == (5, 8, 8)
        for i in range(5):
            single = RodState(state.p[i], state.R[i], state.u1[i],
                              state.v1[i], state.theta[i], state.u_d3[i],
                              state.beta[i], state.s)
            a_one, b_one = _reference_system(single, ctx)
            scale = np.max(np.abs(a_one))
            np.testing.assert_allclose(a_vec[i], a_one, atol=1e-12 * scale)
            np.testing.assert_allclose(b_vec[i], b_one,
                                       atol=1e-12 * max(np.max(np.abs(b_one)),
                                                        1.0))


class TestRestEquilibrium:
    def _rest_state(self, k, u1=None):
        return RodState(
            p=np.zeros(3), R=np.eye(3),
            u1=np.zeros(3) if u1 is None else np.asarray(u1, dtype=float),
            v1=np.array([0.0, 0.0, 1.0]),
            theta=np.zeros(k - 1), u_d3=np.zeros(k - 1),
            beta=np.ones(k - 1), s=0.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_straight_stack_has_zero_rates(self, k):
        tubes = [
            _tube(length=0.20, od=1.4e-3, idi=1.16e-3),
            _tube(length=0.24, od=1.0e-3, idi=0.8e-3),
            _tube(length=0.30, od=0.6e-3, idi=0.0),
        ][:k]
        ctx = build_problem(AssemblySpec(tubes=tubes),
                            SolverOptions()).contexts[0]
        dy, _ = state_derivative(self._rest_state(k), ctx)
        deriv = unpack_state(dy, k, 0.0)
        np.testing.assert_allclose(deriv.u1, 0.0, atol=1e-9)
        np.testing.assert_allclose(deriv.v1, 0.0, atol=1e-9)
        np.testing.assert_allclose(deriv.u_d3, 0.0, atol=1e-9)
        np.testing.assert_allclose(deriv.beta, 0.0, atol=1e-9)
        np.testing.assert_allclose(deriv.theta, 0.0, atol=1e-12)
        # pose kinematics: straight advance along the tangent
        np.testing.assert_allclose(deriv.p, [0.0, 0.0, 1.0], atol=1e-14)

    def test_precurved_tube_keeps_rest_curvature(self):
        asm = AssemblySpec(tubes=[_tube(rest_shape=ArcRest(kappa=10.0))])
        ctx = build_problem(asm, SolverOptions()).contexts[0]
        dy, _ = state_derivative(self._rest_state(1, u1=[10.0, 0.0, 0.0]), ctx)
        deriv = unpack_state(dy, 1, 0.0)
        np.testing.assert_allclose(deriv.u1, 0.0, atol=1e-8)
        np.testing.assert_allclose(deriv.v1, 0.0, atol=1e-8)


class TestRateSolve:
    def test_matches_direct_solve_when_regular(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            a = rng.normal(size=(8, 8)) + 4.0 * np.eye(8)
            b = rng.normal(size=8)
            for condition in (False, True):
                x, cond = solve_rates(a, b, condition=condition)
                np.testing.assert_allclose(x, np.linalg.solve(a, b),
                                           rtol=1e-9, atol=1e-12)
                assert (cond >= 1.0) if condition else (cond == 0.0)

    def test_condition_estimate_is_infinity_norm(self):
        a = np.diag([2.0, 1.0, 0.5, 4.0])
        _, cond = solve_rates(a, np.ones(4), condition=True)
        assert cond == pytest.approx(np.linalg.cond(a, np.inf), rel=1e-12)

    def test_ill_conditioned_raises(self):
        a = np.diag([1.0, 1.0, 1.0, 1e-13])
        with pytest.raises(IllConditioned):
            solve_rates(a, np.ones(4), condition=True)

    @pytest.mark.parametrize("condition", [False, True])
    def test_singular_system_raises(self, condition):
        a = np.diag([2.0, 1.0, 0.0, 3.0])
        b = np.array([2.0, 1.0, 0.0, 3.0])
        with pytest.raises(IllConditioned):
            solve_rates(a, b, condition=condition)

    @pytest.mark.parametrize("condition", [False, True])
    def test_non_finite_system_raises(self, condition):
        a = np.eye(4)
        a[1, 2] = np.nan
        with pytest.raises(IllConditioned):
            solve_rates(a, np.ones(4), condition=condition)

    def test_batched(self):
        rng = np.random.default_rng(73)
        a = rng.normal(size=(4, 6, 6)) + 4.0 * np.eye(6)
        b = rng.normal(size=(4, 6))
        x, cond = solve_rates(a, b, condition=True)
        assert x.shape == (4, 6)
        assert cond.shape == (4,)
        for i in range(4):
            np.testing.assert_allclose(x[i], np.linalg.solve(a[i], b[i]),
                                       rtol=1e-9, atol=1e-12)


class TestTendonKinematics:
    def test_degenerate_path_raises(self):
        ctx = _context(1)
        state = RodState(p=np.zeros(3), R=np.eye(3), u1=np.zeros(3),
                         v1=np.zeros(3),        # no tangent at all
                         theta=np.zeros(0), u_d3=np.zeros(0),
                         beta=np.zeros(0), s=0.05)
        # ensure the offending tendon has a straight path: rdot = 0 so the
        # tangent collapses with v1
        ctx.loads[0][0].routing = StraightRouting([3e-3, 0.0])
        with pytest.raises(DegenerateTendon):
            assemble_system(state, ctx)

    def test_tangent_is_near_unit_at_rest(self):
        # At rest a straight tendon runs along the unit tangent e3, so its
        # load operator is T·hat(e3)² = −T·diag(1, 1, 0): it stiffens the
        # shear rows by the tension and leaves the axial row alone.
        ctx = _context(1)
        ctx.loads[0][0].routing = StraightRouting([3e-3, 0.0])
        tension = ctx.loads[0][0].tension
        state = RodState(p=np.zeros(3), R=np.eye(3), u1=np.zeros(3),
                         v1=np.array([0.0, 0.0, 1.0]),
                         theta=np.zeros(0), u_d3=np.zeros(0),
                         beta=np.zeros(0), s=0.05)
        a_sys, _ = assemble_system(state, ctx)
        kse = ctx.tubes[0].kse_diag
        np.testing.assert_allclose(
            a_sys[3:6, 3:6], np.diag(kse + tension * np.array([1.0, 1.0, 0.0])),
            rtol=1e-14, atol=1e-12)
        hat_e3 = hat(np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(a_sys[0:3, 3:6],
                                   -tension * hat(np.array([3e-3, 0.0, 0.0]))
                                   @ hat_e3 @ hat_e3, atol=1e-15)


class TestWrench:
    def test_matches_constitutive_law(self):
        ctx = _context(3)
        rng = np.random.default_rng(83)
        state = _random_state(rng, 3)
        ns, ms = tube_wrench(state, ctx)
        us, vs = derived_strains(state)
        for i, tube in enumerate(ctx.tubes):
            ustar, _ = tube.rest.curvature(state.s + tube.offset)
            vstar, _ = tube.rest.stretch(state.s + tube.offset)
            np.testing.assert_allclose(ns[i], tube.kse_diag * (vs[i] - vstar),
                                       atol=1e-9)
            np.testing.assert_allclose(ms[i], tube.kbt_diag * (us[i] - ustar),
                                       atol=1e-12)


class TestStateDerivative:
    def test_diagnostics_flag_changes_reporting_only(self):
        ctx = _context(2)
        rng = np.random.default_rng(89)
        state = _random_state(rng, 2)
        full, cond = state_derivative(state, ctx, diagnostics=True)
        fast, no_cond = state_derivative(state, ctx, diagnostics=False)
        np.testing.assert_allclose(fast, full, rtol=1e-10, atol=1e-12)
        assert cond >= 1.0
        assert np.all(no_cond == 0.0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_packed_layout(self, k):
        ctx = _context(k)
        rng = np.random.default_rng(97)
        state = _random_state(rng, k, batch=(2,))
        dy, _ = state_derivative(state, ctx)
        assert dy.shape == pack_state(state).shape
        deriv = unpack_state(dy, k, state.s)
        np.testing.assert_array_equal(deriv.p, (state.R @ state.v1[..., None])[..., 0])
        np.testing.assert_array_equal(deriv.R, state.R @ hat(state.u1))
        np.testing.assert_array_equal(deriv.theta,
                                      state.u_d3 - state.u1[..., 2:3])
        a_sys, b_sys = assemble_system(state, ctx)
        x = np.concatenate([deriv.u1, deriv.v1, deriv.u_d3, deriv.beta], axis=-1)
        np.testing.assert_array_equal(
            x, solve_rates(a_sys, b_sys, condition=True)[0])
