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
    Strategy,
    StraightRouting,
    TendonSpec,
    TubeSpec,
    section_stiffness,
)
from nestrod.oracles import stack_system
from nestrod.shooting import build_problem, SolverOptions
from nestrod.so3 import hat
from nestrod.statics import (
    RodState,
    assemble_system,
    pack_state,
    solve_rates,
    state_derivative,
    tube_strains,
    unpack_state,
)


def _tube(length=0.2, od=1.0e-3, idi=0.8e-3, e=60e9, g=23e9, **kw):
    return TubeSpec(length=length, elastic_modulus=e, shear_modulus=g,
                    outer_diameter=od, inner_diameter=idi, **kw)


def _assembly(k: int, routings=None, tubes_of=None,
              strategy=Strategy.OUTERMOST_OF_SEGMENT) -> AssemblySpec:
    """A k-tube assembly with tendons anchored at their tubes' tips: one
    per tube unless ``tubes_of`` lists each tendon's tube."""
    tubes = [
        _tube(length=0.20, od=1.4e-3, idi=1.16e-3),
        _tube(length=0.24, od=1.0e-3, idi=0.8e-3,
              rest_shape=ArcRest(kappa=5.0)),
        _tube(length=0.30, od=0.6e-3, idi=0.0, e=200e9, g=77e9),
    ][:k]
    routings = routings or [
        HelicalRouting(radius=4e-3, period=0.5, phase=0.4),
        StraightRouting([0.0, 3e-3]),
        StraightRouting([-2e-3, 1e-3]),
    ]
    tubes_of = range(k) if tubes_of is None else tubes_of
    tendons = [TendonSpec(routing=routings[j], tension=1.5, tube=i)
               for j, i in enumerate(tubes_of)]
    return AssemblySpec(tubes=tubes, tendons=tendons, strategy=strategy)


def _context(k: int, routings=None, **kw):
    """First segment of :func:`_assembly`, where every tube is active."""
    return build_problem(_assembly(k, routings, **kw),
                         SolverOptions()).contexts[0]


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
    """``oracles.stack_system`` fed from a segment record at one state.

    Rest strains are constant along every tube, so their rates are zero.
    """
    zero = np.zeros(3)
    sections = []
    for i in range(ctx.n_active):
        carried = np.flatnonzero(ctx.carriers == i)
        tendons = [ctx.routings[t].eval(state.s + ctx.routing_offsets[t])
                   + (ctx.tensions[t],) for t in carried]
        sections.append((ctx.kse[i], ctx.kbt[i], ctx.ustar[i], zero,
                         ctx.vstar[i], zero, tendons))
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
        strains = tube_strains(state, _context(3))
        np.testing.assert_array_equal(strains.u[0], state.u1)
        np.testing.assert_array_equal(strains.v[0], state.v1)

    def test_inner_tube_frame_change(self):
        rng = np.random.default_rng(53)
        state = _random_state(rng, 2)
        strains = tube_strains(state, _context(2))
        theta = state.theta[0]
        c, sn = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
        expect_u = rot.T @ state.u1
        expect_u[2] = state.u_d3[0]
        np.testing.assert_allclose(strains.u[1], expect_u, atol=1e-14)
        np.testing.assert_allclose(strains.v[1],
                                   state.beta[0] * (rot.T @ state.v1),
                                   atol=1e-14)


def _row(state: RodState, index) -> RodState:
    """Batch row ``index`` of a batched state."""
    return RodState(state.p[index], state.R[index], state.u1[index],
                    state.v1[index], state.theta[index], state.u_d3[index],
                    state.beta[index], state.s)


def _assert_matches_reference(state: RodState, ctx, a_vec, b_vec):
    a_ref, b_ref = _reference_system(state, ctx)
    np.testing.assert_allclose(a_vec, a_ref, atol=1e-12 * np.max(np.abs(a_ref)))
    np.testing.assert_allclose(b_vec, b_ref,
                               atol=1e-12 * max(np.max(np.abs(b_ref)), 1.0))


class TestAssemblyRoutes:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_vectorized_matches_reference(self, k):
        # Under the default strategy the outermost tube carries every
        # tendon; under TERMINATING_TUBE each tube carries its own.
        rng = np.random.default_rng(59 + k)
        for strategy, carriers in (
                (Strategy.OUTERMOST_OF_SEGMENT, np.zeros(k, dtype=int)),
                (Strategy.TERMINATING_TUBE, np.arange(k))):
            ctx = _context(k, strategy=strategy)
            np.testing.assert_array_equal(np.sort(ctx.carriers), carriers)
            for _ in range(10):
                state = _random_state(rng, k)
                a_vec, b_vec, _ = assemble_system(state, ctx)
                assert a_vec.shape == (2 * k + 4, 2 * k + 4)
                _assert_matches_reference(state, ctx, a_vec, b_vec)

    @pytest.mark.parametrize("tubes_of,carriers", [
        ([1, 1], [1, 1]),          # two tendons on the inner tube
        ([], []),                  # tendon-free, as the ctr_theta_* pairs
    ], ids=["two_on_one_tube", "tendon_free"])
    def test_two_tube_scatter_matches_reference(self, tubes_of, carriers):
        ctx = _context(2, tubes_of=tubes_of,
                       strategy=Strategy.TERMINATING_TUBE)
        np.testing.assert_array_equal(ctx.carriers, carriers)
        rng = np.random.default_rng(67)
        for _ in range(10):
            state = _random_state(rng, 2)
            a_vec, b_vec, _ = assemble_system(state, ctx)
            _assert_matches_reference(state, ctx, a_vec, b_vec)

    def test_batched_assembly(self):
        rng = np.random.default_rng(61)
        for k, batch in ((2, (5,)), (3, (2, 3))):
            ctx = _context(k, strategy=Strategy.TERMINATING_TUBE)
            state = _random_state(rng, k, batch=batch)
            a_vec, b_vec, collapsed = assemble_system(state, ctx)
            assert a_vec.shape == batch + (2 * k + 4, 2 * k + 4)
            assert collapsed.shape == batch and not collapsed.any()
            for index in np.ndindex(batch):
                _assert_matches_reference(_row(state, index), ctx,
                                          a_vec[index], b_vec[index])

    def test_collapsed_row_spares_the_rest_of_its_batch(self):
        # Straight routings have ṙ = 0, so a row with no strain at all has
        # no tendon tangent on any tube.
        ctx = _context(2, routings=[StraightRouting([3e-3, 0.0]),
                                    StraightRouting([0.0, -2e-3])],
                       strategy=Strategy.TERMINATING_TUBE)
        rng = np.random.default_rng(71)
        state = _random_state(rng, 2, batch=(4,))
        state.u1[2] = 0.0
        state.v1[2] = 0.0
        state.u_d3[2] = 0.0
        a_vec, b_vec, collapsed = assemble_system(state, ctx)
        np.testing.assert_array_equal(collapsed, [False, False, True, False])
        assert np.all(np.isfinite(a_vec)) and np.all(np.isfinite(b_vec))
        for row in (0, 1, 3):
            _assert_matches_reference(_row(state, row), ctx, a_vec[row],
                                      b_vec[row])


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
        dy = state_derivative(self._rest_state(k), ctx)[0]
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
        dy = state_derivative(self._rest_state(1, u1=[10.0, 0.0, 0.0]), ctx)[0]
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
                x, cond, failed = solve_rates(a, b, condition=condition)
                np.testing.assert_allclose(x, np.linalg.solve(a, b),
                                           rtol=1e-9, atol=1e-12)
                assert (cond >= 1.0) if condition else (cond == 0.0)
                assert not failed

    def test_condition_estimate_is_infinity_norm(self):
        a = np.diag([2.0, 1.0, 0.5, 4.0])
        _, cond, _ = solve_rates(a, np.ones(4), condition=True)
        assert cond == pytest.approx(np.linalg.cond(a, np.inf), rel=1e-12)

    # A bad system raises its own row's failure flag, not an exception:
    # its rates read zero and the rows around it solve as they would alone.

    @staticmethod
    def _flags_only(bad_a, bad_b, condition):
        rng = np.random.default_rng(71)
        good_a = rng.normal(size=(2, 4, 4)) + 4.0 * np.eye(4)
        good_b = rng.normal(size=(2, 4))
        a = np.stack([good_a[0], bad_a, good_a[1]])
        b = np.stack([good_b[0], bad_b, good_b[1]])
        x, cond, failed = solve_rates(a, b, condition=condition)
        np.testing.assert_array_equal(failed, [False, True, False])
        np.testing.assert_array_equal(x[1], 0.0)
        for row, j in ((0, 0), (2, 1)):
            alone_x, alone_cond, alone_failed = solve_rates(
                good_a[j], good_b[j], condition=condition)
            assert not alone_failed
            np.testing.assert_array_equal(x[row], alone_x)
            if condition:
                assert cond[row] == alone_cond

    def test_ill_conditioned_flags(self):
        self._flags_only(np.diag([1.0, 1.0, 1.0, 1e-13]), np.ones(4), True)
        # the estimate is only taken, and so only judged, on request
        _, _, failed = solve_rates(np.diag([1.0, 1.0, 1.0, 1e-13]),
                                   np.ones(4), condition=False)
        assert not failed

    @pytest.mark.parametrize("condition", [False, True])
    def test_singular_system_flags(self, condition):
        a = np.diag([2.0, 1.0, 0.0, 3.0])
        b = np.array([2.0, 1.0, 0.0, 3.0])
        self._flags_only(a, b, condition)
        _, _, failed = solve_rates(a, b, condition=condition)
        assert failed

    @pytest.mark.parametrize("condition", [False, True])
    def test_non_finite_system_flags(self, condition):
        a = np.eye(4)
        a[1, 2] = np.nan
        self._flags_only(a, np.ones(4), condition)

    def test_batched(self):
        rng = np.random.default_rng(73)
        a = rng.normal(size=(4, 6, 6)) + 4.0 * np.eye(6)
        b = rng.normal(size=(4, 6))
        x, cond, failed = solve_rates(a, b, condition=True)
        assert x.shape == (4, 6)
        assert failed.shape == (4,) and not failed.any()
        assert cond.shape == (4,)
        for i in range(4):
            np.testing.assert_allclose(x[i], np.linalg.solve(a[i], b[i]),
                                       rtol=1e-9, atol=1e-12)


class TestTendonKinematics:
    def test_degenerate_path_raises(self):
        # raises the row's failure flag, not an exception; a straight path
        # has rdot = 0, so the tangent collapses with v1
        ctx = _context(1, routings=[StraightRouting([3e-3, 0.0])])

        def state(v1):
            v1 = np.asarray(v1, dtype=float)
            batch = v1.shape[:-1]
            return RodState(p=np.zeros(batch + (3,)),
                            R=np.broadcast_to(np.eye(3), batch + (3, 3)),
                            u1=np.zeros(batch + (3,)), v1=v1,
                            theta=np.zeros(batch + (0,)),
                            u_d3=np.zeros(batch + (0,)),
                            beta=np.zeros(batch + (0,)), s=0.05)

        assert assemble_system(state([0.0, 0.0, 0.0]), ctx)[2]  # no tangent
        # in a batch, the row with a unit tangent reads as it does alone
        a_sys, b_sys, collapsed = assemble_system(
            state([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), ctx)
        np.testing.assert_array_equal(collapsed, [True, False])
        assert np.all(np.isfinite(a_sys)) and np.all(np.isfinite(b_sys))
        a_alone, b_alone, alone = assemble_system(state([0.0, 0.0, 1.0]), ctx)
        assert not alone
        np.testing.assert_array_equal(a_sys[1], a_alone)
        np.testing.assert_array_equal(b_sys[1], b_alone)

    def test_tangent_is_near_unit_at_rest(self):
        # At rest a straight tendon runs along the unit tangent e3, so its
        # load operator is T·hat(e3)² = −T·diag(1, 1, 0): it stiffens the
        # shear rows by the tension and leaves the axial row alone.
        ctx = _context(1, routings=[StraightRouting([3e-3, 0.0])])
        tension = 1.5
        state = RodState(p=np.zeros(3), R=np.eye(3), u1=np.zeros(3),
                         v1=np.array([0.0, 0.0, 1.0]),
                         theta=np.zeros(0), u_d3=np.zeros(0),
                         beta=np.zeros(0), s=0.05)
        a_sys, _, _ = assemble_system(state, ctx)
        kse = ctx.kse[0]
        np.testing.assert_allclose(
            a_sys[3:6, 3:6], np.diag(kse + tension * np.array([1.0, 1.0, 0.0])),
            rtol=1e-14, atol=1e-12)
        hat_e3 = hat(np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(a_sys[0:3, 3:6],
                                   -tension * hat(np.array([3e-3, 0.0, 0.0]))
                                   @ hat_e3 @ hat_e3, atol=1e-15)


class TestWrench:
    def test_matches_constitutive_law(self):
        asm = _assembly(3)
        ctx = build_problem(asm, SolverOptions()).contexts[0]
        rng = np.random.default_rng(83)
        state = _random_state(rng, 3)
        strains = tube_strains(state, ctx)
        for i, tube in enumerate(asm.tubes):
            pair = section_stiffness(tube)
            ustar, _ = tube.rest_shape.curvature(state.s)
            vstar, _ = tube.rest_shape.stretch(state.s)
            np.testing.assert_allclose(
                strains.n[i], pair.kse_diag * (strains.v[i] - vstar), atol=1e-9)
            np.testing.assert_allclose(
                strains.m[i], pair.kbt_diag * (strains.u[i] - ustar), atol=1e-12)


class TestStateDerivative:
    def test_diagnostics_flag_changes_reporting_only(self):
        ctx = _context(2)
        rng = np.random.default_rng(89)
        state = _random_state(rng, 2)
        full, cond, _, _ = state_derivative(state, ctx, diagnostics=True)
        fast, no_cond, _, _ = state_derivative(state, ctx, diagnostics=False)
        np.testing.assert_allclose(fast, full, rtol=1e-10, atol=1e-12)
        assert cond >= 1.0
        assert np.all(no_cond == 0.0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_packed_layout(self, k):
        ctx = _context(k)
        rng = np.random.default_rng(97)
        state = _random_state(rng, k, batch=(2,))
        dy, _, collapsed, failed = state_derivative(state, ctx)
        assert not collapsed.any() and not failed.any()
        assert dy.shape == pack_state(state).shape
        deriv = unpack_state(dy, k, state.s)
        np.testing.assert_array_equal(deriv.p, (state.R @ state.v1[..., None])[..., 0])
        np.testing.assert_array_equal(deriv.R, state.R @ hat(state.u1))
        np.testing.assert_array_equal(deriv.theta,
                                      state.u_d3 - state.u1[..., 2:3])
        a_sys, b_sys, _ = assemble_system(state, ctx)
        x = np.concatenate([deriv.u1, deriv.v1, deriv.u_d3, deriv.beta], axis=-1)
        np.testing.assert_array_equal(
            x, solve_rates(a_sys, b_sys, condition=True)[0])
