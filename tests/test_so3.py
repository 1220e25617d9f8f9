"""Rotation-group helper tests: hat, axial rotations, polar cleanup, and
the RK4 pose increment."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from nestrod.so3 import (DRIFT_LIMIT, SAFE_TURN, hat, reorthonormalize,
                         rk4_increment, rot_d3)

E3 = np.array([0.0, 0.0, 1.0])


class TestHatVee:
    def test_hat_matches_cross_product(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(hat(a) @ b, np.cross(a, b), atol=1e-14)

    def test_batched_shapes(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(4, 5, 3))
        m = hat(v)
        assert m.shape == (4, 5, 3, 3)
        np.testing.assert_array_equal(
            np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1), v)
        # every slice is skew
        np.testing.assert_allclose(m + np.swapaxes(m, -1, -2), 0.0, atol=0)


class TestRotD3:
    def test_is_rotation(self):
        rng = np.random.default_rng(5)
        for theta in rng.uniform(-10, 10, size=20):
            r = rot_d3(theta)
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-14)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)

    def test_composition(self):
        a, b = 0.3, -1.2
        np.testing.assert_allclose(rot_d3(a) @ rot_d3(b), rot_d3(a + b),
                                   atol=1e-15)

    def test_fixes_shared_axis(self):
        np.testing.assert_array_equal(rot_d3(0.7) @ E3, E3)

    def test_quarter_turn(self):
        r = rot_d3(np.pi / 2.0)
        np.testing.assert_allclose(r @ np.array([1.0, 0.0, 0.0]),
                                   [0.0, 1.0, 0.0], atol=1e-15)

    def test_batched(self):
        thetas = np.linspace(0.0, 2.0, 6).reshape(2, 3)
        r = rot_d3(thetas)
        assert r.shape == (2, 3, 3, 3)
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(r[i, j], rot_d3(thetas[i, j]))


class TestReorthonormalize:
    def _random_rotation(self, rng):
        # QR of a random matrix, sign-fixed to det +1
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return q

    def test_fixed_point_on_rotations(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            r = self._random_rotation(rng)
            out, bad = reorthonormalize(r)
            np.testing.assert_allclose(out, r, atol=1e-13)
            assert not bad

    def test_cleans_small_drift(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            r = self._random_rotation(rng)
            drifted = r + rng.normal(scale=1e-3, size=(3, 3))
            out, bad = reorthonormalize(drifted)
            assert not bad
            np.testing.assert_allclose(out @ out.T, np.eye(3), atol=1e-13)
            assert np.linalg.det(out) == pytest.approx(1.0, abs=1e-12)
            # the projection stays near the original rotation
            assert np.linalg.norm(out - r) < 1e-2

    def test_batched(self):
        rng = np.random.default_rng(29)
        rs = np.stack([self._random_rotation(rng) for _ in range(4)])
        out, bad = reorthonormalize(rs + 1e-6)
        assert out.shape == (4, 3, 3)
        assert bad.shape == (4,) and not bad.any()
        eye = np.broadcast_to(np.eye(3), (4, 3, 3))
        np.testing.assert_allclose(out @ np.swapaxes(out, -1, -2), eye,
                                   atol=1e-12)

    # A rejected matrix is flagged in its own batch row; the rows around it
    # project as they would alone.

    def _flags_only(self, bad_matrix):
        rng = np.random.default_rng(31)
        good = np.stack([self._random_rotation(rng) for _ in range(2)]) + 1e-6
        out, bad = reorthonormalize(np.stack([good[0], bad_matrix, good[1]]))
        np.testing.assert_array_equal(bad, [False, True, False])
        for row, alone in ((0, good[0]), (2, good[1])):
            np.testing.assert_array_equal(out[row], reorthonormalize(alone)[0])

    def test_rejects_reflection(self):
        self._flags_only(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_rank_collapse(self):
        self._flags_only(np.zeros((3, 3)))

    def test_rejects_large_drift(self):
        self._flags_only(np.eye(3) * (1.0 + 2.0 * DRIFT_LIMIT))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_huge_entries_without_overflow(self):
        # A bold Newton candidate can blow a frame up this far in one RK4
        # step; squaring its distance to the group would overflow.
        self._flags_only(np.eye(3) * 1e200)

    def test_rejects_non_finite(self):
        nan = np.eye(3)
        nan[0, 1] = np.nan
        self._flags_only(nan)
        self._flags_only(np.full((3, 3), np.inf))


_VECTOR = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


class TestRK4Increment:
    def test_safe_turn_is_the_largest_within_the_drift_limit(self):
        def bound(phi):
            return math.sqrt(3.0) * (phi + phi**2 / 2 + phi**3 / 6
                                     + phi**4 / 24)
        assert bound(SAFE_TURN) <= DRIFT_LIMIT < bound(SAFE_TURN * (1 + 1e-12))
        assert 0.056 < SAFE_TURN < 0.0562

    @settings(max_examples=300, deadline=None)
    @given(axes=st.lists(_VECTOR, min_size=4, max_size=4),
           turns=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           strains=st.lists(_VECTOR, min_size=4, max_size=4),
           h=st.floats(1e-4, 1.0))
    def test_steps_within_the_safe_turn_are_never_flagged(self, axes, turns,
                                                          strains, h):
        # Any four stage curvatures with ‖u‖·h ≤ SAFE_TURN, the edge
        # included, give an increment that reorthonormalize passes.
        # Scale by the largest entry first: the norm of a tiny axis such
        # as 1e-158 squares into the subnormals and comes out inexact.
        u = np.array(axes)
        peaks = np.abs(u).max(axis=-1, keepdims=True)
        u = np.where(peaks > 0, u / np.where(peaks > 0, peaks, 1.0), 0.0)
        norms = np.linalg.norm(u, axis=-1, keepdims=True)
        u = np.where(norms > 0, u / np.where(norms > 0, norms, 1.0), 0.0)
        u *= np.minimum(1.0, np.array(turns) * 1.5)[:, None] * SAFE_TURN / h
        assert (np.linalg.norm(u, axis=-1) * h <= SAFE_TURN * (1 + 1e-15)).all()
        step = rk4_increment(u, np.array(strains), h)
        assert not reorthonormalize(step[..., 0:3])[1]

    def test_larger_turns_can_be_flagged(self):
        # Stages turning by 1 rad each, about changing axes: the increment
        # leaves the rotation group past DRIFT_LIMIT.
        u = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]])
        step = rk4_increment(u, np.zeros((4, 3)), 1.0)
        assert reorthonormalize(step[..., 0:3])[1]

    def test_matches_rk4_on_the_pose(self):
        # The increment [M | q] is RK4 on [p, R] from any rotation R: R M
        # and p + R q, batched over leading axes after the stage axis.
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=(2, 4, 5, 3))
        h = 0.01
        rot = expm(hat(rng.normal(size=3)))
        pos = rng.normal(size=3)

        def rates(frame, ui, vi):
            return frame @ hat(ui), frame @ vi

        step = rk4_increment(u, v, h)
        assert step.shape == (5, 3, 4)
        for row in range(5):
            k1 = rates(rot, u[0, row], v[0, row])
            k2 = rates(rot + 0.5 * h * k1[0], u[1, row], v[1, row])
            k3 = rates(rot + 0.5 * h * k2[0], u[2, row], v[2, row])
            k4 = rates(rot + h * k3[0], u[3, row], v[3, row])
            frame = rot + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            shift = h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            np.testing.assert_allclose(rot @ step[row, :, 0:3], frame,
                                       atol=1e-15)
            np.testing.assert_allclose(rot @ step[row, :, 3], shift,
                                       atol=1e-15)
