"""Rotation-group helper tests: hat, axial rotations, polar cleanup."""

from __future__ import annotations

import numpy as np
import pytest

from nestrod.so3 import DRIFT_LIMIT, hat, reorthonormalize, rot_d3

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
