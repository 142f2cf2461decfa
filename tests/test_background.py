import numpy as np
import pytest

from nnlslab.background import (E_matrix, RayRegion, classify_ray, f_branch,
                                stationary_points, theta_phase, w_branch)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)


class TestFBranch:
    def test_positive_real_axis(self):
        assert f_branch(1.0, 1.0) == pytest.approx(np.sqrt(2), abs=1e-14)

    def test_negative_real_axis(self):
        assert f_branch(-1.0, 1.0) == pytest.approx(-np.sqrt(2), abs=1e-13)

    def test_cut_minus_side(self):
        val = f_branch(0.5j, 1.0)
        assert abs(val - np.sqrt(0.75)) < 1e-10

    def test_large_k(self):
        k = 1e6 + 3e5j
        assert abs(f_branch(k, 1.0) - k) < 1e-5

    def test_continuity_across_real_axis(self, rng):
        ks = rng.uniform(-8, 8, 50)
        up = f_branch(ks + 1e-9j, 1.0)
        dn = f_branch(ks - 1e-9j, 1.0)
        assert np.abs(up - dn).max() < 1e-8

    def test_branch_symmetry(self, rng):
        for _ in range(20):
            k = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
            lhs = f_branch(-np.conj(k), 1.0)
            assert abs(lhs + np.conj(f_branch(k, 1.0))) < 1e-12

    def test_endpoint_error(self):
        with pytest.raises(ValueError):
            f_branch(1j, 1.0)


class TestWBranch:
    def test_large_k(self):
        assert abs(w_branch(1e6, 1.0) - 1.0) < 1e-5

    def test_fourth_power(self, rng):
        for _ in range(20):
            k = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(k.real) < 0.2 and abs(k.imag) < 1.2:
                continue
            w4 = w_branch(k, 1.0) ** 4
            assert abs(w4 - (k - 1j) / (k + 1j)) < 1e-12

    def test_principal_continuation_value(self):
        assert abs(w_branch(1.0, 1.0) - np.exp(-1j * np.pi / 8)) < 1e-14

    def test_continuity_across_real_axis(self, rng):
        ks = rng.uniform(-8, 8, 50)
        assert np.abs(
            w_branch(ks + 1e-9j, 1.0) - w_branch(ks - 1e-9j, 1.0)
        ).max() < 1e-8


class TestEMatrix:
    def test_unimodular(self, rng):
        for _ in range(20):
            k = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(k.real) < 0.2 and abs(k.imag) < 1.2:
                continue
            E = E_matrix(k, 1.0)
            det = E[0, 0] * E[1, 1] - E[0, 1] * E[1, 0]
            assert abs(det - 1.0) < 1e-12

    def test_identity_at_infinity(self):
        E = E_matrix(1e6, 1.0)
        assert np.abs(E - np.eye(2)).max() < 1e-5

    def test_cut_jump(self):
        # plus side (left) relates to minus side by i * sigma1 on the right
        A, y, eps = 1.0, 0.4, 1e-8
        Em = E_matrix(1j * y, A)
        Ep = 2 * E_matrix(1j * y - eps / 2, A) - E_matrix(1j * y - eps, A)
        assert np.abs(Ep - 1j * Em @ SIGMA1).max() < 1e-10


class TestThetaPhase:
    def test_direct_value(self):
        assert theta_phase(1.0, 2.0, 1.0) == pytest.approx(10 * np.sqrt(2),
                                                           abs=1e-12)

    def test_large_k_expansion(self):
        # next-order term is 2*xi*A^2/k, so keep xi*A^2 modest for the bound
        k = 1e4
        xi, A = 0.4, 1.0
        approx = 2 * k * k + 4 * xi * k + A * A
        assert abs(theta_phase(k, xi, A) - approx) < 1e-4

    def test_stationary_derivative(self):
        xi, A = 2.0, 1.0
        k1 = stationary_points(xi, A)[0].real
        h = 1e-6
        d = (theta_phase(k1 + h, xi, A) - theta_phase(k1 - h, xi, A)) / (2 * h)
        assert abs(d) < 1e-10 / h * 1e-4 or abs(d) < 1e-5


class TestStationaryPoints:
    def test_plane_wave_values(self):
        k1, k2 = stationary_points(2.0, 1.0)
        assert k1 == pytest.approx((-2 - np.sqrt(2)) / 2, abs=1e-14)
        assert k2 == pytest.approx((-2 + np.sqrt(2)) / 2, abs=1e-14)

    def test_merge_at_edge(self):
        # sqrt(eps)-level splitting is inherent at the double root
        k1, k2 = stationary_points(np.sqrt(2), 1.0)
        assert k1 == pytest.approx(-np.sqrt(2) / 2, abs=1e-7)
        assert k2 == pytest.approx(-np.sqrt(2) / 2, abs=1e-7)

    def test_elliptic_conjugate_pair(self):
        k1, k2 = stationary_points(0.0, 1.0)
        assert k1 == pytest.approx(1j / np.sqrt(2), abs=1e-14)
        assert k2 == np.conj(k1)


class TestRayClassification:
    def test_regions(self):
        A = 1.0
        edge = np.sqrt(2.0)
        assert classify_ray(2.0, A).region is RayRegion.PLANE_WAVE
        assert classify_ray(-2.0, A).region is RayRegion.PLANE_WAVE
        assert classify_ray(0.5, A).region is RayRegion.ELLIPTIC_WAVE
        assert classify_ray(edge, A).region is RayRegion.TRANSITION
        assert classify_ray(-edge, A).region is RayRegion.TRANSITION
        assert classify_ray(0.0, A).region is RayRegion.TRANSITION
