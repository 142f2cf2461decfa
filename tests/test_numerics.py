import mpmath
import numpy as np
import pytest

from nnlslab.background import f_branch
from nnlslab.numerics import (ComplexPath, PhaseUnwrapError, QuadratureError,
                              RootFindError, bracket_root, cauchy_segment,
                              continuous_log, gamma_complex, quad_path, theta3)


def gamma_weierstrass(z, nterms=2_000_000):
    """Independent product-formula oracle: 1/Gamma(z) = z e^{g z} prod
    (1 + z/n) e^{-z/n}, summed in log form with a three-term tail."""
    g = 0.5772156649015328606065
    n = np.arange(1, nterms + 1, dtype=float)
    s = np.sum(np.log1p(z / n) - z / n)
    N = float(nterms)
    t2 = 1.0 / N - 1.0 / (2 * N**2) + 1.0 / (6 * N**3)
    t3 = 1.0 / (2 * N**2) - 1.0 / (2 * N**3)
    s += -z**2 / 2 * t2 + z**3 / 3 * t3
    return 1.0 / (z * np.exp(g * z + s))


class TestGamma:
    def test_base(self):
        assert gamma_complex(1) == pytest.approx(1.0)

    def test_half(self):
        assert gamma_complex(0.5) == pytest.approx(np.sqrt(np.pi), abs=1e-12)

    def test_weierstrass_oracle(self):
        z = 1 + 1j
        ref = gamma_weierstrass(z)
        assert abs(gamma_complex(z) - ref) < 1e-12

    def test_pole(self):
        with pytest.raises(ValueError):
            gamma_complex(-2)

    def test_recurrence(self, rng):
        # |Gamma(z+1) - z Gamma(z)| / |Gamma(z+1)| < 1e-12 away from poles
        count = 0
        while count < 100:
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(z.imag) < 0.1 and z.real < 0.5:
                continue
            g1 = gamma_complex(z + 1)
            assert abs(g1 - z * gamma_complex(z)) / abs(g1) < 1e-12
            count += 1


class TestTheta3:
    def test_value_at_origin(self):
        # direct high-precision summation oracle, frozen
        assert abs(theta3(0, 1j) - 1.0864348112133080) < 1e-12

    def test_generic_value(self):
        # frozen from 40-digit summation of the defining series
        ref = 1.1031732586650864729 - 0.0601919667381739993j
        assert abs(theta3(0.3 + 0.1j, 0.5 + 0.8j) - ref) < 1e-12

    def test_periodicity_grid(self, rng):
        for _ in range(50):
            v = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.2, 3.0))
            th = theta3(v, tau)
            assert abs(theta3(v + 1, tau) - th) < 1e-12 * max(1, abs(th))
            qp = np.exp(-1j * np.pi * tau - 2j * np.pi * v)
            assert abs(theta3(v + tau, tau) - qp * th) < 1e-12 * max(
                1, abs(qp * th)
            )

    def test_nome_error(self):
        with pytest.raises(ValueError):
            theta3(0.3, 1.0 - 0.5j)

    def test_array_input(self):
        v = np.array([0.1, 0.2 + 0.1j])
        out = theta3(v, 1j)
        assert out.shape == (2,)
        assert abs(out[0] - theta3(0.1, 1j)) == 0.0


#: a log end at a complex point off the origin, times a non-polynomial
#: factor, and its integral to 20 digits
_LOG_A, _LOG_B = 0.3 + 0.7j, 1.1 - 0.2j


def _log_times_meromorphic(z, log=np.log, exp=np.exp):
    return log(z - _LOG_A) * exp(z) / (1 + z * z)


with mpmath.workdps(20):
    _LOG_REFERENCE = complex(mpmath.quad(
        lambda t: _log_times_meromorphic(_LOG_A + (_LOG_B - _LOG_A) * t,
                                         mpmath.log, mpmath.exp),
        [0, 1]) * (_LOG_B - _LOG_A))


class TestQuadPath:
    def test_inverse_sqrt_endpoint(self):
        path = ComplexPath.segment(0, 1, start="inverse_sqrt")
        val = quad_path(lambda z: z**-0.5, path, tol=1e-12)
        assert abs(val - 2.0) < 1e-12

    def test_cut_integral_closed_form(self):
        # along the cut with A = 1 the weight integrates to i*pi (arcsine)
        path = ComplexPath.segment(-1j, 1j, "inverse_sqrt", "inverse_sqrt")
        val = quad_path(lambda z: 1.0 / f_branch(z, 1.0), path, tol=1e-11)
        assert abs(val - 1j * np.pi) < 1e-10

    def test_gauss_exactness_degree7(self):
        poly = lambda z: 3 * z**7 - 2 * z**4 + z - 5
        exact = 3 / 8 * (2**8 - 1) - 2 / 5 * (2**5 - 1) + (2**2 - 1) / 2 - 5
        val = quad_path(poly, ComplexPath.segment(1, 2))
        assert abs(val - exact) < 1e-12 * abs(exact)

    def test_additive_under_split(self, rng):
        f = lambda z: np.exp(1j * z) / (1 + z * z)
        whole = quad_path(f, ComplexPath.segment(0, 2 + 1j), tol=1e-12)
        mid = 0.7 + 0.35j
        parts = quad_path(f, ComplexPath.segment(0, mid), tol=1e-12) + quad_path(
            f, ComplexPath.segment(mid, 2 + 1j), tol=1e-12
        )
        assert abs(whole - parts) < 1e-12

    def test_log_endpoint(self):
        path = ComplexPath.segment(0, 1, start="log")
        val = quad_path(np.log, path, tol=1e-12)
        assert abs(val - (-1.0)) < 1e-10

    @pytest.mark.parametrize("tags, a, b, f, exact", [
        (("none", "none"), 0, 1, np.exp, np.e - 1),
        (("inverse_sqrt", "none"), 0, 1, lambda z: z**-0.5, 2.0),
        (("none", "inverse_sqrt"), 0, 1, lambda z: (1 - z) ** -0.5, 2.0),
        (("inverse_sqrt", "inverse_sqrt"), 0, 1,
         lambda z: 1 / np.sqrt(z * (1 - z)), np.pi),
        (("log", "none"), 0, 1, np.log, -1.0),
        (("none", "log"), 1, 0, np.log, 1.0),
        (("log", "log"), 0, 1, lambda z: np.log(z) * (1 - z), -0.75),
        (("log", "inverse_sqrt"), 0, 1, lambda z: np.log(z) / np.sqrt(1 - z),
         4 * np.log(2) - 4),
        (("inverse_sqrt", "log"), 1, 0, lambda z: np.log(z) / np.sqrt(1 - z),
         4 - 4 * np.log(2)),
        (("log", "none"), _LOG_A, _LOG_B, _log_times_meromorphic,
         _LOG_REFERENCE),
    ])
    def test_closed_forms_by_endpoint_tags(self, tags, a, b, f, exact):
        # exact values in closed form or from mpmath; the rotated copy runs
        # along a complex direction
        for rot in (1.0, np.exp(0.3j)):
            path = ComplexPath.segment(rot * a, rot * b, *tags)
            val = quad_path(lambda z: f(z / rot), path, tol=1e-12)
            assert abs(val / rot - exact) < 1e-10

    def test_log_end_where_the_coordinate_rounds(self):
        # toward a log end away from the origin, offsets below an ulp vanish
        # against the end's coordinates; no node may land on the end itself,
        # along the real axis or a rotated direction
        path = ComplexPath.segment(0, 1, "none", "log")
        val = quad_path(lambda z: np.log(1 - z), path, tol=1e-12)
        assert abs(val - (-1.0)) < 1e-12
        w = np.exp(0.25j * np.pi)
        path = ComplexPath.segment(0, w, "none", "log")
        val = quad_path(lambda z: np.log(w - z), path, tol=1e-12)
        assert abs(val - w * (0.25j * np.pi - 1.0)) < 1e-12

    def test_refined_peak_closed_form(self):
        # many refinement levels: a Lorentzian of width 1e-3 inside [0, 1]
        w = 1e-3
        f = lambda z: 1.0 / (w * w + (z - 0.3) ** 2)
        exact = (np.arctan(0.7 / w) + np.arctan(0.3 / w)) / w
        val = quad_path(f, ComplexPath.segment(0, 1), tol=1e-9)
        assert abs(val - exact) < 1e-9 * exact

    def test_one_integrand_call_per_level(self):
        # a log end starts from one panel; each refinement level sends both
        # halves of every open panel to the integrand at once
        sizes = []

        def f(z):
            sizes.append(z.size)
            return np.log(z)

        quad_path(f, ComplexPath.segment(0, 1, "log", "none"), tol=1e-12)
        assert sizes[:2] == [15, 30]
        assert all(n % 30 == 0 for n in sizes[1:])
        assert len(sizes) < 12

    def test_interior_singularity_raises(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(QuadratureError):
                quad_path(lambda z: 1.0 / (z - 0.5), ComplexPath.segment(0, 1),
                          tol=1e-10)


class TestCauchySegment:
    def test_far_pole_matches_closed_form(self):
        # phi = 1: integral over [0, 1] of dz/(z-k) = log((1-k)/(-k))
        k = 2.0 + 1.5j
        val = cauchy_segment(lambda z: np.ones_like(z), 0, 1, k, tol=1e-12)
        assert abs(val - np.log((1 - k) / (-k))) < 1e-11

    def test_near_pole_subtraction(self):
        k = 0.5 + 1e-7j
        val = cauchy_segment(lambda z: np.exp(z), 0, 1, k, tol=1e-10)
        # Plemelj: value = PV + i*pi*e^0.5 in the limit from above
        ref = cauchy_segment(lambda z: np.exp(z), 0, 1, 0.5 + 1e-4j, tol=1e-12)
        # both approach the same boundary value to O(offset)
        assert abs(val - ref) < 1e-3
        assert abs(val.imag - np.pi * np.exp(0.5)) < 1e-3

    def test_pole_on_path_raises(self):
        with pytest.raises(QuadratureError):
            cauchy_segment(lambda z: np.ones_like(z), 0, 1, 0.5 + 0j)


class TestBracketRoot:
    def test_sqrt2(self):
        assert abs(bracket_root(lambda k: k * k - 2, 1, 2) - np.sqrt(2)) < 1e-12

    def test_cos(self):
        assert abs(bracket_root(np.cos, 1, 2) - np.pi / 2) < 1e-12

    def test_dense_scan_oracle(self):
        # monotone transcendental; oracle by 10^6-point scan
        g = lambda k: np.tanh(k) + 0.3 * k - 1.1
        root = bracket_root(g, 0, 3, tol=1e-12)
        grid = np.linspace(0, 3, 1_000_001)
        vals = np.tanh(grid) + 0.3 * grid - 1.1
        i = np.argmin(np.abs(vals))
        assert abs(root - grid[i]) < 2 * (3 / 1e6)

    def test_no_sign_change(self):
        with pytest.raises(ValueError):
            bracket_root(lambda k: k * k + 1, -1, 1)

    def test_sign_change_without_root(self):
        # Brent closes in on the jump, where the residual stays 1
        with pytest.raises(RootFindError, match="residual"):
            bracket_root(lambda k: -1.0 if k < 0.3 else 1.0, 0, 1)


class TestContinuousLog:
    def test_constant_ones(self):
        logs = continuous_log(np.ones(10))
        assert np.abs(logs).max() == 0.0

    def test_two_windings(self):
        th = np.linspace(0, 4 * np.pi, 1000)
        logs = continuous_log(np.exp(1j * th))
        assert abs(logs.imag[-1] - 4 * np.pi) < 1e-10

    def test_no_jump_crossing_negative_axis(self):
        th = np.linspace(0.9 * np.pi, 1.1 * np.pi, 50)
        logs = continuous_log(2.0 * np.exp(1j * th))
        assert np.abs(np.diff(logs.imag)).max() < 0.02

    def test_exp_back(self, rng):
        vals = np.exp(rng.normal(size=200) * 0.1 +
                      1j * np.cumsum(rng.normal(size=200) * 0.2))
        logs = continuous_log(vals)
        assert np.abs(np.exp(logs) - vals).max() < 1e-12

    def test_zero_sample(self):
        with pytest.raises(ValueError):
            continuous_log(np.array([1.0, 0.0, 1.0]))

    def test_unresolvable_jump(self):
        with pytest.raises(PhaseUnwrapError):
            continuous_log(np.array([1.0, -1.0, 1.0]))

    def test_branch_tracker_invariant(self):
        th = np.linspace(0, 2 * np.pi, 400)
        logs = continuous_log(np.exp(1j * th))
        assert abs(logs[-1].imag - logs[0].imag - 2 * np.pi) < 1e-10


class TestComplexPath:
    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            ComplexPath((1.0,))
        with pytest.raises(ValueError, match="segment"):
            ComplexPath((0, 1, 1 + 1j))

    def test_distinct_vertices(self):
        with pytest.raises(ValueError):
            ComplexPath((0.0, 0.0))

    def test_bad_tag(self):
        with pytest.raises(ValueError):
            ComplexPath.segment(0, 1, start="sqrt")
