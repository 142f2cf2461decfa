import functools
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from nnlslab.background import stationary_points, theta_phase
from nnlslab.ellipticwave import build_surface
from nnlslab.numerics import QuadratureError
from nnlslab.planewave import (F_fn, F_inf, F_inf_split, SubleadingCase,
                               WindingError, chi_fn, delta_fn, local_exponents,
                               log_delta, planewave_eval, planewave_params,
                               subleading_case)
from nnlslab.scattering import line_series

A, XI = 0.5, 1.2
K1 = 0.5 * (-XI - np.sqrt(XI * XI - 2 * A * A))


class ZeroReflectionTable:
    """Synthetic spectral table with r1*r2 identically zero."""

    A = 0.5
    k_tail = 8.0

    def log_rr(self, k):
        k = np.asarray(k, dtype=float)
        out = np.zeros_like(k, dtype=complex)
        return out if out.ndim else complex(out)

    @functools.cached_property
    def line(self):
        # the package's line table, built from the analytic log
        return line_series(self.log_rr, -self.k_tail, -1e-4)[0]

    def max_abs_winding(self, k_stop):
        return 0.0

    def reflection_at(self, k):
        z = np.zeros_like(np.asarray(k, dtype=complex))
        return z, z

    def rr(self, k):
        return 1.0 + 0.0 * np.asarray(k, dtype=complex)


class SyntheticRealTable(ZeroReflectionTable):
    """1 + r1*r2 real positive (zero accumulated argument), nontrivial size;
    its poles at -1.2 +- 0.2i split the line table into four pieces."""

    def log_rr(self, k):
        k = np.asarray(k, dtype=float)
        out = 0.05 / (1.0 + 25.0 * (k + 1.2) ** 2) + 0j
        return out if out.ndim else complex(out)

    def rr(self, k):
        return np.exp(self.log_rr(k))


@pytest.fixture(scope="module")
def pwd(verif_table):
    return planewave_params(XI, verif_table)


class TestDeltaFn:
    def test_zero_reflection_identity(self):
        tab = ZeroReflectionTable()
        assert abs(delta_fn(2 + 1j, -0.9, tab) - 1.0) < 1e-14

    def test_jump_relation(self, verif_table, rng):
        # delta_+/delta_- = 1 + r1 r2 on (-inf, k1), Richardson in the offset
        pts = rng.uniform(-3.0, K1 - 0.1, 20)
        eps = 1e-6
        for s in pts:
            dp = delta_fn(s + 1j * eps, K1, verif_table)
            dm = delta_fn(s - 1j * eps, K1, verif_table)
            dp2 = delta_fn(s + 0.5j * eps, K1, verif_table)
            dm2 = delta_fn(s - 0.5j * eps, K1, verif_table)
            ratio = 2 * (dp2 / dm2) - dp / dm
            target = complex(verif_table.rr(np.array([s]))[0])
            assert abs(ratio - target) < 1e-7

    def test_unit_at_infinity(self, verif_table):
        assert abs(delta_fn(1e4, K1, verif_table) - 1.0) < 1e-6

    def test_factored_form_near_k1(self, verif_table):
        nu, chi1, _ = local_exponents(K1, verif_table)
        k = K1 + 1e-5 * np.exp(0.7j)
        lhs = delta_fn(k, K1, verif_table)
        rhs = (k - K1) ** (1j * nu) * np.exp(chi_fn(k, K1, verif_table))
        assert abs(lhs / rhs - 1) < 1e-4


class TestLocalExponents:
    def test_zero_reflection(self):
        nu, chi, Delta = local_exponents(-0.9, ZeroReflectionTable())
        assert nu == 0 and chi == 0 and Delta == 0

    def test_im_nu_is_minus_delta_over_2pi(self, verif_table):
        nu, chi, Delta = local_exponents(K1, verif_table)
        assert nu.imag + Delta / (2 * np.pi) == 0.0

    def test_nu_relative_in_tail(self, verif_table):
        # |r1 r2| is 7e-11 at k1 of xi = 2.8, far below the line table's
        # absolute error, and c2, c3 are proportional to nu
        k1 = float(stationary_points(2.8, A)[0].real)
        r1, r2 = verif_table.reflection_at(np.array([k1]))
        mp.mp.dps = 30
        ref = complex(-mp.log(1 + mp.mpc(complex(r1[0] * r2[0]))) / (2 * mp.pi))
        nu, _, _ = local_exponents(k1, verif_table)
        assert abs(nu - ref) < 1e-13 * abs(ref)

    def test_winding_violation_raises(self):
        class Winding(ZeroReflectionTable):
            def max_abs_winding(self, k_stop):
                return 3.5

        with pytest.raises(WindingError):
            local_exponents(-0.9, Winding())


class TestFMachinery:
    def test_zero_reflection(self):
        tab = ZeroReflectionTable()
        assert abs(F_fn(0.7 + 0.4j, -0.9, tab) - 1.0) < 1e-12
        assert abs(F_inf(-0.9, tab)) < 1e-12

    def test_jump_product_on_cut(self, verif_table):
        eps = 1e-5
        for y in (0.31, -0.22, 0.05, 0.4, -0.38):
            Fp = F_fn(1j * y - eps, K1, verif_table)
            Fm = F_fn(1j * y + eps, K1, verif_table)
            Fp2 = F_fn(1j * y - eps / 2, K1, verif_table)
            Fm2 = F_fn(1j * y + eps / 2, K1, verif_table)
            prod = 2 * (Fp2 * Fm2) - Fp * Fm
            d2 = delta_fn(1j * y, K1, verif_table) ** 2
            assert abs(prod - d2) < 1e-7

    @pytest.mark.parametrize("k1", [K1, -0.5], ids=["K1", "minus_half"])
    def test_jump_product_next_to_cut(self, verif_table, k1):
        # Richardson in the offset 1e-7: the closed form of F holds to
        # rounding next to the cut
        eps = 1e-7
        for y in (0.31, -0.22, 0.05, 0.4, -0.38):
            F = lambda x: F_fn(1j * y + x, k1, verif_table)
            prod = 2 * F(eps / 2) * F(-eps / 2) - F(eps) * F(-eps)
            d2 = delta_fn(1j * y, k1, verif_table) ** 2
            assert abs(prod - d2) < 1e-12

    def test_on_cut_value_is_minus_side(self, verif_table):
        for y in (0.31, -0.22, 0.05):
            on = F_fn(1j * y, K1, verif_table)
            right = F_fn(1j * y + 1e-12, K1, verif_table)
            assert abs(on - right) < 1e-12

    def test_bounded_at_endpoints(self, verif_table):
        ds = np.geomspace(1e-6, 1e-2, 10)
        vals = np.array([F_fn(1j * (A + d), K1, verif_table) for d in ds])
        assert np.abs(vals).max() < 10
        # approach values converge
        assert abs(vals[0] - vals[1]) < 1e-4

    def test_finf_two_routes(self, verif_table):
        route1 = F_inf(K1, verif_table)
        route2, imag_noise = F_inf_split(K1, verif_table)
        assert abs(route1 - route2) < 1e-7
        assert imag_noise < 1e-9

    def test_finf_real_when_no_winding(self):
        # synthetic real-positive 1 + r1 r2: Im F_inf must vanish
        tab = SyntheticRealTable()
        val = F_inf(-0.9, tab)
        assert abs(val.imag) < 1e-8
        assert abs(val.real) > 1e-5


class TestPlaneWaveParams:
    def test_region_error(self, verif_table):
        with pytest.raises(ValueError):
            planewave_params(0.3, verif_table)

    def test_beta1_against_finite_difference(self, pwd):
        h = 1e-5
        th = lambda k: theta_phase(k, XI, A)
        d2 = (th(pwd.k1 + h) - 2 * th(pwd.k1) + th(pwd.k1 - h)).real / h**2
        assert abs(pwd.beta1 - 0.5 / np.sqrt(d2 / 2)) < 1e-6

    def test_case_tag_thresholds(self):
        for im, case in [(-0.3, SubleadingCase.A), (-1 / 6, SubleadingCase.A),
                         (0.0, SubleadingCase.B), (0.165, SubleadingCase.B),
                         (1 / 6, SubleadingCase.C), (0.4, SubleadingCase.C)]:
            assert subleading_case(0.02 + 1j * im) is case
        with pytest.raises(WindingError):
            subleading_case(0.02 + 0.6j)

    def test_zero_reflection_guard(self):
        data = planewave_params(XI, ZeroReflectionTable())
        assert data.F_inf == 0
        assert data.nu == 0
        assert data.c1 == data.c2 == data.c3 == data.c4 == 0

    def test_verif_constants_finite(self, pwd):
        for c in (pwd.c1, pwd.c2, pwd.c3, pwd.c4):
            assert np.isfinite(c)
        assert abs(pwd.nu.imag) < 0.5


class TestPlaneWaveEval:
    def test_zero_reflection_background(self):
        data = planewave_params(XI, ZeroReflectionTable())
        for t in (1.0, 7.3):
            qp, qm, E1, E2 = planewave_eval(data, t)
            ref = 0.5 * np.exp(2j * 0.25 * t)
            assert abs(qp - ref) < 1e-12
            assert abs(qm - ref) < 1e-12
            assert E1 == 0 and E2 == 0

    def test_modulus_time_independent(self, pwd):
        mags = [abs(planewave_eval(pwd, t)[0]) for t in (3.0, 17.0, 91.0)]
        expected = A * np.exp(-2 * pwd.F_inf.imag)
        assert max(abs(m - expected) for m in mags) < 1e-14

    def test_two_ray_product(self, pwd):
        qp, qm, _, _ = planewave_eval(pwd, 11.0)
        assert abs(abs(qp) * abs(qm) - A * A) < 1e-14

    def test_subleading_single_term_slopes(self, pwd):
        ts = np.geomspace(1e2, 1e4, 30)
        cases = [
            (replace(pwd, nu=0.05 - 0.3j, case_tag=SubleadingCase.A,
                     c1=0.7 + 0.2j, c2=0j, c3=1j, c4=0j), -0.5 + 0.3),
            (replace(pwd, nu=0.05 + 0.25j, case_tag=SubleadingCase.C,
                     c1=0j, c2=0.7 + 0.2j, c3=0j, c4=1j), -0.5 + 0.25),
        ]
        for syn, expect in cases:
            e1 = np.array([abs(planewave_eval(syn, t)[2]) for t in ts])
            slope = np.polyfit(np.log(ts), np.log(e1), 1)[0]
            assert abs(slope - expect) < 0.02


def _series_mp(p):
    """The Chebyshev piece p as a function of an mpmath number (Clenshaw)."""
    a, b = (mp.mpf(x) for x in p.domain)
    coef = [mp.mpc(c.real, c.imag) for c in p.coef]

    def value(s):
        t = (2 * s - a - b) / (b - a)
        b1 = b2 = 0
        for c in reversed(coef[1:]):
            b1, b2 = 2 * t * b1 - b2 + c, b1
        return t * b1 - b2 + coef[0]

    return value


def _pieces_to(k_end, tab):
    """(series, a, b) of the line pieces cut at k_end, in 30 digits."""
    return [(_series_mp(p), mp.mpf(p.domain[0]), mp.mpf(min(p.domain[1], k_end)))
            for p in tab.line if p.domain[0] < k_end]


class TestLogDelta:
    """The Gauss-Legendre rules of log_delta against 30-digit Cauchy
    integrals of the line table's own series."""

    @staticmethod
    def cauchy_mp(k, k_end, tab):
        # within a tenth of a piece's length of it the pole is subtracted,
        # which leaves a polynomial to integrate
        mp.mp.dps = 30
        k = mp.mpc(k.real, k.imag)
        total = mp.mpc(0)
        for p, a, b in _pieces_to(k_end, tab):
            pk = p(k) if abs(k - min(max(k.real, a), b)) < (b - a) / 10 else 0
            total += pk * mp.log((b - k) / (a - k)) + mp.quad(
                lambda s: (p(s) - pk) / (s - k), [a, b], method="gauss-legendre")
        return complex(total / (2j * mp.pi))

    def check(self, ks, k_end, tab, tol):
        got = log_delta(ks, k_end, tab)
        for k, g in zip(ks, got):
            assert abs(g - self.cauchy_mp(k, k_end, tab)) < tol

    def test_band_and_B_nodes(self, verif_table):
        surf = build_surface(0.35, A)
        k0, alpha = surf.k0, surf.alpha
        ts = 0.5 * (1 + np.cos(np.pi * (2 * np.arange(48) + 1) / 96))[::16]
        y = A * (1 - 1e-9) * np.cos(np.pi * (2 * np.arange(96) + 1) / 192)[::32]
        for ks, k_end in ((k0 + ts * (alpha - k0), k0),
                          (k0 + ts * (np.conj(alpha) - k0), k0),
                          (1j * y, k0), (1j * y, K1)):
            self.check(ks, k_end, verif_table, 1e-14)

    def test_near_end_and_line(self, verif_table):
        k0 = build_surface(0.35, A).k0
        self.check(k0 + np.array([1e-3, -2e-3 + 1e-3j, 1e-3 - 1e-3j]), k0,
                   verif_table, 1e-14)
        self.check(np.array([-0.7 - 1e-3j, -2.0 + 1e-3j, -3.1 + 1e-3j,
                             -5.5 - 1e-3j, 1e4]), K1, verif_table, 1e-14)

    def test_closest_points(self, verif_table):
        # within 1e-5 of the path, where numerics.cauchy_segment is off by
        # 4.3e-8, 6.7e-9 and 2.4e-9 (xi = 0.35 and xi = 1.2)
        k0 = build_surface(0.35, A).k0
        self.check(np.array([k0 - 1e-4 + 1e-6j, k0 - 1e-3 + 1e-5j,
                             k0 + 1e-8j]), k0, verif_table, 1e-13)
        self.check(np.array([-1.3 + 1e-6j, -2.0 + 1e-9j]), K1, verif_table,
                   1e-13)

    def test_across_pieces(self):
        # next to the edges of the four pieces and on the peak at -1.2
        tab = SyntheticRealTable()
        edges = [p.domain[0] for p in tab.line[1:]]
        ks = np.array([edges[0] + 1e-6j, edges[1] - 1e-5j, edges[2] + 1e-3j,
                       -1.2 + 1e-6j, -1.2 + 0.3j])
        self.check(ks, -0.5, tab, 1e-13)

    def test_shapes_and_pole_on_path(self, verif_table):
        ks = np.array([[0.3 + 0.2j, -1.0 + 0.5j], [2.0j, -4.0 - 0.1j]])
        got = log_delta(ks, K1, verif_table)
        assert got.shape == ks.shape
        assert abs(log_delta(ks[1, 0], K1, verif_table) - got[1, 0]) < 1e-17
        with pytest.raises(QuadratureError):
            log_delta(np.array([1j, K1 - 0.5]), K1, verif_table)


class TestChi:
    """chi(k, k_end) from the same rules as log delta: its value at k_end
    against a 30-digit quadrature of the regularized integral of the line
    table's series, and its continuity there."""

    @staticmethod
    def chi_end_mp(k_end, tab):
        # (int (p(s) - L)/(s - k_end) ds - L log(k_end - k_lo)) / (2 pi i)
        # with L = p(k_end) on the last piece
        mp.mp.dps = 30
        pieces = _pieces_to(k_end, tab)
        ke = mp.mpf(k_end)
        L = pieces[-1][0](ke)
        total = -L * mp.log(ke - pieces[0][1])
        for p, a, b in pieces:
            total += mp.quad(lambda s: (p(s) - L) / (s - ke), [a, b],
                             method="gauss-legendre")
        return complex(total / (2j * mp.pi))

    @pytest.mark.parametrize("k_end", [-1.2345, "knot"])
    def test_end_value_against_mpmath(self, k_end):
        # inside the third piece of the line table, or on the edge between
        # the third and the fourth
        tab = SyntheticRealTable()
        if k_end == "knot":
            k_end = float(tab.line[3].domain[0])
        ref = self.chi_end_mp(k_end, tab)
        assert abs(chi_fn(k_end, k_end, tab) - ref) < 1e-14 * (1 + abs(ref))

    @pytest.mark.parametrize("xi", [XI, 0.35])
    def test_end_value_on_verif_table(self, verif_table, xi):
        # at k1 of a plane-wave ray and at k0 of an elliptic one
        k_end = (build_surface(xi, A).k0 if xi < np.sqrt(2) * A
                 else float(stationary_points(xi, A)[0].real))
        ref = self.chi_end_mp(k_end, verif_table)
        assert abs(chi_fn(k_end, k_end, verif_table) - ref) < 1e-14 * (1 + abs(ref))

    def test_continuous_at_k1(self, verif_table):
        k1 = float(stationary_points(0.8, A)[0].real)
        at = chi_fn(k1, k1, verif_table)
        gap = [abs(chi_fn(k1 + eps * np.exp(0.7j), k1, verif_table) - at)
               for eps in (1e-6, 1e-8)]
        assert gap[1] < 1e-6
        assert gap[0] > 30 * gap[1]

    def test_zero_left_of_table(self, verif_table):
        # rays with k1 < -k_tail see no reflection (xi >= 4.1 here)
        k_end = -verif_table.k_tail - 1.0
        assert chi_fn(k_end, k_end, verif_table) == 0
        assert chi_fn(k_end + 1e-3j, k_end, verif_table) == 0
