import mpmath as mp
import numpy as np
import pytest

import nnlslab.ellipticwave as ew
from nnlslab.background import f_branch
from nnlslab.ellipticwave import (abel_constants, alpha_of, build_surface,
                                  elliptic_data, elliptic_eval, g_machinery,
                                  gamma2, gamma_rs, h_machinery,
                                  reality_residuals, solve_k0)
from nnlslab.numerics import ComplexPath, PhaseUnwrapError, quad_path, theta3
from nnlslab.planewave import delta_fn
from nnlslab.scattering import InitialProfile, SpectralTable

A, XI = 0.5, 0.35
#: (A, xi / (sqrt(2) A)) of the period oracles, out to both region edges
PERIOD_GRID = [(A_, frac) for A_ in (0.3, 0.5, 1.0, 2.0)
               for frac in (0.003, 0.02, 0.4, 0.95, 0.999)]


@pytest.fixture(scope="module")
def surface():
    return build_surface(XI, A)


@pytest.fixture(scope="module")
def surface_grid():
    return [build_surface(frac * np.sqrt(2.0) * A_, A_)
            for A_, frac in PERIOD_GRID]


def mp_root(roots, m, ref):
    """k -> sqrt(prod(k - r)) in mpmath, cut along the rays that leave each
    root r directly away from the point m, with the package's value ref at m
    (so that it is analytic along any path through m that meets no cut)."""
    ds = [(r - m) / abs(r - m) for r in roots]

    def prod(k):
        return mp.fprod(mp.sqrt((r - k) / d) for r, d in zip(roots, ds))

    c = mp.sqrt(mp.fprod(-1 / d for d in ds))
    if abs(complex(prod(m) / c) - ref) > abs(complex(prod(m) / c) + ref):
        c = -c
    return lambda k: prod(k) / c


def mp_roots(surf):
    """alpha and the branch points iA, -iA, alpha, conj(alpha) in mpmath,
    with alpha recomputed from k0 so that the alpha identities are exact."""
    A_, k0, xi = mp.mpf(surf.A), mp.mpf(surf.k0), mp.mpf(surf.xi)
    alpha = mp.mpc(-k0 - xi, mp.sqrt(A_ * A_ + 2 * k0 * k0 + 2 * k0 * xi))
    return alpha, [mp.mpc(0, A_), mp.mpc(0, -A_), alpha, mp.conj(alpha)]


def mp_ray(surf, fn, base):
    """Integral of fn(k, gamma2, f) from the branch point base along the
    vertical ray away from the real axis: tanh-sinh to |k - base| = 1e8, plus
    the k^-2 tail beyond."""
    _, roots = mp_roots(surf)
    dirn = mp.mpc(0, 1 if base.imag > 0 else -1)
    m = base + dirn
    g2 = mp_root(roots[2:], m, complex(gamma2(complex(m), surf.alpha)))
    f = mp_root(roots[:2], m, complex(f_branch(complex(m), surf.A)))

    def F(k):
        return fn(k, g2(k), f(k))

    body = dirn * mp.quad(lambda u: F(base + dirn * u),
                          [0] + [mp.mpf(10) ** j for j in range(9)])
    k_end = base + dirn * mp.mpf(10) ** 8
    return body + k_end * F(k_end)


@pytest.fixture(scope="module")
def edata(surface, verif_table):
    return elliptic_data(XI, A, verif_table)


class TestGamma2:
    def test_positive_at_origin(self):
        alpha = -0.15 + 0.45j
        assert gamma2(0.0, alpha) == pytest.approx(abs(alpha), abs=1e-14)

    def test_square_identity(self, rng):
        alpha = -0.2 + 0.4j
        for _ in range(15):
            k = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            g2 = gamma2(k, alpha) ** 2
            assert abs(g2 - (k - alpha) * (k - np.conj(alpha))) < 1e-11 * max(
                1, abs(g2)
            )

    def test_asymptotic(self):
        alpha = -0.2 + 0.4j
        k = 1e6 + 2e5j
        assert abs(gamma2(k, alpha) / k - 1) < 1e-5

    def test_surface_asymptotic(self):
        alpha = -0.2 + 0.4j
        k = 3e5
        assert abs(gamma_rs(k, 0.5, alpha) / k**2 - 1) < 1e-5

    def test_band_cut_sign_inside_triangle(self, surface):
        # between the band arc and the vertical cut the band-cut root flips
        # sign; outside the triangle k0, alpha, conj(alpha) it does not
        k = 0.5 * (surface.k0 + surface.alpha.real)
        assert ew.gamma_band_cut(k, surface) == -gamma_rs(k, A, surface.alpha)
        assert ew.gamma_band_cut(0.3, surface) == gamma_rs(0.3, A,
                                                           surface.alpha)


class TestSolveK0:
    def test_residual_and_sign_change(self, surface):
        from nnlslab.ellipticwave import _k0_residual

        k0 = surface.k0
        assert abs(_k0_residual(k0, XI, A)) < 1e-10
        assert _k0_residual(k0 - 1e-4, XI, A) * _k0_residual(
            k0 + 1e-4, XI, A
        ) < 0

    def test_high_resolution_oracle(self, surface):
        # the residual's integral at a tenfold tighter target confirms the
        # root location
        k0 = surface.k0
        alpha = alpha_of(k0, XI, A)
        path = ComplexPath.segment(-1j * A, 1j * A, "inverse_sqrt",
                                   "inverse_sqrt")
        val = quad_path(lambda z: (z - k0) * gamma2(z, alpha) / f_branch(z, A),
                        path, tol=1e-13)
        assert abs(val.imag) < 1e-9

    def test_degenerate_limit(self):
        k0 = solve_k0(1.41, 1.0)
        assert abs(k0 + 1 / np.sqrt(2)) < 2e-2

    def test_bracket_and_mirror_structure(self):
        # k0 and Re alpha = -k0 - xi are mirror-symmetric about -xi/2; the
        # b-period root places k0 left of the pair, Re alpha right of it
        for xi in np.linspace(0.05, 1.39, 20) * 1.0:
            k0 = solve_k0(xi, 1.0)
            assert -xi < k0 < -xi / 2
            assert -xi / 2 < -k0 - xi < 0

    def test_region_error(self):
        with pytest.raises(ValueError):
            solve_k0(2.0, 1.0)

    def test_one_bracket(self, monkeypatch):
        residual = ew._k0_residual
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return residual(*args, **kwargs)

        monkeypatch.setattr(ew, "_k0_residual", counted)
        solve_k0(XI, A)
        assert len(calls) < 24
        # brentq's root and the bracket ends are not evaluated again
        assert len({c for c, *_ in calls}) == len(calls)
        monkeypatch.setattr(ew, "_k0_residual", lambda c, xi, A: 1.0 + c)
        with pytest.raises(ValueError, match="no sign change"):
            solve_k0(XI, A)


class TestBuildSurface:
    def test_alpha_relations(self, surface):
        k0 = surface.k0
        assert surface.alpha.real == pytest.approx(-k0 - XI, abs=1e-12)
        assert surface.alpha.imag == pytest.approx(
            np.sqrt(A * A + 2 * k0 * k0 + 2 * k0 * XI), abs=1e-12
        )

    def test_im_tau_positive(self, surface):
        assert surface.tau.imag > 0

    def test_b_cycle_normalization(self, surface_grid):
        # C_norm from the AGM normalizes the quadrature's B-cycle of dk/gamma
        from nnlslab.ellipticwave import _cycle_rectangle

        for surf in surface_grid:
            val = surf.C_norm * _cycle_rectangle(
                lambda z: 1.0 / gamma_rs(z, surf.A, surf.alpha), surf.A, 1e-4
            )
            assert abs(val - 1.0) < 1e-12

    def test_tau_against_mpmath(self, surface_grid):
        # tau is the half a-period [conj alpha, -iA] over the half B-period
        # up the right side of the cut, at 30 digits
        for surf in surface_grid:
            with mp.workdps(30):
                alpha, roots = mp_roots(surf)

                def half_period(p, q):
                    m = (p + q) / 2
                    g = mp_root(roots, m, complex(
                        gamma_rs(complex(m), surf.A, surf.alpha)))
                    return mp.quad(lambda k: 1 / g(k), [p, q])

                ref = complex(half_period(mp.conj(alpha), roots[1])
                              / half_period(roots[1], roots[0]))
            ref = -ref if ref.imag < 0 else ref
            assert abs(surf.tau - ref) < 1e-11

    def test_agm(self):
        assert ew._agm(1.0, 2.0) == pytest.approx(float(mp.agm(1, 2)),
                                                  rel=4e-16)
        with pytest.raises(RuntimeError, match="64 steps"):
            ew._agm(1.0, float("nan"))

    def test_cycle_offset_independence(self, surface):
        from nnlslab.ellipticwave import _cycle_rectangle

        f = lambda z: 1.0 / gamma_rs(z, A, surface.alpha)
        v1 = _cycle_rectangle(f, A, 1e-4)
        v2 = _cycle_rectangle(f, A, 1e-5)
        assert abs(v1 - v2) < 1e-8

    @pytest.mark.parametrize("A_", [0.3, 1.0, 2.0])
    def test_band_period_from_b_period(self, A_):
        # dk/gamma ~ dk/k^2 at infinity, so its cycles around the bands and
        # around B sum to zero: the band integral is -1/(2 C_norm)
        from nnlslab.numerics import quad_path

        for frac in (0.05, 0.4, 0.95):
            surf = build_surface(frac * np.sqrt(2.0) * A_, A_)
            inv = lambda z: 1.0 / gamma_rs(z, A_, surf.alpha)
            D = (quad_path(lambda z: -inv(z), surf.band_upper, tol=1e-9)
                 + quad_path(inv, surf.band_lower, tol=1e-9))
            ref = -1.0 / (2.0 * surf.C_norm)
            assert abs(D - ref) < 1e-12 * abs(ref)

    def test_alpha_polynomial_identity(self, rng):
        # (k-alpha)(k-conj alpha) == (k+k0+xi)^2 + 2k0^2 + 2 xi k0 + A^2
        k0 = -0.19
        alpha = alpha_of(k0, XI, A)
        ks = rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8)
        lhs = (ks - alpha) * (ks - np.conj(alpha))
        rhs = (ks + k0 + XI) ** 2 + 2 * k0 * k0 + 2 * XI * k0 + A * A
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_degenerate_alpha_shrinks(self):
        prev = np.inf
        for xi in (1.35, 1.38, 1.41):
            surf = build_surface(xi, 1.0)
            assert surf.alpha.imag < prev
            prev = surf.alpha.imag
        assert prev < 0.08


class TestHMachinery:
    def test_reality_suite(self, surface):
        res = reality_residuals(surface)
        assert res["im_H_inf"] < 1e-8
        assert res["im_Omega"] < 1e-8
        assert res["h_iA"] < 1e-10
        assert res["b_period_dh"] < 1e-9
        assert res["im_h_alpha"] < 1e-8

    def test_large_k_asymptotics(self, surface):
        H_inf, Omega, h = h_machinery(surface)
        for K in (1e3, 1e4):
            val = h(K) - (2 * K * K + 4 * XI * K + H_inf)
            assert abs(val) < 1e-4 * (1e4 / K)

    def test_k0_equation_integrand_symmetry(self, surface):
        # the root equation's B-integral is purely imaginary
        from nnlslab.background import f_branch
        from nnlslab.numerics import ComplexPath, quad_path

        val = quad_path(
            lambda z: (z - surface.k0) * gamma2(z, surface.alpha)
            / f_branch(z, A),
            ComplexPath.segment(-1j * A, 1j * A, "inverse_sqrt",
                                "inverse_sqrt"),
            tol=1e-11,
        )
        assert abs(val.real) < 1e-10

    def test_complex_H_inf_rejected(self, verif_table, monkeypatch):
        h_machinery = ew.h_machinery

        def tilted(surface):
            H_inf, Omega, h = h_machinery(surface)
            return H_inf + 1e-3j, Omega, h

        monkeypatch.setattr(ew, "h_machinery", tilted)
        with pytest.raises(RuntimeError, match="H_inf has imaginary part"):
            elliptic_data(XI, A, verif_table)

    @pytest.mark.parametrize("xi", [0.05, XI])
    def test_H_inf_against_mpmath(self, xi):
        surf = build_surface(xi, A)
        H_inf, _, _ = h_machinery(surf)
        with mp.workdps(30):
            k0, xm = mp.mpf(surf.k0), mp.mpf(xi)

            def decayed(k, g2, f):
                return ((k - k0) * g2 - (k + xm) * f) / f

            ref = complex(2 * (mp_ray(surf, decayed, mp.mpc(0, A))
                               + mp_ray(surf, decayed, mp.mpc(0, -A)))
                          + 2 * mp.mpf(A) ** 2)
        assert abs(H_inf - ref) < 1e-12 * (1 + abs(ref))

    def test_path_crossing_guard(self, surface):
        _, _, h = h_machinery(surface)
        with pytest.raises(ValueError):
            h(surface.alpha.real - 0.05 + 0.6j)


class TestGMachinery:
    def test_local_reduction_reality(self):
        # even data reduce to the local equation: omega, G_inf must be real
        prof = InitialProfile.gaussian_bump(0.5, 0.2, 1.0, chirp=0.3,
                                            center=0.0)
        tab = SpectralTable(prof)
        surf = build_surface(XI, A)
        omega, G_inf, _ = g_machinery(surf, tab)
        assert abs(omega.imag) < 1e-8
        assert abs(G_inf.imag) < 1e-8

    def test_large_k_limit(self, surface, verif_table):
        omega, G_inf, G = g_machinery(surface, verif_table)
        err4 = abs(G(1e4) - np.exp(1j * G_inf))
        err5 = abs(G(1e5) - np.exp(1j * G_inf))
        # O(1/k) approach with an O(0.1) coefficient for generic data
        assert err4 < 1e-4
        assert err5 < 0.2 * err4

    def test_jump_product_on_cut(self, surface, verif_table):
        omega, G_inf, G = g_machinery(surface, verif_table)
        eps = 1e-5
        for y in (0.3, -0.25, 0.1, 0.42, -0.05):
            Gp = G(1j * y - eps)
            Gm = G(1j * y + eps)
            Gp2 = G(1j * y - eps / 2)
            Gm2 = G(1j * y + eps / 2)
            prod = 2 * (Gp2 * Gm2) - Gp * Gm
            d2 = delta_fn(1j * y, surface.k0, verif_table) ** 2
            assert abs(prod - d2) < 1e-6

    def test_bounded_at_band_points(self, surface, verif_table):
        omega, G_inf, G = g_machinery(surface, verif_table)
        dirn = (surface.alpha - surface.k0) / abs(surface.alpha - surface.k0)
        vals = [abs(G(surface.alpha + d * 1j * dirn))
                for d in (1e-2, 1e-4, 1e-6)]
        assert max(vals) < 100
        # the approach sequence stabilizes (no blow-up at the band end)
        assert abs(vals[2] - vals[1]) < 0.01
        for d in (1e-2, 1e-4):
            assert abs(G(1j * (A + d))) < 100
            assert abs(G(-1j * (A + d))) < 100

    def test_zero_reflection_on_band_raises(self, surface, bg_profile):
        with pytest.raises(ValueError):
            g_machinery(surface, SpectralTable(bg_profile))

    @pytest.mark.parametrize("xi", [0.05, 0.09313735206876265, 0.30, XI])
    def test_band_delta_converged(self, xi, verif_table, monkeypatch):
        # the band densities (log delta less its singular part at k0, and
        # the logs of r1, r2) are resolved by their node count: at 0.093 the
        # band end alpha sits 0.03 from the branch point iA
        surf = build_surface(xi, A)
        omega, G_inf, _ = g_machinery(surf, verif_table)
        nodes = ew._band_nodes
        monkeypatch.setattr(ew, "_band_nodes", lambda s: 2 * nodes(s))
        omega2, G_inf2, _ = g_machinery(surf, verif_table)
        assert abs(omega2 - omega) < 1e-11
        assert abs(G_inf2 - G_inf) < 1e-11

    def test_band_logs_converged_on_small_xi(self, verif_table, monkeypatch):
        # the band end alpha sits 0.03 from the branch point iA here, the
        # slowest-converging band of the benchmark's seed-0 rays
        surf = build_surface(0.09313735206876265, A)
        assert abs(surf.alpha - 1j * A) < 0.05
        omega, G_inf, _ = g_machinery(surf, verif_table)
        nodes = ew._band_nodes
        monkeypatch.setattr(ew, "_band_nodes", lambda s: 2 * nodes(s))
        omega2, G_inf2, _ = g_machinery(surf, verif_table)
        assert abs(omega2 - omega) < 1e-11
        assert abs(G_inf2 - G_inf) < 1e-11

    def test_quadrature_converged(self, surface, verif_table, monkeypatch):
        # the integrals, the bands' from their log end k0 among them, at
        # g_machinery's tolerance 1e-9 against the same at 1e-13 (measured
        # 2.5e-12 on omega and 1.1e-10 on G_inf, inside that tolerance)
        omega, G_inf, _ = g_machinery(surface, verif_table)
        monkeypatch.setattr(ew, "quad_path",
                            lambda f, path, tol: quad_path(f, path, tol=1e-13))
        omega2, G_inf2, _ = g_machinery(surface, verif_table)
        assert abs(omega2 - omega) < 1e-11
        assert abs(G_inf2 - G_inf) < 1e-9

    def test_band_nodes_double_on_phase_gap(self, surface, verif_table,
                                            monkeypatch):
        nodes = ew._band_nodes
        unwrap = ew.continuous_log
        calls = []

        def gap_once(values):
            calls.append(len(values))
            if len(calls) == 1:
                raise PhaseUnwrapError("gap")
            return unwrap(values)

        monkeypatch.setattr(ew, "continuous_log", gap_once)
        omega, G_inf, _ = g_machinery(surface, verif_table)
        assert calls[0] == nodes(surface) + 1
        assert calls[1:] == [2 * nodes(surface) + 1] * 2
        monkeypatch.setattr(ew, "continuous_log", unwrap)
        monkeypatch.setattr(ew, "_band_nodes", lambda s: 2 * nodes(s))
        assert g_machinery(surface, verif_table)[:2] == (omega, G_inf)

        def gap(values):
            calls.append(len(values))
            raise PhaseUnwrapError("gap")

        calls.clear()
        monkeypatch.setattr(ew, "continuous_log", gap)
        with pytest.raises(PhaseUnwrapError, match="did not stabilize"):
            g_machinery(surface, verif_table)
        assert len(calls) == 5


class TestAbelConstants:
    def test_khat0_formula(self, surface):
        v_inf, c, khat0 = abel_constants(surface)
        expect = A * surface.alpha.real / (A + surface.alpha.imag)
        assert khat0 == pytest.approx(expect, abs=1e-14)

    def test_khat0_direct_substitution(self):
        alpha = -0.5 + 0.8j
        assert 1.0 * alpha.real / (1.0 + alpha.imag) == pytest.approx(
            -0.2777777777777778
        )

    @pytest.mark.parametrize("xi", [0.05, XI])
    def test_v_inf_against_mpmath(self, xi):
        surf = build_surface(xi, A)
        v_inf, _, _ = abel_constants(surf)
        with mp.workdps(30):
            C = mp.mpc(surf.C_norm)
            ref = complex(mp_ray(surf, lambda k, g2, f: C / (g2 * f),
                                 mp.mpc(0, A)))
        assert abs(v_inf - ref) < 1e-12 * (1 + abs(ref))

    def test_theta_denominators_nonzero(self, surface):
        v_inf, c, khat0 = abel_constants(surface)
        tau = surface.tau
        assert abs(theta3(v_inf + c, tau)) > 1e-8
        assert abs(theta3(-v_inf + c, tau)) > 1e-8

    def test_c_definition(self, surface):
        from nnlslab.numerics import ComplexPath, quad_path

        v_inf, c, khat0 = abel_constants(surface)
        dw = lambda z: surface.C_norm / gamma_rs(z, A, surface.alpha)
        v_khat = quad_path(
            dw, ComplexPath.segment(1j * A, khat0, "inverse_sqrt", "none"),
            tol=1e-11,
        )
        assert abs(c - (v_khat + 0.5 * (1 + surface.tau))) < 1e-10


class TestEllipticEval:
    def test_modulus_product_structure(self, edata):
        # e^{+-2 Im G_inf} factors cancel in the two-ray modulus product
        s = edata.surface
        amp = A + s.alpha.imag
        t = 9.3
        qp, qm = elliptic_eval(edata, t)
        tau = s.tau
        base = edata.Omega * t / (2 * np.pi) - 0.25

        def ratio(shift, v, cc):
            return theta3(shift - v + cc, tau) * theta3(v + cc, tau) / (
                theta3(shift + v + cc, tau) * theta3(-v + cc, tau)
            )

        r1 = ratio(base + edata.omega / (2 * np.pi), edata.v_inf, edata.c)
        r2 = ratio(base + np.conj(edata.omega) / (2 * np.pi),
                   -np.conj(edata.v_inf), -np.conj(edata.c))
        assert abs(abs(qp) * abs(qm) - amp**2 * abs(r1) * abs(r2)) < 1e-10

    def test_temporal_quasi_period(self, edata):
        period = 2 * np.pi / abs(edata.Omega)
        ts = np.linspace(5.0, 5.0 + 6 * period, 2400)
        mags = np.array([abs(elliptic_eval(edata, t)[0]) for t in ts])
        peaks = [i for i in range(1, len(ts) - 1)
                 if mags[i] > mags[i - 1] and mags[i] > mags[i + 1]]
        spacing = np.diff(ts[peaks]).mean()
        assert abs(spacing - period) / period < 0.05

    def test_amplitude_continuity_at_edge(self):
        # as xi -> sqrt(2) A the amplitude factor A + Im alpha -> A
        surf = build_surface(1.41, 1.0)
        assert abs((1.0 + surf.alpha.imag) - 1.0) < 0.1

    def test_against_per_call_theta3(self, edata):
        s = edata.surface
        amp = A + s.alpha.imag
        tau = s.tau

        def ratio(shift, v, cc):
            return theta3(shift - v + cc, tau) * theta3(v + cc, tau) / (
                theta3(shift + v + cc, tau) * theta3(-v + cc, tau)
            )

        for t in (0.7, 9.3, 31.4):
            base = edata.Omega * t / (2 * np.pi) - 0.25
            phase = np.exp(2j * (t * edata.H_inf + edata.G_inf.real))
            qp = amp * np.exp(-2 * edata.G_inf.imag) * phase * ratio(
                base + edata.omega / (2 * np.pi), edata.v_inf, edata.c)
            qm = amp * np.exp(2 * edata.G_inf.imag) * phase * ratio(
                base + np.conj(edata.omega) / (2 * np.pi),
                -np.conj(edata.v_inf), -np.conj(edata.c))
            got_p, got_m = elliptic_eval(edata, t)
            assert abs(got_p - qp) < 1e-14
            assert abs(got_m - qm) < 1e-14

    def test_t_positive_required(self, edata):
        with pytest.raises(ValueError):
            elliptic_eval(edata, 0.0)
