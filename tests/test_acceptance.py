"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 compares window-averaged ray moduli (one oscillation period of
the subleading beat) so the decay trend is visible through the t^(-1/2)
oscillation; everything else is asserted at the stated tolerances directly.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from nnlslab.ellipticwave import (build_surface, elliptic_data, elliptic_eval,
                                  reality_residuals, solve_k0)
from nnlslab.planewave import (F_fn, F_inf, F_inf_split, SubleadingCase,
                               delta_fn, planewave_eval, planewave_params)
from nnlslab.scattering import InitialProfile, scattering_data
from nnlslab.simulator import (SimGrid, nonlinear_substep, sample_ray,
                               simulate)

A_VERIF = 0.5
XI_PW = 1.2
XI_ELL = 0.35


def _report(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def pw_ray(verif_profile):
    # the grid compare runs: L_box 304, N 4096, dt 0.01
    grid = SimGrid.for_run(verif_profile, XI_PW, 30.0)
    traj = simulate(verif_profile, grid, 0.25 * np.arange(1, 121))
    rows = sample_ray(traj, XI_PW)
    ts = np.array([r[0] for r in rows])
    qp = np.array([r[1] for r in rows])
    qm = np.array([r[2] for r in rows])
    return ts, qp, qm


@pytest.fixture(scope="module")
def ell_ray(verif_profile):
    grid = SimGrid(L_box=64.0, N=2048, dt=0.004, t_max=30.0)
    traj = simulate(verif_profile, grid, 0.05 * np.arange(1, 601))
    rows = sample_ray(traj, XI_ELL)
    ts = np.array([r[0] for r in rows])
    qp = np.array([r[1] for r in rows])
    return ts, qp


def test_criterion_1_pure_background_identity():
    t0 = time.monotonic()
    prof = InitialProfile.pure_background(1.0, L=2.0)
    kr = np.linspace(-8, 8, 120)
    kr = kr[np.abs(kr) > 1e-6]
    a1, a2, b1, b2 = scattering_data(prof, kr)
    res_real = max(np.abs(a1 - 1).max(), np.abs(a2 - 1).max(),
                   np.abs(b1).max(), np.abs(b2).max())
    y = np.linspace(-0.95, 0.95, 81)
    a1c, a2c, b1c, b2c = scattering_data(prof, 1j * y)
    res_cut = max(np.abs(a1c - 1).max(), np.abs(a2c - 1).max(),
                  np.abs(b1c).max(), np.abs(b2c).max())
    elapsed = time.monotonic() - t0
    ok = res_real < 1e-8 and res_cut < 1e-8 and elapsed < 10.0
    _report(1, ok,
            f"pure background on 200 points of R and the cut: "
            f"max residual {max(res_real, res_cut):.2e}, {elapsed:.1f}s")


def test_criterion_2_unimodularity_and_symmetries(verif_profile):
    t0 = time.monotonic()
    kr = np.linspace(-6, 6, 101)
    kr = kr[np.abs(kr) > 1e-6]
    a1, a2, b1, b2 = scattering_data(verif_profile, kr)
    r_uni = np.abs(a1 * a2 + b1 * b2 - 1).max()
    kp = np.linspace(0.05, 6, 100)
    b2p = scattering_data(verif_profile, kp)[3]
    b1m = scattering_data(verif_profile, -kp)[2]
    r_b = np.abs(b2p - np.conj(b1m)).max()
    rng = np.random.default_rng(7)
    kc = rng.uniform(-3, 3, 100) + 1j * rng.uniform(0.05, 2.0, 100)
    a1c = scattering_data(verif_profile, kc)[0]
    a1s = scattering_data(verif_profile, -np.conj(kc))[0]
    r_a = np.abs(np.conj(a1s) - a1c).max()
    elapsed = time.monotonic() - t0
    ok = max(r_uni, r_b, r_a) < 1e-8 and elapsed < 60.0
    _report(2, ok,
            f"unimodularity {r_uni:.2e}, b-symmetry {r_b:.2e}, "
            f"a-symmetry {r_a:.2e}, {elapsed:.1f}s")


def test_criterion_3_delta_F_factorization(verif_table):
    k1 = planewave_params(XI_PW, verif_table).k1
    rng = np.random.default_rng(3)
    eps = 1e-6
    jump_res = 0.0
    for s in rng.uniform(-3.5, k1 - 0.1, 20):
        dp = delta_fn(s + 1j * eps, k1, verif_table)
        dm = delta_fn(s - 1j * eps, k1, verif_table)
        dp2 = delta_fn(s + 0.5j * eps, k1, verif_table)
        dm2 = delta_fn(s - 0.5j * eps, k1, verif_table)
        target = complex(verif_table.rr(np.array([s]))[0])
        jump_res = max(jump_res, abs(2 * (dp2 / dm2) - dp / dm - target))
    f_res = 0.0
    epsF = 1e-5
    for y in (0.31, -0.22, 0.05, 0.4, -0.38):
        Fp = F_fn(1j * y - epsF, k1, verif_table)
        Fm = F_fn(1j * y + epsF, k1, verif_table)
        Fp2 = F_fn(1j * y - epsF / 2, k1, verif_table)
        Fm2 = F_fn(1j * y + epsF / 2, k1, verif_table)
        d2 = delta_fn(1j * y, k1, verif_table) ** 2
        f_res = max(f_res, abs(2 * (Fp2 * Fm2) - Fp * Fm - d2))
    route1 = F_inf(k1, verif_table)
    route2, _ = F_inf_split(k1, verif_table)
    finf_res = abs(route1 - route2)
    ok = jump_res < 1e-7 and f_res < 1e-7 and finf_res < 1e-7
    _report(3, ok,
            f"delta jump {jump_res:.2e}, F+F- vs delta^2 {f_res:.2e}, "
            f"F_inf routes {finf_res:.2e}")


def test_criterion_4_plane_wave_nonuniversality(verif_table, pw_ray):
    ts, qp, qm = pw_ray
    pwd = planewave_params(XI_PW, verif_table)
    lead_p = A_VERIF * np.exp(-2 * pwd.F_inf.imag)
    lead_m = A_VERIF * np.exp(2 * pwd.F_inf.imag)
    # one-period window of the subleading oscillation exp(2it(A^2 + theta))
    T = 2 * np.pi / abs(2 * (A_VERIF**2 + pwd.theta_at_k1))
    errs_p, errs_m, prods = [], [], []
    for t in (10.0, 20.0, 30.0):
        m = np.abs(ts - t) <= T / 2
        ap = np.mean(np.abs(qp[m]))
        am = np.mean(np.abs(qm[m]))
        errs_p.append(abs(ap - lead_p) / lead_p)
        errs_m.append(abs(am - lead_m) / lead_m)
        i = np.argmin(np.abs(ts - t))
        prods.append(abs(qp[i]) * abs(qm[i]))
    mono = errs_p[0] > errs_p[1] > errs_p[2] and errs_m[0] > errs_m[1] > errs_m[2]
    small = errs_p[2] < 0.10 and errs_m[2] < 0.10
    prod_ok = all(abs(p - A_VERIF**2) < 0.05 * A_VERIF**2 for p in prods)
    ok = mono and small and prod_ok
    _report(4, ok,
            f"ray errors + {['%.4f' % e for e in errs_p]} / "
            f"- {['%.4f' % e for e in errs_m]}, products/A^2 "
            f"{['%.4f' % (p / A_VERIF**2) for p in prods]}")


def test_criterion_5_subleading_exponent(verif_table):
    pwd = planewave_params(XI_PW, verif_table)
    ts = np.geomspace(1e2, 1e4, 30)
    worst = 0.0
    for nu, case, cs in [
        (0.05 - 0.30j, SubleadingCase.A, dict(c1=0.7 + 0.2j, c2=0j, c3=1j, c4=0j)),
        (0.05 + 0.25j, SubleadingCase.C, dict(c1=0j, c2=0.7 + 0.2j, c3=0j, c4=1j)),
        (0.05 - 0.10j, SubleadingCase.B, dict(c1=0.5 + 0.1j, c2=0j, c3=0.4j, c4=0j)),
        (0.05 + 0.10j, SubleadingCase.B, dict(c1=0j, c2=0.5 + 0.1j, c3=0j, c4=0.4j)),
    ]:
        syn = replace(pwd, nu=nu, case_tag=case, **cs)
        e1 = np.array([abs(planewave_eval(syn, t)[2]) for t in ts])
        e2 = np.array([abs(planewave_eval(syn, t)[3]) for t in ts])
        slope1 = np.polyfit(np.log(ts), np.log(e1), 1)[0]
        slope2 = np.polyfit(np.log(ts), np.log(e2), 1)[0]
        want1 = -0.5 - nu.imag if cs["c1"] != 0 else -0.5 + nu.imag
        want2 = -0.5 - nu.imag if cs["c3"] != 0 else -0.5 + nu.imag
        worst = max(worst, abs(slope1 - want1), abs(slope2 - want2))
    ok = worst < 0.02
    _report(5, ok, f"worst |E| log-log slope deviation {worst:.2e}")


def test_criterion_6_elliptic_reality_suite():
    t0 = time.monotonic()
    worst = {}
    for A, xi in [(0.5, 0.2), (0.5, 0.5), (1.0, 1.0)]:
        surf = build_surface(xi, A)
        res = reality_residuals(surf)
        assert surf.tau.imag > 0
        for key, val in res.items():
            worst[key] = max(worst.get(key, 0.0), val)
    elapsed = time.monotonic() - t0
    ok = (worst["im_H_inf"] < 1e-8 and worst["im_Omega"] < 1e-8
          and worst["h_iA"] < 1e-10 and worst["b_period_dh"] < 1e-9
          and worst["im_h_alpha"] < 1e-8 and elapsed < 120.0)
    _report(6, ok,
            f"Im H {worst['im_H_inf']:.1e}, Im Omega {worst['im_Omega']:.1e}, "
            f"h(iA) {worst['h_iA']:.1e}, b-period {worst['b_period_dh']:.1e}, "
            f"Im h(alpha) {worst['im_h_alpha']:.1e}, {elapsed:.1f}s")


def test_criterion_7_k0_continuity():
    k0 = solve_k0(1.41, 1.0)
    dev = abs(k0 + 0.7071)
    ims = [build_surface(xi, 1.0).alpha.imag for xi in (1.35, 1.39, 1.413)]
    shrink = ims[0] > ims[1] > ims[2] and ims[2] < 0.05
    ok = dev < 2e-2 and shrink
    _report(7, ok, f"|k0(1.41) + 0.7071| = {dev:.2e}, "
                   f"Im alpha sweep {['%.3f' % v for v in ims]}")


def test_criterion_8_elliptic_oscillation(verif_table, ell_ray):
    ed = elliptic_data(XI_ELL, A_VERIF, verif_table)
    period = 2 * np.pi / abs(ed.Omega)
    ts = np.linspace(5.0, 5.0 + 6 * period, 3000)
    mags = np.array([abs(elliptic_eval(ed, t)[0]) for t in ts])
    pk = [i for i in range(1, len(ts) - 1)
          if mags[i] > mags[i - 1] and mags[i] > mags[i + 1]]
    spacing_th = float(np.mean(np.diff(ts[pk])))
    ts_sim, qp_sim = ell_ray
    sel = ts_sim >= 8.0
    mags_sim = np.abs(qp_sim[sel])
    tsel = ts_sim[sel]
    pk_sim = [i for i in range(1, len(tsel) - 1)
              if mags_sim[i] > mags_sim[i - 1]
              and mags_sim[i] > mags_sim[i + 1]
              and mags_sim[i] > mags_sim.mean()]
    spacing_sim = float(np.mean(np.diff(tsel[pk_sim])))
    ok = (abs(spacing_th - period) / period < 0.05
          and abs(spacing_sim - period) / period < 0.10)
    _report(8, ok,
            f"2pi/Omega {period:.3f}, evaluator spacing {spacing_th:.3f}, "
            f"simulated spacing {spacing_sim:.3f}")


def test_criterion_9_simulator_validation(verif_profile):
    prof_bg = InitialProfile.pure_background(1.0, L=2.0)
    traj = simulate(prof_bg, SimGrid(L_box=20.0, N=512, dt=0.002, t_max=5.0))
    bg_dev = np.abs(traj.fields[-1] - np.exp(2j * traj.ts[-1])).max()

    def final(dt):
        g = SimGrid(L_box=32.0, N=1024, dt=dt, t_max=1.0)
        return simulate(verif_profile, g, [1.0]).fields[-1]

    ref = final(0.000375)
    ratio = (np.abs(final(0.003) - ref).max()
             / np.abs(final(0.0015) - ref).max())

    rng = np.random.default_rng(9)
    p = 0.5 + 0.1 * (rng.normal(size=512) + 1j * rng.normal(size=512))
    mirror = (-np.arange(512)) % 512
    m0 = p * np.conj(p[mirror])
    p2 = nonlinear_substep(p, 0.05, 0.5)
    inv_drift = np.abs(p2 * np.conj(p2[mirror]) - m0).max()

    ok = bg_dev < 1e-10 and 3.7 < ratio < 4.3 and inv_drift < 1e-13
    _report(9, ok,
            f"background {bg_dev:.1e}, Strang ratio {ratio:.2f}, "
            f"substep invariant {inv_drift:.1e}")
