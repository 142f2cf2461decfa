"""Modulated-elliptic-wave ray asymptotics (rays 0 < |xi| < sqrt(2) A).

Builds the genus-1 surface attached to a ray: the change-of-factorization
point k0 solving the vanishing b-period condition, the upper branch point
alpha, the normalized holomorphic differential with its period tau, the
deformed phase h(k) with its large-k constant H_inf and band frequency
Omega, the scalar factorization G(k) with phase constant omega and large-k
constant G_inf, the Abel-map constants, and the theta-ratio evaluator of
the leading asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial import Chebyshev
from numpy.polynomial.chebyshev import chebpts1, chebvander

from .background import _vertical_root, f_branch
from .numerics import (ComplexPath, PhaseUnwrapError, bracket_root,
                       cauchy_segment, continuous_log, json_value, quad_path,
                       theta3)
from .planewave import _lndelta_on_B, log_delta

__all__ = [
    "SurfaceData",
    "EllipticData",
    "alpha_of",
    "gamma2",
    "gamma_rs",
    "gamma_band_cut",
    "solve_k0",
    "build_surface",
    "h_machinery",
    "g_machinery",
    "abel_constants",
    "reality_residuals",
    "elliptic_data",
    "elliptic_eval",
    "dh_b_period",
]

#: rectangle offset for cycle integrals around the cut (checked offset
#: independent in the test suite)
_CYCLE_OFFSET = 1e-4
#: residual target of the k0 root, relative to the bracket values
_SURFACE_TOL = 1e-10


@dataclass(frozen=True)
class SurfaceData:
    k0: float
    alpha: complex
    A: float
    xi: float
    C_norm: complex
    tau: complex
    band_upper: ComplexPath  # k0 -> alpha
    band_lower: ComplexPath  # k0 -> conj(alpha)

    def __post_init__(self):
        if not self.alpha.imag > 0:
            raise ValueError("alpha must lie in the upper half plane")
        if not self.tau.imag > 0:
            raise ValueError("Im tau must be positive")
        # k0 and Re alpha = -k0 - xi sit mirror-symmetric about -xi/2; the
        # vanishing-b-period root places k0 on the left of the pair
        if not (-self.xi < self.k0 < 0):
            raise ValueError("k0 must lie in (-xi, 0)")


@dataclass(frozen=True)
class EllipticData:
    surface: SurfaceData
    H_inf: float
    Omega: float
    omega: complex
    G_inf: complex
    v_inf: complex
    c: complex
    khat0: float

    def to_dict(self):
        """The ray's constants as reported: k0, alpha and tau of the surface
        and every number of the band data."""
        s = self.surface
        out = {"k0": json_value(s.k0), "alpha": json_value(s.alpha),
               "tau": json_value(s.tau)}
        out.update((f.name, json_value(getattr(self, f.name)))
                   for f in fields(self) if f.name != "surface")
        return out


def gamma2(k, alpha):
    """sqrt((k - alpha)(k - conj alpha)) cut along the vertical segment
    [conj alpha, alpha], behaving like k at infinity, positive at k = 0."""
    return _vertical_root(k, alpha)


def gamma_rs(k, A, alpha):
    """Product branch f(k) * gamma2(k): ~ k^2 at infinity, cuts on
    [-iA, iA] and the vertical segment [conj alpha, alpha]; on-axis
    evaluation gives the right (minus) side of the B cut."""
    return f_branch(k, A) * gamma2(k, alpha)


def _in_band_triangle(k, k0, alpha):
    """Point strictly inside the triangle k0, alpha, conj(alpha): the region
    between the band-arc cut and the vertical-segment cut, where the
    band-cut branch of gamma flips sign relative to gamma_rs."""
    k = complex(k)
    x, y = k.real, k.imag
    x0, xa = k0, alpha.real
    if not (min(x0, xa) < x < max(x0, xa)):
        return False
    # edges k0 -> alpha and k0 -> conj(alpha); vertical edge at Re = Re alpha
    t = (x - x0) / (xa - x0)
    y_up = t * alpha.imag
    return -abs(y_up) < y < abs(y_up)


def gamma_band_cut(k, surface):
    """Surface root with cuts on B and the band arc conj(alpha) -> k0 ->
    alpha: equals gamma_rs outside the triangle between the two candidate
    cuts and -gamma_rs inside it."""
    g = gamma_rs(k, surface.A, surface.alpha)
    if _in_band_triangle(k, surface.k0, surface.alpha):
        return -g
    return g


def alpha_of(k0, xi, A):
    im2 = A * A + 2.0 * k0 * k0 + 2.0 * k0 * xi
    if im2 <= 0:
        raise ValueError("alpha degenerate: outside the elliptic region")
    return complex(-k0 - xi, np.sqrt(im2))


def _k0_residual(k0, xi, A):
    """Imaginary part of the B-integral whose vanishing selects k0 (the
    integral is purely imaginary by the conjugation symmetry in y)."""
    alpha = alpha_of(k0, xi, A)
    path = ComplexPath.segment(-1j * A, 1j * A, "inverse_sqrt", "inverse_sqrt")
    val = quad_path(lambda z: (z - k0) * gamma2(z, alpha) / f_branch(z, A),
                    path, tol=1e-12)
    return float(val.imag)


def solve_k0(xi, A):
    """The change-of-factorization point: the unique zero of the vanishing
    b-period residual on (-xi, 0).

    The root and Re alpha = -k0 - xi are mirror images about -xi/2; the
    residual vanishes with k0 on the left of the pair, which is also the
    configuration whose Im h carries the steepest-descent signature (bands
    flanked by decay, growth beyond alpha), so the root is bracketed by
    (-xi, -xi/2).  The residual is discontinuous at c = -xi where the alpha
    cut crosses the background cut, so the bracket stays strictly inside.
    """
    xi = float(xi)
    if not 0 < xi < np.sqrt(2.0) * A:
        raise ValueError("elliptic rays require 0 < xi < sqrt(2) A")
    return bracket_root(lambda c: _k0_residual(c, xi, A),
                        -xi * (1 - 1e-3), -xi / 2, tol=_SURFACE_TOL)


def _rectangle_around_B(A, off):
    return [off - 1j * (A + off), off + 1j * (A + off),
            -off + 1j * (A + off), -off - 1j * (A + off), off - 1j * (A + off)]


def _cycle_rectangle(fn, A, off):
    verts = _rectangle_around_B(A, off)
    total = 0.0 + 0.0j
    for a, b in zip(verts[:-1], verts[1:]):
        total += quad_path(fn, ComplexPath.segment(a, b), tol=1e-11)
    return total


def _segments_cross(a1, b1, a2, b2):
    """Proper intersection test for two segments (shared endpoints allowed)."""
    def orient(p, q, r):
        return np.sign((q.real - p.real) * (r.imag - p.imag)
                       - (q.imag - p.imag) * (r.real - p.real))

    o1, o2 = orient(a1, b1, a2), orient(a1, b1, b2)
    o3, o4 = orient(a2, b2, a1), orient(a2, b2, b1)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def _agm(a, b):
    """Optimal complex arithmetic-geometric mean of a and b: each step takes
    the geometric mean's root b' with |a' - b'| <= |a' + b'| (Cremona &
    Thongjunthug, J. Number Theory 133, 2013)."""
    a, b = complex(a), complex(b)
    for _ in range(64):
        if abs(a - b) <= 4 * np.finfo(float).eps * abs(a):
            return a
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
    raise RuntimeError("complex AGM did not converge in 64 steps")


def build_surface(xi, A):
    """Solve for k0, fix alpha, and normalize the genus-1 periods; the
    surface is determined by (xi, A) alone.

    With the branch points a, b, c, d = iA, -iA, alpha, conj(alpha) the
    B-period of dk/gamma is 2 pi i / AGM(sqrt((a-c)(b-d)), sqrt((a-d)(b-c)))
    and the a-period 2 pi / AGM(sqrt((a-b)(c-d)), sqrt((a-d)(c-b)))."""
    k0 = solve_k0(xi, A)
    alpha = alpha_of(k0, xi, A)
    a, b, c, d = 1j * A, -1j * A, alpha, np.conj(alpha)
    C = _agm(np.sqrt((a - c) * (b - d)), np.sqrt((a - d) * (b - c))) / (2j * np.pi)
    tau = -2j * np.pi * C / _agm(np.sqrt((a - b) * (c - d)),
                                 np.sqrt((a - d) * (c - b)))
    if tau.imag < 0:
        tau = -tau
    return SurfaceData(
        k0=float(k0), alpha=alpha, A=A, xi=float(xi), C_norm=complex(C),
        tau=complex(tau),
        band_upper=ComplexPath.segment(k0, alpha, "log", "inverse_sqrt"),
        band_lower=ComplexPath.segment(k0, d, "log", "inverse_sqrt"))


def _dh_density(surface):
    k0, A, alpha = surface.k0, surface.A, surface.alpha

    def dh(z):
        return 4.0 * (z - k0) * gamma2(z, alpha) / f_branch(z, A)

    return dh


def dh_b_period(surface):
    """Independent check that the b-period of dh vanishes at the solved k0."""
    return _cycle_rectangle(_dh_density(surface), surface.A, _CYCLE_OFFSET)


def _ray_tail_integral(fn, base, tol):
    """Integral of fn = O(k^-2) along the vertical ray from the branch point
    base away from the real axis.  Under k = 1/w the ray is the segment
    [0, 1/base], on which fn(1/w)/w^2 is analytic at w = 0."""
    return quad_path(lambda w: fn(1.0 / w) / (w * w),
                     ComplexPath.segment(0, 1.0 / base, "none", "inverse_sqrt"),
                     tol=tol)


def h_machinery(surface):
    """(H_inf, Omega, h evaluator) for the deformed phase.

    h(k) = 2k^2 + 4 xi k + 2A^2 + 2 * sum over both base points of the
    integral of [dh/4 - (z + xi)] from the base point to k.  H_inf and
    Omega are returned complex; both are real up to quadrature error.
    """
    xi = surface.xi
    A = surface.A
    tol = 1e-10
    k0 = surface.k0
    alpha = surface.alpha
    dh = _dh_density(surface)

    # dh/4 - (z + xi) = (N - D)/f with N = (z-k0)*gamma2, D = (z+xi)*f;
    # N^2 - D^2 collapses to a linear polynomial (the alpha identities kill
    # the z^4..z^2 terms), giving a cancellation-free far-field form
    aa = abs(alpha) ** 2
    p1 = -2.0 * k0 * aa - 2.0 * k0 * k0 * alpha.real - 2.0 * xi * A * A
    p0 = k0 * k0 * aa - xi * xi * A * A

    def decayed(z):
        z = np.asarray(z, dtype=complex)
        f = f_branch(z, A)
        g2 = gamma2(z, alpha)
        N = (z - k0) * g2
        D = (z + xi) * f
        s = N + D
        with np.errstate(invalid="ignore", divide="ignore"):
            stable = (p1 * z + p0) / (f * s)
            direct = (N - D) / f
        return np.where(np.abs(s) > 0.5 * np.abs(D), stable, direct)

    I_up = _ray_tail_integral(decayed, 1j * A, tol)
    I_dn = _ray_tail_integral(decayed, -1j * A, tol)
    H_inf = 2.0 * (I_up + I_dn) + 2.0 * A * A

    om_u = quad_path(
        dh, ComplexPath.segment(1j * A, alpha, "inverse_sqrt", "inverse_sqrt"),
        tol=tol,
    )
    om_l = quad_path(
        dh, ComplexPath.segment(-1j * A, np.conj(alpha), "inverse_sqrt",
                                "inverse_sqrt"),
        tol=tol,
    )
    Omega = om_u + om_l

    cuts = [(-1j * A, 1j * A), (np.conj(alpha), alpha)]

    def h(k):
        k = complex(k)
        total = 2.0 * k * k + 4.0 * xi * k + 2.0 * A * A
        # sqrt-type endpoint behavior when k is any of the four branch points
        branch_pts = (alpha, np.conj(alpha), 1j * A, -1j * A)
        end_tag = (
            "inverse_sqrt"
            if min(abs(k - b) for b in branch_pts) < 1e-12
            else "none"
        )
        for base in (1j * A, -1j * A):
            if k == base:
                continue
            for c0, c1 in cuts:
                if _segments_cross(base, k, c0, c1):
                    raise ValueError("straight path from base crosses a cut")
            total += 2.0 * quad_path(
                decayed, ComplexPath.segment(base, k, "inverse_sqrt", end_tag),
                tol=tol,
            )
        return total

    return complex(H_inf), complex(Omega), h


def _band_nodes(surface):
    """Chebyshev nodes per band for the band densities.

    Their nearest singularity, from the logs of r1 and r2, is the branch
    point iA (-iA for the lower band).  With rho the Bernstein-ellipse
    parameter of the band through it, the interpolation error falls like
    rho^-n; n is chosen so that rho^-n < e^-25, and at least 48."""
    k0, alpha = surface.k0, surface.alpha
    u = 2.0 * (1j * surface.A - k0) / (alpha - k0) - 1.0
    root = np.sqrt(u * u - 1.0)
    rho = max(abs(u + root), abs(u - root))
    return max(48, int(np.ceil(25.0 / np.log(rho))))


def _band_densities(spectral, surface):
    """(upper, lower, singular): the regular parts of the band densities as
    Chebyshev series in t, z = k0 + t (end - k0), and their common singular
    part at k0.

    The densities are 2 log delta(z, k0) - log r1 on the upper band and
    2 log delta(z, k0) + log r2 on the lower band, with the logs of r1, r2
    continued from the principal branch at k0.  Near k0, 2 log delta is
    singular = 2 (i nu + mu (z - k0)) log(k0 - z) plus a C^1 remainder,
    with i nu and mu the value and slope of log(1 + r1 r2)/(2 pi i) at k0.
    Each series interpolates its density less singular at ``_band_nodes``
    first-kind nodes, sampled in one reflection batch and one log delta
    batch for both bands; k0 itself only anchors the logs.  The node count
    doubles, at most four times, while the phase cannot be unwrapped."""
    k0 = surface.k0
    nu = -spectral.log_rr(k0) / (2.0 * np.pi)
    mu = spectral.log_rr(k0, 1) / (2j * np.pi)

    def singular(z):
        return 2.0 * (1j * nu + mu * (z - k0)) * np.log(k0 - z)

    n = _band_nodes(surface)
    for _ in range(5):
        x = chebpts1(n)
        ts = np.concatenate([[0.0], 0.5 * (1.0 + x)])
        pts = np.concatenate([k0 + ts * (surface.alpha - k0),
                              k0 + ts * (np.conj(surface.alpha) - k0)])
        r1, r2 = spectral.reflection_at(pts)
        bands = (r1[:ts.size], r2[ts.size:])
        for component, vals in zip((1, 2), bands):
            if np.any(np.abs(vals) < 1e-10):
                raise ValueError(
                    f"r{component} nearly vanishes on the band contour"
                )
        try:
            lnr1, lnr2 = (continuous_log(v)[1:] for v in bands)
        except PhaseUnwrapError:
            n *= 2
            continue
        z = np.delete(pts, [0, ts.size])
        regular = (2.0 * log_delta(z, k0, spectral) - singular(z)
                   + np.concatenate([-lnr1, lnr2])).reshape(2, n)
        # the interpolant at the nodes: a discrete Chebyshev transform
        coef = chebvander(x, n - 1).T @ regular.T * (2.0 / n)
        coef[0] /= 2.0
        return (Chebyshev(coef[:, 0], domain=[0, 1]),
                Chebyshev(coef[:, 1], domain=[0, 1]), singular)
    raise PhaseUnwrapError("band-contour log did not stabilize")


def g_machinery(surface, spectral):
    """(omega, G_inf, G evaluator) for the band factorization function.

    Log branches of r1, r2 along the band contours are continued from the
    principal value at the k0 end; log delta uses the line-table branch.
    The surface root is cut along the band arc; the band densities take the
    left-of-orientation side, which is the triangle-interior sign (-gamma_rs)
    on the k0 -> alpha band and the exterior sign (+gamma_rs) on the
    k0 -> conj(alpha) band.  This choice makes omega and G_inf real whenever
    the data reduce to the local equation, and matches the split-step
    simulation along elliptic rays.
    """
    k0 = surface.k0
    A = surface.A
    alpha = surface.alpha
    tol = 1e-9

    upper, lower, singular = _band_densities(spectral, surface)
    lnd_B = _lndelta_on_B(k0, spectral)

    def rho_B(z):
        return 2.0 * lnd_B(np.imag(z)) * (1.0 / gamma_rs(z, A, alpha))

    # (series, end, sign of 1/gamma_rs, path) of the bands k0 -> alpha and
    # k0 -> conj(alpha)
    bands = ((upper, alpha, -1.0, surface.band_upper),
             (lower, np.conj(alpha), 1.0, surface.band_lower))

    def band_density(series, end, sign, shift=None):
        """(series(t) + singular(z)) * sign / gamma_rs(z) on the band
        k0 -> end, plus i shift * sign / gamma_rs(z) if shifted."""
        def rho(z):
            inv_gamma = sign / gamma_rs(z, A, alpha)
            t = np.real((z - k0) / (end - k0))
            out = (series(t) + singular(z)) * inv_gamma
            return out if shift is None else out + 1j * shift * inv_gamma
        return rho

    B_path = ComplexPath.segment(-1j * A, 1j * A, "inverse_sqrt", "inverse_sqrt")
    I_B = quad_path(rho_B, B_path, tol=tol)
    I_u, I_l = (quad_path(band_density(*band), path, tol=tol)
                for *band, path in bands)
    # omega = i (I_B + I_u + I_l)/D, D = int_bands 1/gamma = -1/(2 C_norm):
    # dk/gamma ~ dk/k^2, so its cycles around the bands and around B cancel
    omega = -2j * surface.C_norm * (I_B + I_u + I_l)

    # the omega-shifted densities of G; G_inf is -1/(2 pi) their first moments
    densities = ((rho_B, B_path), *((band_density(*band, omega), path)
                                    for *band, path in bands))
    K_B, K_u, K_l = (quad_path(lambda z: rho(z) * z, path, tol=tol)
                     for rho, path in densities)
    G_inf = -(K_B + K_u + K_l) / (2.0 * np.pi)

    def G(k):
        k = complex(k)
        S = 0.0
        for rho, path in densities:
            S += cauchy_segment(rho, *path.vertices, k, tol=tol,
                                endpoint_singularity=path.endpoint_singularity)
        return np.exp(-gamma_band_cut(k, surface) * S / (2j * np.pi))

    return complex(omega), complex(G_inf), G


def reality_residuals(surface):
    """Raw imaginary parts and normalization residuals of the h machinery:
    {Im H_inf, Im Omega, |h(iA)|, |b-period of dh|, Im h(alpha)}."""
    H_inf, Omega, h = h_machinery(surface)
    return {
        "im_H_inf": abs(H_inf.imag),
        "im_Omega": abs(Omega.imag),
        "h_iA": abs(h(1j * surface.A)),
        "b_period_dh": abs(dh_b_period(surface)),
        "im_h_alpha": abs(h(surface.alpha).imag),
    }


def abel_constants(surface):
    """(v_inf, c, khat0) from the normalized differential dw = C dk/gamma."""
    A = surface.A
    alpha = surface.alpha
    C = surface.C_norm
    tau = surface.tau
    tol = 1e-11

    def dw(z):
        return C / gamma_rs(z, A, alpha)

    v_inf = _ray_tail_integral(dw, 1j * A, tol)
    khat0 = A * alpha.real / (A + alpha.imag)
    v_khat = quad_path(
        dw, ComplexPath.segment(1j * A, khat0, "inverse_sqrt", "none"), tol=tol
    )
    c = v_khat + 0.5 * (1.0 + tau)
    for sign in (+1, -1):
        if abs(theta3(sign * v_inf + c, tau)) < 1e-8:
            raise RuntimeError("theta denominator vanishes at +-v_inf + c")
    return complex(v_inf), complex(c), float(khat0)


def elliptic_data(xi, A, spectral):
    """Assemble every modulated-elliptic ray constant at one xi."""
    surface = build_surface(xi, A)
    H_inf, Omega, _ = h_machinery(surface)
    for name, val in (("H_inf", H_inf), ("Omega", Omega)):
        if abs(val.imag) > 1e-6:
            raise RuntimeError(f"{name} has imaginary part {val.imag:.2e}")
    omega, G_inf, _ = g_machinery(surface, spectral)
    v_inf, c, khat0 = abel_constants(surface)
    return EllipticData(surface=surface, H_inf=H_inf.real, Omega=Omega.real,
                        omega=omega, G_inf=G_inf, v_inf=v_inf, c=c, khat0=khat0)


def elliptic_eval(ed, t):
    """Leading modulated-elliptic values (q_plus, q_minus) at time t > 0.

    q_plus is the field at x = +4 xi t, q_minus at x = -4 xi t; both carry
    the common phase exp(2i(t H_inf + Re G_inf)) and theta-function ratios
    advancing with Omega t / (2 pi)."""
    if not t > 0:
        raise ValueError("t must be positive")
    s = ed.surface
    tau = s.tau
    amp = s.A + s.alpha.imag
    phase = np.exp(2j * (t * ed.H_inf + ed.G_inf.real))

    base = ed.Omega * t / (2.0 * np.pi) - 0.25
    # theta-function ratios for q_plus (v, c) and q_minus (-conj v, -conj c)
    shift = base + np.array([ed.omega, np.conj(ed.omega)]) / (2.0 * np.pi)
    v = np.array([ed.v_inf, -np.conj(ed.v_inf)])
    cc = np.array([ed.c, -np.conj(ed.c)])
    th = theta3(np.stack([shift - v + cc, v + cc, shift + v + cc, -v + cc]), tau)
    num = th[0] * th[1]
    den = th[2] * th[3]
    if np.any(np.abs(den) < 1e-12 * np.maximum(1.0, np.abs(num))):
        raise RuntimeError("theta denominator vanished at this t")
    ratio = num / den
    q_plus = amp * np.exp(-2.0 * ed.G_inf.imag) * ratio[0] * phase
    q_minus = amp * np.exp(2.0 * ed.G_inf.imag) * ratio[1] * phase
    return complex(q_plus), complex(q_minus)
