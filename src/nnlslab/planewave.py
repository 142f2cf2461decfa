"""Plane-wave ray asymptotics.

Everything needed along rays |xi| > sqrt(2)A: the scalar factorization
function delta(k, k1) built from the unwrapped log of 1 + r1*r2, its local
exponents (nu, chi, Delta) at the stationary point, the cut factorization
F(k, k1) with its large-k constant F_inf, and the leading-plus-subleading
evaluator with the four oscillatory constants c1..c4.

The accumulated argument of 1 + r1*r2 must stay inside (-pi, pi) up to the
stationary point; every entry point checks this and raises WindingError
otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial import Chebyshev, polynomial
from numpy.polynomial.legendre import leggauss

from .background import f_branch, stationary_points, theta_phase, w_branch
from .numerics import (ComplexPath, QuadratureError, cauchy_segment,
                       gamma_complex, json_value, quad_path)

__all__ = [
    "PlaneWaveData",
    "SubleadingCase",
    "subleading_case",
    "WindingError",
    "delta_fn",
    "chi_fn",
    "local_exponents",
    "F_fn",
    "F_inf",
    "F_inf_split",
    "planewave_params",
    "planewave_eval",
]

#: constants c1..c4 are zeroed below this size of |r1*r2| at the stationary
#: point, where the Gamma-pole cancellation makes the closed forms 0/0
_SMALL_REFLECTION = 1e-14

#: log_delta integrates a line-table cell in closed form when the point lies
#: within this many cell half-widths of the cell's midpoint; beyond it the
#: 4-point Gauss-Legendre error is below 1e-12 of the cell's share
_NEAR_HALF_WIDTHS = 16
_GL4_X, _GL4_W = leggauss(4)
#: floats in each of the two point-by-node temporaries of log_delta (512 KiB)
_CHUNK_ELEMENTS = 2**16
#: absolute quadrature target of F_inf_split's integrals
_F_TOL = 1e-10
#: Chebyshev nodes of the log delta series on B
_B_NODES = 96


class WindingError(RuntimeError):
    """The accumulated argument of 1 + r1*r2 left (-pi, pi)."""


class SubleadingCase(enum.Enum):
    A = "a"  # Im nu in (-1/2, -1/6]
    B = "b"  # Im nu in (-1/6, 1/6)
    C = "c"  # Im nu in [1/6, 1/2)


def subleading_case(nu):
    """Which subleading-correction regime Im nu selects."""
    im = complex(nu).imag
    if -0.5 < im <= -1.0 / 6.0:
        return SubleadingCase.A
    if -1.0 / 6.0 < im < 1.0 / 6.0:
        return SubleadingCase.B
    if 1.0 / 6.0 <= im < 0.5:
        return SubleadingCase.C
    raise WindingError(f"Im nu = {im:.3f} outside (-1/2, 1/2)")


@dataclass(frozen=True)
class PlaneWaveData:
    """All ray constants of the plane-wave asymptotics at one xi."""

    xi: float
    A: float
    k1: float
    nu: complex
    chi_at_k1: complex
    Delta: float
    F_inf: complex
    F_at_k1: complex
    beta1: float
    theta_at_k1: float
    c1: complex
    c2: complex
    c3: complex
    c4: complex
    case_tag: SubleadingCase

    def to_dict(self):
        """The ray's constants as reported: every number but xi and A, and
        the subleading case as "case"."""
        out = {f.name: json_value(getattr(self, f.name)) for f in fields(self)
               if f.name not in ("xi", "A", "case_tag")}
        out["case"] = self.case_tag.value
        return out


def _check_winding(spectral, k_end):
    w = spectral.max_abs_winding(k_end)
    if w >= np.pi:
        raise WindingError(
            f"accumulated argument of 1 + r1*r2 reaches {w:.3f} >= pi"
        )


def log_delta(ks, k_end, spectral):
    """log of the lower-half-line factorization function delta(k, k_end).

    The Cauchy transform (1/2 pi i) int_{-k_tail}^{k_end} S(s)/(s - k) ds of
    the line table's cubic spline S, taken exactly cell by cell at an array
    of points ``ks`` off the path (product integration).  On a cell [a, b]
    near k, the quotient (S(s) - S(k))/(s - k) is a quadratic in s and is
    integrated in closed form, plus S(k) log((b - k)/(a - k)); the last cell
    is cut at ``k_end``.  Far cells use 4-point Gauss-Legendre, summed as
    one matrix product over the nodes.
    """
    spline = spectral.line_spline
    knots = spline.x
    k_end = float(k_end)
    if k_end > knots[-1] + 1e-12:
        raise ValueError(f"log_rr table covers k <= {knots[-1]:g}")
    m = int(np.searchsorted(knots, k_end))
    a = knots[:m]
    h = np.append(knots[1:m], k_end) - a
    d3, d2, d1, d0 = spline.c[:, :m]
    u = 0.5 * h[:, None] * (1.0 + _GL4_X)
    nodes = (a[:, None] + u).ravel()
    vals = ((d3[:, None] * u + d2[:, None]) * u + d1[:, None]) * u + d0[:, None]
    wv = (0.5 * h[:, None] * _GL4_W * vals).ravel()
    wv = np.stack([wv.real, wv.imag], axis=1)
    mid = a + 0.5 * h
    near_r2 = (0.5 * _NEAR_HALF_WIDTHS * h) ** 2

    k = np.asarray(ks, dtype=complex)
    flat = k.ravel()
    on_path = (flat.imag == 0.0) & (flat.real >= knots[0]) & (flat.real <= k_end)
    if np.any(on_path) and m:
        raise QuadratureError("Cauchy kernel pole lies on the path")
    out = np.empty(flat.size, dtype=complex)
    step = max(1, _CHUNK_ELEMENTS // max(nodes.size, 1))
    for lo in range(0, flat.size, step):
        kc = flat[lo:lo + step]
        x, y = kc.real[:, None], kc.imag[:, None]
        # 1/(s - k) = (s - x + i y) / ((s - x)^2 + y^2) at every node s
        dx = nodes - x
        inv = dx * dx
        inv += y * y
        np.reciprocal(inv, out=inv)
        pi, ci = np.nonzero((mid - x) ** 2 + y * y < near_r2)
        inv.reshape(kc.size, m, 4)[pi, ci, :] = 0.0
        im = inv @ wv
        dx *= inv
        re = dx @ wv
        far = re[:, 0] + 1j * re[:, 1] + 1j * kc.imag * (im[:, 0] + 1j * im[:, 1])
        z = kc[pi] - a[ci]
        hc = h[ci]
        quad = hc * (d1[ci] + d2[ci] * (0.5 * hc + z)
                     + d3[ci] * (hc * hc / 3.0 + 0.5 * z * hc + z * z))
        pz = ((d3[ci] * z + d2[ci]) * z + d1[ci]) * z + d0[ci]
        near = quad + pz * np.log((hc - z) / -z)
        out[lo:lo + step] = far + (
            np.bincount(pi, near.real, kc.size)
            + 1j * np.bincount(pi, near.imag, kc.size))
    out = (out / (2j * np.pi)).reshape(k.shape)
    return out if out.ndim else complex(out)


def delta_fn(k, k1, spectral):
    """delta(k, k1) = exp{(1/2 pi i) int_{-inf}^{k1} log(1+r1 r2)/(z-k) dz}.

    Only defined off the half-line (-inf, k1]."""
    _check_winding(spectral, k1)
    return np.exp(log_delta(k, k1, spectral))


def chi_fn(k, k_end, spectral):
    """The regular exponent chi(k, k_end) with delta = (k-k_end)^(i nu) e^chi.

    Off the path: log_delta less L log(k - k_end)/(2 pi i), L = S(k_end) for
    the line table's spline S.  At k = k_end (the value in c1..c4) the path
    stops at the last knot a < k_end and the rest of that cell's integral,
    int_a^k_end (S - L)/(s - k_end) ds - L log(k_end - a), is closed-form."""
    k = complex(k)
    k_end = float(k_end)
    spline = spectral.line_spline
    m = int(np.searchsorted(spline.x, k_end))
    if m == 0:
        # the path lies left of the table, where log(1 + r1 r2) is 0
        return 0j
    L = spectral.log_rr(k_end)
    if abs(k - k_end) >= 1e-14:
        return log_delta(k, k_end, spectral) - L * np.log(k - k_end) / (2j * np.pi)
    a = float(spline.x[m - 1])
    h = k_end - a
    d3, d2, d1, _ = spline.c[:, m - 1]
    rest = h * (d1 + 1.5 * d2 * h + 11.0 / 6.0 * d3 * h * h) - L * np.log(h)
    return log_delta(k_end, a, spectral) + rest / (2j * np.pi)


def local_exponents(k1, spectral):
    """(nu, chi(k1,k1), Delta) at the stationary point."""
    _check_winding(spectral, k1)
    L1 = spectral.log_rr(float(k1))
    nu = -L1 / (2.0 * np.pi)
    Delta = float(L1.imag)
    chi = chi_fn(k1, k1, spectral)
    return nu, chi, Delta


def _lndelta_on_B(k1, spectral):
    """Chebyshev series in y of log delta(i y, k1) on B, k = i y."""
    A = spectral.A
    return Chebyshev.interpolate(lambda y: log_delta(1j * y, k1, spectral),
                                 _B_NODES - 1, domain=[-A, A])


def _exp_series(c, k, A):
    """exp(sum c_n rho^n), rho = i (f(k) - k)/A = i A/(f(k) + k)."""
    return np.exp(polynomial.polyval(1j * A / (f_branch(complex(k), A) + k), c))


def F_fn(k, k1, spectral):
    """The cut factorization function F(k, k1), bounded at +-iA and infinity.

    F_+ F_- = delta^2 on the cut; F -> exp(i F_inf) at infinity.  With
    log delta(i A s) = sum c_n T_n(s) on B, F = exp(sum c_n rho^n) in closed
    form; rho maps the plane minus B onto the unit disk, minus side on B."""
    return _exp_series(_lndelta_on_B(k1, spectral).coef, k, spectral.A)


def F_inf(k1, spectral):
    """F_inf(k1) = -(1/pi) int_B log delta(z, k1)/f(z) dz = -i c_0."""
    return -1j * _lndelta_on_B(k1, spectral).coef[0]


def F_inf_split(k1, spectral, n=_B_NODES):
    """F_inf assembled from the separated real/imaginary double integrals.

    Independent route: the inner line integrals use log|1+r1r2| and the
    accumulated argument separately; both outer integrals are real up to
    quadrature noise."""
    A = spectral.A
    k_lo = -spectral.k_tail
    path = ComplexPath.segment(-1j * A, 1j * A, "inverse_sqrt", "inverse_sqrt")
    halves = []
    for part in (np.real, np.imag):
        # inner integrals over s with kernel 1/(s - i y), at n Chebyshev y
        ip = Chebyshev.interpolate(lambda y: np.array([cauchy_segment(
            lambda z: part(spectral.log_rr(np.real(z))) + 0j, k_lo, float(k1),
            1j * yy, tol=_F_TOL) for yy in y]), n - 1, domain=[-A, A])
        outer = quad_path(lambda z: ip(np.imag(z)) / f_branch(z, A), path,
                          tol=_F_TOL)
        halves.append(-outer / (2j * np.pi**2))
    re_part, im_part = halves
    return complex(re_part.real + 1j * im_part.real), float(
        max(abs(re_part.imag), abs(im_part.imag))
    )


def planewave_params(xi, spectral):
    """Assemble every plane-wave ray constant at xi > sqrt(2) A."""
    A = spectral.A
    xi = float(xi)
    if not xi > np.sqrt(2.0) * A:
        raise ValueError("plane-wave rays require xi > sqrt(2) A")
    k1 = float(stationary_points(xi, A)[0].real)
    nu, chi, Delta = local_exponents(k1, spectral)
    c = _lndelta_on_B(k1, spectral).coef
    Finf = -1j * c[0]
    Fk1 = _exp_series(c, k1, A)
    fk1 = complex(f_branch(k1, A)).real
    wk1 = complex(w_branch(k1, A))
    theta1 = complex(theta_phase(k1, xi, A)).real
    theta2 = (4.0 * k1 + 2.0 * xi) / fk1
    beta1 = 0.5 / np.sqrt(theta2)
    log_term = np.log(2.0 * np.sqrt(theta2))

    r1k1, r2k1 = spectral.reflection_at(np.array([k1]))
    r1k1 = complex(r1k1[0])
    r2k1 = complex(r2k1[0])
    if abs(r1k1 * r2k1) < _SMALL_REFLECTION:
        c1 = c2 = c3 = c4 = 0.0j
    else:
        wm = (wk1 - 1.0 / wk1) ** 2
        wp = (wk1 + 1.0 / wk1) ** 2
        sq = np.sqrt(np.pi) / np.sqrt(2.0)
        nuc = np.conj(nu)
        c1 = sq * wm * Fk1**2 / (r2k1 * gamma_complex(1j * nu)) * np.exp(
            2j * Finf - np.pi * nu / 2 + 3j * np.pi / 4 - 2 * chi
            - (1 - 2j * nu) * log_term
        )
        c2 = sq * wp / (r1k1 * gamma_complex(-1j * nu) * Fk1**2) * np.exp(
            2j * Finf - np.pi * nu / 2 + 1j * np.pi / 4 + 2 * chi
            - (1 + 2j * nu) * log_term
        )
        c3 = sq * wp * np.conj(Fk1**2) / (
            np.conj(r2k1) * gamma_complex(-1j * nuc)
        ) * np.exp(
            2j * np.conj(Finf) - np.pi * nuc / 2 + 1j * np.pi / 4
            - 2 * np.conj(chi) - (1 + 2j * nuc) * log_term
        )
        c4 = sq * wm / (
            np.conj(r1k1) * gamma_complex(1j * nuc) * np.conj(Fk1**2)
        ) * np.exp(
            2j * np.conj(Finf) - np.pi * nuc / 2 + 3j * np.pi / 4
            + 2 * np.conj(chi) - (1 - 2j * nuc) * log_term
        )

    case = subleading_case(nu)

    return PlaneWaveData(
        xi=xi, A=A, k1=k1, nu=complex(nu), chi_at_k1=complex(chi), Delta=Delta,
        F_inf=complex(Finf), F_at_k1=complex(Fk1), beta1=float(beta1),
        theta_at_k1=theta1, c1=complex(c1), c2=complex(c2), c3=complex(c3),
        c4=complex(c4), case_tag=case,
    )


def planewave_eval(pwd, t):
    """Leading asymptotes and subleading corrections at time t > 0.

    Returns (q_plus, q_minus, E1, E2): the leading values of q at
    x = +-4 xi t and the decaying corrections there."""
    if not t > 0:
        raise ValueError("t must be positive")
    A = pwd.A
    nu = pwd.nu
    th = pwd.theta_at_k1
    phase = np.exp(2j * (A * A * t + pwd.F_inf.real))
    q_plus = A * np.exp(-2.0 * pwd.F_inf.imag) * phase
    q_minus = A * np.exp(2.0 * pwd.F_inf.imag) * phase

    osc_p = np.exp(2j * t * (A * A + th) + 1j * nu.real * np.log(t))
    osc_m = np.exp(2j * t * (A * A - th) - 1j * nu.real * np.log(t))
    slow = t ** (-0.5 - nu.imag)  # pairs with c1, c3
    fast = t ** (-0.5 + nu.imag)  # pairs with c2, c4

    term_c1 = slow * pwd.c1 * osc_p
    term_c2 = fast * pwd.c2 * osc_m
    term_c3 = slow * pwd.c3 * osc_m
    term_c4 = fast * pwd.c4 * osc_p
    if pwd.case_tag is SubleadingCase.A:
        E1, E2 = term_c1, term_c3
    elif pwd.case_tag is SubleadingCase.B:
        E1, E2 = term_c1 + term_c2, term_c3 + term_c4
    else:
        E1, E2 = term_c2, term_c4
    return complex(q_plus), complex(q_minus), complex(E1), complex(E2)
