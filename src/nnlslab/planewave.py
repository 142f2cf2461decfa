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
import functools
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

#: absolute quadrature target of F_inf_split's integrals
_F_TOL = 1e-10
#: Chebyshev nodes of the log delta series on B
_B_NODES = 96


#: Gauss-Legendre nodes and weights on [-1, 1] by count (shared, read only)
_gauss_legendre = functools.lru_cache(maxsize=None)(leggauss)


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

    (1/2 pi i) int_{-k_tail}^{k_end} p(s)/(s - k) ds over the line pieces p
    at points ``ks`` off the path, by Gauss-Legendre on as many nodes n as p
    has coefficients.  Where the rule's error on the pole, about rho^(-2n)
    for the Bernstein ellipse rho of the piece through k, exceeds machine
    epsilon, p(k) times that error on ds/(s - k) is added: the rule then
    integrates (p(s) - p(k))/(s - k) exactly (Olver, Math. Comp. 80, 2011).
    """
    k_lo, hi = spectral.line[0].domain[0], spectral.line[-1].domain[1]
    if k_end > hi + 1e-12:
        raise ValueError(f"log_rr table covers k <= {hi:g}")
    k = np.asarray(ks, dtype=complex).ravel()
    if np.any((k.imag == 0.0) & (k.real >= k_lo) & (k.real <= k_end)):
        raise QuadratureError("Cauchy kernel pole lies on the path")
    out = np.zeros(k.shape, dtype=complex)
    for p in spectral.line:
        a, b = p.domain[0], min(p.domain[1], k_end)
        if a >= b:
            break
        x, w = _gauss_legendre(p.coef.size)
        s = a + 0.5 * (b - a) * (1.0 + x)
        kernel = 0.5 * (b - a) * w / (s - k[:, None])
        out += kernel @ p(s)
        u = (2.0 * k - a - b) / (b - a)
        rho = np.abs(u + np.sqrt(u - 1.0) * np.sqrt(u + 1.0))
        near = 2 * x.size * np.log(rho) < -np.log(np.finfo(float).eps)
        kn = k[near]
        out[near] += p(kn) * (np.log((b - kn) / (a - kn))
                              - kernel[near].sum(axis=1))
    out = (out / (2j * np.pi)).reshape(np.shape(ks))
    return out if out.ndim else complex(out)


def delta_fn(k, k1, spectral):
    """delta(k, k1) = exp{(1/2 pi i) int_{-inf}^{k1} log(1+r1 r2)/(z-k) dz}.

    Only defined off the half-line (-inf, k1]."""
    _check_winding(spectral, k1)
    return np.exp(log_delta(k, k1, spectral))


def chi_fn(k, k_end, spectral):
    """The regular exponent chi(k, k_end) with delta = (k-k_end)^(i nu) e^chi.

    Off the path: log_delta less L log(k - k_end)/(2 pi i), L = p(k_end) on
    the line piece p = [a, b] that holds k_end.  At k = k_end (in c1..c4):
    log_delta up to a, plus the rule on (p - L)/(s - k_end), less L log(k_end - a)."""
    k, k_end = complex(k), float(k_end)
    if k_end <= spectral.line[0].domain[0]:
        return 0j  # the path lies left of the table, where log(1 + r1 r2) = 0
    p = [p for p in spectral.line if p.domain[0] < k_end][-1]
    a, L = p.domain[0], complex(p(k_end))
    if abs(k - k_end) >= 1e-14:
        return log_delta(k, k_end, spectral) - L * np.log(k - k_end) / (2j * np.pi)
    x, w = _gauss_legendre(p.coef.size)
    s = a + 0.5 * (k_end - a) * (1.0 + x)
    rest = 0.5 * (k_end - a) * w @ ((p(s) - L) / (s - k_end)) - L * np.log(k_end - a)
    return log_delta(k_end, a, spectral) + rest / (2j * np.pi)


def _exponents(k1, w, spectral):
    """(nu, chi(k1,k1), Delta) at the stationary point, w = r1 r2 there."""
    _check_winding(spectral, k1)
    # log1p keeps nu accurate where |r1 r2| is below the table's error
    L1 = 0.5 * np.log1p(w.real * (2.0 + w.real) + w.imag**2) + 1j * np.angle(1 + w)
    L1 += 2j * np.pi * np.round((spectral.log_rr(k1) - L1).imag / (2.0 * np.pi))
    return -L1 / (2.0 * np.pi), chi_fn(k1, k1, spectral), float(L1.imag)


def local_exponents(k1, spectral):
    """(nu, chi(k1,k1), Delta) at the stationary point."""
    r1, r2 = spectral.reflection_at(np.array([float(k1)]))
    return _exponents(float(k1), complex(r1[0] * r2[0]), spectral)


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


def F_inf_split(k1, spectral):
    """F_inf assembled from the separated real/imaginary double integrals.

    Independent route: the inner line integrals use log|1+r1r2| and the
    accumulated argument separately, at the _B_NODES Chebyshev y of F_inf's
    series; both outer integrals are real up to quadrature noise."""
    A = spectral.A
    k_lo = -spectral.k_tail
    path = ComplexPath.segment(-1j * A, 1j * A, "inverse_sqrt", "inverse_sqrt")
    halves = []
    for part in (np.real, np.imag):
        # inner integrals over s with kernel 1/(s - i y)
        ip = Chebyshev.interpolate(lambda y: np.array([cauchy_segment(
            lambda z: part(spectral.log_rr(np.real(z))) + 0j, k_lo, float(k1),
            1j * yy, tol=_F_TOL) for yy in y]), _B_NODES - 1, domain=[-A, A])
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
    r1k1, r2k1 = (complex(r[0]) for r in spectral.reflection_at(np.array([k1])))
    nu, chi, Delta = _exponents(k1, r1k1 * r2k1, spectral)
    c = _lndelta_on_B(k1, spectral).coef
    Finf = -1j * c[0]
    Fk1 = _exp_series(c, k1, A)
    fk1 = complex(f_branch(k1, A)).real
    wk1 = complex(w_branch(k1, A))
    theta1 = complex(theta_phase(k1, xi, A)).real
    theta2 = (4.0 * k1 + 2.0 * xi) / fk1
    beta1 = 0.5 / np.sqrt(theta2)
    log_term = np.log(2.0 * np.sqrt(theta2))

    if abs(r1k1 * r2k1) < _SMALL_REFLECTION:
        c1 = c2 = c3 = c4 = 0.0j
    else:
        wm = (wk1 - 1.0 / wk1) ** 2
        wp = (wk1 + 1.0 / wk1) ** 2
        sq = np.sqrt(np.pi) / np.sqrt(2.0)

        def pair(nu, Finf, chi, num, den, ra, rb):
            """(c1, c2) at F(k1)^2 = num/den; the same forms give (c4, c3)
            under nu -> conj nu, F_inf -> conj F_inf, chi -> -conj chi,
            F^2 -> 1/conj F^2 and (r2, r1) -> (conj r1, conj r2)."""
            s = 2j * Finf - np.pi * nu / 2
            return (sq * wm * num / (ra * gamma_complex(1j * nu) * den) * np.exp(
                        s + 3j * np.pi / 4 - 2 * chi - (1 - 2j * nu) * log_term),
                    sq * wp * den / (rb * gamma_complex(-1j * nu) * num) * np.exp(
                        s + 1j * np.pi / 4 + 2 * chi - (1 + 2j * nu) * log_term))

        c1, c2 = pair(nu, Finf, chi, Fk1**2, 1.0, r2k1, r1k1)
        c4, c3 = pair(np.conj(nu), np.conj(Finf), -np.conj(chi), 1.0,
                      np.conj(Fk1**2), np.conj(r1k1), np.conj(r2k1))

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
