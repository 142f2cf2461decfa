"""Foundation layer: complex special functions, adaptive contour quadrature
with endpoint-singularity handling, bracketed root finding, and continuous
branch tracking for logarithms along sampled curves.

All routines are pure functions of their inputs and safe to call concurrently.
Integrands passed to the quadrature routines must accept numpy arrays of
complex points and return arrays of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.special import gamma as _scipy_gamma

__all__ = [
    "ComplexPath",
    "QuadratureError",
    "PhaseUnwrapError",
    "RootFindError",
    "gamma_complex",
    "theta3",
    "quad_path",
    "cauchy_segment",
    "bracket_root",
    "continuous_log",
    "json_value",
]

_SING_TAGS = ("none", "inverse_sqrt", "log")

#: power p of the substitution t = u^p that smooths each singular end:
#: (z-a)^(-1/2) becomes a constant and log(z-a) becomes u^3 log u (p = 2
#: leaves u log u, too rough where a caller multiplies the result by k^2)
_END_POWER = {"inverse_sqrt": 2, "log": 4}
#: Gauss-Legendre points per panel of the adaptive rule, and their nodes
#: and weights on [-1, 1]
_GL_POINTS = 15
_GL_X, _GL_W = leggauss(_GL_POINTS)
#: panels one segment's adaptive rule may create before it gives up
_MAX_PANELS = 20000


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge or hit a singular value."""


class PhaseUnwrapError(ValueError):
    """Adjacent samples differ in phase by >= pi; the caller must refine."""


class RootFindError(RuntimeError):
    """Bracketed root search exhausted its iteration budget."""


@dataclass(frozen=True)
class ComplexPath:
    """Straight segment between two distinct vertices with endpoint
    singularity tags."""

    vertices: tuple
    endpoint_singularity: tuple = ("none", "none")

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) != 2 or verts[0] == verts[1]:
            raise ValueError("a path is a segment between two distinct vertices")
        tags = tuple(self.endpoint_singularity)
        if len(tags) != 2 or any(t not in _SING_TAGS for t in tags):
            raise ValueError(f"endpoint tags must be a pair from {_SING_TAGS}")
        object.__setattr__(self, "endpoint_singularity", tags)

    @classmethod
    def segment(cls, a, b, start="none", end="none"):
        return cls((a, b), (start, end))


def gamma_complex(z):
    """Euler Gamma function for complex argument.

    Raises ValueError at the poles (nonpositive integers).
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise ValueError(f"Gamma pole at z={z.real:g}")
    return complex(_scipy_gamma(z))


def theta3(v, tau):
    """Third Jacobi theta function Theta(v) = sum_l exp(2*pi*i*l*v + i*pi*l^2*tau).

    Requires Im tau > 0 for convergence of the series.  ``v`` may be a scalar
    or a numpy array.
    """
    tau = complex(tau)
    if tau.imag <= 0.0:
        raise ValueError("theta series needs Im tau > 0 (|nome| < 1)")
    v = np.asarray(v, dtype=complex)
    im_max = float(np.max(np.abs(v.imag))) if v.size else 0.0
    # pick L with exp(-pi*Im(tau)*L^2 + 2*pi*im_max*L) < 1e-18
    a = np.pi * tau.imag
    b = 2.0 * np.pi * im_max
    L = int(np.ceil((b + np.sqrt(b * b + 4.0 * a * np.log(1e18))) / (2.0 * a))) + 2
    L = max(L, 8)
    l = np.arange(-L, L + 1)
    terms = np.exp(
        2j * np.pi * np.multiply.outer(v, l) + 1j * np.pi * tau * l * l
    )
    out = terms.sum(axis=-1)
    return out if out.ndim else complex(out)


def _adaptive_panels(f, a, b, tol):
    """Level-batched h-adaptive Gauss-Legendre on z(t) = a + t*(b-a), t in [0,1].

    Starts from the one panel [0, 1] and accepts a panel when
    |I_panel - I_left - I_right| <= tol * panel_width.
    All panels of one refinement level go to the integrand in a single call.
    """
    span = b - a

    def rule(tlo, thi):
        tm = 0.5 * (tlo + thi)
        th = 0.5 * (thi - tlo)
        nodes = a + (tm[:, None] + th[:, None] * _GL_X) * span
        vals = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("non-finite integrand value on path interior")
        return th * span * (vals @ _GL_W)

    tlo, thi = np.zeros(1), np.ones(1)
    whole = rule(tlo, thi)
    parent_err = np.full(1, np.inf)
    result = 0.0 + 0.0j
    # roundoff floor relative to the magnitude the rule actually sums over
    scale = float(np.sum(np.abs(whole)))
    eps = np.finfo(float).eps
    n_panels = 1
    while tlo.size:
        tm = 0.5 * (tlo + thi)
        halves = rule(np.concatenate([tlo, tm]), np.concatenate([tm, thi]))
        left, right = halves[:tlo.size], halves[tlo.size:]
        scale = max(scale, float(np.max(np.abs(left) + np.abs(right))))
        err = np.abs(whole - left - right)
        frac = thi - tlo
        # integrand chains (splines, branch roots, cancelling kernels) carry
        # noise well above eps; stop when bisection no longer improves
        stagnant = (frac < 1e-4) & (err > 0.25 * parent_err)
        floor = np.maximum(tol * np.maximum(frac, 1e-6), 450 * eps * scale)
        done = (err <= floor) | stagnant | (frac < 1e-15)
        result += np.sum(left[done] + right[done])
        split = ~done
        n_panels += 2 * int(np.count_nonzero(split))
        if n_panels > _MAX_PANELS:
            raise QuadratureError(
                f"quadrature did not converge within {_MAX_PANELS} panels "
                f"(last panel error {np.max(err[split]):.2e})"
            )
        tlo, tm, thi = tlo[split], tm[split], thi[split]
        tlo, thi = np.concatenate([tlo, tm]), np.concatenate([tm, thi])
        whole = np.concatenate([left[split], right[split]])
        parent_err = np.concatenate([err[split], err[split]])
    return result


def _quad_segment(f, a, b, start_tag, end_tag, tol):
    """Integrate f over the straight segment [a, b] honoring endpoint tags:
    a singular start a is smoothed by z = a + (b - a) u^p, p = _END_POWER[tag],
    and f dz/du goes to the adaptive rule on u in [0, 1]."""
    if start_tag != "none" and end_tag != "none":
        mid = 0.5 * (a + b)
        return _quad_segment(f, a, mid, start_tag, "none", tol / 2) + \
            _quad_segment(f, mid, b, "none", end_tag, tol / 2)
    if end_tag != "none":
        # mirror so the singular end sits at the start
        return -_quad_segment(f, b, a, end_tag, "none", tol)
    if start_tag == "none":
        return _adaptive_panels(f, a, b, tol)
    p, span = _END_POWER[start_tag], b - a

    def g(u):
        w = u ** (p - 1)
        return f(a + span * w * u) * p * w * span

    return _adaptive_panels(g, 0.0, 1.0, tol)


def quad_path(f, path, tol=1e-10):
    """Adaptive Gauss-Legendre integral of ``f`` along a ComplexPath.

    An endpoint singularity declared on the path is smoothed by the
    substitution z - end ~ u^2 (inverse square root) or u^4 (logarithmic)
    before the adaptive rule sees it.  ``tol`` is the absolute error target.
    """
    return _quad_segment(f, *path.vertices, *path.endpoint_singularity, tol)


def cauchy_segment(phi, a, b, k, tol=1e-10, endpoint_singularity=("none", "none")):
    """Integral of phi(z)/(z - k) over the straight segment [a, b].

    When ``k`` lies close to the segment (within 5% of its length) the pole
    is subtracted: phi(p) * int dz/(z-k) is added in closed form with p the
    orthogonal projection of k onto the segment, leaving a bounded
    integrand.  ``endpoint_singularity`` tags apply to phi itself.
    """
    a = complex(a)
    b = complex(b)
    k = complex(k)
    span = b - a
    L = abs(span)
    t_raw = ((k - a) * np.conj(span)).real / (L * L)
    t_proj = min(max(t_raw, 0.0), 1.0)
    p = a + t_proj * span
    dist = abs(k - p)
    if dist < 1e-12 * L:
        raise QuadratureError("Cauchy kernel pole lies on the path")
    clamped_tag = (
        endpoint_singularity[0] if t_raw <= 0.0
        else endpoint_singularity[1] if t_raw >= 1.0
        else "none"
    )
    if dist >= 0.05 * L or clamped_tag != "none":
        # near a singular-tagged endpoint phi(p) is unusable; plain adaptive
        # refinement resolves the pole at its offset scale instead
        path = ComplexPath.segment(a, b, *endpoint_singularity)
        return quad_path(lambda z: phi(z) / (z - k), path, tol=tol)
    phi_p = complex(np.asarray(phi(np.array([p])))[0])
    # the angle a straight segment sweeps at an off-segment point lies in
    # (-pi, pi), so the principal log of the ratio is the continuous value
    log_term = phi_p * np.log((b - k) / (a - k))
    path = ComplexPath.segment(a, b, *endpoint_singularity)
    rest = quad_path(lambda z: (phi(z) - phi_p) / (z - k), path, tol=tol)
    return rest + log_term


def bracket_root(g, lo, hi, tol=1e-12):
    """Root of a real scalar function on a sign-changing bracket.

    Uses Brent's bisection / inverse-quadratic hybrid, then verifies the
    residual |g(root)| against ``tol`` relative to the bracket values.  Brent
    returns a point it has evaluated, so g is called once per point.
    """
    seen = {}

    def memo(x):
        if x not in seen:
            seen[x] = g(x)
        return seen[x]

    glo = memo(lo)
    ghi = memo(hi)
    if glo == 0.0:
        return float(lo)
    if ghi == 0.0:
        return float(hi)
    if glo * ghi > 0.0:
        raise ValueError(f"no sign change on bracket [{lo:g}, {hi:g}]")
    try:
        root = brentq(memo, lo, hi, xtol=1e-15 * max(1.0, abs(lo), abs(hi)),
                      rtol=4 * np.finfo(float).eps, maxiter=200)
    except RuntimeError as exc:
        raise RootFindError(str(exc)) from exc
    scale = max(1.0, abs(glo), abs(ghi))
    residual = abs(memo(root))
    if residual > tol * scale:
        raise RootFindError(
            f"residual {residual:.2e} exceeds {tol:.1e} * {scale:.2e}"
        )
    return float(root)


def json_value(x):
    """A number for the JSON reports: a complex as {"re": ..., "im": ...},
    anything else as a float."""
    if isinstance(x, complex):
        return {"re": float(x.real), "im": float(x.imag)}
    return float(x)


def continuous_log(values):
    """Logs of an ordered sample sequence with continuous imaginary part.

    The first sample uses the principal branch; subsequent phases accumulate
    the principal phase increments of consecutive ratios.  Raises on zero
    samples and on raw phase gaps that cannot be resolved (>= pi).
    """
    v = np.asarray(values, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-d sample sequence")
    if np.any(v == 0.0):
        raise ValueError("zero sample: log undefined")
    dphi = np.angle(v[1:] / v[:-1])
    if dphi.size and np.max(np.abs(dphi)) >= np.pi - 1e-9:
        raise PhaseUnwrapError("adjacent phase gap >= pi; refine the sampling")
    phases = np.angle(v[0]) + np.concatenate(([0.0], np.cumsum(dphi)))
    return np.log(np.abs(v)) + 1j * phases
