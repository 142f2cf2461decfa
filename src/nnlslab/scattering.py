"""Direct scattering at t = 0.

Jost solutions are obtained by integrating the rotated Lax ODE

    Psi_x = -i*k*sigma3*Psi + U(x)*Psi + i*f(k)*Psi*sigma3

from the edge of the perturbation support (where the exact initial value is
the background diagonalizer E(k)) to x = 0, with a batched adaptive embedded
Runge-Kutta 5(4) scheme.  The columns of Psi solve independent ODEs (the
right factor sigma3 is a sign per column), so any subset of them can be
integrated on its own.  The spectral functions a1, a2, b1, b2 are 2x2
determinants of Jost columns.  Off the real axis the columns of a1 stay
bounded only in the upper half plane and those of a2 only in the lower, while
the other two columns grow like exp(2*|Im f(k)|*L); ``scattering_data(...,
only="a1")`` integrates just the two columns its determinant needs, so the
step size is not set by columns nobody reads.  The two standing assumptions
(no zeros of a1/a2, bounded winding of arg(1 + r1*r2)) have dedicated
validators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .background import _CUT_OFFSET, E_matrix, Ray, RayRegion, f_branch
from .numerics import PhaseUnwrapError, continuous_log

__all__ = [
    "InitialProfile",
    "SpectralTable",
    "AssumptionReport",
    "jost_at_origin",
    "scattering_data",
    "reflection",
    "validate_assumptions",
    "winding_k_stop",
]


@dataclass
class InitialProfile:
    """Background amplitude A plus a compactly supported complex perturbation,
    sampled on a uniform grid over [-L, L]."""

    A: float
    support_L: float
    samples: np.ndarray
    interpolation_order: int = 3

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if not self.support_L > 0:
            raise ValueError("support_L must be positive")
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise ValueError("samples must be a 1-d array with >= 2 entries")
        for edge in (self.samples[0], self.samples[-1]):
            if abs(edge - self.A) > 1e-12:
                raise ValueError(
                    "profile must match the background at +-L within 1e-12"
                )
        if self.interpolation_order not in (1, 3):
            raise ValueError("interpolation order must be 1 or 3")
        self._x = np.linspace(-self.support_L, self.support_L, self.samples.size)
        if self.interpolation_order == 3 and self.samples.size >= 4:
            self._spline = CubicSpline(self._x, self.samples)
        else:
            self._spline = None

    @property
    def dx(self):
        return 2.0 * self.support_L / (self.samples.size - 1)

    def q0(self, x):
        """Initial field q0(x); equals A outside the sampled support."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.full(x.shape, complex(self.A))
        inside = np.abs(x) <= self.support_L
        if np.any(inside):
            if self._spline is not None:
                out[inside] = self._spline(x[inside])
            else:
                xi = x[inside]
                out[inside] = np.interp(xi, self._x, self.samples.real) + 1j * np.interp(
                    xi, self._x, self.samples.imag
                )
        return out[0] if scalar else out

    # -- constructors ------------------------------------------------------

    @classmethod
    def pure_background(cls, A, L=1.0, n=17):
        return cls(A, L, np.full(n, complex(A)))

    @classmethod
    def gaussian_bump(cls, A, amplitude, width, chirp=0.0, center=0.0, L=None,
                      dx=None):
        """q0 = A + amplitude * exp(-(x-c)^2/(2 w^2) + i*chirp*(x-c)^2),
        truncated where the bump falls below 1e-13 so the compact-support
        invariant holds.

        An even profile makes the nonlocal coupling coincide with the local
        one, which collapses the argument of 1 + r1*r2 to zero; a nonzero
        ``center`` keeps the nonlocal character visible.
        """
        amplitude = complex(amplitude)
        if amplitude.imag == 0.0:
            amplitude = amplitude.real
        if L is None:
            L = abs(center) + width * np.sqrt(
                2.0 * np.log(max(abs(amplitude), 1e-3) / 1e-13)
            )
        if dx is None:
            dx = width / 100.0
        n = int(np.ceil(2 * L / dx)) + 1
        x = np.linspace(-L, L, n)
        u = x - center
        bump = amplitude * np.exp(-(u**2) / (2.0 * width**2) + 1j * chirp * u**2)
        bump[np.abs(bump) < 1e-13] = 0.0
        return cls(A, L, A + bump)

    @classmethod
    def box(cls, A, amplitude, width, dx=None):
        if dx is None:
            dx = width / 200.0
        L = width / 2.0 + 4.0 * dx
        n = int(np.ceil(2 * L / dx)) + 1
        x = np.linspace(-L, L, n)
        samples = np.where(np.abs(x) < width / 2.0, A + amplitude, complex(A))
        return cls(A, L, samples, interpolation_order=1)

    @classmethod
    def from_json(cls, obj):
        """Build from the profile JSON schema: either raw samples
        {"A", "L", "dx", "samples": [[re, im], ...]} or a named preset."""
        if isinstance(obj, (str, bytes)):
            obj = json.loads(obj)
        if "preset" in obj:
            preset = obj["preset"]
            A = float(obj["A"])
            if preset == "gaussian_bump":
                amp = obj["amplitude"]
                if isinstance(amp, (list, tuple)):
                    amp = complex(amp[0], amp[1])
                return cls.gaussian_bump(
                    A,
                    amp,
                    float(obj["width"]),
                    chirp=float(obj.get("chirp", 0.0)),
                    center=float(obj.get("center", 0.0)),
                    L=obj.get("L"),
                    dx=obj.get("dx"),
                )
            if preset == "box":
                return cls.box(A, float(obj["amplitude"]), float(obj["width"]),
                               dx=obj.get("dx"))
            raise ValueError(f"unknown profile preset {preset!r}")
        samples = np.array([complex(re, im) for re, im in obj["samples"]])
        L = float(obj["L"])
        dx = float(obj["dx"])
        n_expected = int(round(2 * L / dx)) + 1
        if samples.size != n_expected:
            raise ValueError(
                f"sample count {samples.size} inconsistent with L, dx "
                f"(expected {n_expected})"
            )
        return cls(float(obj["A"]), L, samples)


# -- batched Dormand-Prince 5(4) for the Jost ODE ---------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _jost_rhs(profile, ks, fs, cols=(0, 1)):
    kcol = ks[:, None]
    # Psi*sigma3 multiplies column 0 by +1 and column 1 by -1
    ifs = 1j * fs[:, None, None] * np.array([1.0, -1.0])[list(cols)]

    def rhs(x, Y):
        q, q_mirror = profile.q0(np.array([x, -x]))
        cq = np.conj(q_mirror)
        out = np.empty_like(Y)
        out[:, 0, :] = -1j * kcol * Y[:, 0, :] + q * Y[:, 1, :]
        out[:, 1, :] = 1j * kcol * Y[:, 1, :] - cq * Y[:, 0, :]
        out += ifs * Y
        return out

    return rhs


def _integrate_batch(rhs, Y0, x0, x1, atol=1e-12, rtol=1e-11):
    """Advance the batch of 2x2 systems from x0 to x1 with adaptive DP5(4)."""
    y = Y0.astype(complex)
    x = x0
    span = x1 - x0
    if span == 0.0:
        return y
    h = span / 64.0
    stages = [None] * 7
    min_h = abs(span) * 1e-13
    while (span > 0 and x < x1) or (span < 0 and x > x1):
        if (span > 0 and x + h > x1) or (span < 0 and x + h < x1):
            h = x1 - x
        stages[0] = rhs(x, y)
        for i in range(1, 7):
            acc = sum(c * stages[j] for j, c in enumerate(_DP_A[i]))
            stages[i] = rhs(x + _DP_C[i] * h, y + h * acc)
        y5 = y + h * sum(b * s for b, s in zip(_DP_B5, stages) if b != 0.0)
        y4 = y + h * sum(b * s for b, s in zip(_DP_B4, stages) if b != 0.0)
        scale = atol + rtol * np.abs(y5)
        err = float(np.max(np.abs(y5 - y4) / scale))
        if err <= 1.0:
            x += h
            y = y5
        if err == 0.0:
            fac = 5.0
        else:
            fac = min(5.0, max(0.2, 0.9 * err ** -0.2))
        h *= fac
        if abs(h) < min_h:
            raise RuntimeError("step-size underflow in Jost integration (stiff k?)")
    return y


def _jost_batch(profile, ks, side, cut_side="off", atol=1e-12, rtol=1e-11,
                cols=(0, 1)):
    """Columns ``cols`` of Psi_side(0, 0, k) for an array of spectral points;
    shape (m, 2, len(cols))."""
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    if cut_side == "minus":
        eps = _CUT_OFFSET * profile.A
        v1 = _jost_batch(profile, ks + eps, side, "off", atol, rtol, cols)
        v2 = _jost_batch(profile, ks + 0.5 * eps, side, "off", atol, rtol, cols)
        return 2.0 * v2 - v1
    fs = np.atleast_1d(f_branch(ks, profile.A))
    Y0 = E_matrix(ks, profile.A)[:, :, list(cols)]
    x0 = -profile.support_L if side == 1 else profile.support_L
    rhs = _jost_rhs(profile, ks, fs, cols)
    return _integrate_batch(rhs, Y0, x0, 0.0, atol=atol, rtol=rtol)


def jost_at_origin(profile, k, side, cut_side="off", atol=1e-12, rtol=1e-11):
    """Jost matrix Psi_j(0, 0, k) for j = side in {1 (from -L), 2 (from +L)}."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    out = _jost_batch(profile, k, side, cut_side, atol, rtol)
    return out[0] if np.ndim(k) == 0 else out


#: each spectral function as det[Psi_i column c | Psi_j column d],
#: written ((i, c), (j, d))
_DETERMINANTS = {
    "a1": ((1, 0), (2, 1)),
    "a2": ((2, 0), (1, 1)),
    "b1": ((2, 0), (1, 0)),
    "b2": ((2, 1), (1, 1)),
}


def scattering_data(profile, k, cut_side="off", atol=1e-12, rtol=1e-11,
                    only=None):
    """Spectral functions (a1, a2, b1, b2) at k via Jost column determinants.

    a1 is meaningful on the closed upper half plane minus (0, iA], a2 on the
    lower counterpart; b1, b2 on the real line and on the cut side.  With
    ``only`` set to one of the four names, just that function is returned,
    and only the two Jost columns of its determinant are integrated.
    """
    if only is not None and only not in _DETERMINANTS:
        raise ValueError(f"unknown spectral function {only!r}")
    scalar = np.ndim(k) == 0
    names = list(_DETERMINANTS) if only is None else [only]
    columns = {}
    for side in (1, 2):
        cols = sorted({c for name in names
                       for s, c in _DETERMINANTS[name] if s == side})
        psi = _jost_batch(profile, k, side, cut_side, atol, rtol, cols)
        for j, c in enumerate(cols):
            columns[side, c] = psi[:, :, j]
    # off the real axis only some column pairs are numerically meaningful
    # (matching the analyticity domains), so ignore overflow in the others
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for name in names:
            u, v = (columns[col] for col in _DETERMINANTS[name])
            out.append(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    if scalar:
        out = [complex(d[0]) for d in out]
    return tuple(out) if only is None else out[0]


def reflection(profile, k, cut_side="off", atol=1e-12, rtol=1e-11):
    """Reflection coefficients (r1, r2) = (b1/a1, b2/a2)."""
    a1, a2, b1, b2 = scattering_data(profile, k, cut_side, atol, rtol)
    if np.any(np.abs(np.atleast_1d(a1)) < 1e-12) or np.any(
        np.abs(np.atleast_1d(a2)) < 1e-12
    ):
        raise ValueError("a_j vanished: zero-freeness assumption violated")
    return b1 / a1, b2 / a2


class SpectralTable:
    """Cached evaluator for the spectral functions of one profile.

    Provides point evaluation anywhere in the domain of definition, a spline
    table of the unwrapped log of (1 + r1*r2) on the negative real axis
    (anchored at the principal branch in the far tail where r1*r2 is
    negligible), and cut-side samples on B.
    """

    def __init__(self, profile, *, line_points=2400, tail_target=1e-12):
        self.profile = profile
        self.A = profile.A
        self.tail_target = tail_target
        self._line_points = line_points
        self._line = None
        self._b_cache = {}

    # -- point evaluation --------------------------------------------------

    def at(self, k, cut_side="off"):
        return scattering_data(self.profile, k, cut_side)

    def reflection_at(self, k, cut_side="off"):
        return reflection(self.profile, k, cut_side)

    def rr(self, k, cut_side="off"):
        """1 + r1(k)*r2(k)."""
        r1, r2 = self.reflection_at(k, cut_side)
        return 1.0 + r1 * r2

    # -- negative-axis table -----------------------------------------------

    def _find_tail(self):
        """Smallest |k| beyond which |r1*r2| stays below the tail target."""
        k = -max(4.0, 6.0 * self.A)
        for _ in range(24):
            r1, r2 = self.reflection_at(np.array([k]))
            if abs(r1[0] * r2[0]) < self.tail_target:
                return -k
            k *= 1.5
        return -k

    def _build_line(self):
        k_tail = self._find_tail()
        k_hi = -1e-4 * self.A
        k_mid = -min(max(10.0 * self.A, 10.0), 0.8 * k_tail)
        dense = np.linspace(k_mid, k_hi, self._line_points)
        n_geo = max(8, int(24 * np.log2(k_tail / -k_mid)))
        geo = -np.geomspace(k_tail, -k_mid, n_geo, endpoint=False)
        grid = np.concatenate([geo, dense])
        vals = self.rr(grid)
        logs = continuous_log(vals)
        # the anchor sits where |r1 r2| < tail_target, so its principal
        # argument is already the continuous-from -infinity value
        self._line = {
            "k_tail": k_tail,
            "grid": grid,
            "rr": vals,
            "log": logs,
            "spline": CubicSpline(grid, logs),
        }

    @property
    def k_tail(self):
        if self._line is None:
            self._build_line()
        return self._line["k_tail"]

    def log_rr(self, k):
        """Unwrapped log(1 + r1*r2) on the negative real axis (spline table).

        Points left of the table are in the |r1*r2| < tail_target region and
        evaluate to 0, consistent with the tail truncation of the integrals.
        """
        if self._line is None:
            self._build_line()
        k = np.asarray(k, dtype=float)
        lo, hi = self._line["grid"][0], self._line["grid"][-1]
        if np.any(k > hi + 1e-12):
            raise ValueError(f"log_rr table covers k <= {hi:g}")
        out = np.where(k < lo, 0.0, self._line["spline"](np.clip(k, lo, hi)))
        return out if out.ndim else complex(out)

    def max_abs_winding(self, k_stop):
        """Running sup of |arg-accumulation of 1 + r1*r2| up to k_stop."""
        if self._line is None:
            self._build_line()
        grid = self._line["grid"]
        mask = grid <= k_stop + 1e-15
        if not np.any(mask):
            return 0.0
        return float(np.max(np.abs(self._line["log"].imag[mask])))

    # -- cut-side samples ----------------------------------------------------

    def on_B(self, y):
        """Minus-side (a1, a2, b1, b2, r1, r2) at k = i*y, y in (-A, A)."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        a1, a2, b1, b2 = self.at(1j * y, cut_side="minus")
        return a1, a2, b1, b2, b1 / a1, b2 / a2

    def B_chebyshev(self, n=96, margin=1e-6):
        """Chebyshev-node samples of r1, r2 on B (cached per node count)."""
        if n not in self._b_cache:
            j = np.arange(n)
            y = self.A * (1.0 - margin) * np.cos(np.pi * (2 * j + 1) / (2 * n))
            a1, a2, b1, b2, r1, r2 = self.on_B(y)
            self._b_cache[n] = (y, r1, r2)
        return self._b_cache[n]


@dataclass(frozen=True)
class AssumptionReport:
    zero_count_upper: int
    zero_count_lower: int
    winding_ok: bool
    max_abs_winding: float
    region_checked: Ray

    def __post_init__(self):
        if self.winding_ok != (self.max_abs_winding < np.pi):
            raise ValueError("winding_ok must mirror max_abs_winding < pi")


def _winding_on_polyline(eval_fn, verts, n_init=48, max_rounds=14):
    """Winding number of eval_fn along a closed polyline via adaptive
    refinement of the sampled phase until all gaps are < pi/2."""
    ts = []
    pts = []
    for a, b in zip(verts[:-1], verts[1:]):
        seg_t = np.linspace(0.0, 1.0, n_init, endpoint=False)
        pts.append(a + seg_t * (b - a))
    pts = np.concatenate(pts + [[verts[-1]]])
    vals = eval_fn(pts)
    for _ in range(max_rounds):
        if np.any(np.abs(vals) < 1e-9):
            raise RuntimeError(
                "contour passes near a zero; refine or move the contour"
            )
        gaps = np.abs(np.angle(vals[1:] / vals[:-1]))
        bad = np.where(gaps >= np.pi / 2)[0]
        if bad.size == 0:
            break
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        mvals = eval_fn(mids)
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, mvals)
    else:
        raise PhaseUnwrapError("winding sampling did not stabilize")
    total = float(np.sum(np.angle(vals[1:] / vals[:-1])))
    n = total / (2.0 * np.pi)
    if abs(n - round(n)) > 0.05:
        raise RuntimeError(
            f"non-integer winding {n:.3f}; contour may pass near a zero"
        )
    return int(round(n))


def winding_k_stop(ray, A):
    """Right end of the stretch of the negative axis over which a ray's
    asymptotics read the argument of 1 + r1*r2: up to the stationary point
    k1 < -A/sqrt(2) in the plane-wave region, up to the cut otherwise."""
    return -A / np.sqrt(2.0) if ray.region is RayRegion.PLANE_WAVE else -1e-4 * A


def validate_assumptions(spectral, ray, *, K=None, eps=1e-3, sleeve=1e-3,
                         boundary_threshold=1e-6, ode_tol=1e-9):
    """Check the two standing assumptions for one ray.

    Zero counts come from argument-principle winding of a1 (upper half plane,
    sleeve cut out around (0, iA]) and a2 (mirrored); the winding bound uses
    the unwrapped argument table of 1 + r1*r2 up to ``winding_k_stop``.
    Each contour integrates only the two Jost columns of its own
    determinant, the ones that stay bounded in its half plane.  Winding only
    needs phases to a fraction of pi, hence the looser ODE tolerance default.
    """
    if isinstance(spectral, InitialProfile):
        spectral = SpectralTable(spectral)
    profile = spectral.profile
    A = profile.A
    if K is None:
        K = 10.0 * max(A, abs(ray.xi), 1.0)
    s = sleeve

    def a1_fn(pts):
        return scattering_data(profile, pts, atol=ode_tol, rtol=ode_tol,
                               only="a1")

    def a2_fn(pts):
        return scattering_data(profile, pts, atol=ode_tol, rtol=ode_tol,
                               only="a2")

    upper = [
        -K + 1j * eps, -s + 1j * eps, -s + 1j * (A + s), s + 1j * (A + s),
        s + 1j * eps, K + 1j * eps, K + 1j * K, -K + 1j * K, -K + 1j * eps,
    ]
    lower = [np.conj(v) for v in upper][::-1]
    n_up = _winding_on_polyline(a1_fn, upper)
    n_dn = _winding_on_polyline(a2_fn, lower)

    # boundary guard: spectral singularities on R or the cut sides
    kr = np.linspace(-K, K, 201)
    kr = kr[np.abs(kr) > 2 * s]
    ycut = np.linspace(-A * (1 - 1e-3), A * (1 - 1e-3), 51)
    probes_a1 = np.concatenate([kr, 1j * ycut[ycut > 0] + s, 1j * ycut[ycut > 0] - s])
    probes_a2 = np.concatenate([kr, 1j * ycut[ycut < 0] + s, 1j * ycut[ycut < 0] - s])
    min_a1 = float(np.min(np.abs(a1_fn(probes_a1))))
    min_a2 = float(np.min(np.abs(a2_fn(probes_a2))))
    if min(min_a1, min_a2) < boundary_threshold:
        raise RuntimeError(
            "spectral function nearly vanishes on the boundary "
            f"(min |a| = {min(min_a1, min_a2):.2e}); spectral singularity"
        )

    max_wind = spectral.max_abs_winding(winding_k_stop(ray, A))
    return AssumptionReport(
        zero_count_upper=n_up,
        zero_count_lower=n_dn,
        winding_ok=bool(max_wind < np.pi),
        max_abs_winding=max_wind,
        region_checked=ray,
    )
