"""Direct scattering at t = 0.

Jost solutions are obtained by integrating the rotated Lax ODE

    Psi_x = -i*k*sigma3*Psi + U(x)*Psi + i*f(k)*Psi*sigma3

from the edge of the perturbation support (where the exact initial value is
the background diagonalizer E(k)) to x = 0 with a sixth-order Magnus
integrator that steps exactly over the profile's sample cells, on which the
interpolant is one polynomial (the last cell is partial when 0 is not a
node).  Each entry of a cell's Magnus exponent is a cubic in k (read off
four samples by a DFT), and the 2x2 exponential has closed form, so every
batch of k is advanced cell by cell in one vectorized loop: the pure
background is exact, large |k| sets no step size (cells are only cut where
(|k| + max|q|)*dx > 1/2), and fixed blocks of cells make a point's values
independent of the other points of its batch.  Cut-side values come from one
solve started at the minus-side E(k) with the minus-side f(k).  The columns of
Psi solve independent ODEs (the right factor sigma3 is a sign per column),
so any subset of them can be integrated on its own.  The spectral functions
a1, a2, b1, b2 are 2x2 determinants of Jost columns.  Off the real axis the
columns of a1 stay bounded only in the upper half plane and those of a2
only in the lower, while the other two columns grow like
exp(2*|Im f(k)|*L); ``scattering_data(..., only="a1")`` integrates just the
two columns its determinant needs.  The two standing assumptions (no zeros
of a1/a2, bounded winding of arg(1 + r1*r2)) have dedicated validators.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Chebyshev
from scipy.interpolate import CubicSpline

from .background import E_matrix, Ray, RayRegion, f_branch
from .numerics import PhaseUnwrapError, continuous_log

__all__ = [
    "InitialProfile",
    "SpectralTable",
    "AssumptionReport",
    "jost_at_origin",
    "line_series",
    "scattering_data",
    "validate_assumptions",
    "winding_k_stop",
]


def _check_sizes(**sizes):
    """Raise ValueError unless every given size is finite and > 0."""
    for name, v in sizes.items():
        if not 0 < v < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {v}")


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
        _check_sizes(A=self.A, support_L=self.support_L)
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
    def pure_background(cls, A, L):
        return cls(A, L, np.full(17, complex(A)))

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
        _check_sizes(width=width, L=L, dx=dx)
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
        _check_sizes(width=width, dx=dx)
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
        _check_sizes(L=L, dx=dx)
        n_expected = int(round(2 * L / dx)) + 1
        if samples.size != n_expected:
            raise ValueError(
                f"sample count {samples.size} inconsistent with L, dx "
                f"(expected {n_expected})"
            )
        return cls(float(obj["A"]), L, samples)


# -- sixth-order Magnus on the profile's sample cells ------------------------
#
# Psi_x = M(x) Psi + i f Psi sigma3 with M = -i k sigma3 + [[0, q], [-cq, 0]],
# cq(x) = conj(q(-x)).  The scalar term i f s_c (s_c = +-1 per column)
# commutes with M, so each cell step is exp(i f s_c h) exp(Omega) with Omega
# the 3-node Gauss-Legendre Magnus exponent of order 6 for M alone (Blanes,
# Casas & Ros, BIT 40, 2000).  The k-dependence of M is -z sigma3, z = i k, so
# every entry of the traceless Omega = [[a, b], [c, -a]] is a cubic in z whose
# coefficients depend only on the cell.

_GAUSS3 = 0.5 + np.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
#: largest (|k| + max|q|)*h per cell: where (|k| + max|samples|)*dx exceeds
#: it, the sample cells are cut into a power of two of equal parts (Jost
#: columns within 3e-11 of a DOP853 oracle at k = 200 on dx = 0.01)
_MAX_KH = 0.5
#: cells per block: the cell exponentials of a block are multiplied together
#: in a fixed order, so a k-point's values do not depend on its batch (16:
#: few Python steps per few-point batch, small temporaries)
_BLOCK_CELLS = 16
#: cells whose exponent coefficients are held at once (a multiple of the block)
_SEGMENT_CELLS = 4096
#: k-points times cells evaluated at once (bounds the temporaries)
_CHUNK_ELEMENTS = 8192
#: Taylor coefficients in mu^2 of cosh(mu) and sinh(mu)/mu: a cell with
#: (|k| + |q|) h <= _MAX_KH has |mu^2| close to 1/4 at most, where 8 terms
#: truncate below 1e-18 (below 4e-18 up to |mu^2| = 0.3)
_COSH_TAYLOR = 1.0 / np.array([math.factorial(2 * n) for n in range(8)])
_SINHC_TAYLOR = 1.0 / np.array([math.factorial(2 * n + 1) for n in range(8)])


def _commutator(X, Y):
    """[X, Y] of traceless 2x2 matrices stored as (a, b, c) = [[a, b], [c, -a]]."""
    (a, b, c), (d, e, g) = X, Y
    return b * g - e * c, 2.0 * (a * e - d * b), 2.0 * (d * c - a * g)


def _magnus_exponents(profile, side, edges):
    """Cubic coefficients in z = i k of Omega = [[a, b], [c, -a]] on the cells
    between side-1 ``edges`` (run mirrored, from +L, for side 2): three
    (4, cells, 1) arrays, and the signed cell lengths.  Omega is sampled at
    z_j = i^j r, on a circle r = 1/max|h| around the |k| h <= _MAX_KH the
    cells are stepped at (so the transform is well conditioned), and
    c_n = DFT_n / (4 r^n) from one 4-point DFT."""
    h = np.diff(edges)
    x = edges[:-1, None] + _GAUSS3 * h[:, None]
    q, q_mirror = profile.q0(np.concatenate([x, -x])).reshape(2, *x.shape)
    cq = np.conj(q_mirror)
    if side == 2:
        q, cq, h = q_mirror, np.conj(q), -h
    r = 1.0 / np.abs(h).max()
    z = r * 1j ** np.arange(4)[:, None]
    s2, s3 = np.sqrt(15.0) / 3.0 * h, 10.0 / 3.0 * h
    alpha1 = (-h * z, h * q[:, 1], -h * cq[:, 1])
    alpha2 = (0.0, s2 * (q[:, 2] - q[:, 0]), -s2 * (cq[:, 2] - cq[:, 0]))
    alpha3 = (0.0, s3 * (q[:, 2] - 2.0 * q[:, 1] + q[:, 0]),
              -s3 * (cq[:, 2] - 2.0 * cq[:, 1] + cq[:, 0]))
    # Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240 with
    # C1 = [a1, a2], C2 = -[a1, 2 a3 + C1]/60: at most cubic in z, so four
    # samples determine it
    c1 = _commutator(alpha1, alpha2)
    c2 = _commutator(alpha1, [2.0 * u + v for u, v in zip(alpha3, c1)])
    tail = _commutator(
        [-20.0 * u - v + w for u, v, w in zip(alpha1, alpha3, c1)],
        [u - v / 60.0 for u, v in zip(alpha2, c2)])
    omega = np.array([u + v / 12.0 + w / 240.0
                      for u, v, w in zip(alpha1, alpha3, tail)])
    coef = np.fft.fft(omega, axis=1) / (4.0 * r ** np.arange(4))[:, None]
    return coef[..., None], h


def _cosh_sinhc(w):
    """cosh(mu) and sinh(mu)/mu for mu^2 = w, summed as Taylor series in w."""
    out = []
    for coef in (_COSH_TAYLOR, _SINHC_TAYLOR):
        acc = coef[-1] * w
        for cn in coef[-2:0:-1]:
            acc += cn
            acc *= w
        acc += coef[0]
        out.append(acc)
    return out


def _horner(coef, z):
    """Cubics with per-cell coefficients (4, cells, 1) at z (m,): (cells, m)."""
    out = coef[3] * z
    for j in (2, 1):
        out += coef[j]
        out *= z
    out += coef[0]
    return out


def _propagate(profile, side, split, ks, ifs, Y):
    """Advance the columns Y (m, 2, ncols) from the support edge to 0 over the
    sample cells, each cut into ``split`` parts: on every cell
    Y <- exp(i f s_c h) exp(Omega(k)) Y, exp(Omega) = cosh(mu) I +
    sinh(mu)/mu Omega with mu^2 = -det Omega."""
    m = ks.size
    y0, y1 = Y[:, 0, :], Y[:, 1, :]
    z = 1j * ks
    n = profile.samples.size
    knots = profile._x[: (n + 1) // 2]
    # 0 is the last node for an odd sample count, else a partial last cell
    knots = np.append(knots[:-1], 0.0) if n % 2 else np.append(knots, 0.0)
    per_segment = max(1, _SEGMENT_CELLS // split)
    parts = np.arange(split) / split
    chunk = max(1, _CHUNK_ELEMENTS // (_BLOCK_CELLS * m))
    for k0 in range(0, knots.size - 1, per_segment):
        seg = knots[k0: k0 + per_segment + 1]
        edges = np.append((seg[:-1, None] + parts * np.diff(seg)[:, None]).ravel(),
                          seg[-1])
        # pad to whole blocks with Omega = 0, h = 0 cells (identity steps)
        edges = np.append(edges, np.full(-(edges.size - 1) % _BLOCK_CELLS,
                                         seg[-1]))
        omega, h = _magnus_exponents(profile, side, edges)
        nblk = h.size // _BLOCK_CELLS
        for lo in range(0, nblk, chunk):
            hi = min(lo + chunk, nblk)
            cells = slice(lo * _BLOCK_CELLS, hi * _BLOCK_CELLS)
            a, b, c = (_horner(coef[:, cells], z) for coef in omega)
            cosh, sinhc = _cosh_sinhc(a * a + b * c)
            for u in (a, b, c):
                u *= sinhc
            g00 = cosh + a
            cosh -= a
            g = [u.reshape(hi - lo, _BLOCK_CELLS, m) for u in (g00, b, c, cosh)]
            # product of the block's cells, later cells on the left
            while g[0].shape[1] > 1:
                (p, q, r, s), (t, u, v, w) = ([x[:, 1::2] for x in g],
                                              [x[:, 0::2] for x in g])
                g = [p * t + q * v, p * u + q * w, r * t + s * v, r * u + s * w]
            g00, g01, g10, g11 = (x[:, 0, :, None] for x in g)
            phase = np.exp(h[cells].reshape(hi - lo, _BLOCK_CELLS).sum(axis=1)
                           [:, None, None] * ifs)
            for j in range(hi - lo):
                y0, y1 = ((g00[j] * y0 + g01[j] * y1) * phase[j],
                          (g10[j] * y0 + g11[j] * y1) * phase[j])
    return np.stack([y0, y1], axis=1)


def _jost_batch(profile, ks, side, cols=(0, 1)):
    """Columns ``cols`` of Psi_side(0, 0, k) for an array of spectral points;
    shape (m, 2, len(cols))."""
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    fs = np.atleast_1d(f_branch(ks, profile.A))
    out = E_matrix(ks, profile.A)[:, :, list(cols)]
    # Psi*sigma3 multiplies column 0 by +1 and column 1 by -1
    ifs = 1j * fs[:, None] * np.array([1.0, -1.0])[list(cols)]
    kh = (np.abs(ks) + np.abs(profile.samples).max()) * profile.dx / _MAX_KH
    split = 2 ** np.ceil(np.log2(np.maximum(kh, 1.0))).astype(int)
    for n in np.unique(split):
        sel = split == n
        out[sel] = _propagate(profile, side, int(n), ks[sel], ifs[sel], out[sel])
    return out


def jost_at_origin(profile, k, side):
    """Jost matrix Psi_j(0, 0, k) for j = side in {1 (from -L), 2 (from +L)}."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    out = _jost_batch(profile, k, side)
    return out[0] if np.ndim(k) == 0 else out


#: each spectral function as det[Psi_i column c | Psi_j column d],
#: written ((i, c), (j, d))
_DETERMINANTS = {
    "a1": ((1, 0), (2, 1)),
    "a2": ((2, 0), (1, 1)),
    "b1": ((2, 0), (1, 0)),
    "b2": ((2, 1), (1, 1)),
}


def scattering_data(profile, k, only=None):
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
        psi = _jost_batch(profile, k, side, cols)
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


#: the line table's tail starts where |r1*r2| falls below this
_TAIL_TARGET = 1e-12
#: right end of the line table and of elliptic winding checks, in units of A
_LINE_END = -1e-4
#: first-kind Chebyshev nodes each piece of the line table is sampled at
_LINE_NODES = 128
#: most a resolved piece's last quarter of coefficients may sum to
_LINE_TOL = 1e-13
#: most pieces of one line table, which samples (2 pieces - 1) _LINE_NODES k
_LINE_MAX_PIECES = 10


def line_series(fn, k_lo, k_hi):
    """(pieces, resolution): Chebyshev series on [k_lo, k_hi] of the logs
    ``fn`` unwraps along ascending k.  A piece is sampled once, at
    _LINE_NODES first-kind nodes; its tail sums its last quarter of
    coefficients, where it is chopped if resolved (Trefethen, ATAP, SIAM
    2013).  The piece with the largest tail is bisected while that exceeds
    _LINE_TOL, up to _LINE_MAX_PIECES.  Pieces are moved by multiples of
    2 pi i onto their left neighbour's branch; the resolution is the
    largest tail."""
    def piece(a, b):
        p = Chebyshev.interpolate(fn, _LINE_NODES - 1, domain=[a, b])
        quarter = np.abs(p.coef[-(_LINE_NODES // 4):])
        tail = float(quarter.sum())
        return tail, a, b, p.trim(quarter.max()) if tail <= _LINE_TOL else p

    pieces = [piece(k_lo, k_hi)]
    while len(pieces) < _LINE_MAX_PIECES and max(pieces)[0] > _LINE_TOL:
        i = pieces.index(max(pieces))
        _, a, b, _ = pieces.pop(i)
        pieces[i:i] = [piece(a, 0.5 * (a + b)), piece(0.5 * (a + b), b)]
    series = [pieces[0][3]]
    for _, a, _, p in pieces[1:]:
        turns = np.round((series[-1](a) - p(a)).imag / (2.0 * np.pi))
        series.append(p + 2j * np.pi * turns)
    return series, max(entry[0] for entry in pieces)


class SpectralTable:
    """Cached evaluator for the spectral functions of one profile.

    Provides point evaluation anywhere in the domain of definition, a
    Chebyshev table of the unwrapped log of (1 + r1*r2) on the negative real
    axis (anchored at the principal branch in the far tail where r1*r2 is
    negligible), and cut-side samples on B.
    """

    def __init__(self, profile):
        self.profile = profile
        self.A = profile.A
        self._b_samples = None

    # -- point evaluation --------------------------------------------------

    def at(self, k):
        return scattering_data(self.profile, k)

    def reflection_at(self, k):
        """Reflection coefficients (r1, r2) = (b1/a1, b2/a2)."""
        a1, a2, b1, b2 = self.at(k)
        if np.any(np.abs([a1, a2]) < 1e-12):
            raise ValueError("a_j vanished: zero-freeness assumption violated")
        return b1 / a1, b2 / a2

    def rr(self, k):
        """1 + r1(k)*r2(k)."""
        r1, r2 = self.reflection_at(k)
        return 1.0 + r1 * r2

    # -- negative-axis table -----------------------------------------------

    def _build_line(self):
        """(k_tail, pieces, resolution): the first |k| = 1.5^j max(4, 6A) with
        |r1*r2| < _TAIL_TARGET at 8 points of [k - pi/(2L), k], one period
        of exp(4ikL), the fastest oscillation of r1*r2 for a profile on
        [-L, L]; there the principal argument is already the continuous-from
        -infinity one.  Then the line_series of log(1 + r1*r2)."""
        k = -max(4.0, 6.0 * self.A)
        period = np.linspace(-np.pi / (2.0 * self.profile.support_L), 0.0, 8)
        for _ in range(24):
            r1, r2 = self.reflection_at(k + period)
            if np.abs(r1 * r2).max() < _TAIL_TARGET:
                break
            k *= 1.5
        return (-k, *line_series(lambda k: continuous_log(self.rr(k)), k,
                                 _LINE_END * self.A))

    @functools.cached_property
    def _line(self):
        return self._build_line()

    #: k_tail, the line pieces behind log_rr and their resolution (line_series)
    k_tail = property(lambda self: self._line[0])
    line = property(lambda self: self._line[1])
    line_resolution = property(lambda self: self._line[2])

    def log_rr(self, k, deriv=0):
        """Unwrapped log(1 + r1*r2) on the negative real axis from the line
        pieces, or its derivative of order ``deriv``.

        Points left of the table are in the |r1*r2| < _TAIL_TARGET region and
        evaluate to 0, consistent with the tail truncation of the integrals.
        """
        k = np.asarray(k, dtype=float)
        hi = self.line[-1].domain[1]
        if np.any(k > hi + 1e-12):
            raise ValueError(f"log_rr table covers k <= {hi:g}")
        which = np.searchsorted([p.domain[0] for p in self.line], k, "right")
        out = np.zeros(k.shape, dtype=complex)
        for j, p in enumerate(self.line, start=1):
            out[which == j] = p.deriv(deriv)(k[which == j])
        return out if out.ndim else complex(out)

    @functools.cached_property
    def _arg_extrema(self):
        """Ends of the line pieces and critical points of Im log_rr on them."""
        return np.concatenate([np.append(np.clip(Chebyshev(
            p.coef.imag, domain=p.domain).deriv().roots().real, *p.domain),
            p.domain) for p in self.line])

    def max_abs_winding(self, k_stop):
        """Sup of |arg-accumulation of 1 + r1*r2| up to k_stop: the largest
        |Im log_rr| at k_stop and at the extrema left of it (no Jost call)."""
        k_stop = min(k_stop, self.line[-1].domain[1])
        ks = np.append(self._arg_extrema[self._arg_extrema <= k_stop], k_stop)
        return float(np.abs(self.log_rr(ks).imag).max())

    # -- cut-side samples ----------------------------------------------------

    def B_chebyshev(self):
        """(y, r1, r2): minus-side reflection coefficients at k = i*y on 96
        Chebyshev nodes y of B shrunk by 1e-6, computed once."""
        if self._b_samples is None:
            j = np.arange(96)
            y = self.A * (1.0 - 1e-6) * np.cos(np.pi * (2 * j + 1) / (2 * 96))
            self._b_samples = (y, *self.reflection_at(1j * y))
        return self._b_samples


@dataclass(frozen=True)
class AssumptionReport:
    zero_count_upper: int
    zero_count_lower: int
    max_abs_winding: float
    region_checked: Ray

    @property
    def winding_ok(self):
        return bool(self.max_abs_winding < np.pi)

    def to_dict(self):
        """The zero counts and the winding bound as a report carries them."""
        return {"zero_count_upper": self.zero_count_upper,
                "zero_count_lower": self.zero_count_lower,
                "winding_ok": self.winding_ok,
                "max_abs_winding": self.max_abs_winding}


def _winding_on_polyline(eval_fn, verts):
    """Winding number of eval_fn along a closed polyline from 48 samples per
    edge, refined at the midpoints of every gap >= pi/2 in the sampled phase
    for at most 14 rounds."""
    pts = []
    for a, b in zip(verts[:-1], verts[1:]):
        seg_t = np.linspace(0.0, 1.0, 48, endpoint=False)
        pts.append(a + seg_t * (b - a))
    pts = np.concatenate(pts + [[verts[-1]]])
    vals = eval_fn(pts)
    for _ in range(14):
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
    """Right end of the stretch of the negative axis on which a ray's
    winding of 1 + r1*r2 is checked.  A plane-wave ray's asymptotics read
    the argument up to its stationary point k1 < -A/sqrt(2); the check runs
    to -A/sqrt(2), the upper end of k1 over all plane-wave rays, so this end
    is the same for every such ray and conservative for each.  Other rays
    read it up to the cut, _LINE_END * A."""
    return -A / np.sqrt(2.0) if ray.region is RayRegion.PLANE_WAVE else _LINE_END * A


def validate_assumptions(spectral, rays):
    """Check the two standing assumptions for a list of rays; one report each.

    Zero counts come from argument-principle winding of a1 (upper half plane,
    sleeve cut out around (0, iA]) and a2 (mirrored), counted once on a
    contour sized by the widest ray; the winding bound of each ray uses the
    unwrapped argument table of 1 + r1*r2 up to its ``winding_k_stop``.
    Each contour integrates only the two Jost columns of its own
    determinant, the ones that stay bounded in its half plane.
    """
    profile = spectral.profile
    A = profile.A
    K = 10.0 * max(A, 1.0, *(abs(ray.xi) for ray in rays))
    # the contours run eps off the real axis and a sleeve s around the cut
    eps = s = 1e-3

    upper = [
        -K + 1j * eps, -s + 1j * eps, -s + 1j * (A + s), s + 1j * (A + s),
        s + 1j * eps, K + 1j * eps, K + 1j * K, -K + 1j * K, -K + 1j * eps,
    ]
    lower = [np.conj(v) for v in upper][::-1]
    # boundary guard probes: spectral singularities on R or the cut sides
    kr = np.linspace(-K, K, 201)
    kr = kr[np.abs(kr) > 2 * s]
    ycut = np.linspace(-A * (1 - 1e-3), A * (1 - 1e-3), 51)
    windings, min_abs = [], []
    for only, verts, ys in (("a1", upper, ycut[ycut > 0]),
                            ("a2", lower, ycut[ycut < 0])):
        a_fn = functools.partial(scattering_data, profile, only=only)
        windings.append(_winding_on_polyline(a_fn, verts))
        probes = np.concatenate([kr, 1j * ys + s, 1j * ys - s])
        min_abs.append(float(np.min(np.abs(a_fn(probes)))))
    if min(min_abs) < 1e-6:
        raise RuntimeError(
            "spectral function nearly vanishes on the boundary "
            f"(min |a| = {min(min_abs):.2e}); spectral singularity"
        )

    return [AssumptionReport(*windings,
                             spectral.max_abs_winding(winding_k_stop(ray, A)),
                             ray)
            for ray in rays]
