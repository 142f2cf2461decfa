"""Independent verification oracle: split-step integrator for the nonlocal
NLS equation with symmetric nonzero background.

Works in the gauge p(x, t) = q(x, t) exp(-2i A^2 t), which freezes the
background to the constant A.  One Strang step is a half linear substep
(exact in Fourier space), a full nonlinear substep (exact pointwise because
m(x) = p(x) * conj(p(-x)) is conserved by the nonlinear subflow), and
another half linear substep.  Inside a snapshot interval the closing
half-step of one Strang step and the opening half-step of the next fuse
into one full linear step, so an interval of nsub steps costs nsub + 1
FFT pairs.  The grid is symmetric about x = 0 so the mirror conj(p(-x)) is
an exact index reversal.

Round-off seeds grow at the linear modulation-instability rate exp(2 A^2 t);
runs are capped so the amplified noise floor stays below 1e-8.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft

__all__ = [
    "SimGrid",
    "FieldTrajectory",
    "BlowUpError",
    "simulate",
    "sample_ray",
    "nonlinear_substep",
    "reference_ifrk4",
    "mi_time_cap",
    "trajectory_to_csv",
    "write_snapshots",
    "read_snapshots",
]

#: amplified round-off must stay below this for a run to count as valid
_NOISE_BUDGET = 1e-8
#: a field is resolved if the top decile of wavenumbers holds less than
#: this share of the energy of its non-constant modes
_TAIL_BOUND = 1e-10
#: sample_ray transforms at most this many snapshots at once
_SAMPLE_BLOCK = 8
#: sample_ray splits a spectrum into rows of (at most) this many modes
_SAMPLE_COLS = 64


class BlowUpError(RuntimeError):
    """The field became non-finite or stopped being resolved by the grid
    (solutions can blow up in finite time)."""


def mi_time_cap(A):
    """Largest time with eps_machine * exp(2 A^2 t) below the noise budget."""
    return float(np.log(_NOISE_BUDGET / np.finfo(float).eps) / (2.0 * A * A))


@dataclass
class SimGrid:
    L_box: float
    N: int
    dt: float
    t_max: float

    def __post_init__(self):
        if self.N < 256 or self.N & (self.N - 1) != 0:
            raise ValueError("N must be a power of two >= 256")
        if not all(0 < v < np.inf for v in (self.L_box, self.dt, self.t_max)):
            raise ValueError("L_box, dt, t_max must be positive and finite")
        if self.dt * self.kmax * self.kmax > 4.0 * np.pi:
            raise ValueError(
                f"dt * kmax^2 = {self.dt * self.kmax**2:.2f} exceeds the 4*pi "
                "step-accuracy bound"
            )

    @property
    def dx(self):
        return 2.0 * self.L_box / self.N

    @property
    def x(self):
        return -self.L_box + self.dx * np.arange(self.N)

    @property
    def kmax(self):
        return np.pi * self.N / (2.0 * self.L_box)

    @property
    def kappa(self):
        """Angular wavenumbers in np.fft order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.dx)

    @classmethod
    def for_run(cls, profile, xi_max, t_max):
        """Box twice the ray span |x| <= 4*xi_max*t plus 8 for dispersive
        spreading (so waves wrapping round the periodic box stay off the
        rays), at least 12 points per unit of A*x (q scales as
        A q~(A x, A^2 t)), refined while q0 is unresolved (see _unresolved)
        and the grid is coarser than the profile's samples, and dt at the
        step-accuracy bound."""
        L_box = max(2.0 * (4.0 * abs(xi_max) * t_max + 8.0),
                    4.0 * profile.support_L)
        # the step is set once N is; a tiny one passes every bound till then
        grid = cls(L_box=L_box, N=256, dt=np.finfo(float).tiny, t_max=t_max)
        while grid.dx > 1.0 / (12.0 * profile.A) or (
                grid.dx > profile.dx
                and _unresolved(scipy.fft.fft(profile.q0(grid.x))) is not None):
            grid = replace(grid, N=2 * grid.N)
        return replace(grid, dt=min(1.9 * np.pi / grid.kmax**2, 0.01))


@dataclass
class FieldTrajectory:
    ts: np.ndarray
    fields: np.ndarray  # (nt, N) complex snapshots of q(x, t)
    x: np.ndarray
    A: float
    L_box: float
    noise_floor_estimate: float
    capped: bool = False

    def __post_init__(self):
        if len(self.ts) < 2 or np.any(np.diff(self.ts) <= 0):
            raise ValueError("need >= 2 snapshots at strictly increasing t")


def _mirror_index(N):
    return (-np.arange(N)) % N


def nonlinear_substep(p, dt, A, mirror=None):
    """Exact solution of the nonlinear subflow over dt.

    m(x) = p(x) * conj(p(-x)) is invariant, so the substep is the pointwise
    rotation p <- p * exp(2i dt (m - A^2)), computed in one buffer with the
    operands in this order (swapping them changes the rounding)."""
    if mirror is None:
        mirror = _mirror_index(p.size)
    w = p[mirror]
    np.conj(w, out=w)
    np.multiply(p, w, out=w)
    np.subtract(w, A * A, out=w)
    np.multiply(2j * dt, w, out=w)
    np.exp(w, out=w)
    return np.multiply(p, w, out=w)


def _tail_share(spectrum):
    """Share of the energy of the non-constant modes that lies in the top
    decile of |wavenumber| (np.fft order): 0 for a constant field, nan for
    a non-finite one.  Leaving out the background's mode 0 makes the share
    of a local feature independent of the box size."""
    N = spectrum.size
    tail = spectrum[N // 2 - N // 20: N // 2 + N // 20]
    rest = np.vdot(spectrum[1:], spectrum[1:]).real
    if not rest < np.inf:
        return np.nan
    return np.vdot(tail, tail).real / rest if rest > 0.0 else 0.0


def _unresolved(spectrum):
    """The _tail_share of a field the grid does not resolve (a share not
    below _TAIL_BOUND, nan included), else None."""
    share = _tail_share(spectrum)
    return None if share < _TAIL_BOUND else share


def simulate(profile, grid, times=None):
    """Strang-split evolution in steps of at most grid.dt, each interval
    between snapshots cut into equal steps; returns the q snapshots at 0 and
    at ``times`` (default: 400 evenly spaced, or one per grid.dt on a short
    run).  Times past the end min(grid.t_max, mi_time_cap(A)) give one
    snapshot at that end.  Raises ValueError if the grid does not resolve
    q0, and BlowUpError once the field is non-finite or unresolved: resolved
    means a _tail_share below _TAIL_BOUND, which the guard reads from the
    spectrum of every snapshot and at least every 1/400 of the run."""
    A = profile.A
    if grid.L_box < 2.0 * profile.support_L:
        raise ValueError("box must cover twice the profile support")
    t_end = min(grid.t_max, mi_time_cap(A))
    spacing = max(t_end / 400.0, grid.dt)
    if times is None:
        times = np.cumsum(np.full(int(round(t_end / spacing)), spacing))
    if not min(times) > 0:
        raise ValueError("times must be positive")
    ts = np.array([0.0, *np.unique(np.minimum(times, t_end))])
    nguard = max(1, int(spacing / grid.dt))

    x = grid.x
    mirror = _mirror_index(grid.N)
    kappa2 = grid.kappa ** 2
    # (half, full) linear steps by step length, reused across even intervals
    steps = {}
    q0 = profile.q0(x)
    # ph is the spectrum after the last linear step: each interval opens
    # with a half-step, fuses the steps between nonlinear substeps into
    # full steps and closes with a half-step before the snapshot
    ph = scipy.fft.fft(q0)
    if (share := _unresolved(ph)) is not None:
        raise ValueError(
            "the grid does not resolve the initial field (top-decile "
            f"spectral energy {share:.1e} of the non-constant modes at "
            f"N={grid.N}); refine the grid (a profile with a jump, such as "
            "the box preset, needs one far finer than its samples)")
    fields = np.empty((len(ts), grid.N), dtype=complex)
    fields[0] = q0
    # a field that overflows inside an interval is caught by the guard
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, len(ts)):
            h = ts[n] - ts[n - 1]
            nsub = max(1, int(np.ceil(h / (grid.dt * (1.0 + 1e-12)))))
            dt = h / nsub
            if dt not in steps:
                steps[dt] = (np.exp(-1j * kappa2 * (dt / 2.0)),
                             np.exp(-1j * kappa2 * dt))
            half, full = steps[dt]
            ph *= half
            for j in range(1, nsub + 1):
                if j > 1:
                    ph *= full
                p = nonlinear_substep(scipy.fft.ifft(ph), dt, A, mirror)
                ph = scipy.fft.fft(p, overwrite_x=True)
                if (j == nsub or j % nguard == 0) and (
                        share := _unresolved(ph)) is not None:
                    raise BlowUpError(
                        "field non-finite or unresolved (top-decile "
                        f"spectral energy {share:.1e} of the "
                        "non-constant modes) "
                        f"at t={ts[n - 1] + j * dt:.3f}")
            ph *= half
            fields[n] = scipy.fft.ifft(ph)
    # restore the gauge q = p * exp(2i A^2 t)
    fields *= np.exp(2j * A * A * ts)[:, None]
    noise = float(np.finfo(float).eps * np.exp(2.0 * A * A * ts[-1]))
    return FieldTrajectory(ts=ts, fields=fields, x=x, A=A, L_box=grid.L_box,
                           noise_floor_estimate=noise,
                           capped=grid.t_max > t_end)


def sample_ray(traj, xi):
    """[(t, q(4 xi t, t), q(-4 xi t, t)) ...] on every snapshot, by
    band-limited interpolation.

    The interpolant sum_m c_m exp(i m theta), theta = pi (x + L) / L, over
    the modes -N/2 <= m < N/2 is evaluated with the shifted spectrum as a
    (rows, cols) matrix C: with m = cols a + b - N/2 it is hi . (C @ lo),
    lo_b = exp(i theta b) and hi_a = exp(i theta (cols a - N/2)), so a point
    costs rows + cols exponentials instead of N.  Snapshots are transformed
    in blocks of _SAMPLE_BLOCK, and a sample does not depend on which other
    snapshots share its block."""
    ts = traj.ts
    N = traj.fields.shape[1]
    L = traj.L_box
    xr = 4.0 * xi * ts
    for t, x in zip(ts, xr):
        if abs(x) > L - 2.0 * L / N:
            raise ValueError(f"ray exits the box at t={t:g} (x={x:g})")
    cols = math.gcd(N, _SAMPLE_COLS)
    rows = N // cols
    theta = np.pi * (np.stack((xr, -xr), axis=1) + L) / L
    lo_m = np.arange(cols, dtype=float)[:, None]
    hi_m = (cols * np.arange(rows) - N // 2).astype(float)[:, None]
    vals = np.empty((len(ts), 2), dtype=complex)
    for s in range(0, len(ts), _SAMPLE_BLOCK):
        blk = slice(s, s + _SAMPLE_BLOCK)
        spec = scipy.fft.fft(traj.fields[blk], axis=1)
        C = scipy.fft.fftshift(spec, axes=1).reshape(-1, rows, cols)
        th = theta[blk, None, :]
        lo = np.exp(1j * (lo_m * th))
        hi = np.exp(1j * (hi_m * th))
        # the (2, 2) product's diagonal pairs each point's hi with its lo
        vals[blk] = np.diagonal(np.swapaxes(hi, 1, 2) @ (C @ lo),
                                axis1=1, axis2=2)
    vals /= N
    return [(float(t), complex(qp), complex(qm))
            for t, (qp, qm) in zip(ts, vals)]


def reference_ifrk4(profile, grid, t_end, dt):
    """Integrating-factor RK4 on q itself: an independent time integrator
    used to cross-check the gauged Strang scheme."""
    x = grid.x
    mirror = _mirror_index(grid.N)
    kappa = grid.kappa
    lam = -1j * kappa * kappa  # i q_t + q_xx = ... => q_t = i q_xx + N(q)

    def nonlin(q):
        return 2j * q * q * np.conj(q[mirror])

    q = profile.q0(x).astype(complex)
    n = int(round(t_end / dt))
    E = np.exp(lam * dt / 2.0)
    E2 = E * E
    for _ in range(n):
        qh = np.fft.fft(q)
        k1 = np.fft.fft(nonlin(q))
        u2 = np.fft.ifft(E * (qh + dt / 2.0 * k1))
        k2 = np.fft.fft(nonlin(u2))
        u3 = np.fft.ifft(E * qh + dt / 2.0 * k2)
        k3 = np.fft.fft(nonlin(u3))
        u4 = np.fft.ifft(E2 * qh + dt * E * k3)
        k4 = np.fft.fft(nonlin(u4))
        qh = E2 * qh + dt / 6.0 * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)
        q = np.fft.ifft(qh)
    return q


#: trajectory_to_csv formats this many snapshots per numpy pass
_CSV_BLOCK = 8
#: 10**k for k = 0..22, all exact doubles (built from ints: 10.0**-k is not)
_POW10 = np.array([float(10**k) for k in range(23)])
#: ASCII tables, one little-endian uint32 per entry: the digits of
#: 0000..9999; ",d." and ",-d." for the leading digit d at index 2d and
#: 2d + 1; "e-10".."e+10" at index e + 10
_DIGITS4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), "<u4")
_HEAD4 = np.frombuffer(b"".join(b",%s%d." % (sign, d) for d in range(10)
                                for sign in (b"\0", b"-")), "<u4")
_EXP4 = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-10, 11)), "<u4")
#: one ",%.12e" value: comma, sign (null if +), leading digit and "."; three
#: groups of 4 digits; "e", the exponent's sign and 2 digits; a null pad.
#: "text" overlays bytes 1-20 with a fallback's b"%.12e" (at most 20 bytes,
#: null-padded)
_CSV_SLOT = np.dtype({
    "names": ["head", "g1", "g2", "g3", "exp", "pad", "text"],
    "formats": ["<u4", "<u4", "<u4", "<u4", "<u4", "S1", "S20"],
    "offsets": [0, 4, 8, 12, 16, 20, 1],
    "itemsize": 21})


def _format_e12(vals, slots):
    """Write ",%.12e" of every float in ``vals`` into ``slots`` (same
    shape, _CSV_SLOT), by the fast path or the fallback of
    trajectory_to_csv; returns how many values took the fallback."""
    a = np.abs(vals)
    fast = (a >= 1e-10) & (a < 1e11)
    a[~fast] = 1.0
    e = np.clip(np.floor(np.log10(a)), -10, 10).astype(np.intp)
    s = a * _POW10[12 - e]
    m = np.rint(s)
    fast &= (s >= 1e12) & (m < 1e13) & (np.abs(s - m) < 0.5 - 2.0**-9)
    slow = ~fast
    # keeps the table indices in range; the fallback overwrites these slots
    m[slow] = 0.0
    # the digits, split off by 10**4 at a time
    q = m.astype(np.int64)
    for group in ("g3", "g2", "g1"):
        r = q // 10000
        slots[group] = _DIGITS4[q - 10000 * r]
        q = r
    slots["head"] = _HEAD4[2 * q + np.signbit(vals)]
    slots["exp"] = _EXP4[e + 10]
    slots["pad"] = b""
    slots["text"][slow] = [b"%.12e" % v for v in vals[slow].tolist()]
    return int(slow.sum())


def trajectory_to_csv(traj, path):
    """CSV export with header t,x,re_q,im_q,abs_q, each float as %.12e.

    The x column is formatted once and t once per snapshot.  numpy makes
    the bytes of re_q, im_q and abs_q, _CSV_BLOCK snapshots at a time, and
    they are exactly Python's %.12e.  Fast path, for 1e-10 <= |v| < 1e11:
    with e = floor(log10 |v|) clipped to [-10, 10], k = 12 - e is in
    [2, 22], so 10**k is an exact double and s = |v| 10**k carries one
    rounding.  While s < 1e13 < 2**44 that rounding is at most 2**-10, so
    m = rint(s) is the correctly rounded 13-digit mantissa of |v| 10**k
    whenever |s - m| < 1/2 - 2**-9.  Accepting only s >= 1e12 and m < 1e13
    also proves the guess e: an s that rounded up to 1e12 from below lies
    within 2**-10 of it, where %.12e rounds up to 1e12 at the exponent e
    too.  Every other value takes Python's b"%.12e" % v: 0, -0, inf, nan,
    subnormals, |e| > 10, near-ties and a wrong guess of e (0.52% of the
    README trajectory's values).  abs_q is np.hypot(re, im), which rounds
    like Python's abs(complex) where np.abs can differ in the last digit."""
    N = traj.fields.shape[1]
    rows = np.zeros((_CSV_BLOCK, N), dtype=[
        ("t", "S20"), ("x", "S21"), ("q", _CSV_SLOT, (3,)), ("nl", "S1")])
    rows["x"] = [b",%.12e" % xx for xx in traj.x.tolist()]
    rows["nl"] = b"\n"
    with open(path, "wb") as fh:
        fh.write(b"t,x,re_q,im_q,abs_q\n")
        for s in range(0, len(traj.ts), _CSV_BLOCK):
            ts = traj.ts[s:s + _CSV_BLOCK]
            field = traj.fields[s:s + _CSV_BLOCK]
            blk = rows[:len(ts)]
            blk["t"] = np.array([b"%.12e" % t for t in ts.tolist()])[:, None]
            re, im = field.real, field.imag
            _format_e12(np.stack((re, im, np.hypot(re, im)), axis=-1),
                        blk["q"])
            fh.write(blk.tobytes().translate(None, b"\0"))


def write_snapshots(traj, path):
    """Binary snapshot export: per snapshot a JSON header line
    {N, L_box, t, A} followed by the field as little-endian complex128
    (float64 re/im interleaved)."""
    N = traj.fields.shape[1]
    with open(path, "wb") as fh:
        for t, field in zip(traj.ts, traj.fields):
            hdr = json.dumps(
                {"N": int(N), "L_box": float(traj.L_box), "t": float(t),
                 "A": float(traj.A)},
                sort_keys=True,
            )
            fh.write(hdr.encode() + b"\n")
            fh.write(np.asarray(field, dtype="<c16").tobytes())


def read_snapshots(path):
    """Inverse of write_snapshots; returns (headers, fields)."""
    headers = []
    fields = []
    with open(path, "rb") as fh:
        while True:
            line = fh.readline()
            if not line:
                break
            hdr = json.loads(line.decode())
            N = hdr["N"]
            raw = fh.read(16 * N)
            if len(raw) != 16 * N:
                raise ValueError(f"snapshot {len(fields)} is truncated")
            fields.append(np.frombuffer(raw, dtype="<c16").astype(complex))
            headers.append(hdr)
    return headers, fields
