"""Correctness gate of the benchmark.

Every pass is checked after its timed window closes.  Each check returns a
list of problems; an operation with any problem counts as failed, and the
run goes on.  Tolerances are fixed here, not tuned per run:

- ray constants against the stored reference: ``|got - ref| <= 1e-8 (1 + |ref|)``;
- plane-wave comparison rows: ``rel_err < 0.05`` (worst at the reference
  commit: 1.2e-2);
- elliptic comparison rows: finite only (their error is a known open item);
- the two ``F_inf`` quadrature routes: agree to 1e-7 (acceptance criterion 3);
- elliptic reality residuals: the acceptance criterion 6 tolerances;
- snapshots read back: bit for bit equal to the fields written.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

CONST_REL_TOL = 1e-8
PLANE_WAVE_MAX_REL_ERR = 0.05
FINF_ROUTES_TOL = 1e-7
REALITY_TOL = {
    "im_H_inf": 1e-8,
    "im_Omega": 1e-8,
    "h_iA": 1e-10,
    "b_period_dh": 1e-9,
    "im_h_alpha": 1e-8,
}


def as_number(v):
    """A constant as stored in reports: a float or a {"re", "im"} pair."""
    if isinstance(v, dict):
        return complex(v["re"], v["im"])
    return v


def constant_problems(got, ref):
    """Mismatches between a ray's constants and their reference values."""
    problems = []
    for key, r in ref.items():
        if key not in got:
            problems.append(f"constant {key} missing")
            continue
        g, r = as_number(got[key]), as_number(r)
        if isinstance(r, str):
            if g != r:
                problems.append(f"{key} = {g!r}, reference {r!r}")
        elif not abs(g - r) <= CONST_REL_TOL * (1.0 + abs(r)):
            problems.append(f"{key} = {g!r}, reference {r!r}")
    return problems


def row_problems(region, rows):
    """Comparison rows of one ray (dicts as in report.json)."""
    if not rows:
        return ["no comparison rows"]
    problems = []
    for row in rows:
        vals = (row["abs_q_sim"], row["abs_q_asym"], row["rel_err"])
        if not all(math.isfinite(v) for v in vals):
            problems.append(f"non-finite row at t={row['t']:g}")
        elif region == "plane_wave" and not row["rel_err"] < PLANE_WAVE_MAX_REL_ERR:
            problems.append(f"rel_err {row['rel_err']:.3e} at t={row['t']:g}")
    return problems


def finf_problems(F_inf, F_inf_split):
    gap = abs(complex(F_inf) - complex(F_inf_split))
    return [] if gap < FINF_ROUTES_TOL else [f"F_inf routes differ by {gap:.2e}"]


def reality_problems(residuals):
    return [f"{key} = {residuals[key]:.2e} >= {tol:.0e}"
            for key, tol in REALITY_TOL.items()
            if not residuals[key] < tol]


def finite_problems(values):
    arr = np.asarray(values, dtype=complex)
    return [] if np.all(np.isfinite(arr)) else ["non-finite evaluated values"]


def read_snapshots_safely(reader, path):
    """``reader(path)``, or the error a damaged file makes it raise."""
    try:
        return reader(path)
    except (ValueError, KeyError) as exc:
        return exc


def field_digest(field):
    """SHA-256 of a field's bytes: equal digests mean equal bits."""
    return hashlib.sha256(np.ascontiguousarray(field)).hexdigest()


def snapshot_problems(readback, ts, digests):
    """``readback`` from ``read_snapshots_safely`` against the written
    snapshot times and the ``field_digest`` of each written field."""
    if isinstance(readback, Exception):
        return [f"snapshots unreadable: {type(readback).__name__}: {readback}"]
    headers, got = readback
    if len(got) != len(ts) or len(headers) != len(ts):
        return [f"{len(got)} snapshots read back, {len(ts)} written"]
    problems = []
    for i, (hdr, g, d) in enumerate(zip(headers, got, digests)):
        if hdr["t"] != float(ts[i]):
            problems.append(f"snapshot {i}: t {hdr['t']!r} != {float(ts[i])!r}")
        elif field_digest(g) != d:
            problems.append(f"snapshot {i}: field differs from the one written")
    return problems


def sample_problems(got, ref):
    """Ray samples [(t, q+, q-), ...] against samples of the written fields."""
    if len(got) != len(ref):
        return [f"{len(got)} ray samples, expected {len(ref)}"]
    a = np.array([s[1:] for s in got], dtype=complex)
    b = np.array([s[1:] for s in ref], dtype=complex)
    if not np.all(np.abs(a - b) <= CONST_REL_TOL * (1.0 + np.abs(b))):
        return ["ray samples differ from those of the written fields"]
    return []
