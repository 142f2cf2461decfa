"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

Tracing works from outside the package: each public layer function is
replaced, in every module where a caller looks its name up, by a wrapper
that records a span (name, start, end, parent) and the work counts visible
in its arguments.  Spans stay in memory and are written out when the run
ends.  The untimed run installs nothing.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """In-memory span list with a parent stack (single-threaded use)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(idx)
        return self.spans[idx]

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recorded as span ``name``; ``before(span, args, kwargs)``
        may return replacement (args, kwargs), ``after(span, args, result)``
        records counts from the result."""
        rec = self

        def traced(*args, **kwargs):
            span = rec.open(name)
            try:
                if before is not None:
                    args, kwargs = before(span, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result
            finally:
                rec.close(span)

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.attrs]
                       for s in self.spans], fh, separators=(",", ":"))


# -- work counts taken from arguments and results --------------------------

def _count_kpoints(span, args, kwargs):
    k = args[1] if len(args) > 1 else kwargs["k"]
    span.attrs["kpoints"] = int(np.size(k))
    return args, kwargs


def _count_integrand(span, args, kwargs):
    span.attrs["points"] = 0

    def counting(f):
        def counted(z):
            span.attrs["points"] += int(np.size(z))
            return f(z)
        return counted

    if args:
        return (counting(args[0]),) + tuple(args[1:]), kwargs
    key = "f" if "f" in kwargs else "phi"
    return args, {**kwargs, key: counting(kwargs[key])}


def _strang_counts(simulator):
    """Strang steps and FFT pairs of ``simulate(profile, grid)``, computed
    from the grid with the step rule ``simulate`` uses (labelled computed:
    nothing inside the simulator is counted)."""

    def before(span, args, kwargs):
        profile, grid = args[0], args[1]
        t_end = min(grid.t_max, simulator.mi_time_cap(profile.A))
        snapshot_dt = kwargs.get("snapshot_dt") or max(t_end / 400.0, grid.dt)
        nsub = max(1, int(round(snapshot_dt / grid.dt)))
        nsnap = int(round(t_end / snapshot_dt))
        span.attrs["strang_steps"] = nsnap * nsub
        # each step is two half linear substeps, one fft/ifft pair each
        span.attrs["fft_pairs"] = 2 * nsnap * nsub
        return args, kwargs

    return before


def _count_snapshot_ffts(span, args, kwargs):
    # band-limited sampling transforms every snapshot once
    span.attrs["ffts"] = int(len(args[0].ts))
    return args, kwargs


def _file_bytes(span, args, result):
    span.attrs["bytes"] = os.path.getsize(args[1])


def _skipped_rays(span, args, result):
    span.attrs["rays_skipped"] = sum(1 for r in result.rays if r.skipped)


def hook_table(lab):
    """(span name, owner, attribute, patch sites, before, after) for every
    traced layer boundary.  A patch site is an object whose attribute of
    that name a caller reads at call time."""
    sc, nu, pw, ew = lab.scattering, lab.numerics, lab.planewave, lab.ellipticwave
    sim, hn, cli = lab.simulator, lab.harness, lab.cli
    tab = sc.SpectralTable
    return [
        ("scattering.scattering_data", sc, "scattering_data", [sc],
         _count_kpoints, None),
        ("scattering.validate_assumptions", sc, "validate_assumptions",
         [hn, cli], None, None),
        ("scattering.line_table", tab, "_build_line", [tab], None, None),
        ("scattering.b_samples", tab, "B_chebyshev", [tab], None, None),
        ("numerics.quad_path", nu, "quad_path", [pw, ew],
         _count_integrand, None),
        ("numerics.cauchy_segment", nu, "cauchy_segment", [pw, ew],
         _count_integrand, None),
        ("numerics.theta3", nu, "theta3", [ew], None, None),
        ("planewave.planewave_params", pw, "planewave_params", [pw, hn, cli],
         None, None),
        ("planewave.planewave_eval", pw, "planewave_eval", [pw, hn], None, None),
        ("ellipticwave.elliptic_data", ew, "elliptic_data", [ew, hn, cli],
         None, None),
        ("ellipticwave.build_surface", ew, "build_surface", [ew], None, None),
        ("ellipticwave.h_machinery", ew, "h_machinery", [ew], None, None),
        ("ellipticwave.g_machinery", ew, "g_machinery", [ew], None, None),
        ("ellipticwave.abel_constants", ew, "abel_constants", [ew], None, None),
        ("ellipticwave.elliptic_eval", ew, "elliptic_eval", [ew, hn], None, None),
        ("simulator.simulate", sim, "simulate", [hn, cli],
         _strang_counts(sim), None),
        ("simulator.sample_ray", sim, "sample_ray", [sim, hn],
         _count_snapshot_ffts, None),
        ("simulator.trajectory_to_csv", sim, "trajectory_to_csv", [cli],
         None, _file_bytes),
        ("simulator.write_snapshots", sim, "write_snapshots", [cli],
         None, _file_bytes),
        ("simulator.read_snapshots", sim, "read_snapshots", [sim], None, None),
        ("harness.run", hn, "run", [cli], None, _skipped_rays),
        ("harness.emit_report", hn, "emit_report", [cli], None, None),
        ("cli.main", cli, "main", [cli], None, None),
    ]


class Installation:
    """The wrappers of one recorder, installed until ``remove``."""

    def __init__(self, recorder, lab):
        self._saved = []
        self.missing = []
        for name, owner, attr, sites, before, after in hook_table(lab):
            orig = vars(owner).get(attr)
            if orig is None:
                self.missing.append(name)
                continue
            traced = recorder.wrap(name, orig, before, after)
            for site in sites:
                if vars(site).get(attr) is orig:
                    self._saved.append((site, attr, orig))
                    setattr(site, attr, traced)
                else:
                    # a caller moved: its spans would silently vanish
                    self.missing.append(f"{name}@{site.__name__}")

    def remove(self):
        for site, attr, orig in reversed(self._saved):
            setattr(site, attr, orig)
        self._saved = []


# -- span arithmetic -------------------------------------------------------

def children_of(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(spans, kids, idx):
    """A span's duration minus the part of it its child spans cover."""
    s = spans[idx]
    return s.duration - covered(
        [(spans[c].start, spans[c].end) for c in kids[idx]], s.start, s.end)


def descendants(kids, root):
    out = []
    stack = list(kids[root])
    while stack:
        i = stack.pop()
        out.append(i)
        stack.extend(kids[i])
    return out


def _has_ancestor(spans, idx, names, stop):
    p = spans[idx].parent
    while p != stop and p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


QUAD = {"numerics.quad_path", "numerics.cauchy_segment"}


def root_metrics(spans, kids, root):
    """Per-layer totals inside one root span (a pass or a set-up)."""
    idx = descendants(kids, root)
    by_name = {}
    for i in idx:
        by_name.setdefault(spans[i].name, []).append(i)

    def spans_named(name):
        return by_name.get(name, [])

    def outer_time(names):
        return sum(spans[i].duration for n in names for i in spans_named(n)
                   if not _has_ancestor(spans, i, names, root))

    def attr_sum(name, key, within=None, outside=None):
        return sum(spans[i].attrs.get(key, 0) for i in spans_named(name)
                   if (within is None or _has_ancestor(spans, i, within, root))
                   and (outside is None
                        or not _has_ancestor(spans, i, outside, root)))

    def self_sum(name):
        return sum(self_time(spans, kids, i) for i in spans_named(name))

    val, line = {"scattering.validate_assumptions"}, {"scattering.line_table"}
    jost = "scattering.scattering_data"
    batches = [spans[i].attrs["kpoints"] for i in spans_named(jost)]
    # the line table is built lazily, often from inside validate: count it
    # as its own stage, not as validate's
    line_in_val = sum(spans[i].duration for i in spans_named("scattering.line_table")
                      if _has_ancestor(spans, i, val, root))
    jost_s = outer_time({jost})
    sim_s = outer_time({"simulator.simulate"})
    steps = attr_sum("simulator.simulate", "strang_steps")
    return {
        "scattering.validate_s": outer_time(val) - line_in_val,
        "scattering.validate_kpoints": attr_sum(jost, "kpoints", val, line),
        "scattering.line_table_s": outer_time(line),
        "scattering.line_table_kpoints": attr_sum(jost, "kpoints", line),
        "scattering.jost_s": jost_s,
        "scattering.jost_kpoints": sum(batches),
        "scattering.kpoints_per_s": sum(batches) / jost_s if jost_s > 0 else 0.0,
        "scattering.batch_p50": float(np.median(batches)) if batches else 0.0,
        "scattering.b_samples_s": outer_time({"scattering.b_samples"}),
        "numerics.quad_calls": sum(len(spans_named(n)) for n in QUAD),
        "numerics.quad_evals": sum(attr_sum(n, "points") for n in QUAD),
        "numerics.quad_s": outer_time(QUAD),
        "numerics.theta3_calls": len(spans_named("numerics.theta3")),
        "numerics.theta3_s": outer_time({"numerics.theta3"}),
        "planewave.params_s": outer_time({"planewave.planewave_params"}),
        "planewave.eval_s": outer_time({"planewave.planewave_eval"}),
        "ellipticwave.build_surface_s": outer_time({"ellipticwave.build_surface"}),
        "ellipticwave.h_machinery_s": outer_time({"ellipticwave.h_machinery"}),
        "ellipticwave.g_machinery_s": outer_time({"ellipticwave.g_machinery"}),
        "ellipticwave.abel_constants_s": outer_time({"ellipticwave.abel_constants"}),
        "ellipticwave.eval_s": outer_time({"ellipticwave.elliptic_eval"}),
        "simulator.simulate_s": sim_s,
        "simulator.strang_steps": steps,
        "simulator.fft_pairs": attr_sum("simulator.simulate", "fft_pairs"),
        "simulator.steps_per_s": steps / sim_s if sim_s > 0 else 0.0,
        "simulator.sample_ray_s": outer_time({"simulator.sample_ray"}),
        "simulator.sample_ray_ffts": attr_sum("simulator.sample_ray", "ffts"),
        "simulator.trajectory_csv_s": outer_time({"simulator.trajectory_to_csv"}),
        "simulator.trajectory_csv_mib":
            attr_sum("simulator.trajectory_to_csv", "bytes") / 2**20,
        "simulator.write_snapshots_s": outer_time({"simulator.write_snapshots"}),
        "simulator.snapshots_mib":
            attr_sum("simulator.write_snapshots", "bytes") / 2**20,
        "harness.run_s": outer_time({"harness.run"}),
        "harness.self_s": self_sum("harness.run"),
        "harness.emit_report_s": outer_time({"harness.emit_report"}),
        "harness.rays_skipped": attr_sum("harness.run", "rays_skipped"),
        "cli.self_s": self_sum("cli.main"),
    }


#: stages a workload may pay in set-up instead of in its passes
SETUP_STAGES = ("scattering.line_table_s", "scattering.line_table_kpoints",
                "scattering.b_samples_s")

#: units of the per-layer metrics; computed counts say so in their unit
UNITS = {
    "scattering.validate_kpoints": "count",
    "scattering.line_table_kpoints": "count",
    "scattering.jost_kpoints": "count",
    "scattering.kpoints_per_s": "1/s",
    "scattering.batch_p50": "count",
    "numerics.quad_calls": "count",
    "numerics.quad_evals": "count",
    "numerics.theta3_calls": "count",
    "simulator.strang_steps": "count_computed",
    "simulator.fft_pairs": "count_computed",
    "simulator.steps_per_s": "1/s",
    "simulator.sample_ray_ffts": "count_computed",
    "simulator.trajectory_csv_mib": "MiB",
    "simulator.snapshots_mib": "MiB",
    "harness.rays_skipped": "count",
}


def layer_metrics(spans):
    """Median over traced passes of each per-layer total.  Set-up stages
    absent from every pass are taken from the traced set-ups instead."""
    kids = children_of(spans)
    per_kind = {"pass": [], "setup": []}
    for i, s in enumerate(spans):
        if s.parent == -1 and s.name in per_kind:
            per_kind[s.name].append(root_metrics(spans, kids, i))
    if not per_kind["pass"]:
        raise ValueError("no traced pass")
    out = {}
    for key in per_kind["pass"][0]:
        val = float(np.median([m[key] for m in per_kind["pass"]]))
        if val == 0.0 and key in SETUP_STAGES and per_kind["setup"]:
            val = float(np.median([m[key] for m in per_kind["setup"]]))
        out[key] = val
    return out
