"""The benchmark's workloads.

Each workload turns the seed into its inputs, sets up (``build``, timed as
``setup_s`` together with a cold import, see ``cold_setup.py``), runs closed-loop passes through the
package's public functions, and checks every pass afterwards.  Why each
workload exists is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import os
import shutil
import sys
import tempfile
import types
from time import perf_counter as _clock

import numpy as np

from . import gate

#: seed whose ray constants are stored in reference.json
DEFAULT_SEED = 0

VERIFICATION_PROFILE = {"preset": "gaussian_bump", "amplitude": -0.2,
                        "width": 1.0, "chirp": 0.3, "center": 0.8}
README_CONFIG = {"schema": 1, "A": 0.5, "profile": VERIFICATION_PROFILE,
                 "rays": [1.2, 0.35], "t_list": [10, 20, 30], "seed": 0}

_HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(_HERE, "reference.json")
_MODULES = ("numerics", "background", "scattering", "planewave",
            "ellipticwave", "simulator", "harness", "cli")


def import_lab(src):
    """Import nnlslab from ``src``; returns its modules by name."""
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.import_module("nnlslab.cli")
    lab = types.SimpleNamespace(
        **{m: sys.modules[f"nnlslab.{m}"] for m in _MODULES})
    origin = os.path.realpath(lab.cli.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"nnlslab imported from {origin}, not from {src}")
    return lab


def jittered(lo, hi, n, rng):
    """One point inside each of n equal sub-intervals of [lo, hi]."""
    edges = np.linspace(lo, hi, n + 1)
    u = rng.uniform(0.05, 0.95, n)
    return [float(x) for x in edges[:-1] + u * np.diff(edges)]


def _number(v):
    if isinstance(v, (complex, np.complexfloating)):
        return {"re": float(v.real), "im": float(v.imag)}
    return float(v)


def ray_constants(data):
    """Numeric constants of a PlaneWaveData or EllipticData, report-style."""
    out = {}
    for obj in (data, getattr(data, "surface", None)):
        if obj is None:
            continue
        for f in dataclasses.fields(obj):
            v = getattr(obj, f.name)
            if isinstance(v, (int, float, complex, np.number)):
                out[f.name] = _number(v)
    if hasattr(data, "case_tag"):
        out["case"] = data.case_tag.value
    return out


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _quiet_cli(lab, argv):
    """``nnlslab.cli.main(argv)`` with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lab.cli.main(argv)
    return rc, buf.getvalue()


class Workload:
    name = ""
    #: cold set-ups, each in a fresh process, before the first pass and after
    #: each of the first run.TAIL_PASSES passes; their median is setup_s
    setup_reps = 4

    def __init__(self, seed, workdir, reference=None):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.config = self.make_config(np.random.default_rng(seed))
        self.config_path = os.path.join(workdir, f"{self.name}.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)

    def make_config(self, rng):
        return dict(README_CONFIG)

    def build(self, lab):
        """Set-up after the import: parse the config, build profile and grid."""
        with open(self.config_path) as fh:
            cfg = lab.harness.RunConfig.from_json(fh.read())
        grid = cfg.grid or lab.simulator.SimGrid.for_run(
            cfg.profile, max(abs(x) for x in cfg.rays), max(cfg.t_list))
        return types.SimpleNamespace(lab=lab, cfg=cfg, grid=grid)

    def prepare_checks(self, state):
        """Untimed work the checks need once per run."""

    def run_pass(self, state):
        """One timed pass; returns what ``check`` needs."""
        raise NotImplementedError

    def ray_latencies(self, wall, out):
        raise NotImplementedError

    def ops_per_pass(self):
        raise NotImplementedError

    def check(self, state, out):
        """Problems per operation of one pass (a list of lists)."""
        raise NotImplementedError


class CompareReadme(Workload):
    """``nnlslab compare`` on the README config, which is fixed: the seed
    does not change this workload's inputs."""

    name = "compare_readme"

    def run_pass(self, state):
        out = tempfile.mkdtemp(prefix="compare-", dir=self.workdir)
        rc, _ = _quiet_cli(state.lab, ["compare", "--config", self.config_path,
                                       "--out", out])
        return {"out": out, "rc": rc}

    def ray_latencies(self, wall, out):
        # the harness exposes no per-ray step: report seconds per verified ray
        return [wall / len(self.config["rays"])]

    def ops_per_pass(self):
        return len(self.config["rays"])

    def check(self, state, out):
        try:
            return self._check(out)
        finally:
            shutil.rmtree(out["out"], ignore_errors=True)

    def _check(self, out):
        if out["rc"] != 0:
            return [[f"compare exited {out['rc']}"]] * self.ops_per_pass()
        with open(os.path.join(out["out"], "report.json")) as fh:
            report = json.load(fh)
        ref = self.reference["compare_readme"]
        by_xi = {r["xi"]: r for r in report["rays"]}
        problems = []
        for xi in self.config["rays"]:
            ray = by_xi.get(xi)
            if ray is None:
                problems.append([f"ray {xi:g} missing from report"])
            elif ray["skipped"]:
                problems.append([f"ray {xi:g} skipped: {ray['reason']}"])
            else:
                problems.append(
                    gate.constant_problems(ray["constants"], ref[f"{xi:g}"])
                    + gate.row_problems(ray["region"], ray["rows"]))
        return problems


class RaySweep(Workload):
    """Ray constants across both regions, evaluated over time, with no
    validation and no simulation."""

    name = "ray_sweep"
    setup_reps = 1
    PLANE_WAVE = (0.75, 3.0)
    ELLIPTIC = (0.05, 0.68)
    RAYS_PER_REGION = 12
    TIMES = np.linspace(5.0, 35.0, 300)

    def make_config(self, rng):
        self.pw_rays = jittered(*self.PLANE_WAVE, self.RAYS_PER_REGION, rng)
        self.ell_rays = jittered(*self.ELLIPTIC, self.RAYS_PER_REGION, rng)
        return {**README_CONFIG, "rays": self.pw_rays + self.ell_rays,
                "t_list": [float(self.TIMES[0]), float(self.TIMES[-1])]}

    def build(self, lab):
        state = super().build(lab)
        # the shared line table and the cut samples, paid before the first ray
        state.table = lab.scattering.SpectralTable(state.cfg.profile)
        state.table.k_tail
        state.table.B_chebyshev()
        return state

    def run_pass(self, state):
        lab, tab, A = state.lab, state.table, state.cfg.A
        rays = []
        for kind, xs in (("plane_wave", self.pw_rays),
                         ("elliptic_wave", self.ell_rays)):
            for xi in xs:
                t0 = _clock()
                try:
                    if kind == "plane_wave":
                        data = lab.planewave.planewave_params(xi, tab)
                        lat = _clock() - t0
                        vals = [lab.planewave.planewave_eval(data, t)
                                for t in self.TIMES]
                    else:
                        data = lab.ellipticwave.elliptic_data(xi, A, tab)
                        lat = _clock() - t0
                        vals = [lab.ellipticwave.elliptic_eval(data, t)
                                for t in self.TIMES]
                    rays.append((kind, xi, data, vals, lat, None))
                except Exception as exc:  # noqa: BLE001 - a failed ray is counted
                    rays.append((kind, xi, None, None, _clock() - t0, exc))
        return rays

    def ray_latencies(self, wall, out):
        return [r[4] for r in out]

    def ops_per_pass(self):
        return 2 * self.RAYS_PER_REGION

    def check(self, state, out):
        lab, tab = state.lab, state.table
        ref = (self.reference["ray_sweep"]
               if self.seed == DEFAULT_SEED else None)
        problems = []
        for i, (kind, xi, data, vals, _, exc) in enumerate(out):
            if exc is not None:
                problems.append([f"ray {xi:g} raised {type(exc).__name__}: {exc}"])
                continue
            p = gate.finite_problems(vals)
            if kind == "plane_wave":
                split, _ = lab.planewave.F_inf_split(data.k1, tab)
                p += gate.finf_problems(data.F_inf, split)
            else:
                p += gate.reality_problems(
                    lab.ellipticwave.reality_residuals(data.surface))
            if ref is not None:
                if ref[i]["xi"] != xi:
                    p.append(f"ray {xi!r} is not the reference ray {ref[i]['xi']!r}")
                p += gate.constant_problems(ray_constants(data), ref[i]["constants"])
            problems.append(p)
        return problems


class SimulateExport(Workload):
    """``nnlslab simulate`` on the README config, then the snapshots read
    back and sampled along rays."""

    name = "simulate_export"
    RAYS = (0.1, 1.2)
    N_RAYS = 12

    def make_config(self, rng):
        self.rays = jittered(*self.RAYS, self.N_RAYS, rng)
        return dict(README_CONFIG)

    def prepare_checks(self, state):
        # keep digests, not the trajectory, out of the measured process's memory
        sim = state.lab.simulator
        ref = sim.simulate(state.cfg.profile, state.grid)
        state.ref_ts = ref.ts
        state.ref_digests = [gate.field_digest(f) for f in ref.fields]
        state.ref_samples = [sim.sample_ray(ref, xi) for xi in self.rays]
        t, x, q = ref.ts[-1], ref.x[-1], ref.fields[-1, -1]
        state.csv_last = (f"{t:.12e},{x:.12e},{q.real:.12e},{q.imag:.12e},"
                          f"{abs(q):.12e}\n").encode()

    def run_pass(self, state):
        lab = state.lab
        sim = lab.simulator
        out = tempfile.mkdtemp(prefix="simulate-", dir=self.workdir)
        rc, printed = _quiet_cli(lab, ["simulate", "--config", self.config_path,
                                       "--out", out])
        readback = gate.read_snapshots_safely(
            sim.read_snapshots, os.path.join(out, "snapshots.bin"))
        samples, lats = [], []
        if not isinstance(readback, Exception):
            headers, fields = readback
            traj = sim.FieldTrajectory(
                ts=np.array([h["t"] for h in headers]), fields=np.array(fields),
                x=state.grid.x, A=headers[0]["A"], L_box=headers[0]["L_box"],
                noise_floor_estimate=json.loads(printed)["noise_floor"])
            for xi in self.rays:
                t0 = _clock()
                samples.append(sim.sample_ray(traj, xi))
                lats.append(_clock() - t0)
        return {"out": out, "rc": rc, "readback": readback,
                "samples": samples, "lats": lats}

    def ray_latencies(self, wall, out):
        return out["lats"]

    def ops_per_pass(self):
        return self.N_RAYS + 1

    def check(self, state, out):
        try:
            export = [] if out["rc"] == 0 else [f"simulate exited {out['rc']}"]
            export += self._csv_problems(os.path.join(out["out"], "trajectory.csv"),
                                         state.csv_last)
            export += gate.snapshot_problems(out["readback"], state.ref_ts,
                                             state.ref_digests)
            rays = [gate.sample_problems(s, r)
                    for s, r in zip(out["samples"], state.ref_samples)]
            rays += [["ray not sampled"]] * (self.N_RAYS - len(rays))
            return [export] + rays
        finally:
            shutil.rmtree(out["out"], ignore_errors=True)

    @staticmethod
    def _csv_problems(path, last_line):
        with open(path, "rb") as fh:
            head = fh.readline()
            fh.seek(max(0, os.path.getsize(path) - 2 * len(last_line)))
            tail = fh.read()
        problems = []
        if head != b"t,x,re_q,im_q,abs_q\n":
            problems.append(f"trajectory.csv header {head[:40]!r}")
        if not tail.endswith(b"\n" + last_line):
            problems.append("trajectory.csv does not end with the last sample")
        return problems


WORKLOADS = {w.name: w for w in (CompareReadme, RaySweep, SimulateExport)}
