"""Comparison pipelines: configure a profile, validate assumptions, compute
ray asymptotics, simulate, compare along rays, and emit machine-readable
reports.

A run processes every configured ray independently (a ray failing
validation or computation is recorded with its error and skipped), shares
one simulation across rays, and writes deterministic CSV/JSON outputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .background import RayRegion, classify_ray
from .ellipticwave import elliptic_data, elliptic_eval
from .planewave import planewave_eval, planewave_params
from .scattering import (InitialProfile, SpectralTable, validate_assumptions,
                         winding_k_stop)
from .simulator import SimGrid, sample_ray, simulate

__all__ = ["RunConfig", "RayResult", "ComparisonReport", "run", "emit_report"]

_SCHEMA = 1


@dataclass
class RunConfig:
    profile: InitialProfile
    A: float
    rays: list
    t_list: list
    grid: SimGrid = None

    def __post_init__(self):
        if not self.rays:
            raise ValueError("rays must be nonempty")
        if list(self.t_list) != sorted(self.t_list) or len(self.t_list) == 0:
            raise ValueError("t_list must be nonempty and increasing")
        if not min(self.t_list) > 0:
            raise ValueError("t_list times must be positive")

    @classmethod
    def from_json(cls, obj):
        """Parse a schema-1 config; the keys "tolerances", "out_dir" and
        "seed" of older files are accepted and ignored."""
        if isinstance(obj, (str, bytes)):
            obj = json.loads(obj)
        if obj.get("schema") != _SCHEMA:
            raise ValueError(f"unsupported config schema {obj.get('schema')!r}")
        prof_spec = dict(obj["profile"])
        prof_spec.setdefault("A", obj["A"])
        profile = InitialProfile.from_json(prof_spec)
        grid = None
        if "grid" in obj:
            g = obj["grid"]
            grid = SimGrid(L_box=float(g["L_box"]), N=int(g["N"]),
                           dt=float(g["dt"]), t_max=float(g["t_max"]))
        return cls(
            profile=profile,
            A=float(obj["A"]),
            rays=[float(x) for x in obj["rays"]],
            t_list=[float(t) for t in obj["t_list"]],
            grid=grid,
        )


@dataclass
class RayResult:
    xi: float
    region: str
    skipped: bool = False
    reason: str = ""
    constants: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)  # (t, abs_sim, abs_asym)
    decay_exponent: float = float("nan")
    decay_r2: float = float("nan")


@dataclass
class ComparisonReport:
    config_summary: dict
    assumptions: dict
    rays: list

    def to_dict(self):
        return {
            "schema": _SCHEMA,
            "config": self.config_summary,
            "assumptions": self.assumptions,
            "rays": [
                {
                    "xi": r.xi,
                    "region": r.region,
                    "skipped": r.skipped,
                    "reason": r.reason,
                    "constants": r.constants,
                    "rows": [
                        {
                            "t": t,
                            "abs_q_sim": s,
                            "abs_q_asym": a,
                            "abs_err": abs(s - a),
                            "rel_err": abs(s - a) / a if a else float("inf"),
                        }
                        for (t, s, a) in r.rows
                    ],
                    "decay_exponent": r.decay_exponent,
                    "decay_r2": r.decay_r2,
                }
                for r in self.rays
            ],
        }


def _fit_decay(ts, errs):
    """Log-log slope of |err| vs t with its R^2."""
    ts = np.asarray(ts, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > 0
    if keep.sum() < 2:
        return float("nan"), float("nan")
    x = np.log(ts[keep])
    y = np.log(errs[keep])
    slope, icpt = np.polyfit(x, y, 1)
    resid = y - (slope * x + icpt)
    sst = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / sst if sst > 0 else 1.0
    return float(slope), float(r2)


def _planewave_ray(xi, spectral, t_list, sampled):
    pwd = planewave_params(xi, spectral)
    rows = []
    for t in t_list:
        qp, qm, E1, E2 = planewave_eval(pwd, t)
        sim = sampled(t)
        rows.append((t, abs(sim[0]), abs(qp)))
        rows.append((t, abs(sim[1]), abs(qm)))
    return pwd.to_dict(), rows


def _elliptic_ray(xi, A, spectral, t_list, sampled):
    ed = elliptic_data(xi, A, spectral)
    rows = []
    for t in t_list:
        qp, qm = elliptic_eval(ed, t)
        sim = sampled(t)
        rows.append((t, abs(sim[0]), abs(qp)))
        rows.append((t, abs(sim[1]), abs(qm)))
    return ed.to_dict(), rows


def run(config):
    """Full pipeline: classify -> validate -> asymptotics -> simulate ->
    compare; per-ray failures are captured, not fatal."""
    profile = config.profile
    A = config.A
    spectral = SpectralTable(profile)
    t_max = max(config.t_list)
    xi_max = max(abs(x) for x in config.rays)
    grid = config.grid or SimGrid.for_run(profile, xi_max, t_max)
    traj = simulate(profile, grid)

    # zero counting is ray independent: validate once on the widest ray and
    # reuse the counts, re-deriving only the per-region winding bound
    assumptions = {}
    ray_results = []
    base_rep = None
    for xi in config.rays:
        ray = classify_ray(xi, A)
        result = RayResult(xi=xi, region=ray.region.value)
        try:
            if base_rep is None:
                base_rep = validate_assumptions(spectral,
                                                classify_ray(xi_max, A))
            wind = spectral.max_abs_winding(winding_k_stop(ray, A))
            assumptions[f"{xi:g}"] = {
                "zero_count_upper": base_rep.zero_count_upper,
                "zero_count_lower": base_rep.zero_count_lower,
                "winding_ok": bool(wind < np.pi),
                "max_abs_winding": wind,
            }
            if base_rep.zero_count_upper or base_rep.zero_count_lower:
                raise RuntimeError(
                    f"spectral zeros present "
                    f"({base_rep.zero_count_upper}, {base_rep.zero_count_lower})"
                )
            if wind >= np.pi:
                raise RuntimeError("winding assumption violated")

            samples = sample_ray(traj, abs(xi))
            s_ts = np.array([s[0] for s in samples])

            def sampled(t):
                i = int(np.argmin(np.abs(s_ts - t)))
                return samples[i][1], samples[i][2]

            if ray.region is RayRegion.PLANE_WAVE:
                consts, rows = _planewave_ray(abs(xi), spectral,
                                              config.t_list, sampled)
            elif ray.region is RayRegion.ELLIPTIC_WAVE:
                consts, rows = _elliptic_ray(abs(xi), A, spectral,
                                             config.t_list, sampled)
            else:
                raise RuntimeError("transition rays are out of scope")
            result.constants = consts
            result.rows = rows
            errs = [abs(s - a) for (_, s, a) in rows]
            result.decay_exponent, result.decay_r2 = _fit_decay(
                [t for (t, _, _) in rows], errs
            )
        except Exception as exc:  # noqa: BLE001 - per-ray isolation
            result.skipped = True
            result.reason = f"{type(exc).__name__}: {exc}"
        ray_results.append(result)

    summary = {
        "A": A,
        "rays": list(config.rays),
        "t_list": list(config.t_list),
        "grid": {"L_box": grid.L_box, "N": grid.N, "dt": grid.dt,
                 "t_max": grid.t_max},
        "noise_floor": traj.noise_floor_estimate,
    }
    return ComparisonReport(config_summary=summary, assumptions=assumptions,
                            rays=ray_results)


def emit_report(report, out_dir):
    """Write comparison.csv / report.json / constants.json, byte-stable for
    identical inputs (sorted keys, %.12e floats)."""
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name)
             for name in ("comparison.csv", "report.json", "constants.json")]
    with open(paths[0], "w") as fh:
        fh.write("xi,t,abs_q_sim,abs_q_asym,abs_err,rel_err\n")
        for r in report.rays:
            for (t, s, a) in r.rows:
                rel = abs(s - a) / a if a else float("inf")
                fh.write(
                    f"{r.xi:.12e},{t:.12e},{s:.12e},{a:.12e},"
                    f"{abs(s - a):.12e},{rel:.12e}\n"
                )
    consts = {f"{r.xi:g}": r.constants for r in report.rays}
    for path, obj in zip(paths[1:], (report.to_dict(), consts)):
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True, indent=1, default=float)
            fh.write("\n")
    return paths
