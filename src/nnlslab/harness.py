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
from dataclasses import dataclass, field, replace

import numpy as np

from .background import RayRegion, classify_ray
from .ellipticwave import elliptic_data, elliptic_eval
from .planewave import planewave_eval, planewave_params
from .scattering import InitialProfile, SpectralTable, validate_assumptions
from .simulator import SimGrid, mi_time_cap, sample_ray, simulate

__all__ = ["RunConfig", "RayResult", "ComparisonReport", "run", "emit_report",
           "ray_key"]

_SCHEMA = 1


def ray_key(xi):
    """The key of ray xi in the reports: the shortest decimal that reads
    back as xi, so distinct rays get distinct keys ("1.2", "0.35", "2")."""
    return np.format_float_positional(xi, trim="-")


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
        if len(self.t_list) == 0 or not np.all(np.diff(self.t_list) > 0):
            raise ValueError("t_list must be nonempty and strictly increasing")
        if not min(self.t_list) > 0:
            raise ValueError("t_list times must be positive")
        if not np.all(np.isfinite([*self.rays, *self.t_list])):
            raise ValueError("rays and t_list must be finite")
        if self.profile.A != self.A:
            raise ValueError(f"profile A {self.profile.A:g} != config A {self.A:g}")

    @classmethod
    def from_json(cls, obj):
        """Parse a schema-1 config; the keys "tolerances", "out_dir" and
        "seed" of older files, and "t_max" in "grid", are accepted and
        ignored (a grid runs to the last of t_list, see sim_grid)."""
        if isinstance(obj, (str, bytes)):
            obj = json.loads(obj)
        if obj.get("schema") != _SCHEMA:
            raise ValueError(f"unsupported config schema {obj.get('schema')!r}")
        prof_spec = dict(obj["profile"])
        prof_spec.setdefault("A", obj["A"])
        profile = InitialProfile.from_json(prof_spec)
        config = cls(profile=profile, A=float(obj["A"]),
                     rays=[float(x) for x in obj["rays"]],
                     t_list=[float(t) for t in obj["t_list"]])
        if "grid" not in obj:
            return config
        g = obj["grid"]
        return replace(config, grid=SimGrid(
            L_box=float(g["L_box"]), N=int(g["N"]), dt=float(g["dt"]),
            t_max=max(config.t_list)))

    def sim_grid(self, t_max):
        """The configured grid run to t_max, else SimGrid.for_run's grid
        for the widest ray."""
        if self.grid is None:
            return SimGrid.for_run(self.profile,
                                   max(abs(x) for x in self.rays), t_max)
        return replace(self.grid, t_max=t_max)


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


#: the columns of a comparison row after xi, in report.json and comparison.csv
_ROW_KEYS = ("t", "abs_q_sim", "abs_q_asym", "abs_err", "rel_err")


def _row_values(t, s, a):
    err = abs(s - a)
    return t, s, a, err, err / a if a else float("inf")


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
                    "rows": [dict(zip(_ROW_KEYS, _row_values(*row)))
                             for row in r.rows],
                    "decay_exponent": r.decay_exponent,
                    "decay_r2": r.decay_r2,
                }
                for r in self.rays
            ],
        }


def _fit_decay(ts, errs):
    """Log-log slope of |err| vs t with its R^2; NaN for both unless at
    least two distinct t have a nonzero error."""
    ts = np.asarray(ts, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > 0
    if np.unique(ts[keep]).size < 2:
        return float("nan"), float("nan")
    x = np.log(ts[keep])
    y = np.log(errs[keep])
    slope, icpt = np.polyfit(x, y, 1)
    resid = y - (slope * x + icpt)
    sst = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / sst if sst > 0 else 1.0
    return float(slope), float(r2)


def _ray_asymptotics(ray, A, spectral):
    """The constants of a plane-wave or elliptic ray at |xi| and the
    evaluator t -> (q(4 xi t), q(-4 xi t)) of its asymptotics."""
    xi = abs(ray.xi)
    if ray.region is RayRegion.PLANE_WAVE:
        pwd = planewave_params(xi, spectral)
        return pwd.to_dict(), lambda t: planewave_eval(pwd, t)[:2]
    if ray.region is RayRegion.ELLIPTIC_WAVE:
        ed = elliptic_data(xi, A, spectral)
        return ed.to_dict(), lambda t: elliptic_eval(ed, t)
    raise RuntimeError("transition rays are out of scope")


def run(config):
    """Full pipeline: classify -> simulate -> validate -> asymptotics ->
    compare; per-ray failures are captured, not fatal."""
    A = config.A
    spectral = SpectralTable(config.profile)
    grid = config.sim_grid(max(config.t_list))
    traj = simulate(config.profile, grid, config.t_list)
    late = [t for t in config.t_list if t > traj.ts[-1]]
    rays = [classify_ray(xi, A) for xi in config.rays]
    try:
        reports = validate_assumptions(spectral, rays)
    except (ValueError, RuntimeError) as exc:  # skips every ray
        reports = [exc] * len(rays)

    assumptions = {}
    ray_results = []
    for xi, ray, rep in zip(config.rays, rays, reports):
        result = RayResult(xi=xi, region=ray.region.value)
        try:
            if isinstance(rep, Exception):
                raise rep
            assumptions[ray_key(xi)] = rep.to_dict()
            if rep.zero_count_upper or rep.zero_count_lower:
                raise RuntimeError(
                    f"spectral zeros present "
                    f"({rep.zero_count_upper}, {rep.zero_count_lower})"
                )
            if not rep.winding_ok:
                raise RuntimeError("winding assumption violated")

            if late:
                raise ValueError(f"time {late[0]:g} is outside the trajectory,"
                                 f" whose last snapshot is at t={traj.ts[-1]:g}")
            q_sim = {t: (qp, qm) for t, qp, qm in sample_ray(traj, abs(xi))}
            result.constants, q_asym = _ray_asymptotics(ray, A, spectral)
            for t in config.t_list:
                sim_p, sim_m = q_sim[t]
                q_p, q_m = q_asym(t)
                result.rows += [(t, abs(sim_p), abs(q_p)),
                                (t, abs(sim_m), abs(q_m))]
            result.decay_exponent, result.decay_r2 = _fit_decay(
                [t for (t, _, _) in result.rows],
                [abs(s - a) for (_, s, a) in result.rows])
        except (ValueError, RuntimeError) as exc:  # per-ray isolation
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
        "mi_time_cap": mi_time_cap(A),
        "capped": traj.capped,
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
        fh.write(",".join(("xi",) + _ROW_KEYS) + "\n")
        for r in report.rays:
            for row in r.rows:
                fh.write(",".join(f"{v:.12e}" for v in (r.xi, *_row_values(*row)))
                         + "\n")
    consts = {ray_key(r.xi): r.constants for r in report.rays}
    for path, obj in zip(paths[1:], (report.to_dict(), consts)):
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True, indent=1, default=float)
            fh.write("\n")
    return paths
