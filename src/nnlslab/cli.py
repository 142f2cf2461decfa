"""Command-line interface.

Each pipeline stage is independently invocable:

    nnlslab scatter   --config cfg.json [--k K ...]
    nnlslab validate  --config cfg.json [--ray XI ...]
    nnlslab planewave --config cfg.json [--ray XI ...]
    nnlslab elliptic  --config cfg.json [--ray XI ...]
    nnlslab simulate  --config cfg.json --out out [--tmax T]
    nnlslab compare   --config cfg.json --out out

The JSON config schema (versioned with "schema": 1):

    {"schema": 1, "A": 0.5,
     "profile": {"preset": "gaussian_bump", "amplitude": -0.2,
                 "width": 1.0, "chirp": 0.3, "center": 0.8},
     "rays": [1.2, 0.35], "t_list": [10, 20, 30]}
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .background import RayRegion, classify_ray
from .ellipticwave import elliptic_data
from .harness import RunConfig, emit_report, ray_key, run
from .numerics import json_value
from .planewave import planewave_params
from .scattering import SpectralTable, validate_assumptions
from .simulator import (BlowUpError, simulate, trajectory_to_csv,
                        write_snapshots)


def _load_config(path):
    with open(path) as fh:
        return RunConfig.from_json(fh.read())


def _finite(values, flag):
    """The values given for a repeatable flag, as floats ([] if none);
    ValueError unless each is finite."""
    out = [float(v) for v in values or ()]
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{flag} must be finite, got {values}")
    return out


def cmd_scatter(cfg, args):
    ks = np.array(_finite(args.k, "--k") or np.linspace(-5, 5, 21))
    ks = ks[ks != 0.0]
    a1, a2, b1, b2 = SpectralTable(cfg.profile).at(ks)
    out = [{"k": k, "a1": json_value(v1), "a2": json_value(v2),
            "b1": json_value(w1), "b2": json_value(w2)}
           for k, v1, v2, w1, w2 in zip(ks, a1, a2, b1, b2)]
    print(json.dumps(out, sort_keys=True, indent=1))
    return 0


def _print_rays(cfg, args, region, per_rays):
    """Print ``per_rays(table, rays)``, one dict per ray, keyed by xi: for
    the --ray values, else for the config rays (of ``region`` unless None).
    A --ray outside ``region`` is an error."""
    rays = [classify_ray(xi, cfg.A)
            for xi in _finite(args.ray, "--ray") or cfg.rays]
    wrong = [ray for ray in rays if region not in (None, ray.region)]
    if args.ray and wrong:
        sys.exit(f"nnlslab {args.command}: error: ray {wrong[0].xi:g} is in "
                 f"the {wrong[0].region.value} region, not {region.value}")
    rays = [ray for ray in rays if ray not in wrong]
    out = per_rays(SpectralTable(cfg.profile), rays)
    print(json.dumps({ray_key(ray.xi): d for ray, d in zip(rays, out)},
                     sort_keys=True, indent=1))
    return 0


def cmd_validate(cfg, args):
    return _print_rays(cfg, args, None, lambda tab, rays: [
        dict(rep.to_dict(), region=rep.region_checked.region.value)
        for rep in validate_assumptions(tab, rays)])


def cmd_planewave(cfg, args):
    return _print_rays(cfg, args, RayRegion.PLANE_WAVE, lambda tab, rays: [
        planewave_params(abs(ray.xi), tab).to_dict() for ray in rays])


def cmd_elliptic(cfg, args):
    return _print_rays(cfg, args, RayRegion.ELLIPTIC_WAVE, lambda tab, rays: [
        elliptic_data(abs(ray.xi), cfg.A, tab).to_dict() for ray in rays])


def cmd_simulate(cfg, args):
    t_max = max(cfg.t_list) if args.tmax is None else args.tmax
    traj = simulate(cfg.profile, cfg.sim_grid(t_max))
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "trajectory.csv")
    bin_path = os.path.join(args.out, "snapshots.bin")
    trajectory_to_csv(traj, csv_path)
    write_snapshots(traj, bin_path)
    print(json.dumps({"snapshots": len(traj.ts), "files": [csv_path, bin_path],
                      "noise_floor": traj.noise_floor_estimate},
                     sort_keys=True))
    return 0


def cmd_compare(cfg, args):
    report = run(cfg)
    files = emit_report(report, args.out)
    skipped = [r.xi for r in report.rays if r.skipped]
    print(json.dumps({"files": files, "skipped_rays": skipped}, sort_keys=True))
    return 0


#: the options of the flags a subcommand may take besides --config
_FLAGS = {
    "--k": dict(action="append", default=None,
                help="spectral point (repeatable)"),
    "--ray": dict(action="append", default=None, help="ray xi (repeatable)"),
    "--out": dict(default="out", help="output directory"),
    "--tmax": dict(type=float, default=None, help="end time of the run"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="nnlslab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, flags in (
            ("scatter", cmd_scatter, ["--k"]),
            ("validate", cmd_validate, ["--ray"]),
            ("planewave", cmd_planewave, ["--ray"]),
            ("elliptic", cmd_elliptic, ["--ray"]),
            ("simulate", cmd_simulate, ["--out", "--tmax"]),
            ("compare", cmd_compare, ["--out"])):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="JSON config path")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    args = parser.parse_args(argv)
    try:
        return args.handler(_load_config(args.config), args)
    except (BlowUpError, ValueError) as exc:
        sys.exit(f"nnlslab {args.command}: error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
