"""Before/after benchmark of two commits, written as one ``BENCH_*.json``.

    python3 tools/bench_pair.py BASE_REV HEAD_REV OUT.json

Run from inside the git checkout.  Both revisions are exported with
``git archive`` into a temporary directory, so each side runs from its
committed files only.  ``perfbench/run.py`` then runs on the two trees in
alternating pairs (the side that goes first alternates too): ten pairs on
each workload, ``compare_readme`` (seed 2), ``ray_sweep`` (seed 0, the seed
whose ray constants ``reference.json`` holds) and ``simulate_export``
(seed 1), each run as long as ``run_seconds`` in BENCHMARK.json.  One
traced run per side of every workload adds the per-layer times and
counts, and a separate fresh process per side counts the work of eight
stages on the README config: the line table,
``validate_assumptions``, one ``elliptic_data`` at ``xi = 0.35`` and one
at ``xi = 0.0931`` (the seed-0 ``ray_sweep`` ray with the most band
nodes), ``simulate``, ``sample_ray`` on 12 rays of ``[0.1, 1.2]`` over all
its snapshots, ``harness.run`` (the ``compare`` path, whose own
``simulate`` may stop only at ``t_list``) and ``trajectory_to_csv``.  Only
counts are reported: the two sides' stages run in different processes at
different times, so their seconds cannot be compared (the paired
perfbench runs time them).  Jost
work is counted as Magnus cell steps times k-points; the line table and
the elliptic rays also count the k-points of their ``scattering_data``
calls, and the elliptic rays their ``quad_path`` calls, the integrand
calls of the adaptive quadrature and the points they get.  ``simulate``
and ``harness.run`` count their ``fft`` and ``ifft`` calls and the rays
count their ``fft`` calls and the snapshots these transform, from
``np.fft`` and ``scipy.fft`` alike, so that either side is counted the
same way.  ``trajectory_to_csv`` reports the file's size, its sha256 and
the number of values it formats (``3 x snapshots x N``), so that the two
sides can be seen to write the same file.

On a 2-core x86_64 VM one run takes 30-110 s and the whole comparison
about an hour.  Temporary trees go to ``TMPDIR``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np

#: pairs of runs per workload
PAIRS = 10
SEEDS = {"compare_readme": 2, "ray_sweep": 0, "simulate_export": 1}

#: counts Jost, quadrature and simulator work in a fresh process; argv[1] is
#: a source tree
WORK_COUNTS = r"""
import hashlib, json, os, sys, tempfile
from collections import Counter
import numpy as np
sys.path.insert(0, sys.argv[1])
import nnlslab.ellipticwave as ew
import nnlslab.numerics as nm
import nnlslab.scattering as sc
from nnlslab.background import classify_ray
from nnlslab.harness import RunConfig

# Magnus on the sample cells: cell steps times k-points, where a side has
# samples // 2 sample cells, each cut into `split` parts
counts = Counter()
propagate = sc._propagate

def counting(profile, side, split, ks, *args):
    counts["magnus_cell_kpoints"] += profile.samples.size // 2 * split * ks.size
    return propagate(profile, side, split, ks, *args)

sc._propagate = counting

# k-points of every scattering_data call, as perfbench counts them
scattering_data = sc.scattering_data

def counting_scattering_data(profile, k, *args, **kwargs):
    counts["jost_kpoints"] += np.size(k)
    return scattering_data(profile, k, *args, **kwargs)

sc.scattering_data = counting_scattering_data

# every quad_path call (under both names a caller may use), every integrand
# call of the adaptive quadrature, and the points it gets
adaptive_panels = nm._adaptive_panels
quad_path = nm.quad_path

def counting_panels(f, *args, **kwargs):
    def counted(z):
        counts["integrand_calls"] += 1
        counts["integrand_points"] += z.size
        return f(z)
    return adaptive_panels(counted, *args, **kwargs)

def counting_quad_path(*args, **kwargs):
    counts["quad_path_calls"] += 1
    return quad_path(*args, **kwargs)

nm._adaptive_panels = counting_panels
nm.quad_path = ew.quad_path = counting_quad_path

def stage(work, *keys):
    # the counts `keys` of one run of work(), and its result
    counts.clear()
    result = work()
    return {k: counts[k] for k in keys}, result

cfg = RunConfig.from_json(sys.argv[2])

def line_table():
    table = sc.SpectralTable(cfg.profile)
    table.k_tail
    return table

out = {}
out["line_table"], table = stage(line_table, "magnus_cell_kpoints",
                                 "jost_kpoints")
out["validate"], _ = stage(lambda: sc.validate_assumptions(
    table, [classify_ray(max(cfg.rays), cfg.A)]), "magnus_cell_kpoints")
# the README ray, and the seed-0 ray_sweep ray with the most band nodes
for name, xi in (("elliptic_ray", 0.35),
                 ("elliptic_ray_0.093", 0.09313735206876265)):
    out[name], _ = stage(
        lambda: ew.elliptic_data(xi, cfg.A, table), "magnus_cell_kpoints",
        "jost_kpoints", "quad_path_calls", "integrand_calls",
        "integrand_points")
    out[name]["xi"] = xi

# the split-step run of `nnlslab simulate` and the ray sampling, counted by
# wrapping fft and ifft of both np.fft and scipy.fft, whichever a side calls
import scipy.fft
import nnlslab.simulator as sim
plain = {(mod, name): getattr(mod, name)
         for mod in (np.fft, scipy.fft) for name in ("fft", "ifft")}

def counting_fft(mod, name):
    def counted(a, *args, **kwargs):
        counts[name + "_calls"] += 1
        # transforms along the last axis: one row per snapshot
        counts["snapshots_transformed"] += np.size(a) // np.shape(a)[-1]
        return plain[mod, name](a, *args, **kwargs)
    return counted

for mod, name in plain:
    setattr(mod, name, counting_fft(mod, name))
out["simulate"], traj = stage(
    lambda: sim.simulate(cfg.profile, cfg.sim_grid(max(cfg.t_list))),
    "fft_calls", "ifft_calls")
out["simulate"]["snapshots"] = len(traj.ts)
out["sample_rays"], _ = stage(
    lambda: [sim.sample_ray(traj, xi) for xi in np.linspace(0.1, 1.2, 12)],
    "fft_calls", "snapshots_transformed")
out["sample_rays"]["rays"] = 12
# the whole compare path: run() on the README config, its simulate included
import nnlslab.harness as hn
out["compare_run"], _ = stage(lambda: hn.run(cfg), "fft_calls", "ifft_calls")
for (mod, name), f in plain.items():
    setattr(mod, name, f)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "trajectory.csv")
    out["trajectory_csv"], _ = stage(lambda: sim.trajectory_to_csv(traj, path))
    out["trajectory_csv"]["mib"] = os.path.getsize(path) / 2**20
    out["trajectory_csv"]["values"] = 3 * traj.fields.size
    with open(path, "rb") as fh:
        out["trajectory_csv"]["sha256"] = hashlib.file_digest(
            fh, "sha256").hexdigest()
print(json.dumps(out))
"""


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev, dest):
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_perfbench(tree, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "pass_walls": info["pass_walls"]}


def summary(pairs, better):
    """Median per side, relative change, and how many pairs the head won."""
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = np.array([p["base"]["metrics"][name] for p in pairs])
        head = np.array([p["head"]["metrics"][name] for p in pairs])
        q1, q3 = np.percentile(base, [25, 75])
        lower = better.get(name, "lower") == "lower"
        out[name] = {
            "base_median": float(np.median(base)),
            "head_median": float(np.median(head)),
            "change": float(np.median(head) / np.median(base) - 1.0),
            "base_iqr": float(q3 - q1),
            "head_better_pairs": int(np.sum(head < base if lower else head > base)),
        }
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base_rev, head_rev, out_path = argv
    out_path = os.path.abspath(out_path)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sys.path.insert(0, os.getcwd())
    from perfbench.workloads import README_CONFIG

    revs = {"base": git("rev-parse", base_rev), "head": git("rev-parse", head_rev)}
    result = {"base": revs["base"], "head": revs["head"],
              "machine": {"cpu": platform.processor() or platform.machine(),
                          "cores": os.cpu_count(), "python": platform.python_version()},
              "run_seconds": seconds, "workloads": {}, "traced": {},
              "work_counts": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in revs}
        for side, rev in revs.items():
            export(rev, trees[side])
        for workload, seed in SEEDS.items():
            pairs = []
            for i in range(PAIRS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {side: run_perfbench(trees[side], workload, seed,
                                            seconds, 0)
                        for side in order}
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{PAIRS}: wall_s "
                      f"{pair['base']['metrics']['wall_s']:.2f} -> "
                      f"{pair['head']['metrics']['wall_s']:.2f}", flush=True)
            result["workloads"][workload] = {
                "seed": seed, "pairs": pairs,
                "summary": summary(pairs, better)}
        for side in revs:
            result["traced"][side] = {
                workload: run_perfbench(trees[side], workload, seed, seconds, 1)
                for workload, seed in SEEDS.items()}
            proc = subprocess.run(
                [sys.executable, "-c", WORK_COUNTS, os.path.join(trees[side], "src"),
                 json.dumps(README_CONFIG)],
                capture_output=True, text=True, check=True)
            result["work_counts"][side] = json.loads(proc.stdout)
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
