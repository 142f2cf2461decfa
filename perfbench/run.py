"""nnlslab benchmark: one workload, one closed-loop client, one process
for the passes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``
there.  Passes run back to back for ``--seconds`` (at least
``TAIL_PASSES``), each checked after its timed window.  Set-up is timed
cold, in fresh processes, before the first pass and after each of the
first ``TAIL_PASSES`` passes, and its median reported.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run alternates untimed and traced
passes, so the tracing overhead is measured in the same process.  See
README.md next to this file.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    # BLAS pools are sized when numpy loads; the closed loop is single-threaded
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from perfbench import spans, workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
#: outputs of runs (temp dirs, span files); ignored by git
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
#: ray_tail_s is taken over the first this many passes, which every untimed
#: run makes, so its sample count does not depend on the program's speed
TAIL_PASSES = 3


def tail(samples, beyond=10):
    """Highest percentile with at least ``beyond`` samples above it:
    (value, percentile, sample count).  With ``beyond`` samples or fewer no
    percentile qualifies and the median stands in: the maximum of a few
    whole passes would be a noise reading, not a tail."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n <= beyond:
        return float(np.median(s)), 50.0, n
    return float(s[n - beyond - 1]), 100.0 * (n - beyond) / n, n


def _check(wl, state, out):
    """Failed operations of one pass; a check that cannot run fails them all."""
    try:
        per_op = wl.check(state, out)
    except Exception:  # noqa: BLE001 - a broken output is a failure, not an abort
        traceback.print_exc()
        return wl.ops_per_pass()
    for problems in per_op:
        if problems:
            print(f"check failed: {'; '.join(problems)}", file=sys.stderr)
    return sum(1 for problems in per_op if problems)


def run(workload_name, seed, seconds, trace):
    os.makedirs(RUNS_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=RUNS_DIR)
    try:
        return _run(workload_name, seed, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def cold_setup(workload_name, seed, tmp):
    """Seconds of one set-up in a fresh process (see cold_setup.py)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "cold_setup.py"),
         workload_name, str(seed), tmp],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _run(workload_name, seed, seconds, trace, tmp):
    wl = workloads.WORKLOADS[workload_name](seed, tmp, workloads.load_reference())
    recorder = spans.Recorder() if trace else None
    missing = set()

    setup_times = []

    def cold_setups():
        # spread over the run: a cold import drifts by 10-20% within seconds,
        # so set-ups bunched in one window sample the machine, not the program
        if not trace:
            setup_times.extend(cold_setup(workload_name, seed, tmp)
                               for _ in range(wl.setup_reps))

    cold_setups()
    lab = workloads.import_lab(SRC)
    if recorder is not None:
        hooks = spans.Installation(recorder, lab)
        root = recorder.open("setup")
    state = wl.build(lab)
    if recorder is not None:
        recorder.close(root)
        hooks.remove()
        missing.update(hooks.missing)
    wl.prepare_checks(state)

    walls = {False: [], True: []}
    pass_lats, attempted, failed = [], 0, 0
    start = perf_counter()
    while True:
        traced = recorder is not None and len(walls[False]) > len(walls[True])
        if traced:
            hooks = spans.Installation(recorder, lab)
            root = recorder.open("pass")
        t0 = perf_counter()
        try:
            out = wl.run_pass(state)
        except Exception:  # noqa: BLE001 - a failed pass is counted, not fatal
            traceback.print_exc()
            out = None
        wall = perf_counter() - t0
        if traced:
            recorder.close(root)
            hooks.remove()
            missing.update(hooks.missing)
        walls[traced].append(wall)

        attempted += wl.ops_per_pass()
        if out is None:
            failed += wl.ops_per_pass()
            pass_lats.append([])
        else:
            pass_lats.append(wl.ray_latencies(wall, out))
            failed += _check(wl, state, out)
        if len(walls[False]) <= TAIL_PASSES:
            cold_setups()
        enough = (walls[True] if recorder is not None
                  else len(walls[False]) >= TAIL_PASSES)
        if enough and perf_counter() - start >= seconds:
            break

    info = {"workload": workload_name, "seed": seed,
            "pass_walls": [round(w, 4) for w in walls[False]],
            "setup_times": [round(t, 4) for t in setup_times]}
    untimed = float(np.median(walls[False]))
    if recorder is None:
        latencies = [x for lats in pass_lats[:TAIL_PASSES] for x in lats]
        pass_p50s = [float(np.median(lats)) for lats in pass_lats if lats]
        tail_s, tail_pct, n = tail(latencies) if latencies else (0.0, 0.0, 0)
        info.update(ray_tail_percentile=round(tail_pct, 1), ray_samples=n,
                    failed_frac=failed / attempted)
        metrics = {
            "wall_s": (untimed, "s"),
            "setup_s": (float(np.median(setup_times)), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0, "MiB"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
            # per pass first, so one slow pass cannot move the median alone
            "ray_p50_s": (float(np.median(pass_p50s)) if pass_p50s else 0.0, "s"),
            "ray_tail_s": (tail_s, "s"),
        }
    else:
        traced_wall = float(np.median(walls[True]))
        info.update(traced_passes=len(walls[True]), hooks_missing=sorted(missing),
                    spans=len(recorder.spans))
        metrics = {k: (v, spans.UNITS.get(k, "s"))
                   for k, v in spans.layer_metrics(recorder.spans).items()}
        metrics.update({
            "trace.untimed_wall_s": (untimed, "s"),
            "trace.traced_wall_s": (traced_wall, "s"),
            "trace.overhead_frac": (traced_wall / untimed - 1.0, "frac"),
            "trace.hooks_missing": (len(missing), "count"),
        })
        path = os.path.join(RUNS_DIR, f"spans-{workload_name}-seed{seed}.json")
        recorder.dump(path)
        info["spans_file"] = os.path.relpath(path, ROOT)

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({"info": info}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nnlslab", "__init__.py")):
        print(f"perfbench: no nnlslab sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
