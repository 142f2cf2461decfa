"""Regenerate reference.json: the ray constants the correctness gate
compares against.

    python3 perfbench/make_reference.py

Run it only at a commit whose constants are trusted; the gate then holds
every later commit to them within 1e-8 (1 + |ref|).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402


def main():
    src = os.path.join(ROOT, "src")
    runs = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(runs, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="reference-", dir=runs)
    try:
        lab = workloads.import_lab(src)
        cmp = workloads.CompareReadme(workloads.DEFAULT_SEED, tmp)
        out = cmp.run_pass(cmp.build(lab))
        with open(os.path.join(out["out"], "constants.json")) as fh:
            compare = json.load(fh)
        sweep = workloads.RaySweep(workloads.DEFAULT_SEED, tmp)
        rays = sweep.run_pass(sweep.build(lab))
        ref = {
            "compare_readme": compare,
            "ray_sweep": [{"kind": kind, "xi": xi,
                           "constants": workloads.ray_constants(data)}
                          for kind, xi, data, _, _, _ in rays],
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
