"""One cold set-up of a workload, in a fresh process.

    python3 perfbench/cold_setup.py WORKLOAD SEED WORKDIR

Times importing ``nnlslab`` (numpy and scipy included, as a user's first
import pays them) plus the workload's ``build``, and prints the seconds as
the last stdout line.  ``run.py`` starts it ``setup_reps`` times per run and
reports the median as ``setup_s``.
"""

import sys
from time import perf_counter

t0 = perf_counter()

import importlib  # noqa: E402
import os  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
importlib.import_module("nnlslab.cli")
imported = perf_counter() - t0

# untimed: the benchmark's own modules (numpy is loaded already)
sys.path.insert(0, ROOT)
from perfbench import workloads  # noqa: E402

name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
wl = workloads.WORKLOADS[name](seed, workdir)
lab = workloads.import_lab(SRC)
t1 = perf_counter()
wl.build(lab)
print(imported + perf_counter() - t1)
