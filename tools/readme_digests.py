"""sha256 of the README outputs of two commits, and which of them differ.

    python3 tools/readme_digests.py BASE_REV HEAD_REV

Run from inside the git checkout.  Both revisions are exported with
``bench_pair``'s ``export`` into a temporary directory, and in each tree
``nnlslab compare`` and ``nnlslab simulate`` run on
``perfbench.workloads.README_CONFIG`` (taken from the current checkout, so
both sides get the same config).  Prints, for each side, the sha256 of
``comparison.csv``, ``report.json``, ``constants.json``, ``trajectory.csv``
and ``snapshots.bin``, then the files whose digests differ.  Exits 0 if all
five match, else 1.

The simulate outputs, about 180 MiB, are removed once hashed; temporary
trees go to ``TMPDIR``.  Both sides take about 10 s on a 2-core x86_64 VM.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pair import export, git  # noqa: E402

#: (subcommand, the files it writes)
RUNS = (("compare", ("comparison.csv", "report.json", "constants.json")),
        ("simulate", ("trajectory.csv", "snapshots.bin")))


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def readme_digests(tree, cfg_path):
    """{file name: sha256} of the README outputs made in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = {}
    for command, names in RUNS:
        out_dir = os.path.join(tree, "readme_out", command)
        subprocess.run([sys.executable, "-m", "nnlslab.cli", command,
                        "--config", cfg_path, "--out", out_dir],
                       cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
        for name in names:
            path = os.path.join(out_dir, name)
            out[name] = sha256(path)
            os.remove(path)
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, os.getcwd())
    from perfbench.workloads import README_CONFIG

    revs = {"base": git("rev-parse", argv[0]), "head": git("rev-parse", argv[1])}
    digests = {}
    with tempfile.TemporaryDirectory(prefix="readme_digests-") as tmp:
        cfg_path = os.path.join(tmp, "readme.json")
        with open(cfg_path, "w") as fh:
            json.dump(README_CONFIG, fh)
        for side, rev in revs.items():
            tree = os.path.join(tmp, side)
            export(rev, tree)
            digests[side] = readme_digests(tree, cfg_path)
            print(f"{side} {rev}")
            for name, digest in digests[side].items():
                print(f"  {digest}  {name}")
    differ = [name for name in digests["base"]
              if digests["base"][name] != digests["head"][name]]
    print("differ:", " ".join(differ) if differ else "none")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
