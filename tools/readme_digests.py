"""sha256 of the README outputs of two commits, and which of them differ.

    python3 tools/readme_digests.py BASE_REV HEAD_REV

Run from inside the git checkout.  Both revisions are exported with
``bench_pair``'s ``export`` into a temporary directory, and in each tree
``nnlslab compare`` and ``nnlslab simulate`` run on
``perfbench.workloads.README_CONFIG`` (taken from the current checkout, so
both sides get the same config).  Prints, for each side, the sha256 of
``comparison.csv``, ``report.json``, ``constants.json``, ``trajectory.csv``
and ``snapshots.bin``, then the files whose digests differ.  For a JSON or
CSV file that differs it also prints how many of its numbers moved, the
largest move ``|head - base| / (1 + |base|)`` and where that is.  Exits 0
if all five match, else 1.

Each side's outputs, about 180 MiB, stay in ``TMPDIR`` until the head side
has been compared with them.  Both sides take about 10 s on a 2-core x86_64
VM, plus about 10 s when every line of ``trajectory.csv`` differs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
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


def relative_move(base, head):
    """|head - base| / (1 + |base|); equal infinities and two NaNs have not
    moved."""
    if base == head or (math.isnan(base) and math.isnan(head)):
        return 0.0
    move = abs(head - base) / (1.0 + abs(base))
    return math.inf if math.isnan(move) else move


def json_moves(base, head, where=""):
    """(move, where) for every number of two parsed JSON documents; a key or
    entry that only one side has moves by inf."""
    if isinstance(base, dict) and isinstance(head, dict):
        for key in base.keys() | head.keys():
            if key not in base or key not in head:
                yield math.inf, f"{where}/{key}"
            else:
                yield from json_moves(base[key], head[key], f"{where}/{key}")
    elif isinstance(base, list) and isinstance(head, list):
        if len(base) != len(head):
            yield math.inf, f"{where} (length)"
        for i, (u, v) in enumerate(zip(base, head)):
            yield from json_moves(u, v, f"{where}/{i}")
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool)
             for v in (base, head)):
        yield relative_move(float(base), float(head)), where
    elif base != head:
        yield math.inf, where


def csv_moves(base_path, head_path):
    """(move, where) for every field of the lines that differ between two
    numeric CSV files, read line by line."""
    with open(base_path) as base, open(head_path) as head:
        header = base.readline().rstrip("\n").split(",")
        if head.readline().rstrip("\n").split(",") != header:
            yield math.inf, "header"
        for line, (u, v) in enumerate(itertools.zip_longest(base, head), start=2):
            if u == v:
                continue
            if u is None or v is None:
                yield math.inf, f"line {line} (one side ends before it)"
                return
            for name, x, y in zip(header, u.split(","), v.split(",")):
                yield relative_move(float(x), float(y)), f"line {line} {name}"


def largest_move(base_path, head_path):
    """(count, move, where): how many numbers moved between two JSON or CSV
    outputs, and the largest move with its place; None for another format."""
    if base_path.endswith(".json"):
        with open(base_path) as base, open(head_path) as head:
            moves = json_moves(json.load(base), json.load(head))
    elif base_path.endswith(".csv"):
        moves = csv_moves(base_path, head_path)
    else:
        return None
    count, largest = 0, (0.0, "nowhere")
    for move in moves:
        if move[0] != 0.0:
            count += 1
            largest = max(largest, move)
    return (count, *largest)


def readme_outputs(tree, cfg_path):
    """{file name: path} of the README outputs made in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = {}
    for command, names in RUNS:
        out_dir = os.path.join(tree, "readme_out", command)
        subprocess.run([sys.executable, "-m", "nnlslab.cli", command,
                        "--config", cfg_path, "--out", out_dir],
                       cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
        for name in names:
            out[name] = os.path.join(out_dir, name)
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, os.getcwd())
    from perfbench.workloads import README_CONFIG

    revs = {"base": git("rev-parse", argv[0]), "head": git("rev-parse", argv[1])}
    paths, digests = {}, {}
    with tempfile.TemporaryDirectory(prefix="readme_digests-") as tmp:
        cfg_path = os.path.join(tmp, "readme.json")
        with open(cfg_path, "w") as fh:
            json.dump(README_CONFIG, fh)
        for side, rev in revs.items():
            tree = os.path.join(tmp, side)
            export(rev, tree)
            paths[side] = readme_outputs(tree, cfg_path)
            digests[side] = {name: sha256(path)
                             for name, path in paths[side].items()}
            print(f"{side} {rev}")
            for name, digest in digests[side].items():
                print(f"  {digest}  {name}")
        differ = [name for name in digests["base"]
                  if digests["base"][name] != digests["head"][name]]
        print("differ:", " ".join(differ) if differ else "none")
        for name in differ:
            move = largest_move(paths["base"][name], paths["head"][name])
            if move is not None:
                print(f"  {name}: {move[0]} numbers moved, the largest by "
                      f"|d|/(1+|v|) = {move[1]:.3g} at {move[2]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
