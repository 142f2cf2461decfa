"""Tests of the benchmark's own code: span arithmetic, trace hooks and the
correctness gate."""

from __future__ import annotations

import copy
import importlib
import os
import sys
import types

import numpy as np
import pytest

from perfbench import gate, spans, workloads
from perfbench.run import tail

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def _tree(rows):
    """Spans from (name, start, end, parent) rows."""
    return [spans.Span(n, a, b, parent=p) for n, a, b, p in rows]


# pass [0, 12] > harness.run [0, 10] > simulate [1, 3], validate [2.5, 6]
# (overlapping siblings) > line table [4, 5] inside validate; a quad span
# reaching past its parent is clipped to it.
TREE = [
    ("pass", 0.0, 12.0, -1),
    ("harness.run", 0.0, 10.0, 0),
    ("simulator.simulate", 1.0, 3.0, 1),
    ("scattering.validate_assumptions", 2.5, 6.0, 1),
    ("scattering.line_table", 4.0, 5.0, 3),
    ("numerics.quad_path", 9.0, 11.0, 1),
]


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(1, 3), (2.5, 6), (9, 11)], 0, 10) == pytest.approx(6.0)
    assert spans.covered([], 0, 10) == 0.0
    assert spans.covered([(-5, -1)], 0, 10) == 0.0


def test_self_time_subtracts_child_coverage():
    tree = _tree(TREE)
    kids = spans.children_of(tree)
    # 10 - |[1, 6] u [9, 10]| = 10 - 6
    assert spans.self_time(tree, kids, 1) == pytest.approx(4.0)
    # validate minus its line table
    assert spans.self_time(tree, kids, 3) == pytest.approx(2.5)
    assert spans.self_time(tree, kids, 4) == pytest.approx(1.0)


def test_layer_metrics_on_hand_built_tree():
    m = spans.layer_metrics(_tree(TREE))
    assert m["harness.run_s"] == pytest.approx(10.0)
    assert m["harness.self_s"] == pytest.approx(4.0)
    assert m["scattering.validate_s"] == pytest.approx(2.5)
    assert m["scattering.line_table_s"] == pytest.approx(1.0)
    assert m["simulator.simulate_s"] == pytest.approx(2.0)
    assert m["numerics.quad_calls"] == 1


def test_setup_stage_taken_from_setup_when_no_pass_pays_it():
    tree = _tree([
        ("setup", 0.0, 2.0, -1),
        ("scattering.line_table", 0.5, 1.5, 0),
        ("pass", 3.0, 4.0, -1),
        ("planewave.planewave_params", 3.0, 3.5, 2),
    ])
    m = spans.layer_metrics(tree)
    assert m["scattering.line_table_s"] == pytest.approx(1.0)
    assert m["planewave.params_s"] == pytest.approx(0.5)


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = tail(np.arange(1.0, 101.0))
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)


def _loaded_lab():
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"nnlslab.{m}")
        for m in ("numerics", "scattering", "planewave", "ellipticwave",
                  "simulator", "harness", "cli")})


def test_hooks_record_spans_and_integrand_points_then_restore():
    lab = _loaded_lab()
    original = lab.planewave.quad_path
    rec = spans.Recorder()
    hooks = spans.Installation(rec, lab)
    try:
        assert hooks.missing == []
        path = lab.numerics.ComplexPath.segment(0.0, 1.0)
        val = lab.planewave.quad_path(lambda z: np.ones_like(z), path)
    finally:
        hooks.remove()
    assert val == pytest.approx(1.0)
    assert lab.planewave.quad_path is original
    (span,) = [s for s in rec.spans if s.name == "numerics.quad_path"]
    assert span.attrs["points"] > 0 and span.duration >= 0.0


REF = workloads.load_reference()


def test_gate_accepts_reference_and_rejects_perturbed_constant():
    ref = REF["compare_readme"]["1.2"]
    assert gate.constant_problems(ref, ref) == []
    got = copy.deepcopy(ref)
    got["F_inf"]["re"] += 1e-6
    assert any("F_inf" in p for p in gate.constant_problems(got, ref))
    near = copy.deepcopy(ref)
    near["F_inf"]["re"] += 1e-12
    assert gate.constant_problems(near, ref) == []
    del near["c1"]
    assert gate.constant_problems(near, ref) == ["constant c1 missing"]


def test_gate_rows():
    good = {"t": 10.0, "abs_q_sim": 0.5, "abs_q_asym": 0.5, "rel_err": 0.01}
    bad = dict(good, rel_err=0.2)
    assert gate.row_problems("plane_wave", [good]) == []
    assert gate.row_problems("plane_wave", [bad])
    assert gate.row_problems("elliptic_wave", [bad]) == []
    assert gate.row_problems("elliptic_wave", [dict(good, abs_q_asym=np.nan)])


@pytest.fixture
def written_snapshots(tmp_path):
    sim = importlib.import_module("nnlslab.simulator")
    rng = np.random.default_rng(7)
    fields = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    traj = sim.FieldTrajectory(ts=np.array([0.0, 0.5, 1.0]), fields=fields,
                               x=np.linspace(-1.0, 1.0, 8, endpoint=False),
                               A=0.5, L_box=1.0, noise_floor_estimate=0.0)
    path = str(tmp_path / "snapshots.bin")
    sim.write_snapshots(traj, path)
    return sim, traj, path


def _digests(traj):
    return [gate.field_digest(f) for f in traj.fields]


def test_gate_accepts_intact_snapshots(written_snapshots):
    sim, traj, path = written_snapshots
    readback = gate.read_snapshots_safely(sim.read_snapshots, path)
    assert gate.snapshot_problems(readback, traj.ts, _digests(traj)) == []


@pytest.mark.parametrize("cut", [1, 16 * 8, 16 * 8 + 3])
def test_gate_rejects_truncated_snapshots(written_snapshots, cut):
    sim, traj, path = written_snapshots
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size - cut)
    readback = gate.read_snapshots_safely(sim.read_snapshots, path)
    assert gate.snapshot_problems(readback, traj.ts, _digests(traj))


def test_gate_rejects_changed_snapshot_bits(written_snapshots):
    sim, traj, path = written_snapshots
    headers, fields = sim.read_snapshots(path)
    fields[1] = fields[1] * (1.0 + 1e-15)
    assert gate.snapshot_problems((headers, fields), traj.ts, _digests(traj))


def test_gate_reality_and_finf():
    ok = {k: 0.1 * v for k, v in gate.REALITY_TOL.items()}
    assert gate.reality_problems(ok) == []
    assert gate.reality_problems(dict(ok, h_iA=1e-9))
    assert gate.finf_problems(1 + 1j, 1 + 1j + 1e-9) == []
    assert gate.finf_problems(1 + 1j, 1 + 1j + 1e-5)
