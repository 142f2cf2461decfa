import hashlib
import json
import warnings

import numpy as np
import pytest

from nnlslab.harness import (ComparisonReport, RunConfig, _fit_decay,
                             emit_report, run)
from nnlslab.scattering import InitialProfile, scattering_data
from nnlslab.simulator import SimGrid

CFG = {
    "schema": 1,
    "A": 0.5,
    "profile": {"preset": "gaussian_bump", "amplitude": -0.2, "width": 1.0,
                "chirp": 0.3, "center": 0.8},
    "rays": [1.2, 0.35],
    "t_list": [4.0, 8.0],
    "grid": {"L_box": 48.0, "N": 2048, "dt": 0.0025, "t_max": 8.0},
    "out_dir": "out",
    "seed": 0,
}


@pytest.fixture(scope="module")
def report():
    return run(RunConfig.from_json(json.dumps(CFG)))


class TestRunConfig:
    def test_schema_guard(self):
        bad = dict(CFG)
        bad["schema"] = 2
        with pytest.raises(ValueError):
            RunConfig.from_json(json.dumps(bad))

    def test_rays_nonempty(self):
        bad = dict(CFG)
        bad["rays"] = []
        with pytest.raises(ValueError):
            RunConfig.from_json(json.dumps(bad))

    def test_t_list_increasing(self):
        # a repeated time would give its rows twice and weigh them double
        for t_list in ([3.0, 1.0], [1.0, 1.0, 2.0], []):
            bad = dict(CFG, t_list=t_list)
            with pytest.raises(ValueError, match="strictly increasing"):
                RunConfig.from_json(json.dumps(bad))

    @pytest.mark.parametrize("t_list", [[0.0, 1.0], [-2.0, 1.0]])
    def test_t_list_positive(self, t_list):
        bad = dict(CFG)
        bad["t_list"] = t_list
        with pytest.raises(ValueError, match="positive"):
            RunConfig.from_json(json.dumps(bad))

    def test_profile_A_must_match(self):
        bad = dict(CFG, profile=dict(CFG["profile"], A=0.6))
        with pytest.raises(ValueError, match="0.6.*0.5"):
            RunConfig.from_json(json.dumps(bad))

    def test_ignored_schema1_keys(self):
        # older schema-1 files carry keys that no longer set anything; a
        # grid runs to the last of t_list, whatever t_max it gives
        cfg = RunConfig.from_json(json.dumps(
            dict(CFG, tolerances={"quad": 1e-9}, out_dir="elsewhere", seed=7,
                 grid=dict(CFG["grid"], t_max=99.0))))
        plain = {k: v for k, v in CFG.items() if k not in ("out_dir", "seed")}
        plain["grid"] = {k: v for k, v in CFG["grid"].items() if k != "t_max"}
        ref = RunConfig.from_json(json.dumps(plain))
        assert (cfg.A, cfg.rays, cfg.t_list, cfg.grid) == (
            ref.A, ref.rays, ref.t_list, ref.grid)
        assert cfg.grid.t_max == max(CFG["t_list"])
        assert np.array_equal(cfg.profile.samples, ref.profile.samples)


class TestRun:
    def test_both_regions_computed(self, report):
        regions = {r.xi: (r.region, r.skipped) for r in report.rays}
        assert regions[1.2] == ("plane_wave", False)
        assert regions[0.35] == ("elliptic_wave", False)

    def test_errors_finite(self, report):
        for r in report.rays:
            for (t, s, a) in r.rows:
                assert np.isfinite(s) and np.isfinite(a)

    def test_constants_present(self, report):
        pw = next(r for r in report.rays if r.region == "plane_wave")
        el = next(r for r in report.rays if r.region == "elliptic_wave")
        assert {"k1", "nu", "F_inf"} <= set(pw.constants)
        assert {"k0", "Omega", "omega", "G_inf", "H_inf"} <= set(el.constants)

    def test_pure_background_rays(self):
        cfg = RunConfig(
            profile=InitialProfile.pure_background(0.5, L=2.0), A=0.5,
            rays=[1.2], t_list=[2.0, 4.0],
            grid=SimGrid(L_box=40.0, N=1024, dt=0.005, t_max=4.0),
        )
        rep = run(cfg)
        assert not rep.rays[0].skipped
        for (t, s, a) in rep.rays[0].rows:
            assert abs(s - 0.5) < 1e-8
            assert abs(a - 0.5) < 1e-8

    def test_skip_safety_transition_ray(self):
        cfg = RunConfig(
            profile=InitialProfile.pure_background(0.5, L=2.0), A=0.5,
            rays=[0.0, 1.2], t_list=[2.0],
            grid=SimGrid(L_box=40.0, N=1024, dt=0.005, t_max=2.0),
        )
        rep = run(cfg)
        by_xi = {r.xi: r for r in rep.rays}
        assert by_xi[0.0].skipped
        assert not by_xi[1.2].skipped

    def test_close_rays_keep_their_own_keys(self, tmp_path, capsys):
        # every report keys a ray by a decimal that reads back as the ray
        from nnlslab.cli import main

        cfg = dict(CFG, rays=[1.2, 1.2000001], t_list=[1.0],
                   grid={"L_box": 20.0, "N": 512, "dt": 0.002, "t_max": 1.0})
        keys = ["1.2", "1.2000001"]
        rep = run(RunConfig.from_json(json.dumps(cfg)))
        assert sorted(rep.assumptions) == keys
        constants = emit_report(rep, str(tmp_path / "out"))[2]
        with open(constants) as fh:
            assert sorted(json.load(fh)) == keys
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(cfg_path)]) == 0
        assert sorted(json.loads(capsys.readouterr().out)) == keys

    def test_decay_fit_needs_two_times(self):
        # one time (t_list [10]) gives two rows at the same log t: no slope
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(_fit_decay([10.0, 10.0], [1e-3, 2e-3])).all()
            assert np.isnan(_fit_decay([10.0, 20.0], [1e-3, 0.0])).all()
        slope, r2 = _fit_decay([10.0, 20.0, 20.0], [4e-3, 2e-3, 2e-3])
        assert slope == pytest.approx(-1.0) and r2 == pytest.approx(1.0)


    def test_programming_error_propagates(self, monkeypatch):
        # only domain errors (ValueError, RuntimeError) skip a ray
        import nnlslab.harness as harness

        def broken(xi, spectral):
            raise TypeError("not a domain error")

        monkeypatch.setattr(harness, "planewave_params", broken)
        cfg = dict(CFG, rays=[1.2], t_list=[1.0],
                   grid={"L_box": 20.0, "N": 512, "dt": 0.002, "t_max": 1.0})
        with pytest.raises(TypeError, match="not a domain error"):
            run(RunConfig.from_json(json.dumps(cfg)))


class TestEmitReport:
    def test_deterministic_bytes(self, report, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        files1 = emit_report(report, str(d1))
        files2 = emit_report(report, str(d2))
        for f1, f2 in zip(files1, files2):
            h1 = hashlib.sha256(open(f1, "rb").read()).hexdigest()
            h2 = hashlib.sha256(open(f2, "rb").read()).hexdigest()
            assert h1 == h2

    def test_csv_row_count(self, report, tmp_path):
        files = emit_report(report, str(tmp_path / "c"))
        lines = open(files[0]).read().splitlines()
        nrows = sum(len(r.rows) for r in report.rays)
        assert len(lines) == 1 + nrows
        assert lines[0] == "xi,t,abs_q_sim,abs_q_asym,abs_err,rel_err"

    def test_empty_rays_header_only(self, tmp_path):
        rep = ComparisonReport(config_summary={}, assumptions={}, rays=[])
        files = emit_report(rep, str(tmp_path / "d"))
        assert open(files[0]).read() == "xi,t,abs_q_sim,abs_q_asym,abs_err,rel_err\n"

    def test_json_round_trip_stable(self, report, tmp_path):
        files = emit_report(report, str(tmp_path / "e"))
        blob1 = open(files[1]).read()
        parsed = json.loads(blob1)
        blob2 = json.dumps(parsed, sort_keys=True, indent=1, default=float) + "\n"
        assert blob1 == blob2


class TestCli:
    def test_validate_subcommand(self, tmp_path, capsys):
        from nnlslab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg = dict(CFG)
        cfg["rays"] = [1.2]
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["validate", "--config", str(cfg_path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["1.2"]["zero_count_upper"] == 0
        assert out["1.2"]["winding_ok"] is True

    def test_scatter_subcommand(self, tmp_path, capsys):
        from nnlslab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(CFG))
        rc = main(["scatter", "--config", str(cfg_path), "--k", "0.7",
                   "--k", "0", "--k", "-1.5"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        # k = 0 is dropped: one object per remaining k
        assert [d["k"] for d in out] == [0.7, -1.5]
        profile = InitialProfile.from_json(dict(CFG["profile"], A=CFG["A"]))
        want = scattering_data(profile, np.array([0.7, -1.5]))
        for j, d in enumerate(out):
            assert set(d) == {"k", "a1", "a2", "b1", "b2"}
            for name, vals in zip(("a1", "a2", "b1", "b2"), want):
                assert complex(d[name]["re"], d[name]["im"]) == vals[j]

    def test_compare_subcommand(self, tmp_path, capsys):
        from nnlslab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(CFG))
        names = ("comparison.csv", "report.json", "constants.json")
        digests = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            assert main(["compare", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            printed = json.loads(capsys.readouterr().out)
            assert printed == {"files": [str(out / n) for n in names],
                               "skipped_rays": []}
            digests.append([hashlib.sha256((out / n).read_bytes()).hexdigest()
                            for n in names])
        assert digests[0] == digests[1]

    def test_planewave_subcommand(self, tmp_path, capsys):
        from nnlslab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(CFG))
        rc = main(["planewave", "--config", str(cfg_path), "--ray", "1.2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "F_inf" in out["1.2"]

    @pytest.mark.parametrize("command, xi", [("planewave", 1.2),
                                             ("elliptic", 0.35)])
    def test_constants_match_run(self, report, tmp_path, capsys, command, xi):
        from nnlslab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(CFG))
        assert main([command, "--config", str(cfg_path), "--ray", str(xi)]) == 0
        printed = json.loads(capsys.readouterr().out)[f"{xi:g}"]
        ray = next(r for r in report.rays if r.xi == xi)
        assert printed == json.loads(json.dumps(ray.constants))

    @pytest.mark.parametrize("command, xi", [("planewave", "1.2"),
                                             ("elliptic", "0.35")])
    def test_config_rays_of_own_region(self, tmp_path, capsys, command, xi):
        # CFG mixes both regions: without --ray each command takes its own
        from nnlslab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(CFG))
        assert main([command, "--config", str(cfg_path)]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {xi}

    def test_negative_ray_folds_to_abs(self, tmp_path, capsys):
        from nnlslab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(CFG))
        printed = {}
        for xi in ("1.2", "-1.2"):
            assert main(["planewave", "--config", str(cfg_path),
                         "--ray=" + xi]) == 0
            printed.update(json.loads(capsys.readouterr().out))
        assert printed["-1.2"] == printed["1.2"]

    def test_simulate_tmax_overrides_grid(self, tmp_path, capsys):
        from nnlslab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(CFG))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--tmax", "2"]) == 0
        with open(out / "trajectory.csv", "rb") as fh:
            fh.seek(-200, 2)
            last = fh.read().decode().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(2.0)

    @pytest.mark.parametrize("tmax", ["0", "-1"])
    def test_simulate_nonpositive_tmax_is_an_error(self, tmp_path, tmax):
        from nnlslab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(CFG))
        out = tmp_path / "sim"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg_path), "--out", str(out),
                  "--tmax=" + tmax])
        assert "t_max must be positive" in exc.value.code
        assert not out.exists()

    @pytest.mark.parametrize("command, change, flags", [
        ("simulate", {"t_list": [10.0, float("inf")]}, []),
        ("simulate", {}, ["--tmax", "inf"]),
        ("validate", {"rays": [1.2, float("nan")]}, []),
        ("scatter", {"profile": dict(CFG["profile"], width=0.0)}, []),
        ("scatter", {"profile": dict(CFG["profile"], dx=0.0)}, []),
        ("scatter", {"profile": dict(CFG["profile"], center=float("inf"))},
         []),
        ("scatter", {"profile": {"preset": "box", "amplitude": 0.3,
                                 "width": 0.0}}, []),
        ("scatter", {"profile": {"L": 1.0, "dx": 0.0,
                                 "samples": [[0.5, 0.0]] * 3}}, []),
    ])
    def test_bad_size_is_an_error(self, tmp_path, command, change, flags):
        # non-finite or non-positive sizes stop at the config, as a one-line
        # error with exit status 1 rather than a traceback from deep inside
        from nnlslab.cli import main

        cfg = {k: v for k, v in CFG.items() if k != "grid"}
        cfg.update(change)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = ["--out", str(tmp_path / "sim")] if command == "simulate" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_path), *out, *flags])
        msg = exc.value.code
        assert isinstance(msg, str) and "\n" not in msg
        assert msg.startswith(f"nnlslab {command}: error: ")

    @pytest.mark.parametrize("command, change, flags, expect", [
        ("validate", {"A": 0}, [], "A must be positive"),
        ("planewave", {"A": -0.5}, ["--ray", "1.2"], "A must be positive"),
        ("validate", {}, ["--ray", "nan"], "--ray must be finite"),
        ("scatter", {}, ["--k", "nan"], "--k must be finite"),
        ("planewave", {}, ["--ray", "inf"], "--ray must be finite"),
    ])
    def test_bad_amplitude_or_point_is_an_error(self, tmp_path, command,
                                                change, flags, expect):
        # a background amplitude A <= 0, or a non-finite --ray or --k, is
        # a one-line error with exit status 1, not a result or a traceback
        from nnlslab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(CFG, **change)))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_path), *flags])
        msg = exc.value.code
        assert isinstance(msg, str) and "\n" not in msg
        assert msg.startswith(f"nnlslab {command}: error: {expect}")

    @pytest.mark.parametrize("command, xi, region", [
        ("planewave", "0.35", "elliptic_wave"),
        ("elliptic", "1.2", "plane_wave")])
    def test_ray_of_other_region_is_an_error(self, tmp_path, command, xi,
                                             region):
        from nnlslab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(CFG))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_path), "--ray", xi])
        # a string code is printed on stderr and exits with status 1
        msg = exc.value.code
        assert isinstance(msg, str) and "\n" not in msg
        assert f"ray {xi} is in the {region} region" in msg

    @pytest.mark.parametrize("command", ["compare", "simulate"])
    def test_blow_up_is_an_error(self, tmp_path, command):
        # this bump steepens near x = 6-7 until its grid no longer resolves
        # it, at t = 7.13 (compare) or 7.20 (simulate), before t_list ends
        # (it overflows at t = 7.8)
        from nnlslab.cli import main

        cfg = dict(CFG, rays=[0.35], profile=dict(CFG["profile"], chirp=0.0,
                                                  center=2.0),
                   grid={"L_box": 32.0, "N": 512, "dt": 0.004, "t_max": 8.0})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_path), "--out", str(out)])
        msg = exc.value.code
        assert isinstance(msg, str) and "\n" not in msg
        assert msg.startswith(f"nnlslab {command}: error: field non-finite")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "simulate"])
    def test_box_profile_is_an_error(self, tmp_path, command):
        # the box preset's jump stays unresolved down to its sample spacing,
        # where SimGrid.for_run stops refining (N = 65536 here)
        from nnlslab.cli import main

        cfg = {key: val for key, val in CFG.items() if key != "grid"}
        cfg["profile"] = {"preset": "box", "amplitude": -0.1, "width": 1.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_path), "--out", str(out)])
        msg = exc.value.code
        assert isinstance(msg, str) and "\n" not in msg
        assert msg.startswith(f"nnlslab {command}: error: the grid does not "
                              "resolve the initial field (top-decile")
        assert "N=65536" in msg
        assert not out.exists()
