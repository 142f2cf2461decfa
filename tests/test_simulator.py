import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import nnlslab.simulator as sim
from nnlslab.harness import RunConfig, run
from nnlslab.scattering import InitialProfile
from nnlslab.simulator import (BlowUpError, FieldTrajectory, SimGrid,
                               mi_time_cap, nonlinear_substep, read_snapshots,
                               reference_ifrk4, sample_ray, simulate,
                               trajectory_to_csv, write_snapshots)

#: A = 0.5 bump that steepens near x = 6-7: by t = 7.5, max |q| >= 13 and a
#: top-decile spectral share >= 1e-3 on (L_box, N) = (152, 4096), (304, 8192)
#: and (304, 4096); without the resolution guard it overflows at t = 7.55,
#: 7.55 and 7.91 there (dt 0.0033, 0.0033, 0.01)
BLOWUP = dict(A=0.5, amplitude=-0.2, width=1.0, chirp=0.0, center=2.0)


def _bandlimited_eval(field, L_box, xs):
    """Trigonometric interpolation of one periodic snapshot at points xs:
    the direct sum over all N modes, the oracle for sample_ray."""
    N = field.size
    coef = np.fft.fft(field) / N
    kappa = 2.0 * np.pi * np.fft.fftfreq(N, d=2.0 * L_box / N)
    xs = np.atleast_1d(xs)
    phases = np.exp(1j * np.outer(xs + L_box, kappa))
    return phases @ coef


@pytest.fixture(scope="module")
def small_traj(verif_profile):
    grid = SimGrid(L_box=32.0, N=1024, dt=0.002, t_max=2.0)
    return simulate(verif_profile, grid, 0.25 * np.arange(1, 9))


class TestSimGrid:
    def test_power_of_two(self):
        with pytest.raises(ValueError):
            SimGrid(L_box=10.0, N=300, dt=0.01, t_max=1.0)

    def test_step_bound(self):
        with pytest.raises(ValueError):
            SimGrid(L_box=10.0, N=4096, dt=0.1, t_max=1.0)

    def test_for_run_covers_rays(self, verif_profile):
        # a box twice the ray span plus margin, dx <= 1/(12 A) for any A
        for prof in (verif_profile, InitialProfile.pure_background(1.0, L=2.0)):
            grid = SimGrid.for_run(prof, 1.2, 10.0)
            assert grid.L_box >= 2 * (4 * 1.2 * 10.0 + 8.0)
            assert grid.dx <= 1.0 / (12.0 * prof.A)
            assert grid.N >= 256

    def test_for_run_refines_narrow_profile(self):
        # width 0.19 is unresolved at dx = 1/(12 A) (share 2.4e-7), so the
        # grid halves dx and the run starts resolved
        prof = InitialProfile.gaussian_bump(0.5, -0.2, 0.19, chirp=0.3,
                                            center=0.8)
        grid = SimGrid.for_run(prof, 1.2, 30.0)
        assert (grid.L_box, grid.N) == (304.0, 8192)
        assert sim._tail_share(np.fft.fft(prof.q0(grid.x))) < 1e-20
        simulate(prof, replace(grid, t_max=0.5), [0.5])

    def test_for_run_stops_refining_at_profile_samples(self):
        # the box preset is unresolved at every dx down to its own sample
        # spacing (width / 200), where the refinement stops
        prof = InitialProfile.box(0.5, -0.1, 1.0)
        grid = SimGrid.for_run(prof, 1.2, 30.0)
        assert grid.dx <= prof.dx < 2.0 * grid.dx

    def test_for_run_resolves_readme_run(self, verif_profile):
        # the README grid, run to the noise cap, stays far below the guard
        grid = SimGrid.for_run(verif_profile, 1.2, 30.0)
        assert (grid.L_box, grid.N, grid.dt) == (304.0, 4096, 0.01)
        cap = mi_time_cap(verif_profile.A)
        traj = simulate(verif_profile, replace(grid, t_max=2 * cap),
                        [30.0, 2 * cap])
        assert list(traj.ts) == [0.0, 30.0, cap]
        assert sim._tail_share(np.fft.fft(traj.fields[1])) < 1e-14


class TestSimulate:
    def test_pure_background_exact(self):
        prof = InitialProfile.pure_background(1.0, L=2.0)
        grid = SimGrid(L_box=20.0, N=512, dt=0.002, t_max=5.0)
        traj = simulate(prof, grid)
        ref = np.exp(2j * traj.ts[-1])
        assert np.abs(traj.fields[-1] - ref).max() < 1e-10

    def test_nonlinear_substep_invariant(self, rng):
        p = 0.5 + 0.1 * (rng.normal(size=512) + 1j * rng.normal(size=512))
        mirror = (-np.arange(512)) % 512
        m0 = p * np.conj(p[mirror])
        p2 = nonlinear_substep(p, 0.05, 0.5)
        m1 = p2 * np.conj(p2[mirror])
        assert np.abs(m1 - m0).max() < 1e-13

    def test_nonlinear_substep_bits(self, rng):
        # the in-place substep keeps the operand order of the plain formula
        for N, dt, A in ((512, 0.0019, 0.5), (1024, 0.004, 1.0)):
            p = A + 0.3 * (rng.normal(size=N) + 1j * rng.normal(size=N))
            mirror = (-np.arange(N)) % N
            want = p * np.exp(2j * dt * (p * np.conj(p[mirror]) - A * A))
            got = nonlinear_substep(p, dt, A, mirror)
            assert got.tobytes() == want.tobytes()
            assert nonlinear_substep(p, dt, A).tobytes() == want.tobytes()

    def test_substep_matches_high_accuracy_ode(self, rng):
        # cross-check the exact pointwise substep against explicit RK4 of
        # the substep ODE p_t = 2i p (p conj(p(-x)) - A^2)
        N, A, dt = 64, 0.5, 0.08
        p0 = A + 0.2 * (rng.normal(size=N) + 1j * rng.normal(size=N))
        mirror = (-np.arange(N)) % N

        def rhs(p):
            return 2j * p * (p * np.conj(p[mirror]) - A * A)

        p = p0.copy()
        n = 4000
        h = dt / n
        for _ in range(n):
            k1 = rhs(p)
            k2 = rhs(p + h / 2 * k1)
            k3 = rhs(p + h / 2 * k2)
            k4 = rhs(p + h * k3)
            p = p + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        exact = nonlinear_substep(p0, dt, A)
        assert np.abs(p - exact).max() < 1e-11

    def test_steps_never_exceed_grid_dt(self, verif_profile, monkeypatch):
        # the default cadence is 6.25 grid steps per snapshot here: rounding
        # to 6 substeps would step at 0.002083 > dt
        import nnlslab.simulator as sim

        steps = []

        def recorder(p, dt, A, mirror=None):
            steps.append(dt)
            return nonlinear_substep(p, dt, A, mirror)

        monkeypatch.setattr(sim, "nonlinear_substep", recorder)
        grid = SimGrid(L_box=20.0, N=512, dt=0.002, t_max=5.0)
        simulate(verif_profile, grid)
        assert steps and max(steps) <= grid.dt

    def test_strang_order(self, verif_profile):
        def final(dt):
            g = SimGrid(L_box=32.0, N=1024, dt=dt, t_max=1.0)
            return simulate(verif_profile, g, [1.0]).fields[-1]

        ref = final(0.000375)
        e1 = np.abs(final(0.003) - ref).max()
        e2 = np.abs(final(0.0015) - ref).max()
        assert 3.7 < e1 / e2 < 4.3

    def test_gauge_consistency(self, verif_profile):
        grid = SimGrid(L_box=32.0, N=1024, dt=0.001, t_max=1.0)
        q_ref = reference_ifrk4(verif_profile, grid, 1.0, 0.0002)
        traj = simulate(verif_profile, grid, [1.0])
        assert np.abs(traj.fields[-1] - q_ref).max() < 1e-6

    def test_fused_matches_unfused_steps(self, verif_profile):
        # two FFT pairs per Strang step, half-steps not fused
        grid = SimGrid(L_box=32.0, N=1024, dt=0.002, t_max=1.0)
        traj = simulate(verif_profile, grid, 0.25 * np.arange(1, 5))
        nsub, dt, A = 125, 0.002, verif_profile.A
        kappa = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.dx)
        half = np.exp(-1j * kappa * kappa * (dt / 2.0))
        p = verif_profile.q0(grid.x).astype(complex)
        for t, field in zip(traj.ts[1:], traj.fields[1:]):
            for _ in range(nsub):
                p = np.fft.ifft(half * np.fft.fft(p))
                p = nonlinear_substep(p, dt, A)
                p = np.fft.ifft(half * np.fft.fft(p))
            assert np.abs(field - p * np.exp(2j * A * A * t)).max() < 1e-12

    def test_fft_count_per_snapshot(self, verif_profile, monkeypatch):
        counts = {"fft": 0, "ifft": 0}
        for name in counts:
            def counting(a, *args, _f=getattr(scipy.fft, name), _n=name,
                         **kw):
                counts[_n] += 1
                return _f(a, *args, **kw)
            monkeypatch.setattr(scipy.fft, name, counting)
        grid = SimGrid(L_box=20.0, N=512, dt=0.002, t_max=0.5)
        traj = simulate(verif_profile, grid, 0.05 * np.arange(1, 11))
        nsnap, nsub = len(traj.ts) - 1, 25
        assert counts == {"fft": nsnap * nsub + 1, "ifft": nsnap * (nsub + 1)}

    @staticmethod
    def _blow_up_time(prof, grid):
        with pytest.raises(BlowUpError) as exc:
            simulate(prof, grid)
        msg = str(exc.value)
        share, t = re.fullmatch(
            r"field non-finite or unresolved \(top-decile spectral energy "
            r"(\S+) of the non-constant modes\) at t=([0-9.]+)",
            msg).groups()
        return float(share), float(t)

    def test_non_finite_field_raises(self, monkeypatch):
        # with no resolution bound the guard stops only on the overflow
        monkeypatch.setattr(sim, "_TAIL_BOUND", np.inf)
        prof = InitialProfile.gaussian_bump(**BLOWUP)
        grid = SimGrid(L_box=32.0, N=512, dt=0.004, t_max=8.0)
        share, t = self._blow_up_time(prof, grid)
        assert np.isnan(share) and 7.5 < t < 8.0

    def test_unresolved_field_raises(self):
        # the same run stops while the field is finite, before t = 7.5
        prof = InitialProfile.gaussian_bump(**BLOWUP)
        grid = SimGrid(L_box=32.0, N=512, dt=0.004, t_max=8.0)
        share, t = self._blow_up_time(prof, grid)
        assert sim._TAIL_BOUND <= share < 1.0 and 7.0 < t < 7.5

    def test_guard_adds_no_fft(self, verif_profile, monkeypatch):
        # one interval of 2000 steps: the guard reads the spectrum of q0,
        # then every 1/400 of the run (5 steps) and at the end, with one FFT
        # pair a step
        counts = {"fft": 0, "ifft": 0, "guard": 0}
        for mod, name, key in ((scipy.fft, "fft", "fft"),
                               (scipy.fft, "ifft", "ifft"),
                               (sim, "_tail_share", "guard")):
            def counting(a, *args, _f=getattr(mod, name), _k=key, **kw):
                counts[_k] += 1
                return _f(a, *args, **kw)
            monkeypatch.setattr(mod, name, counting)
        grid = SimGrid(L_box=20.0, N=512, dt=0.0005, t_max=1.0)
        simulate(verif_profile, grid, [1.0])
        assert counts == {"fft": 2001, "ifft": 2001, "guard": 401}

    def test_tail_share_independent_of_box(self):
        # the same narrow bump at the same dx on boxes 32, 64 and 128 wide
        prof = InitialProfile.gaussian_bump(0.5, -0.2, 0.1, chirp=0.3,
                                            center=0.8)
        shares = []
        for L, N in ((32.0, 1024), (64.0, 2048), (128.0, 4096)):
            x = SimGrid(L_box=L, N=N, dt=1e-4, t_max=1.0).x
            shares.append(sim._tail_share(np.fft.fft(prof.q0(x))))
        assert 1e-10 < min(shares)
        assert max(shares) < 1.01 * min(shares)

    def test_tail_share_of_constant_and_non_finite_fields(self):
        assert sim._tail_share(np.fft.fft(np.full(512, 0.5 + 0j))) == 0.0
        field = np.full(512, 0.5 + 0j)
        field[7] = np.inf
        with np.errstate(invalid="ignore"):
            assert np.isnan(sim._tail_share(np.fft.fft(field)))

    def test_unresolved_initial_field_raises(self):
        # the box preset's jump: a top-decile share of 2e-3 on this grid
        prof = InitialProfile.box(0.5, -0.1, 1.0)
        grid = SimGrid(L_box=20.0, N=1024, dt=0.001, t_max=1.0)
        with pytest.raises(ValueError, match=r"the grid does not resolve the "
                           r"initial field \(top-decile spectral energy "
                           r"2\.3e-03 of the non-constant modes at N=1024\)"):
            simulate(prof, grid, [1.0])

    def test_noise_guard_caps_time(self, verif_profile):
        # a box wide enough that no wrapped wave steepens before the cap
        # (on L_box 32, N 1024 one does, at t = 24.4)
        cap = mi_time_cap(verif_profile.A)
        grid = SimGrid(L_box=64.0, N=1024, dt=0.01, t_max=2 * cap)
        # the times past the cap give one snapshot at the cap
        traj = simulate(verif_profile, grid, [cap / 2, 1.5 * cap, 2 * cap])
        assert traj.capped
        assert list(traj.ts) == [0.0, cap / 2, cap]
        assert traj.noise_floor_estimate < 1e-8 * 1.01

    def test_nyquist_resolution(self, small_traj, verif_profile):
        A = verif_profile.A
        for t, field in zip(small_traj.ts, small_traj.fields):
            p = field * np.exp(-2j * A * A * t)
            spec = np.abs(np.fft.fft(p - A)) / field.size
            n = field.size
            assert spec[n // 2 - 1: n // 2 + 2].max() < 1e-12


class TestSampleRay:
    def test_zero_ray_symmetric(self, small_traj):
        rows = sample_ray(small_traj, 0.0)
        for t, qp, qm in rows:
            assert qp == qm

    def test_constant_background(self):
        prof = InitialProfile.pure_background(0.5, L=2.0)
        traj = simulate(prof, SimGrid(L_box=30.0, N=512, dt=0.005, t_max=4.0),
                        0.5 * np.arange(1, 9))
        rows = sample_ray(traj, 0.8)
        assert max(abs(abs(qp) - 0.5) for _, qp, _ in rows) < 1e-10

    def test_grid_refinement_agreement(self, verif_profile):
        g1 = SimGrid(L_box=30.0, N=1024, dt=0.001, t_max=2.0)
        g2 = SimGrid(L_box=30.0, N=2048, dt=0.001, t_max=2.0)
        r1 = sample_ray(simulate(verif_profile, g1, [0.5, 1.0, 1.5, 2.0]), 0.4)
        r2 = sample_ray(simulate(verif_profile, g2, [0.5, 1.0, 1.5, 2.0]), 0.4)
        assert max(abs(a[1] - b[1]) for a, b in zip(r1, r2)) < 1e-8

    def test_ray_exits_box(self, small_traj):
        with pytest.raises(ValueError):
            sample_ray(small_traj, 10.0)

    @staticmethod
    def _assert_matches_oracle(traj, xi):
        rows = sample_ray(traj, xi)
        assert len(rows) == len(traj.ts)
        for (t, qp, qm), t_snap, field in zip(rows, traj.ts, traj.fields):
            assert t == t_snap
            xr = 4.0 * xi * t
            want = _bandlimited_eval(field, traj.L_box, np.array([xr, -xr]))
            got = np.array([qp, qm])
            assert np.all(np.abs(got - want) <= 1e-13 * (1 + np.abs(want)))

    @pytest.mark.parametrize("xi", [0.0, 0.4, -0.4, 1.3])
    def test_matches_direct_sum_on_every_snapshot(self, small_traj, xi):
        # 9 snapshots: one full block of 8 and a block of 1
        assert len(small_traj.ts) % sim._SAMPLE_BLOCK != 0
        self._assert_matches_oracle(small_traj, xi)

    def test_sample_independent_of_block(self, small_traj):
        # starting one snapshot later shifts every block by one snapshot
        rows = sample_ray(small_traj, 0.7)
        later = replace(small_traj, ts=small_traj.ts[1:],
                        fields=small_traj.fields[1:])
        assert sample_ray(later, 0.7) == rows[1:]

    def test_zero_ray_at_t0_is_grid_value(self, small_traj):
        # x = 0 is the node N/2 of the grid
        t, qp, qm = sample_ray(small_traj, 0.0)[0]
        node = small_traj.fields[0][small_traj.x.size // 2]
        assert t == 0.0 and abs(qp - node) < 1e-14 and qp == qm

    def test_nyquist_mode(self, rng):
        # the Nyquist coefficient belongs to m = -N/2, as in np.fft.fftfreq
        N, L = 256, 10.0
        x = -L + 2.0 * L / N * np.arange(N)
        alternating = (-1.0) ** np.arange(N)
        fields = np.array([np.exp(-x * x) * (1 + 0.5j) + 0.1 * k * alternating
                           + 0.01 * rng.normal(size=N) for k in range(1, 12)])
        assert np.abs(np.fft.fft(fields[0])[N // 2]) / N > 0.09
        traj = FieldTrajectory(ts=0.1 * np.arange(11), fields=fields, x=x,
                               A=0.5, L_box=L, noise_floor_estimate=0.0)
        for xi in (0.37, -1.1):
            self._assert_matches_oracle(traj, xi)

    def test_run_skips_ray_past_noise_cap(self):
        # A = 1 caps the simulation near t = 8.8; t = 12 has no snapshot
        cfg = {"schema": 1, "A": 1.0,
               "profile": {"preset": "gaussian_bump", "amplitude": -0.05,
                           "width": 1.0, "chirp": 0.0},
               "rays": [1.5], "t_list": [2.0, 12.0],
               "grid": {"L_box": 24.0, "N": 512, "dt": 0.0025, "t_max": 12.0}}
        cap = mi_time_cap(1.0)
        assert 8.8 < cap < 8.9
        report = run(RunConfig.from_json(json.dumps(cfg)))
        ray, = report.rays
        assert ray.skipped and not ray.rows
        assert ray.reason == ("ValueError: time 12 is outside the trajectory,"
                              f" whose last snapshot is at t={cap:g}")
        assert report.config_summary["mi_time_cap"] == cap
        assert report.config_summary["capped"] is True

    def test_run_rows_at_exact_times(self):
        # t = 1 lies between two snapshots of the default spacing (1.9023 /
        # 400), where nearest-snapshot rows were 3.3e-5 to 6.7e-5 off the
        # IFRK4 field; at t = 1.9023, on that spacing, the Strang-IFRK4 gap
        # is at most 3.2e-8
        cfg = {"schema": 1, "A": 0.5,
               "profile": {"preset": "gaussian_bump", "amplitude": -0.2,
                           "width": 1.0, "chirp": 0.3, "center": 0.8},
               "rays": [1.2, 0.35], "t_list": [1.0, 1.9023],
               "grid": {"L_box": 32.0, "N": 1024, "dt": 0.002, "t_max": 1.0}}
        config = RunConfig.from_json(json.dumps(cfg))
        grid = config.sim_grid(1.9023)
        report = run(config)
        for t in config.t_list:
            n = int(np.ceil(t / 0.0005))
            q = reference_ifrk4(config.profile, grid, t, t / n)
            for ray in report.rays:
                x = 4.0 * abs(ray.xi) * t
                want = np.abs(_bandlimited_eval(q, grid.L_box, [x, -x]))
                got = [s for (t_row, s, _) in ray.rows if t_row == t]
                assert np.abs(np.array(got) - want).max() < 1e-7

    def test_run_stops_at_blow_up(self):
        # t_list reaches past the singularity: the guard, which looks at
        # least every 30 / 400 = 0.075, stops the run at t = 7.07 on the
        # for_run grid (L_box 304, N 4096, dt 0.01), before t = 7.5, by
        # which the field is unresolved on every grid tried (BLOWUP)
        cfg = {"schema": 1, "A": 0.5,
               "profile": {"preset": "gaussian_bump", **BLOWUP},
               "rays": [1.2, 0.35], "t_list": [10.0, 20.0, 30.0]}
        with pytest.raises(BlowUpError) as exc:
            run(RunConfig.from_json(json.dumps(cfg)))
        t = float(re.search(r"at t=([0-9.]+)", str(exc.value)).group(1))
        assert t < 7.5
        assert abs(t - 7.07) <= 0.075

    def test_times_check_box_exit(self, small_traj):
        # 4 * 4.5 * 2 = 36 is past the box edge at 32, 4 * 4.5 * 1 = 18 is not
        to_1 = replace(small_traj, ts=small_traj.ts[:5],
                       fields=small_traj.fields[:5])
        sample_ray(to_1, 4.5)
        with pytest.raises(ValueError, match="exits the box at t=2 "):
            sample_ray(small_traj, 4.5)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


class TestExports:
    def test_csv_header_and_rows(self, small_traj, tmp_path):
        path = tmp_path / "traj.csv"
        trajectory_to_csv(small_traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,re_q,im_q,abs_q"
        assert len(lines) == 1 + len(small_traj.ts) * small_traj.fields.shape[1]

    @staticmethod
    def _row_csv(traj, path):
        # one f-string per row: the reference for the formatting
        with open(path, "w") as fh:
            fh.write("t,x,re_q,im_q,abs_q\n")
            for t, field in zip(traj.ts, traj.fields):
                for xx, qq in zip(traj.x, field):
                    fh.write(f"{t:.12e},{xx:.12e},{qq.real:.12e},"
                             f"{qq.imag:.12e},{abs(qq):.12e}\n")

    def _assert_same_bytes(self, traj, tmp_path):
        digests = []
        for name, writer in (("rows.csv", self._row_csv),
                             ("traj.csv", trajectory_to_csv)):
            writer(traj, tmp_path / name)
            digests.append(hashlib.sha256((tmp_path / name).read_bytes())
                           .hexdigest())
        assert digests[0] == digests[1]

    def test_csv_matches_row_writer(self, small_traj, tmp_path):
        self._assert_same_bytes(small_traj, tmp_path)

    def test_csv_matches_row_writer_on_edge_values(self, tmp_path):
        h = float.fromhex
        # signed zeros, extreme exponents, and three README field values
        # where np.abs (numpy 2 on x86_64) prints |q| with a different
        # last digit than abs(complex)
        field = np.array([
            complex(-0.0, 0.0), complex(0.0, -0.0), complex(-1.5e300, 2e-310),
            complex(h("0x1.e921dd42f0a3fp-2"), h("0x1.2e9cd95baceafp-3")),
            complex(h("0x1.6e0cac453b362p-2"), h("0x1.fe27a6896ea8dp-4")),
            complex(h("0x1.769fec654b861p-2"), h("0x1.5cffc16bf4081p-2")),
        ])
        traj = FieldTrajectory(
            ts=np.array([0.0, 1e-300, 7.8]), fields=np.array([field, -field,
                                                              field * 1j]),
            x=np.array([-0.0, -3.0, 1e-7, 2.5, 1e5, 123.456]), A=0.5,
            L_box=3.0, noise_floor_estimate=0.0)
        self._assert_same_bytes(traj, tmp_path)

    @staticmethod
    def _columns_traj(vals):
        # each value as re_q (and |v| as abs_q) of snapshot 0, as im_q of
        # snapshot 1: a product like 1j * inf would make a nan
        field = np.zeros((2, len(vals)), dtype=complex)
        field[0].real = vals
        field[1].imag = vals
        return FieldTrajectory(ts=np.array([0.0, 0.5]), fields=field,
                               x=np.linspace(-1.0, 1.0, len(vals)), A=0.5,
                               L_box=1.0, noise_floor_estimate=0.0)

    def test_csv_matches_row_writer_on_format_edges(self, tmp_path):
        # a double can be an exact tie of the 13th digit only from e = 12 on
        ties = [1234567890123.5, 12345678901235.0, 12345678901225.0,
                *(0.5 * float(10**k) for k in range(16))]
        near_ties = [float(f"1.0000000000005e{k}") for k in range(-12, 13)]
        powers = [float(10**k) if k >= 0 else 1.0 / 10**-k
                  for k in range(-12, 13)]
        decades = [np.nextafter(p, to) for p in powers
                   for to in (0.0, np.inf)]
        decades += [float(f"9.9999999999995e{k}") for k in range(-12, 13)]
        decades += [9.99999999999949, 9.9999999999995, 99999999999.0]
        exponents = [float(f"{m}e{sign}{e}") for m in (1, 3.7)
                     for e in (10, 11, 99, 100, 307) for sign in "+-"]
        exponents += [1.7976931348623157e308, 2.2250738585072014e-308]
        specials = [0.0, 5e-324, 2.5e-320, 1e-310, np.inf, np.nan]
        vals = np.array([*ties, *near_ties, *powers, *decades, *exponents,
                         *specials])
        self._assert_same_bytes(self._columns_traj(np.concatenate(
            (vals, -vals))), tmp_path)

    @settings(max_examples=2000, deadline=None, derandomize=True,
              database=None)
    @given(st.binary(min_size=8, max_size=64))
    def test_csv_matches_row_writer_on_raw_bits(self, csv_dir, raw):
        # every 8 bytes as a float, and again with its biased exponent moved
        # into [989, 1059], the binades of the fast path 1e-10 <= |v| < 1e11
        bits = np.frombuffer(raw[:len(raw) // 8 * 8], dtype="<u8")
        exponent = (bits >> np.uint64(52)) & np.uint64(0x7FF)
        window = (bits & ~np.uint64(0x7FF << 52)) | (
            (np.uint64(989) + exponent % np.uint64(71)) << np.uint64(52))
        vals = np.concatenate((bits, window)).view(np.float64)
        self._assert_same_bytes(self._columns_traj(vals), csv_dir)

    @pytest.mark.parametrize("snapshots", [9, 17])
    def test_csv_matches_row_writer_across_blocks(self, tmp_path, rng,
                                                  snapshots):
        # one snapshot past one and two blocks of sim._CSV_BLOCK; every
        # snapshot on its own scale, 1e-12 to 1e12, except the first, whose
        # negative values print in 20 bytes ("-d.dddddddddddde-3dd") in
        # slots the next block fills with shorter ones
        scale = 10.0 ** rng.uniform(-12, 12, (snapshots, 1))
        scale[0] = 1e-300
        field = scale * (rng.normal(size=(snapshots, 64))
                         + 1j * rng.normal(size=(snapshots, 64)))
        traj = FieldTrajectory(ts=np.linspace(0.0, 3.0, snapshots),
                               fields=field, x=np.linspace(-4.0, 4.0, 64),
                               A=0.5, L_box=4.0, noise_floor_estimate=0.0)
        self._assert_same_bytes(traj, tmp_path)

    def test_csv_fast_path_covers_the_field(self, small_traj):
        # the bytes are Python's either way; the fast path must do the work
        # (t = 0 is left out: its im_q is mostly 0, which takes the fallback)
        f = small_traj.fields[1:]
        vals = np.stack((f.real, f.imag, np.hypot(f.real, f.imag)), axis=-1)
        slots = np.zeros(vals.shape, sim._CSV_SLOT)
        assert sim._format_e12(vals, slots) < 0.01 * vals.size

    def test_binary_round_trip(self, small_traj, tmp_path):
        path = tmp_path / "snaps.bin"
        write_snapshots(small_traj, path)
        headers, fields = read_snapshots(path)
        assert len(headers) == len(small_traj.ts)
        assert headers[0]["N"] == small_traj.fields.shape[1]
        assert headers[3]["t"] == pytest.approx(small_traj.ts[3])
        assert np.abs(fields[-1] - small_traj.fields[-1]).max() == 0.0

    def test_binary_round_trip_keeps_bits(self, tmp_path):
        # signed zeros, infinities and nan come back bit for bit
        inf, nan = np.inf, np.nan
        field = np.array([complex(1, -0.0), complex(-0.0, 3), complex(2, inf),
                          complex(-inf, -0.0), complex(nan, -inf),
                          complex(-0.0, nan), complex(5e-324, -1e308),
                          complex(-0.0, -0.0)])
        traj = FieldTrajectory(ts=np.array([0.0, 0.5]),
                               fields=np.array([field, field[::-1]]),
                               x=np.linspace(-1.0, 1.0, 8, endpoint=False),
                               A=0.5, L_box=1.0, noise_floor_estimate=0.0)
        path = tmp_path / "snaps.bin"
        write_snapshots(traj, path)
        # each field is stored as little-endian float64 re/im interleaved
        with open(path, "rb") as fh:
            for f in traj.fields:
                fh.readline()
                inter = np.stack((f.real, f.imag), axis=1).astype("<f8")
                assert fh.read(16 * f.size) == inter.tobytes()
        headers, fields = read_snapshots(path)
        assert [h["t"] for h in headers] == [0.0, 0.5]
        for got, want in zip(fields, traj.fields):
            assert got.dtype == complex and got.flags.writeable
            assert got.tobytes() == want.tobytes()
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 16)
        with pytest.raises(ValueError, match="truncated"):
            read_snapshots(path)
