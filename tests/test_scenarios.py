"""Tests for the experiment drivers and their run-directory artifacts."""

import csv
import json
import math

import numpy as np
import pytest

from semzk.config import RunConfig
from semzk.dynamics import SolitonParams, sem_on_soliton
from semzk.integrators import evolve
from semzk.norms import conserved_I1, conserved_I2
from semzk.scenarios import (
    DiagnosticsCollector,
    perturbation_field,
    run_instability,
    run_picard_demo,
    run_probe_bilinear,
    run_probe_linear,
    run_probe_nonlinear,
    run_simulation,
    run_soliton_benchmark,
    write_pgm,
)
from semzk.snapshots import read_snapshot, write_snapshot
from semzk.spectral import Grid2D, RealField

TWO_PI = 2.0 * math.pi


def sim_config(out_dir, **kw):
    base = dict(equation="zk", nx=64, ny=8, lx=40.0, ly=TWO_PI, T=0.05,
                dt=0.01, initial="soliton", omega=4.0, x0=10.0,
                diagnostic_stride=1, out_dir=str(out_dir))
    base.update(kw)
    return RunConfig(**base)


class TestRunSimulation:
    def test_run_directory_layout(self, tmp_path):
        cfg = sim_config(tmp_path / "run", snapshot_stride=2, heatmaps=True)
        run_simulation(cfg)
        out = tmp_path / "run"
        assert (out / "resolved-config.toml").is_file()
        assert (out / "diagnostics.csv").is_file()
        assert (out / "summary.json").is_file()
        snaps = sorted(p.name for p in (out / "snapshots").iterdir())
        assert snaps == ["final.snap", "initial.snap", "state_000002.snap",
                         "state_000004.snap"]
        assert (out / "heatmaps" / "initial.pgm").is_file()
        assert (out / "heatmaps" / "final.pgm").is_file()

    def test_diagnostics_content(self, tmp_path):
        cfg = sim_config(tmp_path / "run", norms=("x:inf,y:2",))
        rep = run_simulation(cfg)
        with open(tmp_path / "run" / "diagnostics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "I1", "I2", "H1", "x:inf,y:2"]
        assert len(rows) == 1 + 6  # steps 0..5 at stride 1
        u0 = rep.path.fields[0]
        assert float(rows[1][1]) == pytest.approx(conserved_I1(u0), rel=1e-12)
        assert float(rows[1][2]) == pytest.approx(conserved_I2(u0), rel=1e-12)

    def test_callback_stride_includes_final_step(self, tmp_path):
        cfg = sim_config(tmp_path / "run", T=0.1, diagnostic_stride=4)
        rep = run_simulation(cfg)
        times = [r.time for r in rep.diagnostics]
        assert len(times) == 4  # steps 0, 4, 8, 10
        assert times[-1] == pytest.approx(0.1)

    def test_deterministic_artifacts(self, tmp_path):
        cfg_a = sim_config(tmp_path / "a", ny=16, initial="random",
                           amplitude=0.1, seed=5)
        cfg_b = sim_config(tmp_path / "b", ny=16, initial="random",
                           amplitude=0.1, seed=5)
        run_simulation(cfg_a)
        run_simulation(cfg_b)
        for name in ("diagnostics.csv", "snapshots/final.snap"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_restart_reproduces_continuous_run(self, tmp_path):
        full = run_simulation(sim_config(tmp_path / "full", T=0.1))
        run_simulation(sim_config(tmp_path / "first", T=0.05))
        second = run_simulation(sim_config(
            tmp_path / "second", T=0.05, initial="snapshot",
            initial_path=str(tmp_path / "first" / "snapshots" / "final.snap")))
        assert second.summary["t_start"] == pytest.approx(0.05)
        assert second.summary["t_final"] == pytest.approx(0.1)
        # the recomputed step size differs by at most one ulp
        assert np.max(np.abs(second.final.values - full.final.values)) < 1e-12

    @pytest.mark.parametrize("equation", ["zk", "sem"])
    def test_restart_continues_the_march_to_the_bit(self, tmp_path, equation):
        # the legs' steps agree with the whole run's, and neither equation
        # reads the time, so the restart from the stored half spectrum
        # continues the uninterrupted march exactly
        kw = dict(equation=equation, ny=16, amplitude=0.1, seed=3)
        assert 0.05 / 5 == 0.1 / 10
        full = run_simulation(sim_config(tmp_path / "full", T=0.1,
                                         initial="random", **kw))
        first = run_simulation(sim_config(tmp_path / "first", T=0.05,
                                          initial="random", **kw))
        second = run_simulation(sim_config(
            tmp_path / "second", T=0.05, initial="snapshot",
            initial_path=str(tmp_path / "first" / "snapshots" / "final.snap"),
            **kw))
        assert np.array_equal(second.final.values, full.final.values)
        ends = [read_snapshot(tmp_path / run / "snapshots" / "final.snap")
                for run in ("full", "second")]
        assert [snap.version for snap in ends] == [2, 2]
        assert np.array_equal(ends[0].payload, ends[1].payload)
        assert ends[0].time == ends[1].time
        # the restart's first diagnostics row is the first leg's last one
        assert second.diagnostics[0] == first.diagnostics[-1]
        assert second.diagnostics[-1].i2 == full.diagnostics[-1].i2

    def test_moving_background_restart_marches_from_the_stored_time(self, tmp_path):
        # the restart leg is evolve from the snapshot's time with the
        # configured crest: no shifted frame, every recorded time absolute
        kw = dict(equation="sem_on_soliton", perturbation_amplitude=1e-4,
                  snapshot_stride=2)
        run_simulation(sim_config(tmp_path / "first", **kw))
        snap = read_snapshot(tmp_path / "first" / "snapshots" / "final.snap")
        second = run_simulation(sim_config(
            tmp_path / "second", initial="snapshot",
            initial_path=str(tmp_path / "first" / "snapshots" / "final.snap"), **kw))
        eq = sem_on_soliton(SolitonParams(omega=4.0, x0=10.0))
        marched = evolve(snap.field(), eq, 0.05, 0.01, t0=snap.time)
        assert np.array_equal(second.final.values, marched.fields[-1].values)
        assert second.summary["t_start"] == snap.time
        assert second.summary["t_final"] == marched.times[-1]
        assert [r.time for r in second.diagnostics] == [
            snap.time + step * 0.01 for step in range(6)]
        interior = read_snapshot(tmp_path / "second" / "snapshots" / "state_000002.snap")
        assert interior.time == snap.time + 2 * 0.01

    def test_snapshot_restart_validates_grid(self, tmp_path):
        other = Grid2D(32, 8, 40.0, TWO_PI)
        rng = np.random.default_rng(0)
        write_snapshot(tmp_path / "s.snap",
                       RealField(other, rng.normal(size=(32, 8))),
                       time=0.0, equation="zk")
        cfg = sim_config(tmp_path / "run", initial="snapshot",
                         initial_path=str(tmp_path / "s.snap"))
        with pytest.raises(ValueError, match="grid"):
            run_simulation(cfg)

    def test_snapshot_restart_validates_equation(self, tmp_path):
        grid = Grid2D(64, 8, 40.0, TWO_PI)
        write_snapshot(tmp_path / "s.snap",
                       RealField(grid, np.zeros((64, 8))),
                       time=0.0, equation="sem")
        cfg = sim_config(tmp_path / "run", initial="snapshot",
                         initial_path=str(tmp_path / "s.snap"))
        with pytest.raises(ValueError, match="equation"):
            run_simulation(cfg)


class TestDiagnosticsCollector:
    def test_rejects_time_axis_descriptors(self):
        grid = Grid2D(16, 8, 1.0, 1.0)
        with pytest.raises(ValueError, match="time axis"):
            DiagnosticsCollector(grid, norm_labels=("x:inf,y:2,T:2",))


class TestSolitonBenchmark:
    def test_zero_horizon_is_exact(self, tmp_path):
        cfg = sim_config(tmp_path / "run", T=0.0)
        rep = run_soliton_benchmark(cfg)
        assert rep.shape_error == pytest.approx(0.0, abs=1e-14)
        assert rep.crest_error_cells == pytest.approx(0.0, abs=1e-9)

    def test_short_propagation_both_equations(self, tmp_path):
        for eqn in ("zk", "sem"):
            cfg = sim_config(tmp_path / eqn, equation=eqn, nx=256, T=0.2,
                             dt=0.002)
            rep = run_soliton_benchmark(cfg)
            assert rep.shape_error < 1e-5
            assert rep.crest_error_cells < 0.5
            assert rep.i2_drift < 1e-7

    def test_rejects_perturbation_equation(self, tmp_path):
        cfg = sim_config(tmp_path / "run", equation="sem_on_soliton")
        with pytest.raises(ValueError, match="zk or sem"):
            run_soliton_benchmark(cfg)


class TestPerturbationField:
    def test_sinusoidal_peak_and_modulation(self):
        grid = Grid2D(64, 16, 40.0, TWO_PI)
        cfg = sim_config("unused", nx=64, ny=16, perturbation_amplitude=0.01,
                         perturbation_wavenumber=1)
        v = perturbation_field(grid, cfg)
        ix = int(np.argmin(np.abs(grid.x - 10.0)))
        assert v.values[ix, 0] == pytest.approx(0.01, rel=1e-10)
        column = v.values[ix, :]
        assert column == pytest.approx(0.01 * np.cos(grid.y), rel=1e-10)

    def test_gaussian_peak_mid_channel(self):
        grid = Grid2D(64, 16, 40.0, TWO_PI)
        cfg = sim_config("unused", nx=64, ny=16,
                         perturbation_shape="localized-gaussian",
                         perturbation_amplitude=0.5)
        v = perturbation_field(grid, cfg)
        iy = int(np.argmin(np.abs(grid.y - math.pi)))
        ix = int(np.argmin(np.abs(grid.x - 10.0)))
        assert v.values.max() == pytest.approx(0.5, rel=1e-6)
        assert v.values[ix, iy] == v.values.max()


class TestInstability:
    def test_zero_perturbation_flags(self, tmp_path):
        cfg = sim_config(tmp_path / "run", equation="sem_on_soliton",
                         perturbation_amplitude=0.0, T=0.02, dt=0.01)
        rep = run_instability(cfg)
        assert rep.sigma == 0.0
        assert any("zero perturbation" in f for f in rep.flags)

    def test_short_run_reports_unreached_window(self, tmp_path):
        cfg = sim_config(tmp_path / "run", equation="sem_on_soliton",
                         perturbation_amplitude=1e-4, T=0.1, dt=0.01)
        rep = run_instability(cfg)
        assert rep.sigma is None
        assert any("extend T" in f for f in rep.flags)
        assert (tmp_path / "run" / "growth.csv").is_file()
        with open(tmp_path / "run" / "growth.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "norm"]
        assert len(rows) > 2
        # the growth norms are the diagnostics' I2, one row per record
        with open(tmp_path / "run" / "diagnostics.csv", newline="") as fh:
            diag = list(csv.DictReader(fh))
        assert rep.times.tolist() == [float(r["time"]) for r in diag]
        assert rep.norms.tolist() == [math.sqrt(float(r["I2"])) for r in diag]

    def test_saturated_run_flags_nonlinear_regime(self, tmp_path):
        cfg = sim_config(tmp_path / "run", equation="sem_on_soliton",
                         perturbation_amplitude=10.0, T=0.02, dt=0.001)
        rep = run_instability(cfg)
        assert any("left linear regime" in f for f in rep.flags)

    def test_resumes_from_own_resolved_config(self, tmp_path):
        # The config leaves the equation at its default ("zk"); the run
        # marches sem_on_soliton and must record that in its resolved config.
        kw = dict(perturbation_amplitude=1e-2, dt=0.01, diagnostic_stride=10)
        run_instability(sim_config(tmp_path / "first", T=1.0, **kw))
        run_instability(sim_config(tmp_path / "full", T=2.0, **kw))
        first = tmp_path / "first"
        cfg = RunConfig.from_file(first / "resolved-config.toml").replace(
            T=1.0, initial="snapshot", out_dir=str(tmp_path / "second"),
            initial_path=str(first / "snapshots" / "final.snap"))
        second = run_simulation(cfg)
        assert second.summary["equation"] == "sem_on_soliton"
        assert second.summary["t_final"] == pytest.approx(2.0)
        resumed = second.final.values
        continuous = read_snapshot(
            tmp_path / "full" / "snapshots" / "final.snap").field().values
        assert np.max(np.abs(resumed - continuous)) < 1e-12

    def test_spoiled_step_is_flagged(self, tmp_path):
        # dt = 0.1 is too long for nx = 256: the march exits normally, but
        # its growth rate reads about 0.036, 3.4x the converged 0.0106 of
        # criterion 12, which marches at dt = 0.05.  The background
        # invariant J = 2 <Phi, u> + ||u||^2, which the exact flow keeps,
        # drifts by far more than ||u||^2 inside the fit window.
        cfg = RunConfig(equation="sem_on_soliton", nx=256, ny=16, lx=80.0, ly=36.0,
                        T=180.0, dt=0.1, perturbation_amplitude=1e-4,
                        out_dir=str(tmp_path / "run"))
        rep = run_instability(cfg)
        assert rep.sigma == pytest.approx(0.035648, abs=1e-6)
        flagged = [f for f in rep.flags if f.startswith("background invariant defect")]
        assert len(flagged) == 1 and "inside the fit window" in flagged[0]
        payload = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert payload["background_defect"] > 0.05
        assert payload["flags"] == rep.flags

    def test_background_defect_is_recorded(self, tmp_path):
        # a short run far from the window records its defect and time, and
        # a zero perturbation, whose defect has no scale, records none
        cfg = sim_config(tmp_path / "run", equation="sem_on_soliton",
                         perturbation_amplitude=1e-4, T=0.1, dt=0.01)
        payload = run_instability(cfg).summary
        assert 0.0 <= payload["background_defect"] < 0.05
        assert 0.0 <= payload["background_defect_time"] <= 0.1
        cfg = cfg.replace(perturbation_amplitude=0.0, out_dir=str(tmp_path / "zero"))
        payload = run_instability(cfg).summary
        assert payload["background_defect"] is None and payload["background_defect_time"] is None

    def test_summary_records_wavenumber(self, tmp_path):
        cfg = sim_config(tmp_path / "run", equation="sem_on_soliton",
                         perturbation_amplitude=1e-4, T=0.02, dt=0.01,
                         perturbation_wavenumber=3)
        rep = run_instability(cfg)
        assert rep.k_y == pytest.approx(3.0)
        payload = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert payload["k_y"] == pytest.approx(3.0)


class TestPicardDemo:
    def test_zero_data_converges_immediately(self, tmp_path):
        cfg = sim_config(tmp_path / "run", nx=32, ny=16, lx=TWO_PI,
                         amplitude=0.0, T=0.05, picard_nodes=9)
        rep = run_picard_demo(cfg)
        assert rep.report.converged
        assert rep.report.distances[0] == pytest.approx(0.0, abs=1e-14)
        with open(tmp_path / "run" / "iterations.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "distance", "ratio"]

    def test_small_data_contracts(self, tmp_path):
        cfg = sim_config(tmp_path / "run", nx=32, ny=16, lx=TWO_PI,
                         amplitude=0.01, T=0.05, picard_nodes=17, seed=3,
                         heatmaps=True)
        rep = run_picard_demo(cfg)
        assert rep.report.converged
        assert all(r < 1.0 for r in rep.report.ratios)
        for name in ("initial.pgm", "final.pgm"):
            assert (tmp_path / "run" / "heatmaps" / name).is_file()

    def test_find_window_extends_horizon(self, tmp_path):
        cfg = sim_config(tmp_path / "run", nx=32, ny=16, lx=TWO_PI,
                         amplitude=0.01, T=0.05, picard_nodes=9)
        rep = run_picard_demo(cfg, find_window=True)
        assert rep.existence_window is not None
        assert rep.existence_window >= 0.05
        # the keyword sets the config key, so the run records the search
        assert rep.summary["config"]["picard_find_window"] is True
        keyed = run_picard_demo(cfg.replace(out_dir=str(tmp_path / "key"),
                                            picard_find_window=True))
        assert keyed.existence_window == rep.existence_window

    def test_diagnostics_read_the_held_spectra(self, tmp_path, monkeypatch):
        # the collector reads each node's half spectrum: no forward transform
        calls, inside = [], []
        rfftn = np.fft.rfftn
        monkeypatch.setattr(np.fft, "rfftn",
                            lambda *args, **kw: calls.append(1) or rfftn(*args, **kw))
        collect = DiagnosticsCollector.__call__

        def counted(self, *args):
            before = len(calls)
            collect(self, *args)
            inside.append(len(calls) - before)

        monkeypatch.setattr(DiagnosticsCollector, "__call__", counted)
        cfg = sim_config(tmp_path / "run", nx=32, ny=16, lx=TWO_PI,
                         amplitude=0.01, T=0.05, picard_nodes=9)
        rep = run_picard_demo(cfg)
        assert calls and inside == [0] * 9
        # so the final snapshot holds the half spectrum too
        snap = read_snapshot(tmp_path / "run" / "snapshots" / "final.snap")
        assert snap.version == 2
        assert np.array_equal(snap.values, rep.path.fields[-1].values)

    def test_window_search_reports_its_cap(self, tmp_path):
        # Small data contract at every horizon the search tries, so it ends
        # at its cap of 12 doublings and says so; at amplitude 1 contraction
        # is lost first.  Without a search the flag is None.
        kw = dict(nx=32, ny=16, lx=TWO_PI, T=0.05, picard_nodes=9)
        capped = run_picard_demo(sim_config(
            tmp_path / "capped", amplitude=0.01, picard_find_window=True, **kw))
        assert capped.existence_window == 0.05 * 2**12
        assert capped.summary["window_search_capped"] is True
        payload = json.loads((tmp_path / "capped" / "summary.json").read_text())
        assert payload["window_search_capped"] is True
        lost = run_picard_demo(sim_config(
            tmp_path / "lost", amplitude=1.0, picard_find_window=True, **kw))
        assert 0.05 <= lost.existence_window < 0.05 * 2**12
        assert lost.summary["window_search_capped"] is False
        plain = run_picard_demo(sim_config(tmp_path / "plain", amplitude=0.01, **kw))
        assert plain.summary["existence_window"] is None
        assert plain.summary["window_search_capped"] is None


class TestProbeDrivers:
    def test_linear_probe_writes_stability(self, tmp_path):
        cfg = RunConfig(equation="linear", nx=16, ny=16, lx=TWO_PI, ly=TWO_PI,
                        probe_nodes=9, out_dir=str(tmp_path / "p"))
        summary = run_probe_linear(cfg)
        assert set(summary["coarse"]) == {"strichartz", "kato_smoothing",
                                          "maximal"}
        assert 0.0 <= summary["max_stability"] < 0.5
        with open(tmp_path / "p" / "trials.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 6  # three constants at two resolutions

    def test_bilinear_probe_trials_finite(self, tmp_path):
        cfg = RunConfig(equation="linear", nx=32, ny=32, lx=TWO_PI, ly=TWO_PI,
                        t_box=TWO_PI, nt=64, probe_seeds=1,
                        out_dir=str(tmp_path / "p"))
        rep = run_probe_bilinear(cfg)
        assert len(rep.trials) == 96  # 16 shell pairs x 6 level pairs
        assert all(np.isfinite(t.ratio) for t in rep.trials)
        payload = json.loads((tmp_path / "p" / "summary.json").read_text())
        assert payload["n_trials"] == 96

    def test_nonlinear_probe_constants_positive(self, tmp_path):
        cfg = RunConfig(equation="linear", nx=16, ny=16, lx=TWO_PI, ly=TWO_PI,
                        t_box=TWO_PI, nt=32, probe_trials=2,
                        out_dir=str(tmp_path / "p"))
        summary = run_probe_nonlinear(cfg)
        assert summary["max_constant"] > 0.0
        assert np.isfinite(summary["max_l4_ratio"])


class TestPgmWriter:
    def test_header_and_size(self, tmp_path):
        values = np.linspace(0.0, 1.0, 12).reshape(4, 3)
        write_pgm(tmp_path / "img.pgm", values)
        raw = (tmp_path / "img.pgm").read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        assert len(raw) == len(b"P5\n4 3\n255\n") + 12

    def test_constant_field(self, tmp_path):
        write_pgm(tmp_path / "img.pgm", np.full((4, 4), 7.0))
        raw = (tmp_path / "img.pgm").read_bytes()
        assert raw.endswith(b"\x00" * 16)
