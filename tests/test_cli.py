"""Smoke tests for the command-line interface and its exit codes."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import semzk
from semzk.cli import main
from semzk.snapshots import read_snapshot, write_snapshot
from semzk.spectral import Grid2D, RealField


class TestInfoAndUsage:
    def test_info_exits_zero(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "semzk" in out
        assert "equations:" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "semzk" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_after_overrides_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "nx=16", "--out", str(out), "ny=16",
                  "--frobnicate"])
        assert exc.value.code == 2
        assert "--frobnicate" in capsys.readouterr().err
        assert not out.exists()

    def test_overrides_on_both_sides_of_an_option(self, tmp_path, capsys):
        for name, argv in [
                ("before", ["nx=16", "ny=16", "T=0.01", "dt=0.01", "--out"]),
                ("mixed", ["nx=16", "--out", "ny=16", "T=0.01", "dt=0.01"])]:
            out = tmp_path / name
            at = argv.index("--out") + 1
            assert main(["simulate", *argv[:at], str(out), *argv[at:]]) == 0
            resolved = (out / "resolved-config.toml").read_text()
            assert "nx = 16\nny = 16\nlx = 80.0\nly" in resolved
            assert "T = 0.01\ndt = 0.01\n" in resolved

    def test_integer_beyond_float_range_exits_two(self, tmp_path, capsys):
        out = tmp_path / "huge"
        assert main(["simulate", "T=" + "9" * 400, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "T must be nonnegative and finite" in err
        assert len(err) < 100  # the value abridged, not 400 digits
        assert not out.exists()

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "initial=random", "seed=-1", "--out", str(out)]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_two(self, capsys):
        assert main(["simulate", "--config", "/no/such/file.toml"]) == 2
        err = capsys.readouterr().err
        assert "/no/such/file.toml" in err

    def test_unknown_key_exits_two(self, capsys):
        assert main(["simulate", "bogus_key=1"]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_invalid_value_exits_two(self, tmp_path, monkeypatch, capsys):
        for value in ("nx=63", "T=nan", "dt=inf", "norms=3", "norms=bogus",
                      "norms=x:inf,y:2,T:2", 'out_dir=""', "out_dir="):
            out = tmp_path / value
            assert main(["simulate", "--out", str(out), value]) == 2, value
            assert not out.exists(), value
        # an empty directory name would write the run into the current one
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert main(["simulate", "--out", ""]) == 2
        assert "out_dir must not be empty" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_out_used_as_given(self, tmp_path, monkeypatch, capsys):
        # a quote and a trailing blank are part of the directory name
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out", '"q" ', "out_dir=other", "nx=16",
                     "ny=16", "T=0.01", "dt=0.01"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ['"q" ']
        assert (tmp_path / '"q" ' / "summary.json").is_file()


class TestRuntimeFailures:
    def test_bad_snapshot_restart_exits_one(self, tmp_path, capsys):
        grid = Grid2D(16, 8, 40.0, 6.283185307179586)
        write_snapshot(tmp_path / "s.snap",
                       RealField(grid, np.zeros((16, 8))),
                       time=0.0, equation="zk")
        code = main(["simulate", "--out", str(tmp_path / "run"),
                     "initial=snapshot", f"initial_path={tmp_path}/s.snap",
                     "nx=64", "ny=8", "lx=40.0", "omega=4.0", "x0=10.0",
                     "T=0.02", "dt=0.01"])
        assert code == 1
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "instability", "soliton-bench",
                                         "picard"])
    def test_soliton_box_too_short_writes_nothing(self, command, tmp_path, capsys):
        # the sech^2 profile has not decayed at the seam of a 10-long box
        # (ny = 16 leaves room for Picard's random data)
        out = tmp_path / command
        equation = "sem" if command == "soliton-bench" else "sem_on_soliton"
        code = main([command, "--out", str(out), f"equation={equation}", "nx=64",
                     "ny=16", "lx=10", "omega=1", "T=0.01", "dt=0.01",
                     "picard_nodes=3"])
        assert code == 1
        assert "domain too small for soliton" in capsys.readouterr().err
        assert not out.exists()


class TestEndToEnd:
    def test_soliton_bench_writes_summary(self, tmp_path, capsys):
        code = main(["soliton-bench", "omega=4", "T=0.05",
                     "--out", str(tmp_path / "bench"),
                     "nx=256", "ny=8", "lx=40.0", "x0=10.0", "dt=0.005"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shape error" in out
        payload = json.loads((tmp_path / "bench" / "summary.json").read_text())
        assert payload["shape_error"] < 1e-4
        assert payload["config"]["omega"] == 4.0

    def test_config_file_round_trip(self, tmp_path, capsys):
        (tmp_path / "run.toml").write_text(
            'equation = "zk"\nnx = 64\nny = 8\nlx = 40.0\n'
            "omega = 4.0\nx0 = 10.0\nT = 0.02\ndt = 0.01\n")
        code = main(["simulate", "--config", str(tmp_path / "run.toml"),
                     "--out", str(tmp_path / "run"), "T=0.01"])
        assert code == 0
        resolved = (tmp_path / "run" / "resolved-config.toml").read_text()
        assert "T = 0.01" in resolved
        assert "nx = 64" in resolved

    def test_run_resumes_through_its_resolved_config(self, tmp_path, capsys):
        # quotes and a hash in the output path must survive the written file
        base = ["nx=64", "ny=8", "lx=40.0", "omega=4.0", "x0=10.0", "dt=0.01"]
        first = tmp_path / 'a "#1"'
        assert main(["simulate", "--out", str(first), "T=0.02", *base]) == 0
        assert main(["simulate", "--out", str(tmp_path / "full"), "T=0.04",
                     *base]) == 0
        second = tmp_path / 'b "#2"'
        assert main(["simulate", "--config", str(first / "resolved-config.toml"),
                     "--out", str(second), "initial=snapshot",
                     f"initial_path={first}/snapshots/final.snap"]) == 0
        resumed = read_snapshot(second / "snapshots" / "final.snap")
        continuous = read_snapshot(tmp_path / "full" / "snapshots" / "final.snap")
        assert resumed.time == pytest.approx(0.04)
        assert np.max(np.abs(resumed.field().values
                             - continuous.field().values)) < 1e-12


TWO_PI = str(2.0 * math.pi)
SMALL_SOLITON = ["nx=64", "ny=8", "lx=40.0", "omega=4.0", "x0=10.0",
                 "dt=0.01", "diagnostic_stride=1"]
SMALL_RUNS = {
    "simulate": [*SMALL_SOLITON, "T=0.05", "snapshot_stride=2",
                 'norms=["x:inf,y:2"]', "heatmaps=true"],
    "soliton-bench": [*SMALL_SOLITON, "T=0.05"],
    "instability": [*SMALL_SOLITON, "T=0.1", "perturbation_amplitude=1e-4"],
    "picard": ["nx=32", "ny=16", f"lx={TWO_PI}", "amplitude=0.01", "T=0.05",
               "picard_nodes=9", "picard_find_window=true"],
    "probe-linear": ["equation=linear", "nx=16", "ny=16", f"lx={TWO_PI}",
                     f"ly={TWO_PI}", "probe_nodes=9"],
    "probe-bilinear": ["equation=linear", "nx=32", "ny=32", f"lx={TWO_PI}",
                       f"ly={TWO_PI}", "nt=64", "probe_seeds=1"],
    "probe-nonlinear": ["equation=linear", "nx=16", "ny=16", f"lx={TWO_PI}",
                        f"ly={TWO_PI}", "nt=32", "probe_trials=2"],
}


def test_simulate_restarts_from_the_picard_endpoint(tmp_path, capsys):
    # Picard's final snapshot holds the half spectrum at t = T
    picard = tmp_path / "picard"
    assert main(["picard", "--out", str(picard), *SMALL_RUNS["picard"]]) == 0
    assert read_snapshot(picard / "snapshots" / "final.snap").version == 2
    out = tmp_path / "restart"
    assert main(["simulate", "nx=32", "ny=16", f"lx={TWO_PI}", "initial=snapshot",
                 f"initial_path={picard}/snapshots/final.snap", "T=0.01", "dt=0.01",
                 "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["t_start"] == 0.05


def test_picard_line_names_the_window_search_cap(tmp_path, capsys):
    # This config contracts at every doubling, so the search ends at its cap.
    assert main(["picard", "--out", str(tmp_path / "run"),
                 *SMALL_RUNS["picard"]]) == 0
    assert ("contraction holds out to T=204.8 (the search stopped at its cap "
            "of 12 doublings)") in capsys.readouterr().out
    payload = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert payload["window_search_capped"] is True


@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_rerun_from_resolved_config(command, tmp_path, capsys):
    """Every subcommand reruns from its own resolved config: the same CSVs
    byte for byte and the same summary, apart from the output directory."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([command, "--out", str(first), *SMALL_RUNS[command]]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {first}\n")
    assert main([command, "--config", str(first / "resolved-config.toml"),
                 "--out", str(second)]) == 0
    csvs = sorted(p.relative_to(first) for p in first.rglob("*.csv"))
    assert csvs
    assert csvs == sorted(p.relative_to(second) for p in second.rglob("*.csv"))
    for name in csvs:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    a, b = (json.loads((d / "summary.json").read_text())
            for d in (first, second))
    assert (a["config"].pop("out_dir"), b["config"].pop("out_dir")) \
        == (str(first), str(second))
    assert a == b


def test_import_and_a_small_run_load_no_scipy(tmp_path):
    """The runtime needs numpy only: with scipy blocked, so that importing
    it raises, ``semzk info`` and every run subcommand, the dense probes of
    ``probe-nonlinear`` included, exit 0 and write their summary."""
    script = textwrap.dedent("""
        import json, sys
        sys.modules['scipy'] = None
        import semzk, semzk.cli
        codes = [semzk.cli.main(['info'])]
        for command, args in json.loads(sys.argv[2]).items():
            out = f'{sys.argv[1]}/{command}'
            codes.append(semzk.cli.main([command, *args, '--out', out]))
        print(codes, sorted(m for m in sys.modules if m.startswith('scipy.')))
        """)
    env = dict(os.environ,
               PYTHONPATH=str(Path(semzk.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path),
                           json.dumps(SMALL_RUNS)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[0] * (1 + len(SMALL_RUNS))} []"
    for command in SMALL_RUNS:
        assert (tmp_path / command / "summary.json").is_file()
