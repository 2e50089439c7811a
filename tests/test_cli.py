"""Smoke tests for the command-line interface and its exit codes."""

import json

import numpy as np
import pytest

from semzk.cli import main
from semzk.snapshots import write_snapshot
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

    def test_missing_config_exits_two(self, capsys):
        assert main(["simulate", "--config", "/no/such/file.toml"]) == 2
        err = capsys.readouterr().err
        assert "/no/such/file.toml" in err

    def test_unknown_key_exits_two(self, capsys):
        assert main(["simulate", "bogus_key=1"]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_invalid_value_exits_two(self, tmp_path, capsys):
        for value in ("nx=63", "T=nan", "dt=inf"):
            out = tmp_path / value
            assert main(["simulate", "--out", str(out), value]) == 2, value
            assert not out.exists(), value


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


class TestEndToEnd:
    def test_soliton_bench_writes_summary(self, tmp_path, capsys):
        code = main(["soliton-bench", "--omega", "4", "--T", "0.05",
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
