"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Every workload runs at toy size in both modes and must print every metric
named in BENCHMARK.json with its unit; every gate must reject a
deliberately wrong result; and the benchmark must refuse to run without the
program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from semzk import DiagnosticsRecord, PicardReport  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds",
         "0.2", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_emits_every_metric(name, trace, section):
    proc = run_bench("--workload", name, "--trace", trace, "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])
    for metric in expected:
        assert f"  {metric} " in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "picard_window", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def failed(checks):
    return [name for name, ok in checks if not ok]


def test_sigma_gate():
    assert failed(workloads.gate_sigma(0.0099)) == []
    assert len(failed(workloads.gate_sigma(math.nan))) == 3
    assert len(failed(workloads.gate_sigma(None))) == 3
    assert failed(workloads.gate_sigma(0.0080)) == [
        "sigma within 10% of 0.0106"]


def test_conservation_gate_rejects_perturbed_i2(tmp_path):
    sem = workloads.Sem512(3, tmp_path, size="toy")
    _, (leg1, leg2) = sem.run_unit()
    grid = sem.leg1.grid()
    area = grid.lx * grid.ly
    assert failed(workloads.gate_conservation(leg1, leg2, area)) == []

    def nudged(record, factor):
        return DiagnosticsRecord(record.time, record.i1, record.i2 * factor,
                                 record.norms)

    bad_leg2 = [nudged(leg2[0], 1 + 1e-6)] + list(leg2[1:])
    assert failed(workloads.gate_conservation(leg1, bad_leg2, area)) == [
        "leg 2 I2 drift <= 1e-8", "restart I2 equals leg 1 final I2"]
    bad_leg1 = list(leg1[:-1]) + [nudged(leg1[-1], 1 + 1e-6)]
    assert "leg 1 I2 drift <= 1e-8" in failed(
        workloads.gate_conservation(bad_leg1, leg2, area))
    shifted = [DiagnosticsRecord(r.time, r.i1 + 1e-3, r.i2, r.norms)
               for r in leg1]
    assert failed(workloads.gate_conservation(shifted, leg2, area)) == [
        "|I1| at round-off"]


def test_trial_gate_rejects_wrong_count_and_nan(tmp_path):
    probe = workloads.BilinearFine(3, tmp_path, size="toy")
    _, report = probe.run_unit()
    trials = list(report.trials)
    expected = len(trials)
    exponent = report.separated_exponent
    assert failed(workloads.gate_trials(trials, expected, exponent)) == []
    assert failed(workloads.gate_trials(trials[:-1], expected, exponent)) == [
        f"trial count {expected}"]
    nan_trial = dataclasses.replace(trials[0], product_norm=math.nan)
    assert failed(workloads.gate_trials([nan_trial] + trials[1:], expected,
                                        exponent)) == ["every trial finite"]
    assert failed(workloads.gate_trials(trials, expected, 0.5)) == [
        "separated exponent <= 0.1"]


def test_picard_gate():
    good = PicardReport(iterations=3, distances=[1.0, 0.1, 1e-9],
                        ratios=[0.1, 1e-8], converged=True)
    assert failed(workloads.gate_picard(good, 1e-7)) == []
    stalled = PicardReport(iterations=2, distances=[1.0, 1.5],
                           ratios=[1.5], converged=False)
    assert failed(workloads.gate_picard(stalled, 1e-7)) == [
        "picard converged", "every ratio < 1"]
    assert failed(workloads.gate_picard(good, 1e-3)) == ["agrees with evolve"]
    assert failed(workloads.gate_picard(good, math.nan)) == [
        "agrees with evolve"]
