#!/usr/bin/env python3
"""Run one semzk benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sem_512 --seed 1 --seconds 20 --trace 0

Closed loop, one client, one process: each unit of work starts when the
previous one has finished, for about ``--seconds`` (at least one unit).
Every unit's output is checked.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` of the
checkout this file sits in; without it the run exits with code 1.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from spans import Patcher, Tracer, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_runs"
WORKLOAD_NAMES = ("soliton_instability", "sem_512", "bilinear_fine",
                  "picard_window")
#: fresh interpreters timed for setup_s, and repeats of each layer probe
SETUP_REPS = 3
PROBE_REPS = 15
#: end-to-end metric units; the work counted by throughput is per workload
E2E_UNITS = {"throughput": "units/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every workload for the self-tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_semzk():
    """Import semzk from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "semzk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no semzk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import semzk

    if Path(semzk.__file__).resolve().parent != SRC / "semzk":
        raise SystemExit(f"perfbench: imported semzk from {semzk.__file__}")
    import workloads

    return workloads


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def time_setup(args) -> list:
    """Seconds from spawning a fresh interpreter to its 'ready' line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--size", args.size, "--setup-only"]
    samples = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up run failed:\n{err}")
        samples.append(elapsed)
    return samples


class Unit:
    """One unit of work: what it did, its marks, its result or exception."""

    def __init__(self, work, marks, result=None, exc=None):
        self.work, self.marks, self.result, self.exc = work, marks, result, exc

    @property
    def seconds(self) -> float:
        return self.marks[-1][0] - self.marks[0][0]


def run_loop(workload, seconds: float) -> list:
    """Closed loop: one :class:`Unit` after another for about ``seconds``.

    Another unit starts while it would end less than half a unit past
    ``seconds``, judged by the units so far; the first always runs.
    """
    units = []
    start = time.perf_counter()
    while True:
        workload.marks = []
        workload.mark("start")
        try:
            work, result = workload.run_unit()
            unit = Unit(work, workload.marks, result)
        except Exception as exc:  # a raised error is a failed unit
            unit = Unit(0, workload.marks, exc=exc)
        workload.mark("end")
        units.append(unit)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(units) > seconds:
            return units


def evaluate(workload, units):
    """Run every gate on every unit: (attempted, failed, failure notes)."""
    attempted = failed = 0
    notes = []
    for k, unit in enumerate(units):
        exc = unit.exc
        if exc is None:
            try:
                checks = workload.check(unit.result)
            except Exception as check_exc:
                exc = check_exc
        if exc is not None:
            attempted += 1
            failed += 1
            notes.append(f"unit {k}: {type(exc).__name__}: {exc}")
            continue
        for name, ok in checks:
            attempted += 1
            if not ok:
                failed += 1
                notes.append(f"unit {k}: failed {name}")
    return attempted, failed, notes


def throughput(units) -> float:
    """Work per second, each piece of a unit taken at its fastest in the run.

    The marks cut every unit into pieces that together cover the whole
    unit, run-directory writes included; a piece's kind is the pair of
    labels that bound it, and pieces of one kind do the same work.  A
    shared host only ever adds time, in stalls that last from one second to
    a whole run, so the fastest piece of each kind is the steadiest measure
    of what the code costs (the reasoning behind ``timeit``'s minimum).
    """
    pieces: dict = {}
    for unit in units:
        if unit.exc is None:
            for (t0, a), (t1, b) in zip(unit.marks, unit.marks[1:]):
                pieces.setdefault((a, b), []).append(t1 - t0)
    fastest = {kind: min(d) for kind, d in pieces.items()}
    work = seconds = 0.0
    for unit in units:
        if unit.exc is None:
            work += unit.work
            seconds += sum(fastest[(a, b)] for (_, a), (_, b)
                           in zip(unit.marks, unit.marks[1:]))
    return work / seconds if seconds > 0 else 0.0


def plain_throughput(units) -> float:
    """Work over wall time of the successful units (information only)."""
    done = [u for u in units if u.exc is None]
    wall = sum(u.seconds for u in done)
    return sum(u.work for u in done) / wall if wall > 0 else 0.0


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure(args, workload) -> tuple:
    """Untraced run: units, end-to-end metrics and information."""
    setup = time_setup(args)
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    with Patcher() as patcher:
        workload.instrument(patcher)
        units = run_loop(workload, args.seconds)
    info = {"units": len(units), "work_unit": workload.work_unit,
            "work_per_unit": [u.work for u in units],
            "unit_s": [u.seconds for u in units],
            "pieces": sum(len(u.marks) - 1 for u in units),
            "plain_throughput": plain_throughput(units),
            "wall_s": time.perf_counter() - wall0,
            "cpu_s": cpu_seconds() - cpu0, "setup_samples_s": setup}
    metrics = {
        "throughput": throughput(units),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return units, metrics, info


def measure_traced(args, workload) -> tuple:
    """Half the time untraced, half traced; per-layer metrics from spans."""
    with Patcher() as patcher:
        workload.instrument(patcher)
        plain = run_loop(workload, args.seconds / 2)
    tracer = Tracer()
    with Patcher() as patcher:
        install(tracer, patcher)
        workload.instrument(patcher)
        traced = run_loop(workload, args.seconds / 2)
    tracer.write(workload.run_dir / "spans.json")
    fft_pair_ms, rhs_ms = workload.probe_ms(PROBE_REPS)
    metrics = layers.per_layer(tracer, workload.work_unit, len(traced))
    metrics["spectral.fft_pair_ms"] = fft_pair_ms
    metrics["dynamics.rhs_ms"] = rhs_ms
    untraced_rate = throughput(plain)
    metrics["trace.throughput_ratio"] = (throughput(traced) / untraced_rate
                                         if untraced_rate else 0.0)
    info = {"units_untraced": len(plain), "units_traced": len(traced),
            "spans": len(tracer.spans)}
    metrics = {name: metrics[name] for name in layers.UNITS}
    return plain + traced, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_semzk()
    workload = workloads.WORKLOADS[args.workload](args.seed, RUN_ROOT,
                                                   args.size)
    workload.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0
    shutil.rmtree(workload.run_dir, ignore_errors=True)
    print("machine:", json.dumps(machine_info()))
    if args.trace:
        units_of = layers.UNITS
        units, metrics, info = measure_traced(args, workload)
    else:
        units_of = E2E_UNITS
        units, metrics, info = measure(args, workload)
    attempted, failed, notes = evaluate(workload, units)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(units)} units, throughput counts {workload.work_unit}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units_of[name]}")
    print(f"  {'fail_rate':28s} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} checks)")
    for note in notes:
        print("  check:", note)
    print("info:", json.dumps(info))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
