"""The four benchmark workloads: inputs from a seed, units of work, gates.

Each workload builds its configs and fields from the benchmark seed alone,
runs one *unit* of work per :meth:`Workload.run_unit` call through the
public ``semzk`` API, and checks each unit's output with gate functions kept
separate from the run so that the self-tests can feed them wrong results.
A gate returns a list of ``(name, passed)`` pairs; every pair is one check
attempted, and every failed pair (or exception) counts against ``fail_rate``.

``size="toy"`` shrinks every workload to a fraction of a second for the
self-tests; its outputs are not expected to pass the gates.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

import semzk
from semzk import (
    EquationKind,
    Grid2D,
    RealField,
    RunConfig,
    SolitonParams,
    sem_on_soliton,
)

TWO_PI = 2.0 * math.pi

#: criterion 12's reference growth rate and the tolerance the gate allows
SIGMA_REFERENCE = 0.0106
SIGMA_TOLERANCE = 0.10
#: relative I2 drift allowed per leg, and |I1| relative to its
#: Cauchy-Schwarz ceiling sqrt(area * I2) that still counts as round-off
I2_DRIFT_TOLERANCE = 1e-8
I1_ROUNDOFF = 1e-12
#: the criterion-10 bound on the fitted separated exponent
EXPONENT_TOLERANCE = 0.1
#: Picard vs IFRK4 agreement, relative H^1 gap (see README.md: at amplitude
#: 30 the 65-node trapezoid quadrature alone leaves 3e-6 to 5e-6)
PICARD_GAP_TOLERANCE = 1e-5


# ---------------------------------------------------------------------------
# gates


def gate_sigma(sigma) -> list:
    """Instability: sigma fitted, positive, within 10% of criterion 12."""
    fitted = sigma is not None and math.isfinite(sigma)
    return [
        ("sigma fitted", fitted),
        ("sigma positive", fitted and sigma > 0.0),
        ("sigma within 10% of 0.0106", fitted and abs(sigma - SIGMA_REFERENCE)
         <= SIGMA_TOLERANCE * SIGMA_REFERENCE),
    ]


def _i2_drift(records) -> float:
    first, last = records[0].i2, records[-1].i2
    return abs(last - first) / abs(first) if first else math.inf


def gate_conservation(leg1, leg2, area: float) -> list:
    """SEM on 512^2: I1 at round-off, I2 drift small, restart continuous.

    ``leg1`` and ``leg2`` are the diagnostics records of the first run and
    of the run restarted from its final snapshot.
    """
    records = list(leg1) + list(leg2)
    ceiling = math.sqrt(area * max(abs(r.i2) for r in records))
    i1_max = max(abs(r.i1) for r in records)
    return [
        ("|I1| at round-off", math.isfinite(i1_max)
         and i1_max <= I1_ROUNDOFF * ceiling),
        ("leg 1 I2 drift <= 1e-8", _i2_drift(leg1) <= I2_DRIFT_TOLERANCE),
        ("leg 2 I2 drift <= 1e-8", _i2_drift(leg2) <= I2_DRIFT_TOLERANCE),
        ("restart I2 equals leg 1 final I2", leg2[0].i2 == leg1[-1].i2),
    ]


def gate_trials(trials, expected: int, exponent) -> list:
    """Bilinear sweep: every trial finite, trial count right, exponent <= 0.1."""
    finite = all(math.isfinite(t.product_norm) and math.isfinite(t.ratio)
                 for t in trials)
    return [
        ("every trial finite", bool(trials) and finite),
        (f"trial count {expected}", len(trials) == expected),
        ("separated exponent <= 0.1", exponent is not None
         and math.isfinite(exponent) and exponent <= EXPONENT_TOLERANCE),
    ]


def gate_picard(report, gap: float) -> list:
    """Picard: converged, ratios below one, agrees with IFRK4 (relative H^1)."""
    return [
        ("picard converged", bool(report.converged)),
        ("every ratio < 1", bool(report.ratios)
         and all(r < 1.0 for r in report.ratios)),
        ("agrees with evolve", math.isfinite(gap)
         and gap <= PICARD_GAP_TOLERANCE),
    ]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One workload: ``work_unit`` names what ``throughput`` counts.

    ``marks`` collects ``(time, label)`` pairs at public call boundaries
    inside the running unit (see :meth:`instrument`); the run loop opens
    it with a ``start`` mark and closes it with an ``end`` mark.
    """

    name = ""
    work_unit = ""
    mark_period = 1

    def __init__(self, seed: int, run_root: Path, size: str = "full"):
        self.seed = int(seed)
        self.run_dir = Path(run_root) / self.name
        self.toy = size == "toy"
        self.marks: list = []

    def mark(self, label: str) -> None:
        self.marks.append((time.perf_counter(), label))

    def probe(self):
        """(field, equation) at the workload grid, or None without a solver."""
        return None

    def instrument(self, patcher) -> None:
        """Mark each diagnostics call, the unit's repeating boundary.

        The label tells apart the pieces that do different work: a run's
        first call (step 0), and the position in the snapshot cycle of
        ``mark_period`` steps, since a snapshot is written every so often.
        """
        collector = semzk.scenarios.DiagnosticsCollector
        call = collector.__call__
        workload = self

        def marked(self, step, t, u):
            workload.mark(f"diag{step % workload.mark_period}" if step
                          else "first")
            return call(self, step, t, u)

        patcher.set_attr(collector, "__call__", marked)

    def setup(self) -> None:
        """Lazy set-up a user pays once: spectral tables, first transform."""
        probe = self.probe()
        if probe is not None:
            field, equation = probe
            semzk.inverse_transform(semzk.forward_transform(field))
            semzk.nonlinear_rhs(field, equation)

    def probe_ms(self, reps: int):
        """Median ms of one FFT pair and of one ``nonlinear_rhs`` at the
        workload's grid and equation, or (0, 0) for a workload without."""
        probe = self.probe()
        if probe is None:
            return 0.0, 0.0
        field, equation = probe
        pair, rhs = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            semzk.inverse_transform(semzk.forward_transform(field))
            t1 = time.perf_counter()
            semzk.nonlinear_rhs(field, equation)
            t2 = time.perf_counter()
            pair.append(t1 - t0)
            rhs.append(t2 - t1)
        return 1e3 * float(np.median(pair)), 1e3 * float(np.median(rhs))

    def run_unit(self):
        """Do one unit of work; returns (work done, result for check)."""
        raise NotImplementedError

    def check(self, result) -> list:
        raise NotImplementedError


class SolitonInstability(Workload):
    """Criterion 12's instability run; small grid, so Python overhead and
    the soliton background dominate rather than the FFT.  Ignores the seed."""

    name = "soliton_instability"
    work_unit = "steps"

    def __init__(self, seed, run_root, size="full"):
        super().__init__(seed, run_root, size)
        self.cfg = RunConfig(
            equation="sem_on_soliton", nx=64 if self.toy else 256,
            ny=8 if self.toy else 16, lx=80.0, ly=36.0,
            T=1.0 if self.toy else 300.0, dt=0.05,
            omega=1.0, x0=20.0, perturbation_shape="sinusoidal-in-y",
            perturbation_amplitude=1e-4, perturbation_wavenumber=1,
            diagnostic_stride=20, out_dir=str(self.run_dir))
        self.mark_period = self.cfg.diagnostic_stride

    def probe(self):
        cfg = self.cfg
        field = semzk.scenarios.perturbation_field(cfg.grid(), cfg)
        return field, sem_on_soliton(SolitonParams(cfg.omega, cfg.x0))

    def run_unit(self):
        report = semzk.run_instability(self.cfg)
        return int(round(self.cfg.T / self.cfg.dt)), report.sigma

    def check(self, sigma):
        return gate_sigma(sigma)


class Sem512(Workload):
    """FFT-bound SEM march on 512^2 with snapshots, plus a restart leg."""

    name = "sem_512"
    work_unit = "steps"
    LEG1_STEPS, LEG2_STEPS, DT = 30, 10, 0.01

    def __init__(self, seed, run_root, size="full"):
        super().__init__(seed, run_root, size)
        n = 32 if self.toy else 512
        leg1, leg2 = (3, 1) if self.toy else (self.LEG1_STEPS, self.LEG2_STEPS)
        # The box is RunConfig's default (lx=80, ly=2*pi).  Diagnostics run
        # every step so that the marks cut the run into one-step pieces.
        self.leg1 = RunConfig(
            equation="sem", nx=n, ny=n, T=leg1 * self.DT, dt=self.DT,
            initial="random", amplitude=0.1, seed=self.seed,
            diagnostic_stride=1, snapshot_stride=1 if self.toy else 10,
            out_dir=str(self.run_dir / "leg1"))
        self.leg2 = self.leg1.replace(
            initial="snapshot", T=leg2 * self.DT,
            initial_path=str(self.run_dir / "leg1" / "snapshots" / "final.snap"),
            out_dir=str(self.run_dir / "leg2"))
        self.steps = leg1 + leg2
        self.mark_period = self.leg1.snapshot_stride

    def probe(self):
        cfg = self.leg1
        field = semzk.random_low_mode_field(cfg.grid(), cfg.seed,
                                            amplitude=cfg.amplitude)
        return field, EquationKind("sem")

    def run_unit(self):
        first = semzk.run_simulation(self.leg1)
        second = semzk.run_simulation(self.leg2)
        return self.steps, (first.diagnostics, second.diagnostics)

    def check(self, result):
        grid = self.leg1.grid()
        return gate_conservation(*result, grid.lx * grid.ly)


class BilinearFine(Workload):
    """Criterion 10's fine sweep, one benchmark-derived seed per unit; no
    time stepping, nearly all of it in ``sparse_product_l2``."""

    name = "bilinear_fine"
    work_unit = "trials"
    N_PAIRS = ((1, 4), (2, 8))
    L_PAIRS = ((1, 1), (2, 2), (8, 8))

    def __init__(self, seed, run_root, size="full"):
        super().__init__(seed, run_root, size)
        if self.toy:
            self.grid, self.nt = Grid2D(64, 64, 4 * TWO_PI, 4 * TWO_PI), 128
            self.l_pairs = self.L_PAIRS[:2]
        else:
            self.grid, self.nt = Grid2D(160, 160, 6 * TWO_PI, 6 * TWO_PI), 512
            self.l_pairs = self.L_PAIRS
        self.t_box = TWO_PI
        self.units_run = 0

    def trial_seed(self, k: int) -> int:
        return 1000 * self.seed + k

    def instrument(self, patcher):
        """Mark the end of every block product, labelled by its position."""
        product = semzk.probes.sparse_product_l2

        def marked(*args, **kwargs):
            norm = product(*args, **kwargs)
            self.mark(f"trial{len(self.marks)}")
            return norm

        patcher.set_attr(semzk.probes, "sparse_product_l2", marked)

    def setup(self):
        for n_pair in self.N_PAIRS:
            for l_pair in self.l_pairs:
                for n, l in zip(n_pair, l_pair):
                    semzk.block_modes(self.grid, self.t_box, self.nt, n, l)

    def run_unit(self):
        seed = self.trial_seed(self.units_run)
        self.units_run += 1
        report = semzk.probe_block_bilinear(
            self.grid, self.t_box, self.nt, n_pairs=self.N_PAIRS,
            l_pairs=self.l_pairs, seeds=(seed,))
        return len(report.trials), report

    def check(self, report):
        expected = len(self.N_PAIRS) * len(self.l_pairs)
        return gate_trials(report.trials, expected, report.separated_exponent)


class PicardWindow(Workload):
    """Duhamel fixed point with the doubling window search on 64^2 SEM:
    the same nonlinearity as the solvers, batched over 65 time nodes."""

    name = "picard_window"
    work_unit = "sweeps"

    def __init__(self, seed, run_root, size="full"):
        super().__init__(seed, run_root, size)
        n = 16 if self.toy else 64
        self.cfg = RunConfig(
            equation="sem", nx=n, ny=n, lx=TWO_PI, ly=TWO_PI, T=0.01,
            amplitude=30.0, picard_nodes=9 if self.toy else 65,
            seed=self.seed, out_dir=str(self.run_dir))
        self.sweeps = 0

    def probe(self):
        cfg = self.cfg
        raw = semzk.random_low_mode_field(cfg.grid(), cfg.seed)
        scale = cfg.amplitude / semzk.sobolev_norm(raw, 1.0)
        return RealField(raw.grid, scale * raw.values), EquationKind("sem")

    def instrument(self, patcher):
        """Count every Picard sweep, including those of the window search,
        which ``run_picard_demo`` does not report, and mark each solve."""
        picard_solve = semzk.scenarios.picard_solve

        def counted(*args, **kwargs):
            path, report = picard_solve(*args, **kwargs)
            self.sweeps += report.iterations
            self.mark(f"solve{len(self.marks)}")
            return path, report

        patcher.set_attr(semzk.scenarios, "picard_solve", counted)

    def run_unit(self):
        before = self.sweeps
        demo = semzk.run_picard_demo(self.cfg, find_window=True)
        return self.sweeps - before, demo

    def check(self, demo):
        # The program's initial data is only visible through its snapshot.
        snap = Path(demo.out_dir) / "snapshots" / "initial.snap"
        u0 = semzk.read_snapshot(snap).field()
        final = demo.path.fields[-1]
        T = float(demo.path.times[-1])
        marched = semzk.evolve(u0, EquationKind(self.cfg.equation), T, T / 50)
        diff = RealField(u0.grid, final.values - marched.fields[-1].values)
        gap = semzk.sobolev_norm(diff, 1.0) / semzk.sobolev_norm(u0, 1.0)
        return gate_picard(demo.report, gap)


WORKLOADS = {cls.name: cls for cls in (SolitonInstability, Sem512,
                                       BilinearFine, PicardWindow)}
