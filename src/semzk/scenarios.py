"""Experiment drivers that write self-contained run directories.

Every driver resolves a :class:`~semzk.config.RunConfig`, creates the output
directory, and leaves behind the same four artifacts: the fully resolved
configuration (``resolved-config.toml``), per-step scalar diagnostics
(``diagnostics.csv``), checkpoints (``snapshots/``), and a machine-readable
``summary.json`` that embeds the resolved configuration.  Identical
configurations produce bit-identical artifacts; nothing time- or host-
dependent is written.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .config import RunConfig
from .dynamics import (
    EquationKind,
    SolitonParams,
    _wrapped_offset,
    sem_on_soliton,
    soliton_profile,
    soliton_shape,
)
from .integrators import PicardReport, TrajectoryPath, evolve, picard_solve
from .norms import (
    DiagnosticsRecord,
    MixedNormDescriptor,
    conserved_I1,
    conserved_I2,
    diagnostics_header,
    mixed_norm,
    sobolev_norm,
)
from .probes import (
    BilinearReport,
    LinearProbeReport,
    probe_block_bilinear,
    probe_l4_estimate,
    probe_linear_estimates,
    probe_nonlinear_estimate,
    random_bandlimited_spacetime,
    random_low_mode_field,
)
from .snapshots import read_snapshot, write_snapshot
from .spectral import Grid2D, RealField

__all__ = [
    "DiagnosticsCollector",
    "SimulationReport",
    "SolitonBenchmarkReport",
    "InstabilityReport",
    "PicardDemoReport",
    "perturbation_field",
    "initial_state",
    "run_simulation",
    "run_soliton_benchmark",
    "run_instability",
    "run_picard_demo",
    "run_probe_linear",
    "run_probe_bilinear",
    "run_probe_nonlinear",
    "write_summary",
    "write_pgm",
]


# ---------------------------------------------------------------------------
# run-directory plumbing


def _prepare_run_dir(cfg: RunConfig, *, snapshots: bool = True) -> Path:
    out = Path(cfg.out_dir)
    (out / "snapshots" if snapshots else out).mkdir(parents=True, exist_ok=True)
    (out / "resolved-config.toml").write_text(cfg.resolved_text(),
                                              encoding="utf-8")
    return out


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_summary(path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, no timestamps, trailing newline."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def write_pgm(path, values: np.ndarray) -> None:
    """8-bit portable graymap of a field, rescaled to its own range."""
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        scaled = np.round(255.0 * (values - lo) / (hi - lo))
    else:
        scaled = np.zeros_like(values)
    img = scaled.astype(np.uint8).T  # rows run along y, columns along x
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as handle:
        handle.write(header + img.tobytes())


def _maybe_heatmaps(cfg: RunConfig, out: Path, initial: RealField,
                    final: RealField) -> None:
    if not cfg.heatmaps:
        return
    hm = out / "heatmaps"
    hm.mkdir(exist_ok=True)
    write_pgm(hm / "initial.pgm", initial.values)
    write_pgm(hm / "final.pgm", final.values)


class DiagnosticsCollector:
    """Evolution callback that gathers the diagnostics rows.

    Records time, the two conserved integrals, the H^1 norm, and any extra
    configured mixed norms.  The extra descriptors must omit the time axis
    (they are evaluated snapshot by snapshot).
    """

    def __init__(self, grid: Grid2D, norm_labels=(), time_offset: float = 0.0):
        self.grid = grid
        self.time_offset = float(time_offset)
        self.descriptors = []
        for label in norm_labels:
            desc = MixedNormDescriptor.from_string(label)
            if any(axis == "T" for axis, _ in desc.entries):
                raise ValueError(
                    f"diagnostics norm {label!r} must omit the time axis")
            self.descriptors.append(desc)
        self.labels = [desc.label for desc in self.descriptors]
        self.records: list[DiagnosticsRecord] = []

    def __call__(self, step: int, time: float, u: RealField) -> None:
        extra = {"H1": sobolev_norm(u, 1.0)}
        if self.descriptors:
            slice_path = TrajectoryPath(self.grid, np.array([time]), [u])
            for desc in self.descriptors:
                extra[desc.label] = mixed_norm(slice_path, desc)
        self.records.append(DiagnosticsRecord(
            self.time_offset + time, conserved_I1(u), conserved_I2(u), extra))

    def norm_keys(self) -> list[str]:
        return ["H1"] + self.labels

    def write(self, path) -> None:
        keys = self.norm_keys()
        _write_csv(path, diagnostics_header(keys),
                   [rec.to_row(keys) for rec in self.records])


class _SnapshotWriter:
    """Writes interior checkpoints every ``stride`` steps (0 disables)."""

    def __init__(self, directory: Path, stride: int, equation: str,
                 time_offset: float = 0.0):
        self.directory = directory
        self.stride = stride
        self.equation = equation
        self.time_offset = float(time_offset)

    def __call__(self, step: int, time: float, u: RealField) -> None:
        if self.stride and step and step % self.stride == 0:
            write_snapshot(self.directory / f"state_{step:06d}.snap", u,
                           time=self.time_offset + time,
                           equation=self.equation)


def _write_endpoints(out: Path, equation: str, initial: RealField,
                     t_initial: float, final: RealField,
                     t_final: float) -> None:
    write_snapshot(out / "snapshots" / "initial.snap", initial,
                   time=t_initial, equation=equation)
    write_snapshot(out / "snapshots" / "final.snap", final, time=t_final,
                   equation=equation)


def _march(cfg: RunConfig, u0: RealField, equation: EquationKind, *,
           t_start: float = 0.0, callbacks=()):
    """Evolve ``u0`` over the configured schedule into a fresh run directory.

    The diagnostics collector and the interior-snapshot writer run as
    callbacks every ``diagnostic_stride`` steps, after the extra
    ``callbacks``; the initial and final snapshots, ``diagnostics.csv`` and
    the heatmaps follow.  Every recorded time is offset by the global start
    time ``t_start``.  Returns the run directory, the endpoint trajectory,
    the diagnostics records and the final global time.
    """
    out = _prepare_run_dir(cfg)
    collector = DiagnosticsCollector(cfg.grid(), cfg.norms,
                                     time_offset=t_start)
    snapper = _SnapshotWriter(out / "snapshots", cfg.snapshot_stride,
                              equation.kind, time_offset=t_start)
    path = evolve(u0, equation, cfg.T, cfg.dt,
                  callbacks=[*callbacks, collector, snapper],
                  callback_stride=cfg.diagnostic_stride)
    final = path.fields[-1]
    t_final = t_start + float(path.times[-1])
    _write_endpoints(out, equation.kind, u0, t_start, final, t_final)
    collector.write(out / "diagnostics.csv")
    _maybe_heatmaps(cfg, out, u0, final)
    return out, path, collector.records, t_final


# ---------------------------------------------------------------------------
# initial data


def _soliton_params(cfg: RunConfig) -> SolitonParams:
    return SolitonParams(cfg.omega, cfg.x0)


def _equation_for(cfg: RunConfig) -> EquationKind:
    if cfg.equation == "sem_on_soliton":
        return sem_on_soliton(_soliton_params(cfg))
    return EquationKind(cfg.equation)


def perturbation_field(grid: Grid2D, cfg: RunConfig) -> RealField:
    """The configured perturbation: a transverse modulation of the crest.

    ``sinusoidal-in-y`` modulates the soliton's squared-secant envelope with
    a cosine in y whose wavenumber is perpendicular to the propagation
    direction; ``localized-gaussian`` is an isotropic bump of width equal to
    the soliton length scale, centered mid-channel on the crest.
    """
    eps = cfg.perturbation_amplitude
    root = math.sqrt(cfg.omega)
    offset = _wrapped_offset(grid, _soliton_params(cfg), 0.0)
    y = grid.y[None, :]
    if cfg.perturbation_shape == "sinusoidal-in-y":
        envelope = soliton_shape(cfg.omega, offset)[:, None] / (3.0 * cfg.omega)
        k_y = 2.0 * np.pi * cfg.perturbation_wavenumber / grid.ly
        values = eps * envelope * np.cos(k_y * y)
    else:
        sigma = 1.0 / root
        dx = offset[:, None]
        dy = y - grid.ly / 2.0
        values = eps * np.exp(-(dx**2 + dy**2) / (2.0 * sigma**2))
    return RealField(grid, np.broadcast_to(values, (grid.nx, grid.ny)).copy())


def initial_state(cfg: RunConfig) -> tuple[RealField, float]:
    """Initial field and its global start time.

    For the perturbation equation the state is the perturbation itself (the
    background soliton lives inside the equation).  Restarting from a
    snapshot resumes the stored time; the soliton-frame adjustment for a
    moving background is handled by the caller through the crest position.
    """
    grid = cfg.grid()
    if cfg.initial == "snapshot":
        snap = read_snapshot(cfg.initial_path)
        if snap.grid != grid:
            raise ValueError("snapshot grid does not match the configured grid")
        if snap.equation != cfg.equation:
            raise ValueError(
                f"snapshot was written by equation {snap.equation!r}, "
                f"config asks for {cfg.equation!r}")
        return snap.field(), snap.time
    if cfg.equation == "sem_on_soliton":
        return perturbation_field(grid, cfg), 0.0
    if cfg.initial == "soliton":
        base = soliton_profile(grid, _soliton_params(cfg))
    else:
        base = random_low_mode_field(grid, cfg.seed, amplitude=cfg.amplitude)
    if cfg.perturbation_amplitude > 0:
        pert = perturbation_field(grid, cfg)
        base = RealField(grid, base.values + pert.values)
    return base, 0.0


# ---------------------------------------------------------------------------
# simulation driver


@dataclass
class SimulationReport:
    out_dir: Path
    path: TrajectoryPath
    summary: dict
    diagnostics: list = dataclass_field(default_factory=list)

    @property
    def final(self) -> RealField:
        return self.path.fields[-1]


def run_simulation(cfg: RunConfig) -> SimulationReport:
    """Evolve the configured equation and write the standard artifacts."""
    u0, t_start = initial_state(cfg)
    if cfg.equation == "sem_on_soliton" and t_start != 0.0:
        # The background crest has traveled; restart in the shifted frame.
        shifted = cfg.replace(x0=cfg.x0 + cfg.omega * t_start)
        equation = sem_on_soliton(_soliton_params(shifted))
    else:
        equation = _equation_for(cfg)
    out, path, records, t_final = _march(cfg, u0, equation, t_start=t_start)
    first, last = records[0], records[-1]
    summary = {
        "config": cfg.to_mapping(),
        "equation": cfg.equation,
        "t_start": t_start,
        "t_final": t_final,
        "n_steps": max(1, int(round(cfg.T / cfg.dt))) if cfg.T else 0,
        "i1_initial": first.i1,
        "i1_final": last.i1,
        "i2_initial": first.i2,
        "i2_final": last.i2,
        "h1_final": last.norms["H1"],
    }
    write_summary(out / "summary.json", summary)
    return SimulationReport(out, path, summary, records)


# ---------------------------------------------------------------------------
# soliton benchmark


@dataclass
class SolitonBenchmarkReport:
    out_dir: Path
    crest_position: float
    expected_position: float
    crest_error_cells: float
    shape_error: float
    i1_initial: float
    i1_final: float
    i2_initial: float
    i2_final: float
    i2_drift: float
    summary: dict
    final: RealField


def _crest_position(profile: np.ndarray, dx: float) -> float:
    """Sub-cell crest location along x from a parabola through the maximum."""
    idx = int(np.argmax(profile))
    left = profile[(idx - 1) % profile.size]
    mid = profile[idx]
    right = profile[(idx + 1) % profile.size]
    denom = left - 2.0 * mid + right
    offset = 0.5 * (left - right) / denom if denom != 0.0 else 0.0
    return (idx + offset) * dx


def _circular_distance(a: float, b: float, period: float) -> float:
    d = abs(a - b) % period
    return min(d, period - d)


def run_soliton_benchmark(cfg: RunConfig) -> SolitonBenchmarkReport:
    """Propagate the traveling wave and compare against its exact translate.

    Under the plain advection-free equation the soliton travels at its own
    speed.  Under the full equation, y-independent mean-zero data evolves
    exactly as in one dimension, so the benchmark subtracts the profile mean
    and compares against the correspondingly slower translate.
    """
    if cfg.equation not in ("zk", "sem"):
        raise ValueError("soliton benchmark needs the zk or sem equation")
    grid = cfg.grid()
    params = _soliton_params(cfg)
    phi = soliton_profile(grid, params)
    background = 0.0
    if cfg.equation == "sem":
        background = conserved_I1(phi) / (grid.lx * grid.ly)
    u0 = RealField(grid, phi.values - background)
    speed = cfg.omega - background
    out, path, records, t_final = _march(cfg, u0, EquationKind(cfg.equation))
    final = path.fields[-1]
    expected_shift = soliton_profile(
        grid, SolitonParams(cfg.omega, cfg.x0 + speed * t_final))
    expected = RealField(grid, expected_shift.values - background)
    shape_error = (RealField(grid, final.values - expected.values).l2()
                   / u0.l2())
    crest = _crest_position(final.values[:, 0], grid.dx)
    target = (cfg.x0 + speed * t_final) % grid.lx
    crest_cells = _circular_distance(crest, target, grid.lx) / grid.dx
    first, last = records[0], records[-1]
    i2_drift = abs(last.i2 - first.i2) / abs(first.i2)
    summary = {
        "config": cfg.to_mapping(),
        "speed": speed,
        "t_final": t_final,
        "crest_position": crest,
        "expected_position": target,
        "crest_error_cells": crest_cells,
        "shape_error": shape_error,
        "i1_initial": first.i1,
        "i1_final": last.i1,
        "i2_initial": first.i2,
        "i2_final": last.i2,
        "i2_drift": i2_drift,
    }
    write_summary(out / "summary.json", summary)
    return SolitonBenchmarkReport(out, crest, target, crest_cells,
                                  shape_error, first.i1, last.i1, first.i2,
                                  last.i2, i2_drift, summary, final)


# ---------------------------------------------------------------------------
# transverse instability


@dataclass
class InstabilityReport:
    out_dir: Path
    k_y: float
    sigma: float | None
    times: np.ndarray
    norms: np.ndarray
    window: tuple
    flags: list
    summary: dict


def run_instability(cfg: RunConfig) -> InstabilityReport:
    """Grow a transverse perturbation on the soliton and fit its rate.

    The perturbation evolves under the linearization around the traveling
    crest plus its own self-interaction.  The growth rate is the least-
    squares slope of the log of the perturbation norm over the window where
    that norm lies between ``window_low`` times its initial value and
    ``window_high`` times the norm of the background profile — after the
    transient, before saturation.  The run always marches
    ``sem_on_soliton``, and the resolved config and summary say so, so a
    snapshot of the run resumes under its own ``resolved-config.toml``.
    """
    cfg = cfg.replace(equation="sem_on_soliton")
    grid = cfg.grid()
    params = _soliton_params(cfg)
    equation = sem_on_soliton(params)
    v0 = perturbation_field(grid, cfg)
    phi_norm = math.sqrt(conserved_I2(soliton_profile(grid, params)))
    v0_norm = math.sqrt(conserved_I2(v0))
    times, norms = [], []

    def track(step: int, time: float, u: RealField) -> None:
        times.append(time)
        norms.append(math.sqrt(conserved_I2(u)))

    out = _march(cfg, v0, equation, callbacks=[track])[0]
    t_arr = np.array(times)
    n_arr = np.array(norms)
    flags: list[str] = []
    low = cfg.window_low * v0_norm
    high = cfg.window_high * phi_norm
    sigma: float | None
    if v0_norm == 0.0:
        sigma = 0.0
        flags.append("zero perturbation; nothing to fit")
        in_window = np.zeros(t_arr.shape, dtype=bool)
    else:
        if float(n_arr.max()) > 0.5 * phi_norm:
            flags.append("left linear regime")
        in_window = (n_arr >= low) & (n_arr <= high)
        if int(in_window.sum()) >= 2:
            slope = np.polyfit(t_arr[in_window], np.log(n_arr[in_window]), 1)[0]
            sigma = float(slope)
            if not np.isfinite(sigma):
                sigma = None
                flags.append("degenerate fit")
        else:
            sigma = None
            if float(n_arr.max()) < low:
                flags.append("growth window not reached; extend T")
            else:
                flags.append("too few samples inside the fit window")
    _write_csv(out / "growth.csv", ["time", "norm"],
               list(zip(t_arr.tolist(), n_arr.tolist())))
    k_y = 2.0 * np.pi * cfg.perturbation_wavenumber / grid.ly
    summary = {
        "config": cfg.to_mapping(),
        "k_y": k_y,
        "sigma": sigma,
        "v0_norm": v0_norm,
        "phi_norm": phi_norm,
        "window_low": low,
        "window_high": high,
        "window_samples": int(in_window.sum()),
        "flags": flags,
    }
    write_summary(out / "summary.json", summary)
    return InstabilityReport(out, k_y, sigma, t_arr, n_arr, (low, high),
                             flags, summary)


# ---------------------------------------------------------------------------
# Picard demonstration


@dataclass
class PicardDemoReport:
    out_dir: Path
    report: PicardReport
    path: TrajectoryPath
    existence_window: float | None
    summary: dict


def _picard_data(cfg: RunConfig, grid: Grid2D) -> RealField:
    if cfg.amplitude == 0.0:
        return RealField(grid, np.zeros((grid.nx, grid.ny)))
    raw = random_low_mode_field(grid, cfg.seed)
    scale = cfg.amplitude / sobolev_norm(raw, 1.0)
    return RealField(grid, scale * raw.values)


def run_picard_demo(cfg: RunConfig, *,
                    find_window: bool = False) -> PicardDemoReport:
    """Run the fixed-point iteration and record its contraction history.

    With ``find_window`` the horizon is doubled until the iteration stops
    contracting, recording the last horizon at which every contraction ratio
    stayed below one — an empirical local existence window.
    """
    grid = cfg.grid()
    u0 = _picard_data(cfg, grid)
    equation = _equation_for(cfg)
    path, report = picard_solve(u0, equation, cfg.T, nodes=cfg.picard_nodes,
                                tol=cfg.picard_tol)
    out = _prepare_run_dir(cfg)
    rows = []
    for k, distance in enumerate(report.distances):
        ratio = report.ratios[k - 1] if k >= 1 else ""
        rows.append([k, distance, ratio])
    _write_csv(out / "iterations.csv", ["iteration", "distance", "ratio"],
               rows)
    window = None
    if find_window:
        window = cfg.T
        horizon = cfg.T
        for _ in range(12):
            horizon *= 2.0
            try:
                _, rep = picard_solve(u0, equation, horizon,
                                      nodes=cfg.picard_nodes,
                                      tol=cfg.picard_tol)
            except RuntimeError:
                break
            if not rep.converged or any(r >= 1.0 for r in rep.ratios):
                break
            window = horizon
    _write_endpoints(out, cfg.equation, u0, 0.0, path.fields[-1],
                     float(path.times[-1]))
    collector = DiagnosticsCollector(grid, cfg.norms)
    for k, (t, u) in enumerate(zip(path.times, path.fields)):
        collector(k, float(t), u)
    collector.write(out / "diagnostics.csv")
    summary = {
        "config": cfg.to_mapping(),
        "converged": report.converged,
        "iterations": report.iterations,
        "distances": list(report.distances),
        "ratios": list(report.ratios),
        "existence_window": window,
    }
    write_summary(out / "summary.json", summary)
    return PicardDemoReport(out, report, path, window, summary)


# ---------------------------------------------------------------------------
# probe drivers


def run_probe_linear(cfg: RunConfig) -> dict:
    """Free-flow mixed-norm constants at the configured and a doubled lattice.

    Doubling refines both the grid and the time sampling while keeping the
    random data (a fixed trigonometric polynomial), so the two measurements
    estimate the same continuum quantity.
    """
    grid = cfg.grid()
    fine_grid = Grid2D(2 * cfg.nx, 2 * cfg.ny, cfg.lx, cfg.ly)
    nodes_fine = 2 * (cfg.probe_nodes - 1) + 1
    coarse = probe_linear_estimates(grid, n_nodes=cfg.probe_nodes,
                                    seed=cfg.seed)
    fine = probe_linear_estimates(fine_grid, n_nodes=nodes_fine,
                                  seed=cfg.seed)
    stability = {name: abs(fine.constants[name] - value) / value
                 for name, value in coarse.constants.items()}
    out = _prepare_run_dir(cfg, snapshots=False)
    rows = []
    for label, report in (("coarse", coarse), ("fine", fine)):
        for name, value in sorted(report.constants.items()):
            rows.append([label, report.params["nx"], report.params["ny"],
                        report.params["n_nodes"], name, value])
    _write_csv(out / "trials.csv",
               ["resolution", "nx", "ny", "n_nodes", "constant", "value"],
               rows)
    summary = {
        "config": cfg.to_mapping(),
        "coarse": coarse.constants,
        "fine": fine.constants,
        "stability": stability,
        "max_stability": max(stability.values()),
        "seed": cfg.seed,
    }
    write_summary(out / "summary.json", summary)
    return summary


def run_probe_bilinear(cfg: RunConfig) -> BilinearReport:
    """Dyadic block product sweep on the configured space-time lattice."""
    grid = cfg.grid()
    seeds = tuple(range(cfg.probe_seeds))
    report = probe_block_bilinear(grid, cfg.t_box, cfg.nt, seeds=seeds)
    out = _prepare_run_dir(cfg, snapshots=False)
    rows = [[t.n1, t.l1, t.n2, t.l2, t.seed, t.product_norm, t.bound,
             t.ratio, int(t.separated)] for t in report.trials]
    _write_csv(out / "trials.csv",
               ["n1", "l1", "n2", "l2", "seed", "product_norm", "bound",
                "ratio", "separated"],
               rows)
    summary = {
        "config": cfg.to_mapping(),
        "max_ratio": report.max_ratio(),
        "separated_exponent": report.separated_exponent,
        "separated_count": report.separated_count,
        "n_trials": len(report.trials),
        "seeds": list(seeds),
    }
    write_summary(out / "summary.json", summary)
    return report


def run_probe_nonlinear(cfg: RunConfig) -> dict:
    """Quadratic-nonlinearity and fourth-power constants on random fields."""
    grid = cfg.grid()
    rows = []
    constants, l4_ratios = [], []
    for trial in range(cfg.probe_trials):
        f = random_bandlimited_spacetime(grid, cfg.t_box, cfg.nt,
                                         seed=(cfg.seed, trial))
        rep = probe_nonlinear_estimate(f)
        l4 = probe_l4_estimate(f)
        constants.append(rep.constant)
        l4_ratios.append(l4)
        rows.append([trial, rep.constant, rep.output_norm, rep.input_norm,
                     l4])
    out = _prepare_run_dir(cfg, snapshots=False)
    _write_csv(out / "trials.csv",
               ["trial", "constant", "output_norm", "input_norm", "l4_ratio"],
               rows)
    summary = {
        "config": cfg.to_mapping(),
        "max_constant": max(constants),
        "median_constant": float(np.median(constants)),
        "max_l4_ratio": max(l4_ratios),
        "n_trials": cfg.probe_trials,
        "seed": cfg.seed,
    }
    write_summary(out / "summary.json", summary)
    return summary
