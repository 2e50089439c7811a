"""Experiment drivers that write self-contained run directories.

Every driver resolves a :class:`~semzk.config.RunConfig` and writes its run
directory through :class:`_RunDir`: first the fully resolved configuration,
which reruns the run, last a machine-readable summary that embeds it.  In
between, ``simulate``, ``soliton-bench``, ``instability`` and ``picard``
write checkpoints (``snapshots/``), scalar diagnostics (``diagnostics.csv``)
and, with ``heatmaps``, ``heatmaps/``; ``instability`` adds ``growth.csv``
and ``picard`` ``iterations.csv``.  The three probe drivers write one
``trials.csv``.  Identical configurations produce bit-identical artifacts;
nothing time- or host-dependent is written.
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
    _check_equation,
    _wrapped_offset,
    sem_on_soliton,
    soliton_profile,
    soliton_shape,
)
from .integrators import PicardReport, TrajectoryPath, _step_count, evolve, picard_solve
from .norms import (
    DiagnosticsRecord,
    _snapshot_descriptors,
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
from .spectral import Grid2D, RealField, _half_of

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


class _RunDir:
    """The run directory of one driver and the files the drivers share.

    Building it makes the directory (with ``snapshots/`` or without) and
    writes the resolved configuration; :meth:`summary` ends the run with the
    summary, which embeds that configuration.
    """

    def __init__(self, cfg: RunConfig, *, snapshots: bool = True):
        self.cfg = cfg
        self.path = Path(cfg.out_dir)
        (self.path / "snapshots" if snapshots else self.path).mkdir(
            parents=True, exist_ok=True)
        (self.path / "resolved-config.toml").write_text(cfg.resolved_text(),
                                                        encoding="utf-8")

    def csv(self, name: str, header, rows) -> None:
        with open(self.path / name, "w", newline="",
                  encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)

    def trajectory(self, initial: RealField, t_initial: float,
                   final: RealField, t_final: float,
                   collector: DiagnosticsCollector) -> None:
        """The endpoint snapshots, ``diagnostics.csv`` and the heatmaps."""
        for name, u, t in (("initial", initial, t_initial),
                           ("final", final, t_final)):
            write_snapshot(self.path / "snapshots" / f"{name}.snap", u,
                           time=t, equation=self.cfg.equation)
            if self.cfg.heatmaps:
                (self.path / "heatmaps").mkdir(exist_ok=True)
                write_pgm(self.path / "heatmaps" / f"{name}.pgm", u.values)
        keys = collector.norm_keys()
        self.csv("diagnostics.csv", diagnostics_header(keys),
                 [rec.to_row(keys) for rec in collector.records])

    def summary(self, **fields) -> dict:
        payload = {"config": self.cfg.to_mapping(), **fields}
        write_summary(self.path / "summary.json", payload)
        return payload


class DiagnosticsCollector:
    """Evolution callback that gathers the diagnostics rows.

    Records time, the two conserved integrals, the H^1 norm, and any extra
    configured mixed norms.  The extra descriptors must omit the time axis
    (they are evaluated snapshot by snapshot).
    """

    def __init__(self, grid: Grid2D, norm_labels=()):
        self.grid = grid
        self.descriptors = _snapshot_descriptors(norm_labels)
        self.labels = [desc.label for desc in self.descriptors]
        self.records: list[DiagnosticsRecord] = []

    def __call__(self, step: int, time: float, u: RealField) -> None:
        extra = {"H1": sobolev_norm(u, 1.0)}
        if self.descriptors:
            slice_path = TrajectoryPath(self.grid, np.array([time]), [u])
            for desc in self.descriptors:
                extra[desc.label] = mixed_norm(slice_path, desc)
        self.records.append(DiagnosticsRecord(
            time, conserved_I1(u), conserved_I2(u), extra))

    def norm_keys(self) -> list[str]:
        return ["H1"] + self.labels


class _SnapshotWriter:
    """Writes interior checkpoints every ``stride`` steps (0 disables)."""

    def __init__(self, directory: Path, stride: int, equation: str):
        self.directory = directory
        self.stride = stride
        self.equation = equation

    def __call__(self, step: int, time: float, u: RealField) -> None:
        if self.stride and step and step % self.stride == 0:
            write_snapshot(self.directory / f"state_{step:06d}.snap", u,
                           time=time, equation=self.equation)


def _march(cfg: RunConfig, u0: RealField, equation: EquationKind, *,
           t_start: float = 0.0, observers=()):
    """Evolve ``u0`` from the global time ``t_start`` over the configured
    schedule into a fresh run directory.

    The diagnostics collector and the interior-snapshot writer run as
    callbacks every ``diagnostic_stride`` steps; the initial and final
    snapshots, ``diagnostics.csv`` and the heatmaps follow.  Every recorded
    time is the march's own, which starts at ``t_start``.  The
    ``observers`` are callbacks that run beside the collector, on the same
    steps, and write nothing.  Returns the
    :class:`_RunDir`, the endpoint trajectory, the diagnostics records and
    the final global time.  An equation the grid cannot carry (a soliton
    box too short) raises before the run directory is made.
    """
    _check_equation(u0.grid, equation)
    run = _RunDir(cfg)
    collector = DiagnosticsCollector(cfg.grid(), cfg.norms)
    snapper = _SnapshotWriter(run.path / "snapshots", cfg.snapshot_stride,
                              equation.kind)
    path = evolve(u0, equation, cfg.T, cfg.dt, t0=t_start,
                  callbacks=[collector, snapper, *observers],
                  callback_stride=cfg.diagnostic_stride)
    t_final = float(path.times[-1])
    run.trajectory(u0, t_start, path.fields[-1], t_final, collector)
    return run, path, collector.records, t_final


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
    snapshot resumes the stored time, from which the march restarts: it
    turns the stored lab-frame spectrum into the crest frame, anchored at
    time 0 with the configured crest position, so the background stands
    where the uninterrupted run has it.
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
    run, path, records, t_final = _march(cfg, u0, _equation_for(cfg),
                                         t_start=t_start)
    first, last = records[0], records[-1]
    summary = run.summary(
        equation=cfg.equation, t_start=t_start, t_final=t_final,
        n_steps=_step_count(cfg.T, cfg.dt),
        i1_initial=first.i1, i1_final=last.i1, i2_initial=first.i2,
        i2_final=last.i2, h1_final=last.norms["H1"])
    return SimulationReport(run.path, path, summary, records)


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
    run, path, records, t_final = _march(cfg, u0, EquationKind(cfg.equation))
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
    summary = run.summary(
        speed=speed, t_final=t_final, crest_position=crest,
        expected_position=target, crest_error_cells=crest_cells,
        shape_error=shape_error, i1_initial=first.i1, i1_final=last.i1,
        i2_initial=first.i2, i2_final=last.i2, i2_drift=i2_drift)
    return SolitonBenchmarkReport(run.path, crest, target, crest_cells,
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


#: Largest relative defect of the background invariant J (see
#: :func:`run_instability`) that a row inside the fit window may carry
#: before the run is flagged.
_BACKGROUND_DEFECT_FLAG = 5e-2


def run_instability(cfg: RunConfig) -> InstabilityReport:
    """Grow a transverse perturbation on the soliton and fit its rate.

    The perturbation evolves under the linearization around the traveling
    crest plus its own self-interaction.  The growth rate is the least-
    squares slope of the log of the perturbation norm over the window where
    that norm lies between ``window_low`` times its initial value and
    ``window_high`` times the norm of the background profile — after the
    transient, before saturation.

    The full state ``Phi + u`` conserves ``I2``, and the travelling profile
    ``Phi`` keeps its norm, so ``J(t) = 2 <Phi(t), u(t)> + ||u(t)||^2`` is
    constant along the exact flow.  Its defect ``|J(t) - J(0)| / ||u(t)||^2``
    at each diagnostics row measures how far the march has strayed from
    that flow: the summary records the largest and its time, and a defect
    above ``_BACKGROUND_DEFECT_FLAG`` inside the fit window flags the fit,
    whose rate then reads the march's error rather than the instability
    (as it does when the step is too long for the grid).

    The run always marches ``sem_on_soliton``, and the resolved config and
    summary say so, so a snapshot of the run resumes under its own resolved
    config.
    """
    cfg = cfg.replace(equation="sem_on_soliton")
    grid = cfg.grid()
    params = _soliton_params(cfg)
    equation = sem_on_soliton(params)
    v0 = perturbation_field(grid, cfg)
    phi_norm = math.sqrt(conserved_I2(soliton_profile(grid, params)))
    v0_norm = math.sqrt(conserved_I2(v0))
    # <Phi(t), u(t)> at each diagnostics row.  Phi does not vary in y, so
    # it reads u's y-mean column alone; Phi's column, transformed once at
    # time 0, moves with the crest by the phase exp(-i xi omega t).
    conj_phi = np.conj(_half_of(soliton_profile(grid, params))[:, 0])
    pairings: list[float] = []

    def pair(step: int, time: float, u: RealField) -> None:
        terms = conj_phi * np.exp(1j * params.omega * time * grid.xi) * _half_of(u)[:, 0]
        pairings.append(grid.lx * grid.ly * float(np.sum(terms.real)))

    run, _, records, _ = _march(cfg, v0, equation, observers=[pair])
    t_arr = np.array([rec.time for rec in records])
    i2 = np.array([rec.i2 for rec in records])
    n_arr = np.sqrt(i2)
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
    worst = worst_time = None
    if v0_norm > 0.0:
        invariant = 2.0 * np.array(pairings) + i2
        defect = np.abs(invariant - invariant[0]) / i2
        j = int(np.argmax(defect))
        worst, worst_time = float(defect[j]), float(t_arr[j])
        inside = np.where(in_window, defect, 0.0)
        j = int(np.argmax(inside))
        if inside[j] > _BACKGROUND_DEFECT_FLAG:
            flags.append(f"background invariant defect {inside[j]:.3g} at t = {t_arr[j]:.6g} "
                         "inside the fit window; reduce dt")
    run.csv("growth.csv", ["time", "norm"],
            list(zip(t_arr.tolist(), n_arr.tolist())))
    k_y = 2.0 * np.pi * cfg.perturbation_wavenumber / grid.ly
    summary = run.summary(
        k_y=k_y, sigma=sigma, v0_norm=v0_norm, phi_norm=phi_norm,
        window_low=low, window_high=high,
        window_samples=int(in_window.sum()), background_defect=worst,
        background_defect_time=worst_time, flags=flags)
    return InstabilityReport(run.path, k_y, sigma, t_arr, n_arr, (low, high),
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


#: Most doublings of the horizon in the window search.
_WINDOW_DOUBLINGS = 12


def run_picard_demo(cfg: RunConfig, *,
                    find_window: bool = False) -> PicardDemoReport:
    """Run the fixed-point iteration and record its contraction history.

    With ``picard_find_window`` the horizon is doubled until the iteration
    stops contracting, at most ``_WINDOW_DOUBLINGS`` (12) times, recording
    the last horizon at which every contraction ratio stayed below one — an
    empirical local existence window.  The summary's ``window_search_capped``
    says whether the search stopped at that cap rather than at a loss of
    contraction (None without a search).  The ``find_window`` keyword sets
    that key, so the resolved config and the summary record the search.
    """
    if find_window:
        cfg = cfg.replace(picard_find_window=True)
    grid = cfg.grid()
    u0 = _picard_data(cfg, grid)
    equation = _equation_for(cfg)
    path, report = picard_solve(u0, equation, cfg.T, nodes=cfg.picard_nodes,
                                tol=cfg.picard_tol)
    run = _RunDir(cfg)
    rows = []
    for k, distance in enumerate(report.distances):
        ratio = report.ratios[k - 1] if k >= 1 else ""
        rows.append([k, distance, ratio])
    run.csv("iterations.csv", ["iteration", "distance", "ratio"], rows)
    window = capped = None
    if cfg.picard_find_window:
        window = horizon = cfg.T
        for _ in range(_WINDOW_DOUBLINGS):
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
        # the last doubling still contracted: the cap, not the flow, ended it
        capped = window == horizon
    collector = DiagnosticsCollector(grid, cfg.norms)
    for k, (t, u) in enumerate(zip(path.times, path.fields)):
        collector(k, float(t), u)
    run.trajectory(u0, 0.0, path.fields[-1], float(path.times[-1]), collector)
    summary = run.summary(
        converged=report.converged, iterations=report.iterations,
        distances=list(report.distances), ratios=list(report.ratios),
        existence_window=window, window_search_capped=capped)
    return PicardDemoReport(run.path, report, path, window, summary)


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
    run = _RunDir(cfg, snapshots=False)
    rows = []
    for label, report in (("coarse", coarse), ("fine", fine)):
        for name, value in sorted(report.constants.items()):
            rows.append([label, report.params["nx"], report.params["ny"],
                        report.params["n_nodes"], name, value])
    run.csv("trials.csv",
            ["resolution", "nx", "ny", "n_nodes", "constant", "value"], rows)
    return run.summary(
        coarse=coarse.constants, fine=fine.constants, stability=stability,
        max_stability=max(stability.values()), seed=cfg.seed)


def run_probe_bilinear(cfg: RunConfig) -> BilinearReport:
    """Dyadic block product sweep on the configured space-time lattice."""
    grid = cfg.grid()
    seeds = tuple(range(cfg.probe_seeds))
    report = probe_block_bilinear(grid, cfg.t_box, cfg.nt, seeds=seeds)
    run = _RunDir(cfg, snapshots=False)
    rows = [[t.n1, t.l1, t.n2, t.l2, t.seed, t.product_norm, t.bound,
             t.ratio, int(t.separated)] for t in report.trials]
    run.csv("trials.csv",
            ["n1", "l1", "n2", "l2", "seed", "product_norm", "bound", "ratio",
             "separated"],
            rows)
    run.summary(
        max_ratio=report.max_ratio(),
        separated_exponent=report.separated_exponent,
        separated_count=report.separated_count, n_trials=len(report.trials),
        seeds=list(seeds))
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
    run = _RunDir(cfg, snapshots=False)
    run.csv("trials.csv",
            ["trial", "constant", "output_norm", "input_norm", "l4_ratio"],
            rows)
    return run.summary(
        max_constant=max(constants),
        median_constant=float(np.median(constants)),
        max_l4_ratio=max(l4_ratios), n_trials=cfg.probe_trials, seed=cfg.seed)
