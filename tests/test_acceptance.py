"""Acceptance suite: thirteen end-to-end checks of the package's guarantees.

Each test prints one ``[ACCEPT] criterion N <name>: PASS/FAIL <detail>`` line
(run pytest with ``-s`` to see them as they happen) and then asserts.  The
criteria cover operator correctness, conservation, convergence orders, the
dyadic probe sweeps, the instability scenario, and artifact determinism.
"""

import math
import time

import numpy as np
from scipy.integrate import solve_ivp

from semzk.config import RunConfig
from semzk.dyadic import annulus, bump, frequency_weight, modulation_weight
from semzk.dynamics import (
    SEM,
    ZK,
    poisson_residual,
    potential_shape,
    propagator_apply,
    soliton_shape,
    solve_potential,
)
from semzk.integrators import evolve, picard_solve
from semzk.norms import conserved_I1, conserved_I2, sobolev_norm
from semzk.probes import probe_block_bilinear, probe_linear_estimates, random_low_mode_field
from semzk.scenarios import run_instability, run_simulation, run_soliton_benchmark
from semzk.spectral import Grid2D, RealField, forward_transform, make_multiplier

TWO_PI = 2.0 * math.pi


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPT] criterion {number} {name}: {status} {detail}")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_01_potential_inversion():
    start = time.time()
    worst = 0.0
    for grid in (Grid2D(32, 32, TWO_PI, TWO_PI),
                 Grid2D(64, 64, TWO_PI, TWO_PI)):
        for seed in range(100):
            u = random_low_mode_field(grid, seed=(grid.nx, seed))
            residual = poisson_residual(u, solve_potential(u)) / u.l2()
            worst = max(worst, residual)
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, "potential inversion", ok,
            f"worst relative residual {worst:.3e} over 200 random fields "
            f"(tol 1e-10), {elapsed:.1f}s (< 5s)")


def test_criterion_02_multiplier_bounds():
    grid = Grid2D(32, 32, TWO_PI, TWO_PI)
    m1 = np.abs(make_multiplier(grid, "m1").values)
    m2 = np.abs(make_multiplier(grid, "m2").values)
    xi = np.broadcast_to(grid.xi2d, m1.shape)
    mu = np.broadcast_to(grid.mu2d, m1.shape)
    # the sup of m1 is reached on the axis mu = 0, of m2 on the diagonals
    on_axis = (np.abs(mu[m1 == m1.max()]) == 0.0).all()
    on_diag = (np.abs(np.abs(xi[m2 == m2.max()])
                      - np.abs(mu[m2 == m2.max()])) == 0.0).all()
    ok = (m1.max() == 1.0 and m2.max() == 0.5 and on_axis and on_diag)
    _report(2, "symbol bounds", ok,
            f"max|m1|={m1.max():.16f} (sup 1, on the axis: {on_axis}), "
            f"max|m2|={m2.max():.16f} (sup 1/2, on the diagonal: {on_diag})")


def test_criterion_03_free_group():
    times = (-2.0, -1.0, 0.5, 1.0, 2.0)
    worst_unitary = 0.0
    worst_group = 0.0
    for grid in (Grid2D(16, 16, TWO_PI, TWO_PI),
                 Grid2D(32, 32, 2 * TWO_PI, 2 * TWO_PI)):
        for seed in (2, 5):
            f = forward_transform(random_low_mode_field(grid, seed=seed))
            base = f.l2()
            for t in times:
                worst_unitary = max(
                    worst_unitary,
                    abs(propagator_apply(f, t).l2() - base) / base)
            for s, t in ((-2.0, 1.0), (0.5, -1.0), (2.0, 0.5)):
                once = propagator_apply(f, s + t)
                twice = propagator_apply(propagator_apply(f, t), s)
                worst_group = max(
                    worst_group,
                    float(np.max(np.abs(once.coeffs - twice.coeffs))))
    ok = worst_unitary <= 1e-12 and worst_group <= 1e-12
    _report(3, "free flow unitarity and group law", ok,
            f"norm drift {worst_unitary:.3e} over t in {times}, composition "
            f"gap {worst_group:.3e} (tol 1e-12)")


def test_criterion_04_soliton_transport(tmp_path):
    cfg = RunConfig(equation="zk", nx=512, ny=16, lx=80.0, ly=TWO_PI,
                    T=1.0, dt=0.002, omega=1.0, x0=20.0,
                    out_dir=str(tmp_path / "bench"))
    rep = run_soliton_benchmark(cfg)
    i1_rel = abs(rep.i1_initial / cfg.ly - 12.0) / 12.0
    i2_rel = abs(rep.i2_initial / cfg.ly - 24.0) / 24.0
    ok = (rep.shape_error <= 1e-6 and rep.crest_error_cells <= 1.0
          and rep.i2_drift <= 1e-8 and i1_rel <= 1e-10 and i2_rel <= 1e-10)
    _report(4, "soliton transport", ok,
            f"shape {rep.shape_error:.3e} (tol 1e-6), crest off "
            f"{rep.crest_error_cells:.3f} cells (tol 1), I2 drift "
            f"{rep.i2_drift:.3e} (tol 1e-8), masses off {i1_rel:.1e}/"
            f"{i2_rel:.1e} (tol 1e-10)")


def test_criterion_05_potential_derivative_identity():
    z = np.linspace(-20.0, 20.0, 10_000)
    h = 0.01
    # sixth-order central difference of the potential profile
    deriv = (45.0 * (potential_shape(1.0, z + h) - potential_shape(1.0, z - h))
             - 9.0 * (potential_shape(1.0, z + 2 * h)
                      - potential_shape(1.0, z - 2 * h))
             + (potential_shape(1.0, z + 3 * h)
                - potential_shape(1.0, z - 3 * h))) / (60.0 * h)
    gap = float(np.max(np.abs(deriv - soliton_shape(1.0, z))))
    _report(5, "potential derivative identity", gap <= 1e-12,
            f"max |psi' - phi| = {gap:.3e} over 10^4 points (tol 1e-12)")


def _kdv_oracle(v0: np.ndarray, lx: float, T: float) -> np.ndarray:
    """Reference 1d solution of ``v_t + v v_x + v_xxx = 0`` (same dealiasing)."""
    n = v0.size
    xi = 2.0 * np.pi * np.fft.fftfreq(n, lx / n)
    j = np.fft.fftfreq(n, 1.0 / n).astype(int)
    mask = 3 * np.abs(j) < n

    def rhs(t, yhat):
        yhat = np.where(mask, yhat, 0.0)
        v = np.fft.ifft(yhat * n).real
        vx = np.fft.ifft(1j * xi * yhat * n).real
        phat = np.where(mask, np.fft.fft(v * vx) / n, 0.0)
        return 1j * xi**3 * yhat - phat

    y0 = np.where(mask, np.fft.fft(v0) / n, 0.0)
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=False)
    return np.fft.ifft(sol.y[:, -1] * n).real


def test_criterion_06_plane_wave_reduction():
    grid = Grid2D(128, 8, 40.0, TWO_PI)
    profile = (np.cos(2.0 * np.pi * grid.x / 40.0)
               + 0.4 * np.sin(4.0 * np.pi * grid.x / 40.0))
    u0 = RealField(grid, np.repeat(profile[:, None], grid.ny, axis=1))
    path = evolve(u0, SEM, 0.5, 0.002)
    final = path.fields[-1].values
    y_spread = float(np.max(final.max(axis=1) - final.min(axis=1)))
    oracle = _kdv_oracle(profile, 40.0, 0.5)
    gap = float(np.max(np.abs(final[:, 0] - oracle)))
    ok = gap <= 1e-5 and y_spread <= 1e-10
    _report(6, "plane wave reduction", ok,
            f"max gap to 1d reference {gap:.3e} (tol 1e-5), transverse "
            f"spread {y_spread:.1e}")


def test_criterion_07_fixed_point_contraction():
    grid = Grid2D(32, 32, TWO_PI, TWO_PI)
    raw = random_low_mode_field(grid, seed=7)
    u0 = RealField(grid, (0.01 / sobolev_norm(raw, 1.0)) * raw.values)
    path, report = picard_solve(u0, ZK, 0.1, nodes=65, tol=1e-8)
    marching = evolve(u0, ZK, 0.1, 1e-3)
    gap = sobolev_norm(
        RealField(grid, path.fields[-1].values - marching.fields[-1].values),
        1.0)
    ratios_ok = bool(report.ratios) and all(r < 1.0 for r in report.ratios)
    ok = (report.converged and ratios_ok and report.distances[-1] <= 1e-8
          and gap <= 1e-6)
    _report(7, "fixed point contraction", ok,
            f"ratios max {max(report.ratios):.3e} (< 1), final sweep gap "
            f"{report.distances[-1]:.3e} (tol 1e-8), vs time stepper "
            f"{gap:.3e} (tol 1e-6)")


def test_criterion_08_integrator_order():
    grid = Grid2D(32, 32, TWO_PI, TWO_PI)
    u0 = random_low_mode_field(grid, seed=3, amplitude=1.0)
    finals = {dt: evolve(u0, ZK, 0.1, dt).fields[-1].values
              for dt in (0.001, 0.0005, 0.00025)}
    e1 = float(np.sqrt(np.mean((finals[0.001] - finals[0.0005]) ** 2)))
    e2 = float(np.sqrt(np.mean((finals[0.0005] - finals[0.00025]) ** 2)))
    order = math.log2(e1 / e2)
    _report(8, "integrator order", abs(order - 4.0) <= 0.2,
            f"self-convergence order {order:.3f} from step halvings at "
            "dt = 1e-3 (target 4.0 +/- 0.2)")


def test_criterion_09_dyadic_partition():
    x = np.linspace(0.0, 50.0, 2001)
    scalar = bump(x) + sum(annulus(x / 2**j) for j in range(1, 7))
    scalar_gap = float(np.max(np.abs(scalar - 1.0)))

    grid = Grid2D(32, 32, TWO_PI, TWO_PI)
    shells = (1, 2, 4, 8, 16, 32)
    freq = sum(frequency_weight(grid, n) for n in shells)
    freq_gap = float(np.max(np.abs(freq - 1.0)))

    # reconstructing a band-limited field from its frequency shells
    u = forward_transform(random_low_mode_field(grid, seed=9))
    pieces = sum(frequency_weight(grid, n) * u.coeffs for n in shells)
    recon_gap = float(np.max(np.abs(pieces - u.coeffs)))

    small = Grid2D(8, 8, TWO_PI, TWO_PI)
    levels = [1] + [2**j for j in range(1, 8)]
    mod = sum(modulation_weight(small, TWO_PI, 16, level) for level in levels)
    mod_gap = float(np.max(np.abs(mod - 1.0)))

    worst = max(scalar_gap, freq_gap, recon_gap, mod_gap)
    _report(9, "dyadic partition of unity", worst <= 1e-12,
            f"scalar {scalar_gap:.1e}, frequency shells {freq_gap:.1e}, "
            f"field reconstruction {recon_gap:.1e}, modulation shells "
            f"{mod_gap:.1e} (tol 1e-12)")


def test_criterion_10_block_product_sweep():
    start = time.time()
    coarse = probe_block_bilinear(Grid2D(32, 32, TWO_PI, TWO_PI),
                                  TWO_PI, 512)
    ratios = coarse.ratios()
    finite = all(np.isfinite(r) for r in ratios)

    fine = probe_block_bilinear(Grid2D(160, 160, 6 * TWO_PI, 6 * TWO_PI),
                                TWO_PI, 512,
                                n_pairs=((1, 4), (2, 8)),
                                l_pairs=((1, 1), (2, 2), (8, 8)))
    expo = fine.separated_exponent
    elapsed = time.time() - start
    ok = (finite and len(ratios) == 960 and np.isfinite(expo)
          and expo <= 0.1 and elapsed < 300.0)
    _report(10, "block product sweep", ok,
            f"{len(ratios)} coarse trials all finite (max ratio "
            f"{coarse.max_ratio():.3f}), fitted separated exponent "
            f"{expo:+.4f} (tol <= 0.1), {elapsed:.0f}s (< 300s)")


def test_criterion_11_linear_probe_stability():
    coarse = probe_linear_estimates(Grid2D(32, 32, TWO_PI, TWO_PI),
                                    n_nodes=65, seed=0)
    fine = probe_linear_estimates(Grid2D(64, 64, TWO_PI, TWO_PI),
                                  n_nodes=129, seed=0)
    drift = {name: abs(fine.constants[name] - value) / value
             for name, value in coarse.constants.items()}
    worst = max(drift.values())
    detail = ", ".join(f"{name} {100 * d:.1f}%" for name, d in drift.items())
    _report(11, "linear estimate stability", worst <= 0.2,
            f"refinement drift {detail} (tol 20%)")


def test_criterion_12_transverse_instability(tmp_path):
    start = time.time()
    sigmas = {}
    for eps in (1e-4, 5e-5):
        cfg = RunConfig(equation="sem_on_soliton", nx=256, ny=16, lx=80.0,
                        ly=36.0, T=600.0, dt=0.05, omega=1.0, x0=20.0,
                        perturbation_shape="sinusoidal-in-y",
                        perturbation_amplitude=eps, perturbation_wavenumber=1,
                        diagnostic_stride=20,
                        out_dir=str(tmp_path / f"eps-{eps}"))
        rep = run_instability(cfg)
        if rep.sigma is None:
            _report(12, "transverse instability", False,
                    f"no growth window at eps={eps}: {rep.flags}")
        # the march keeps the background invariant inside the fit window
        if rep.flags:
            _report(12, "transverse instability", False, f"flagged at eps={eps}: {rep.flags}")
        sigmas[eps] = rep.sigma
    elapsed = time.time() - start
    s_full, s_half = sigmas[1e-4], sigmas[5e-5]
    spread = abs(s_full - s_half) / s_full
    ok = s_full > 0.0 and spread <= 0.1 and elapsed < 300.0
    _report(12, "transverse instability", ok,
            f"sigma {s_full:.6f} > 0, half-amplitude agreement "
            f"{100 * spread:.2f}% (tol 10%), {elapsed:.0f}s (< 300s)")


def test_criterion_13_determinism_and_restart(tmp_path):
    start = time.time()
    # identical configurations must leave bit-identical artifacts
    base = dict(equation="zk", nx=64, ny=16, lx=40.0, ly=TWO_PI, T=0.05,
                dt=0.01, initial="random", amplitude=0.1, omega=4.0,
                x0=10.0, seed=11, diagnostic_stride=1)
    run_simulation(RunConfig(out_dir=str(tmp_path / "a"), **base))
    run_simulation(RunConfig(out_dir=str(tmp_path / "b"), **base))
    identical = all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
        for name in ("diagnostics.csv", "snapshots/final.snap"))

    # a snapshot restart of the moving-background system matches the
    # uninterrupted run
    pert = dict(equation="sem_on_soliton", nx=128, ny=8, lx=80.0, ly=TWO_PI,
                dt=0.01, omega=1.0, x0=20.0, perturbation_amplitude=1e-4,
                perturbation_wavenumber=1)
    full = run_simulation(RunConfig(T=0.4, out_dir=str(tmp_path / "full"),
                                    **pert))
    run_simulation(RunConfig(T=0.2, out_dir=str(tmp_path / "leg1"), **pert))
    second = run_simulation(RunConfig(
        T=0.2, initial="snapshot",
        initial_path=str(tmp_path / "leg1" / "snapshots" / "final.snap"),
        out_dir=str(tmp_path / "leg2"), **pert))
    restart_gap = float(np.max(np.abs(second.final.values
                                      - full.final.values)))
    elapsed = time.time() - start
    ok = identical and restart_gap <= 1e-10 and elapsed < 60.0
    _report(13, "determinism and restart", ok,
            f"reruns bit-identical: {identical}, restart gap "
            f"{restart_gap:.3e} (tol 1e-10), {elapsed:.0f}s (< 60s)")
