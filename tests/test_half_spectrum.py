"""The solvers' real half spectra against full-spectrum references.

Every reference here is built only from the public full-spectrum API
(``forward_transform``, ``make_multiplier``, ``dealias``, ``inverse_transform``
and ``propagator_apply``), so it shares no code with the half-spectrum
kernel, its column multiplicities or its tables.  The grids cover ``3 | n``
(96x48, 48x48) and a small ``ny`` whose Nyquist column is a large share of
the half spectrum (256x16, 64x8).
"""

import numpy as np
import pytest

from semzk.dynamics import (
    SEM,
    ZK,
    SolitonParams,
    _Nonlinearity,
    nonlinear_rhs,
    propagator_apply,
    sem_on_soliton,
    soliton_profile,
)
from semzk.integrators import evolve, ifrk4_step, picard_solve
from semzk.norms import _half_sobolev_weight, _sobolev_weight, sobolev_norm
from semzk.spectral import (
    Grid2D,
    RealField,
    SpectralField,
    _half_symbols,
    _symbols,
    _to_half,
    dealias,
    forward_transform,
    inverse_transform,
    make_multiplier,
)

# lx = 80 leaves the omega = 1 soliton below the seam tolerance
GRIDS = [Grid2D(256, 16, 80.0, 2 * np.pi), Grid2D(96, 48, 80.0, 2 * np.pi),
         Grid2D(48, 48, 80.0, 36.0), Grid2D(64, 8, 80.0, 2 * np.pi)]
SOLITON = SolitonParams(omega=1.0, x0=30.0)
EQUATIONS = [ZK, SEM, sem_on_soliton(SOLITON)]
IDS = [f"{g.nx}x{g.ny}" for g in GRIDS]
REL = 1e-12


def noise_field(grid, seed, amplitude=0.1):
    """White noise: every mode, the Nyquist row and column included."""
    rng = np.random.default_rng(seed)
    return RealField(grid, amplitude * rng.standard_normal((grid.nx, grid.ny)))


def spectrum_times(F, kind):
    return SpectralField(F.grid, F.coeffs * make_multiplier(F.grid, kind).values)


def reference_rhs(u, eq, t):
    """N(u) = 1/2 [dx(u G1u) + dy(u G2u)] (+ soliton terms), or 1/2 dx(u^2)."""
    F = dealias(forward_transform(u))
    v = inverse_transform(F).values
    if eq.kind == "zk":
        flux_x, flux_y = v * v, np.zeros_like(v)
    else:
        g1 = inverse_transform(spectrum_times(F, "m1")).values
        g2 = inverse_transform(spectrum_times(F, "m2")).values
        flux_x, flux_y = v * g1, v * g2
        if eq.kind == "sem_on_soliton":
            phi = soliton_profile(u.grid, eq.soliton, t).values
            flux_x = flux_x + phi * (v + g1)
            flux_y = flux_y + phi * g2
    grid = u.grid
    nhat = (spectrum_times(forward_transform(RealField(grid, flux_x)), "ddx").coeffs
            + spectrum_times(forward_transform(RealField(grid, flux_y)), "ddy").coeffs)
    return inverse_transform(dealias(SpectralField(grid, 0.5 * nhat)))


def reference_step(u, eq, t, dt):
    """One integrating-factor RK4 step on full spectra, for
    ``sem_on_soliton`` in the frame of the crest anchored at time 0: a
    field shifted back by ``c t``, whose background is the profile at time 0
    and whose flow gains the phase ``exp(i tau c xi)``."""
    grid = u.grid
    c = eq.soliton.omega if eq.kind == "sem_on_soliton" else 0.0
    xi = make_multiplier(grid, "ddx").values.imag

    def rhs(C):
        V = inverse_transform(SpectralField(grid, C))
        return -forward_transform(reference_rhs(V, eq, 0.0)).coeffs

    def flow(C, tau):
        return propagator_apply(SpectralField(grid, C * np.exp(1j * tau * c * xi)), tau).coeffs

    def shift(C, tau):
        return C * np.exp(-1j * tau * c * xi)

    W = shift(forward_transform(u).coeffs, -t)
    k1 = rhs(W)
    k2 = flow(rhs(flow(W + 0.5 * dt * k1, 0.5 * dt)), -0.5 * dt)
    k3 = flow(rhs(flow(W + 0.5 * dt * k2, 0.5 * dt)), -0.5 * dt)
    k4 = flow(rhs(flow(W + dt * k3, dt)), -dt)
    out = flow(W + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), dt)
    return inverse_transform(SpectralField(grid, shift(out, t + dt)))


def assert_close(a, b):
    assert np.max(np.abs(a - b)) <= REL * np.max(np.abs(b))


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_nonlinear_rhs_matches_full_spectrum(grid):
    u = noise_field(grid, 1)
    for eq in EQUATIONS:
        assert_close(nonlinear_rhs(u, eq, 0.7).values, reference_rhs(u, eq, 0.7).values)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_kernel_overwrites_its_output(grid):
    # the kernel writes every column of the caller's buffer, the zeros
    # beyond its band included, whatever the buffer held before
    u = noise_field(grid, 5)
    uhat = _to_half(u.values)
    for eq in EQUATIONS:
        kernel = _Nonlinearity(grid, eq, t=0.7)
        clean = kernel(uhat, np.zeros_like(uhat)).copy()
        dirty = kernel(uhat, np.full_like(uhat, np.nan))
        assert np.array_equal(dirty, clean)
        assert not np.any(clean[:, kernel.band:])
        assert np.any(_half_symbols(grid)["mask"][:, kernel.band - 1])


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_half_tables_are_the_leading_columns_of_the_full_ones(grid):
    for cache in (_symbols, _half_symbols, _sobolev_weight, _half_sobolev_weight):
        cache.cache_clear()
    tables, weight = _half_symbols(grid), _half_sobolev_weight(grid, 1.0)
    # the half tables are built without the full ones
    assert _symbols.cache_info().currsize == 0
    assert _sobolev_weight.cache_info().currsize == 0
    half = grid.ny // 2 + 1
    for kind, full in _symbols(grid).items():
        assert np.array_equal(tables[kind], full[:, :half])
    assert np.array_equal(weight, _sobolev_weight(grid, 1.0)[:, :half] * tables["columns"])


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_ifrk4_step_matches_full_spectrum(grid):
    u = noise_field(grid, 2)
    for eq in EQUATIONS:
        assert_close(ifrk4_step(u, eq, 0.3, 0.01).values,
                     reference_step(u, eq, 0.3, 0.01).values)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_picard_distances_match_full_spectrum(grid):
    # the first two sweep distances, rebuilt on full spectra from the
    # iterates themselves; the iterates differ by far more than round-off
    u0 = noise_field(grid, 3, amplitude=20.0)
    T, nodes = 0.01, 5
    one, _ = picard_solve(u0, SEM, T, nodes=nodes, tol=0.0, max_iter=1)
    two, report = picard_solve(u0, SEM, T, nodes=nodes, tol=0.0, max_iter=2)
    U0 = forward_transform(u0)
    free = [propagator_apply(U0, t) for t in one.times]
    first = [forward_transform(f) for f in one.fields]
    second = [forward_transform(f) for f in two.fields]
    expected = [max(sobolev_norm(b - a, 1.0) for a, b in zip(free, first)),
                max(sobolev_norm(b - a, 1.0) for a, b in zip(first, second))]
    assert report.distances == pytest.approx(expected, rel=REL)


def test_divergence_message_norm_is_full_spectrum_l2():
    grid = Grid2D(32, 32, 2 * np.pi, 2 * np.pi)
    big = noise_field(grid, 4, amplitude=1e6)
    seen = []
    with pytest.raises(RuntimeError, match="diverged") as err:
        evolve(big, ZK, 25.0, 0.5, callbacks=[lambda step, t, u: seen.append(u)])
    # the last callback saw the last finite state
    l2 = forward_transform(seen[-1]).l2()
    assert f"last finite L2 norm {l2:.3e};" in str(err.value)
