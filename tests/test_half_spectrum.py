"""The solvers' real half spectra against full-spectrum references.

Every reference here is built only from the public full-spectrum API
(``forward_transform``, ``make_multiplier``, ``dealias``, ``inverse_transform``
and ``propagator_apply``), so it shares no code with the half-spectrum
kernel, its column multiplicities or its tables.  The grids cover ``3 | n``
(96x48, 48x48) and a small ``ny`` whose Nyquist column is a large share of
the half spectrum (256x16, 64x8).
"""

import sys
import threading

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
    full = _symbols(grid)
    for kind in full:
        assert np.array_equal(tables[kind], full[kind][:, :half])
    assert np.array_equal(weight, _sobolev_weight(grid, 1.0)[:, :half] * tables["columns"])
    # the rank-1 derivatives, each zeroed on its own Nyquist line, are the
    # 2-D ones once the other line is zeroed too
    nyquist = grid.nyquist_mask[:, :half]
    for kind, rank1, shape in (("ddx", "i_xi", (grid.nx, 1)), ("ddy", "i_mu", (1, half))):
        assert tables[rank1].shape == shape
        spread = np.broadcast_to(tables[rank1], (grid.nx, half))
        assert np.array_equal(np.where(nyquist, 0.0, spread), full[kind][:, :half])
    assert not np.any(tables["i_xi"][grid.jx == -grid.nx // 2])
    assert not np.any(tables["i_mu"][:, -1])
    # the real symbols are stored as such, and no table can be written
    for kind in ("m1", "m2", "laplacian", "symbol_omega", "omega"):
        assert tables[kind].dtype == np.float64
    for cache in (full, tables):
        for kind in cache:
            assert not cache[kind].flags.writeable, kind
            with pytest.raises(ValueError):
                cache[kind][(0,) * cache[kind].ndim] = 1.0
        with pytest.raises(TypeError):
            cache["m1"] = None


def test_a_march_builds_only_the_tables_it_reads():
    # a sem march reads the mask, m1, m2, the rank-1 derivatives and the
    # dispersion: the other kinds, the 2-D derivatives among them, are
    # never built
    grid = Grid2D(96, 96, 2 * np.pi, 2 * np.pi)
    _half_symbols.cache_clear()
    u0 = noise_field(grid, 7, amplitude=1e-3)
    evolve(u0, SEM, 0.02, 0.01)
    built = set(_half_symbols(grid).built)
    assert {"mask", "m1", "m2", "i_xi", "i_mu", "omega"} <= built
    assert not built & {"laplacian", "inv_laplacian_dx", "symbol_omega", "ddx", "ddy"}
    # nor does asking whether a kind is there build it
    assert "ddx" in _half_symbols(grid) and "ddx" not in _half_symbols(grid).built


def test_half_tables_of_a_512_sem_run_stay_small():
    # float64 real symbols and rank-1 derivatives: 3.15 MiB at 512^2, where
    # every kind as a complex table came to about 14 MiB
    grid = Grid2D(512, 512, 80.0, 2 * np.pi)
    _half_symbols.cache_clear()
    u0 = noise_field(grid, 8, amplitude=1e-3)
    evolve(u0, SEM, 0.01, 0.01)
    sobolev_norm(forward_transform(u0), 1.0)
    tables = _half_symbols(grid)
    held = sum(tables[kind].nbytes for kind in tables.built)
    assert held <= 3.5 * 2**20, (held, tables.built)


def test_threads_reading_a_kind_first_together_get_one_table():
    # four threads on two CPUs, under a short switch interval, read a kind
    # of a fresh cache at once: it is built once, so all four get the same
    # table, and that table is the one a lone reader builds
    grid = Grid2D(256, 128, 80.0, 36.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for kind in ("m1", "i_mu", "ddx", "omega"):
            _half_symbols.cache_clear()
            tables = _half_symbols(grid)
            start = threading.Barrier(4)
            got = [None] * 4

            def read(i):
                start.wait(timeout=60)
                got[i] = tables[kind]

            readers = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for t in readers:
                t.start()
            for t in readers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in readers)
            assert got[0] is not None and all(table is got[0] for table in got), kind
            _half_symbols.cache_clear()
            assert np.array_equal(got[0], _half_symbols(grid)[kind])
    finally:
        sys.setswitchinterval(interval)


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
