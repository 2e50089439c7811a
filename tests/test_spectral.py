"""Grid, transform, multiplier, and dealiasing checks."""

import numpy as np
import pytest

from semzk.spectral import (
    Grid2D,
    RealField,
    SpectralField,
    apply_multiplier,
    dealias,
    forward_transform,
    inverse_transform,
    make_multiplier,
)


def random_field(grid, seed, zero_mean=False):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((grid.nx, grid.ny))
    if zero_mean:
        vals -= vals.mean()
    return RealField(grid, vals)


GRIDS = [
    Grid2D(16, 16, 2 * np.pi, 2 * np.pi),
    Grid2D(32, 16, 4 * np.pi, 2 * np.pi),
    Grid2D(64, 8, 10.0, 3.0),
]


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(7, 16, 1.0, 1.0)
    with pytest.raises(ValueError):
        Grid2D(16, 6, 1.0, 1.0)
    with pytest.raises(ValueError):
        Grid2D(16, 16, -1.0, 1.0)
    with pytest.raises(ValueError):
        Grid2D(16, 16, 1.0, float("nan"))


def test_grid_wavenumbers():
    g = Grid2D(16, 16, 2 * np.pi, 4 * np.pi)
    assert g.xi[1] == pytest.approx(1.0)
    assert g.mu[1] == pytest.approx(0.5)
    assert g.jx[8] == -8
    # Nyquist rows flagged in both directions.
    assert g.nyquist_mask[8, :].all() and g.nyquist_mask[:, 8].all()
    assert g.nyquist_mask.sum() == 16 + 16 - 1


@pytest.mark.parametrize("grid", GRIDS)
def test_round_trip(grid):
    u = random_field(grid, 1)
    v = inverse_transform(forward_transform(u))
    err = np.linalg.norm(v.values - u.values) / np.linalg.norm(u.values)
    assert err <= 1e-12


@pytest.mark.parametrize("grid", GRIDS)
def test_parseval(grid):
    u = random_field(grid, 2)
    F = forward_transform(u)
    phys = u.l2() ** 2
    spec = grid.lx * grid.ly * np.sum(np.abs(F.coeffs) ** 2)
    assert abs(phys - spec) / phys <= 1e-12
    assert F.l2() == pytest.approx(u.l2(), rel=1e-12)


def test_single_cosine_coefficients():
    g = Grid2D(32, 16, 5.0, 3.0)
    u = RealField(g, np.cos(2 * np.pi * g.x[:, None] / g.lx) * np.ones((1, g.ny)))
    F = forward_transform(u)
    c = F.coeffs.copy()
    assert abs(c[1, 0] - 0.5) <= 1e-13
    assert abs(c[-1, 0] - 0.5) <= 1e-13
    c[1, 0] = c[-1, 0] = 0.0
    assert np.max(np.abs(c)) <= 1e-13


def test_non_finite_rejected():
    g = GRIDS[0]
    bad = np.zeros((g.nx, g.ny))
    bad[3, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        RealField(g, bad)
    badc = np.zeros((g.nx, g.ny), dtype=complex)
    badc[0, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        SpectralField(g, badc)


def test_non_hermitian_rejected():
    g = GRIDS[0]
    c = np.zeros((g.nx, g.ny), dtype=complex)
    c[1, 0] = 1.0  # no conjugate partner at (-1, 0)
    with pytest.raises(ValueError, match="non-Hermitian"):
        inverse_transform(SpectralField(g, c))


def test_derivative_closed_form():
    g = Grid2D(32, 16, 4 * np.pi, 2 * np.pi)
    k = 2 * np.pi / g.lx
    u = RealField(g, np.sin(k * g.x[:, None]) * np.ones((1, g.ny)))
    ddx = make_multiplier(g, "ddx")
    ux = inverse_transform(apply_multiplier(forward_transform(u), ddx))
    expect = k * np.cos(k * g.x[:, None]) * np.ones((1, g.ny))
    assert np.max(np.abs(ux.values - expect)) <= 1e-12


@pytest.mark.parametrize("grid", GRIDS)
def test_multiplier_bounds(grid):
    m1 = make_multiplier(grid, "m1").values.real
    m2 = make_multiplier(grid, "m2").values.real
    assert np.max(np.abs(m1)) <= 1.0
    assert np.max(np.abs(m2)) <= 0.5
    assert m1[0, 0] == 0.0 and m2[0, 0] == 0.0
    # equality on the xi-axis away from the mean and Nyquist modes
    assert m1[1, 0] == 1.0


def test_m2_equality_on_diagonal():
    g = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    m2 = make_multiplier(g, "m2").values.real
    assert m2[3, 3] == 0.5
    assert m2[3, -3] == -0.5


def test_symbol_omega_values():
    g = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    w = make_multiplier(g, "symbol_omega").values.real
    # xi^3 + xi*mu^2 at (1, 2) and (2, 1)
    assert w[1, 2] == pytest.approx(5.0, abs=1e-13)
    assert w[2, 1] == pytest.approx(10.0, abs=1e-13)
    assert w[-1, -2] == pytest.approx(-5.0, abs=1e-13)


def test_nyquist_zeroed_in_tables():
    g = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    for kind in ("ddx", "ddy", "m1", "m2", "laplacian", "inv_laplacian_dx", "symbol_omega"):
        t = make_multiplier(g, kind)
        assert np.all(t.values[g.nyquist_mask] == 0.0), kind


def test_custom_multiplier_matches_poisson_identity():
    g = Grid2D(32, 32, 2 * np.pi, 2 * np.pi)
    u = random_field(g, 5, zero_mean=True)
    F = forward_transform(u)
    lap = make_multiplier(g, "laplacian")
    inv_dx = make_multiplier(g, "inv_laplacian_dx")
    ddx = make_multiplier(g, "ddx")
    lhs = apply_multiplier(apply_multiplier(F, inv_dx), lap)
    rhs = apply_multiplier(F, ddx)
    num = np.linalg.norm(lhs.coeffs - rhs.coeffs)
    assert num <= 1e-12 * np.linalg.norm(rhs.coeffs) + 1e-15


def test_multiplier_tables_shared_read_only():
    # equal but distinct grids share one cached table per kind
    a = make_multiplier(Grid2D(16, 8, 2 * np.pi, 3.0), "m1").values
    b = make_multiplier(Grid2D(16, 8, 2 * np.pi, 3.0), "m1").values
    assert a is b
    with pytest.raises(ValueError, match="read-only"):
        a[1, 1] = 0.0
    with pytest.raises(ValueError, match="unknown multiplier kind"):
        make_multiplier(GRIDS[0], "custom")


def test_multiplier_preserves_reality():
    g = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    u = random_field(g, 7)
    F = forward_transform(u)
    # symbol_omega is excluded: the odd real symbol maps real fields to
    # imaginary ones; only its exponential enters the evolution.
    for kind in ("ddx", "ddy", "m1", "m2", "laplacian", "inv_laplacian_dx"):
        out = apply_multiplier(F, make_multiplier(g, kind))
        # must stay invertible to a real field
        inverse_transform(out)


def test_grid_mismatch_rejected():
    F = forward_transform(random_field(GRIDS[0], 0))
    t = make_multiplier(GRIDS[1], "ddx")
    with pytest.raises(ValueError, match="different grids"):
        apply_multiplier(F, t)


def test_dealias_rule():
    g = Grid2D(32, 32, 2 * np.pi, 2 * np.pi)
    c = np.ones((g.nx, g.ny), dtype=complex)
    F = dealias(SpectralField(g, c))
    # 2/3 rule on nx=32: keep |j| <= 10, drop |j| >= 11
    assert F.coeffs[10, 0] == 1.0
    assert F.coeffs[11, 0] == 0.0
    assert F.coeffs[0, 10] == 1.0
    assert F.coeffs[0, -11] == 0.0
    again = dealias(F)
    assert np.array_equal(again.coeffs, F.coeffs)


def test_dealias_preserves_low_modes_exactly():
    g = Grid2D(32, 16, 2 * np.pi, 2 * np.pi)
    u = random_field(g, 11)
    F = forward_transform(u)
    D = dealias(F)
    keep = g.dealias_mask()
    assert np.array_equal(D.coeffs[keep], F.coeffs[keep])
    assert np.all(D.coeffs[~keep] == 0.0)
