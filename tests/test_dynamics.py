"""Soliton profiles, propagator, nonlinearities, and the Poisson solve."""

import numpy as np
import pytest

from semzk.dynamics import (
    LINEAR,
    SEM,
    ZK,
    EquationKind,
    SolitonParams,
    _quadratic_hat,
    background_terms,
    nonlinear_rhs,
    poisson_residual,
    potential_profile,
    potential_shape,
    propagator_apply,
    sem_on_soliton,
    soliton_profile,
    soliton_profile_dx,
    soliton_shape,
    soliton_shape_dx,
    solve_potential,
)
from semzk.integrators import ifrk4_step
from semzk.norms import conserved_I1, conserved_I2
from semzk.spectral import (
    Grid2D,
    RealField,
    _to_coeffs,
    apply_multiplier,
    forward_transform,
    inverse_transform,
    make_multiplier,
)


def band_limited_field(grid, seed, modes, amplitude=1.0):
    """Real field from explicit conjugate mode pairs (deterministic)."""
    rng = np.random.default_rng(seed)
    c = np.zeros((grid.nx, grid.ny), dtype=complex)
    for j, k in modes:
        a = rng.standard_normal() + 1j * rng.standard_normal()
        c[j, k] += a
        c[-j, -k] += np.conj(a)
    vals = np.real(np.fft.ifft2(c)) * grid.nx * grid.ny
    return RealField(grid, amplitude * vals / max(1.0, np.abs(vals).max()))


# ---------------------------------------------------------------------------
# closed-form profiles


def test_soliton_crest_and_mass():
    g = Grid2D(512, 16, 80.0, 2 * np.pi)
    for omega in (1.0, 2.25):
        p = SolitonParams(omega=omega, x0=40.0)
        u = soliton_profile(g, p, 0.0)
        assert abs(u.values.max() - 3.0 * omega) <= 1e-12
        # closed-form integrals of sech^2 and sech^4
        assert conserved_I1(u) / g.ly == pytest.approx(12.0 * np.sqrt(omega), rel=1e-12)
        assert conserved_I2(u) / g.ly == pytest.approx(24.0 * omega**1.5, rel=1e-12)


def test_soliton_travels_with_time_argument():
    g = Grid2D(256, 8, 80.0, 2 * np.pi)
    p = SolitonParams(omega=4.0, x0=10.0)
    t = 2.5  # crest moves to 10 + 4*2.5 = 20
    u = soliton_profile(g, p, t)
    assert g.x[np.argmax(u.values[:, 0])] == pytest.approx(20.0, abs=g.dx)


def test_potential_derivative_is_soliton():
    rng = np.random.default_rng(0)
    z = rng.uniform(-30, 30, 10_000)
    for omega in (1.0, 0.5, 3.0):
        lhs = 3.0 * omega * (1.0 / np.cosh(0.5 * np.sqrt(omega) * z)) ** 2
        assert np.max(np.abs(soliton_shape(omega, z) - lhs)) <= 1e-12 * 3 * omega
        # analytic derivative of the tanh profile reproduces the sech^2 profile
        h = 1e-6
        fd = (potential_shape(omega, z + h) - potential_shape(omega, z - h)) / (2 * h)
        assert np.max(np.abs(fd - soliton_shape(omega, z))) <= 1e-7


def test_potential_profile_not_wrapped():
    g = Grid2D(256, 8, 80.0, 2 * np.pi)
    p = SolitonParams(omega=1.0, x0=40.0)
    psi = potential_profile(g, p, 0.0)
    # monotone ramp between the asymptotes +-6
    col = psi.values[:, 0]
    assert np.all(np.diff(col) >= 0)
    assert col[0] == pytest.approx(-6.0, abs=1e-12)
    assert col[-1] == pytest.approx(6.0, abs=1e-10)


def test_soliton_profile_dx_matches_spectral_derivative():
    g = Grid2D(512, 8, 80.0, 2 * np.pi)
    p = SolitonParams(omega=1.0, x0=40.0)
    u = soliton_profile(g, p, 0.0)
    ux = inverse_transform(apply_multiplier(forward_transform(u), make_multiplier(g, "ddx")))
    assert np.max(np.abs(ux.values - soliton_profile_dx(g, p, 0.0).values)) <= 1e-10


def test_domain_too_small_rejected():
    g = Grid2D(128, 8, 40.0, 2 * np.pi)
    with pytest.raises(ValueError, match="domain too small"):
        soliton_profile(g, SolitonParams(omega=1.0))
    short = Grid2D(64, 8, 10.0, 2.0)
    eq = sem_on_soliton(SolitonParams(omega=1.0, x0=5.0))
    u = RealField(short, np.zeros((short.nx, short.ny)))
    with pytest.raises(ValueError, match="domain too small"):
        nonlinear_rhs(u, eq)
    with pytest.raises(ValueError, match="domain too small"):
        ifrk4_step(u, eq, 0.0, 0.01)


def test_param_validation():
    with pytest.raises(ValueError):
        SolitonParams(omega=-1.0)
    with pytest.raises(ValueError):
        EquationKind("unknown")
    with pytest.raises(ValueError):
        EquationKind("sem_on_soliton")  # missing params
    with pytest.raises(ValueError):
        EquationKind("zk", SolitonParams(1.0))


# ---------------------------------------------------------------------------
# propagator


def test_propagator_identity_and_unitarity():
    g = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    F = forward_transform(band_limited_field(g, 1, [(1, 0), (2, 3), (5, 1)]))
    assert np.array_equal(propagator_apply(F, 0.0).coeffs, F.coeffs)
    for t in (-10.0, -1.0, 0.3, 1.0, 10.0):
        assert propagator_apply(F, t).l2() == pytest.approx(F.l2(), rel=1e-12)


def test_propagator_group_law():
    g = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    F = forward_transform(RealField(g, np.random.default_rng(2).standard_normal((16, 16))))
    for s, t in ((0.5, 0.25), (-1.0, 2.0), (3.0, -0.5)):
        a = propagator_apply(propagator_apply(F, t), s)
        b = propagator_apply(F, s + t)
        assert (a - b).l2() <= 1e-12 * F.l2()


def test_propagator_single_mode_phase():
    # mode (1, 2) has omega = 1 + 4 = 5, so the crest pattern translates as
    # cos(x + 2y + 5t)
    g = Grid2D(32, 32, 2 * np.pi, 2 * np.pi)
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    u = RealField(g, np.cos(X + 2 * Y))
    t = 0.7
    moved = inverse_transform(propagator_apply(forward_transform(u), t))
    assert np.max(np.abs(moved.values - np.cos(X + 2 * Y + 5 * t))) <= 1e-12


def test_propagator_preserves_reality():
    g = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    F = forward_transform(RealField(g, np.random.default_rng(3).standard_normal((16, 16))))
    inverse_transform(propagator_apply(F, 1.234))  # must not raise


# ---------------------------------------------------------------------------
# nonlinearities


def test_zk_nonlinearity_closed_form():
    g = Grid2D(64, 8, 7.0, 2.0)
    u = RealField(g, np.cos(2 * np.pi * g.x[:, None] / g.lx) * np.ones((1, g.ny)))
    out = nonlinear_rhs(u, ZK)
    expect = -(np.pi / g.lx) * np.sin(4 * np.pi * g.x[:, None] / g.lx) * np.ones((1, g.ny))
    assert np.max(np.abs(out.values - expect)) <= 1e-12


def test_zk_nonlinearity_resolution_invariance():
    # the same band-limited function evaluated on a finer grid must give the
    # same product on the shared modes
    modes = [(1, 0), (0, 2), (3, 1), (2, 2)]
    g1 = Grid2D(32, 32, 2 * np.pi, 2 * np.pi)
    g2 = Grid2D(64, 64, 2 * np.pi, 2 * np.pi)
    u1 = band_limited_field(g1, 9, modes)
    c1 = np.fft.fft2(u1.values) / (32 * 32)
    c2 = np.zeros((64, 64), dtype=complex)
    for j in range(-16, 16):
        for k in range(-16, 16):
            c2[j, k] = c1[j, k]
    u2 = RealField(g2, np.real(np.fft.ifft2(c2)) * 64 * 64)
    n1 = forward_transform(nonlinear_rhs(u1, ZK)).coeffs
    n2 = forward_transform(nonlinear_rhs(u2, ZK)).coeffs
    err = max(abs(n1[j, k] - n2[j, k]) for j in range(-8, 8) for k in range(-8, 8))
    assert err <= 1e-13


def test_sem_reduces_to_zk_for_y_independent_mean_zero():
    g = Grid2D(64, 16, 11.0, 3.0)
    rng = np.random.default_rng(4)
    col = rng.standard_normal(g.nx)
    col -= col.mean()
    u = RealField(g, np.repeat(col[:, None], g.ny, axis=1))
    a = nonlinear_rhs(u, SEM)
    b = nonlinear_rhs(u, ZK)
    assert np.max(np.abs(a.values - b.values)) <= 1e-12 * max(1.0, np.abs(b.values).max())


def test_sem_nonlocal_terms_single_product_field():
    # u = sin(x) cos(2y): G1 u = u/5 exactly (m1 = 1/5 on all four modes)
    g = Grid2D(32, 32, 2 * np.pi, 2 * np.pi)
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    u = RealField(g, np.sin(X) * np.cos(2 * Y))
    F = forward_transform(u)
    g1 = inverse_transform(apply_multiplier(F, make_multiplier(g, "m1")))
    assert np.max(np.abs(g1.values - u.values / 5.0)) <= 1e-13
    # G2 u = (2/5) cos(x) sin(2y): the symbol xi*mu/(xi^2+mu^2) flips parity
    g2 = inverse_transform(apply_multiplier(F, make_multiplier(g, "m2")))
    assert np.max(np.abs(g2.values - 0.4 * np.cos(X) * np.sin(2 * Y))) <= 1e-13


def test_sem_matches_potential_route():
    # (1/2)(u u_x + u_x phi_x + u_y phi_y) with phi from the Poisson solve
    # must equal the sem nonlinearity computed through the m1/m2 symbols
    g = Grid2D(48, 48, 2 * np.pi, 2 * np.pi)
    u = band_limited_field(g, 11, [(1, 0), (2, 1), (0, 3), (4, 2), (1, 1)])
    phi = solve_potential(u)
    F = forward_transform(u)
    Phi = forward_transform(phi)
    ddx, ddy = make_multiplier(g, "ddx"), make_multiplier(g, "ddy")
    from semzk.spectral import dealias

    def phys(S):
        return inverse_transform(dealias(S)).values

    ux, uy = phys(apply_multiplier(F, ddx)), phys(apply_multiplier(F, ddy))
    px, py = phys(apply_multiplier(Phi, ddx)), phys(apply_multiplier(Phi, ddy))
    uu = phys(F)
    raw = 0.5 * (uu * ux + ux * px + uy * py)
    expect = inverse_transform(dealias(forward_transform(RealField(g, raw))))
    got = nonlinear_rhs(u, SEM)
    assert np.max(np.abs(got.values - expect.values)) <= 1e-12


@pytest.mark.parametrize("n", [48, 96, 192, 64, 256])
@pytest.mark.parametrize("eq", [ZK, SEM], ids=["zk", "sem"])
def test_highest_kept_mode_does_not_alias(n, eq):
    # N of the highest retained mode K lives at +-2K (and 0), which folds to
    # 2K - n; the two-thirds rule must keep that outside the retained band,
    # also when 3 divides n.
    g = Grid2D(n, n, 2 * np.pi, 2 * np.pi)
    keep = g.dealias_mask()
    K = int(g.jx[keep[:, 0]].max())
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    u = RealField(g, np.cos(K * X + K * Y))
    out = forward_transform(nonlinear_rhs(u, eq)).coeffs
    assert np.max(np.abs(out[keep])) <= 1e-12 * K


def test_mean_mode_of_nonlinearity_is_zero():
    # conservative form: every N is a divergence, so its (0,0) coefficient
    # is exactly zero before the inverse transform
    g = Grid2D(256, 16, 80.0, 2 * np.pi)
    u = band_limited_field(g, 14, [(3, 1), (5, 2), (8, 0), (0, 3)], amplitude=0.1)
    uhat = _to_coeffs(u.values)
    p = SolitonParams(omega=1.0, x0=40.0)
    for eq in (ZK, SEM, sem_on_soliton(p)):
        assert _quadratic_hat(uhat, g, eq, 0.3)[0, 0] == 0.0


def test_linear_kind_has_zero_rhs():
    g = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    u = band_limited_field(g, 5, [(1, 1), (2, 0)])
    assert np.all(nonlinear_rhs(u, LINEAR).values == 0.0)


def test_rhs_dispatch_soliton_background_additive():
    g = Grid2D(256, 16, 80.0, 2 * np.pi)
    p = SolitonParams(omega=1.0, x0=40.0)
    u = band_limited_field(g, 6, [(3, 1), (5, 2), (8, 0)], amplitude=0.1)
    t = 0.3
    total = nonlinear_rhs(u, sem_on_soliton(p), t)
    parts = nonlinear_rhs(u, SEM) + background_terms(u, p, t)
    assert np.max(np.abs(total.values - parts.values)) <= 1e-13


def test_background_terms_analytic_oracle():
    # all factors analytic: u built from explicit modes, phi in closed form;
    # expected = (1/2)(phi_x u + 2 phi u_x) + (1/2) phi_x G1 u with G1 u
    # assembled mode by mode from the rational symbol values.  The grid must
    # resolve the soliton spectrum well inside the dealias cutoff, otherwise
    # the dealiased result genuinely differs from the raw product.
    g = Grid2D(512, 16, 80.0, 2 * np.pi)
    p = SolitonParams(omega=1.0, x0=40.0)
    modes = [(2, 1), (5, 0), (3, 2)]
    rng = np.random.default_rng(12)
    c = np.zeros((g.nx, g.ny), dtype=complex)
    for j, k in modes:
        a = rng.standard_normal() + 1j * rng.standard_normal()
        c[j, k] += a
        c[-j, -k] += np.conj(a)
    u_vals = np.real(np.fft.ifft2(c)) * g.nx * g.ny
    u = RealField(g, u_vals)

    xi = g.xi2d
    mu = g.mu2d
    cx = c * (1j * xi)
    r2 = xi**2 + mu**2
    m1 = np.divide(xi**2, r2, out=np.zeros_like(r2), where=r2 > 0)
    n = g.nx * g.ny
    ux = np.real(np.fft.ifft2(cx)) * n
    g1u = np.real(np.fft.ifft2(c * m1)) * n
    t = 0.25
    z = (g.x - p.x0 - p.omega * t + 0.5 * g.lx) % g.lx - 0.5 * g.lx
    phi = soliton_shape(p.omega, z)[:, None]
    phix = soliton_shape_dx(p.omega, z)[:, None]
    expect = 0.5 * (phix * u_vals + 2.0 * phi * ux) + 0.5 * phix * g1u

    got = background_terms(u, p, t)
    # expected computed without dealiasing; bands are far from the cutoff so
    # the difference is pure round-off
    assert np.max(np.abs(got.values - expect)) <= 1e-8


def test_background_zero_field_is_zero():
    g = Grid2D(256, 8, 80.0, 2 * np.pi)
    p = SolitonParams(omega=1.0, x0=40.0)
    z = RealField(g, np.zeros((g.nx, g.ny)))
    assert np.all(background_terms(z, p, 0.0).values == 0.0)


# ---------------------------------------------------------------------------
# Poisson solve


def test_solve_potential_residual():
    for n in (32, 64):
        g = Grid2D(n, n, 2 * np.pi, 2 * np.pi)
        rng = np.random.default_rng(n)
        vals = rng.standard_normal((n, n))
        u = RealField(g, vals - vals.mean())
        phi = solve_potential(u)
        assert poisson_residual(u, phi) <= 1e-10 * u.l2()
        assert abs(phi.mean()) <= 1e-14


def test_poisson_residual_detects_wrong_potential():
    g = Grid2D(32, 32, 2 * np.pi, 2 * np.pi)
    rng = np.random.default_rng(8)
    u = RealField(g, rng.standard_normal((32, 32)))
    wrong = RealField(g, rng.standard_normal((32, 32)))
    assert poisson_residual(u, wrong) > 1e-3


def test_dispersive_operator_skew_symmetric():
    # <u, dx Laplacian u> = 0: the linear operator neither creates nor
    # destroys L2 mass
    g = Grid2D(32, 32, 2 * np.pi, 2 * np.pi)
    u = band_limited_field(g, 13, [(1, 0), (2, 3), (4, 1), (5, 5)])
    F = forward_transform(u)
    lap = make_multiplier(g, "laplacian")
    ddx = make_multiplier(g, "ddx")
    w = inverse_transform(apply_multiplier(apply_multiplier(F, lap), ddx))
    inner = np.sum(u.values * w.values) * g.dx * g.dy
    assert abs(inner) <= 1e-10 * u.l2() * max(w.l2(), 1.0)
