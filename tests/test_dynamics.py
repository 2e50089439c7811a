"""Soliton profiles, propagator, nonlinearities, and the Poisson solve."""

import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import semzk.dynamics as dynamics
from semzk.dynamics import (
    _NODE_BATCH_BYTES,
    _SPLIT_FIELD_BYTES,
    LINEAR,
    SEM,
    ZK,
    EquationKind,
    SolitonParams,
    _Nonlinearity,
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
from semzk.integrators import _node_kernel, evolve, ifrk4_step
from semzk.norms import conserved_I1, conserved_I2
from semzk.probes import random_low_mode_field
from semzk.spectral import (
    Grid2D,
    RealField,
    _from_half,
    _half_symbols,
    _to_half,
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


def test_phase_keeps_the_bits_of_its_out_of_place_exponential():
    # _phase exponentiates its argument in place: for a scalar time and for
    # a vector of node times it gives today's expression to the bit
    for g in (Grid2D(64, 64, 2 * np.pi, 2 * np.pi), Grid2D(256, 16, 80.0, 36.0)):
        omega = _half_symbols(g)["omega"]
        for t in (0.37, np.linspace(0.0, 0.01, 65), np.array([-2.5, 0.0, 1e-3])):
            expected = np.exp(1j * np.asarray(t, dtype=float)[..., None, None] * omega)
            got = dynamics._phase(omega, t)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)


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


@pytest.mark.parametrize("n", [4, 32])
@pytest.mark.parametrize("eq", [ZK, SEM], ids=["zk", "sem"])
def test_resonant_shear_turns_the_band_edge_pair_at_the_closed_form_rate(n, eq):
    # The shear a cos(2y) is stationary on the torus (G1, G2 and omega
    # vanish at xi = 0), and it couples (n, 1) to (n, -1) at exact
    # resonance: Omega = omega(n, 1) + omega(0, -2) - omega(n, -1) = 0.
    # With the bilinear symbol i n / 2 for zk and i n (n^2 - 1) / (4 (n^2 +
    # 1)) for sem, a small (n, 1) mode turns into (n, -1) at the rate gamma =
    # a |symbol|, so |c(n, -1) / c(n, 1)| = tan(gamma T).  On nx = 3n + 2, n
    # is the last x-mode the 2/3 band keeps: this checks m1, m2, the mask
    # and the integrating factor at the band edge against a closed form.
    # The nonresonant neighbours (n, +-3), off resonance by |Omega| = 8n,
    # take a share of order gamma / |Omega| of the pair, which bounds the
    # gap (measured: 2.3e-5 and below, against 2.8e-3 and above).
    a, T = 0.1, 0.5
    g = Grid2D(3 * n + 2, 16, 2 * np.pi, 2 * np.pi)
    keep = g.dealias_mask()
    assert keep[n, 1] and keep[n, -1] and not keep[n + 1].any()
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    u0 = RealField(g, a * np.cos(2 * Y) + 1e-8 * np.cos(n * X + Y))
    c = forward_transform(evolve(u0, eq, T, 1e-3).fields[-1]).coeffs
    gamma = a * n / 2 if eq is ZK else a * n * (n * n - 1) / (4 * (n * n + 1))
    assert abs(abs(c[n, -1] / c[n, 1]) / np.tan(gamma * T) - 1) <= gamma / (8 * n)


@pytest.mark.parametrize("grid", [Grid2D(96, 96, 2 * np.pi, 2 * np.pi),
                                  Grid2D(256, 16, 80.0, 36.0),
                                  Grid2D(64, 48, 2 * np.pi, 2 * np.pi),
                                  Grid2D(512, 512, 2 * np.pi, 2 * np.pi)],
                         ids=["96x96", "256x16", "64x48", "512x512"])
@pytest.mark.parametrize("eq", [ZK, SEM], ids=["zk", "sem"])
def test_nonlinearity_is_orthogonal_to_its_field(grid, eq):
    # <u, N(u)> = 0 is what conserves I2; on band-limited data the
    # dealiased kernel keeps it to rounding, also when sem's two fluxes
    # run on two threads (512^2)
    for seed in range(3):
        u = random_low_mode_field(grid, seed)
        n = nonlinear_rhs(u, eq)
        cosine = abs(np.vdot(u.values, n.values)) / (np.linalg.norm(u.values)
                                                    * np.linalg.norm(n.values))
        assert cosine <= 1e-15


def test_mean_mode_of_nonlinearity_is_zero():
    # conservative form: every N is a divergence, so its (0,0) coefficient
    # is exactly zero before the inverse transform
    g = Grid2D(256, 16, 80.0, 2 * np.pi)
    u = band_limited_field(g, 14, [(3, 1), (5, 2), (8, 0), (0, 3)], amplitude=0.1)
    uhat = _to_half(u.values)
    p = SolitonParams(omega=1.0, x0=40.0)
    for eq in (ZK, SEM, sem_on_soliton(p)):
        assert _Nonlinearity(g, eq)(uhat, np.empty_like(uhat))[0, 0] == 0.0


def per_field_reference(grid, eq, uhat, t=0.0):
    """N of one state with one transform call per field, in the order u,
    G1u, G2u, flux_x, flux_y, spelled out without the kernel's buffers; the
    soliton background is the profile at the time ``t``, by default the
    fixed one of a kernel built for time 0."""
    out = np.zeros_like(uhat)
    if eq.kind == "linear":
        return out
    tab = _half_symbols(grid)
    mask = tab["mask"]
    w = int(np.count_nonzero(mask.any(axis=0)))
    mask, ddx, ddy = mask[:, :w], tab["ddx"][:, :w], tab["ddy"][:, :w]
    shape = (grid.nx, grid.ny)
    ud = np.where(mask, uhat[:, :w], 0.0)
    u = _from_half(ud, shape)
    if eq.kind == "zk":
        nhat = ddx * _to_half(u * u, 0.5)[:, :w]
    else:
        g1 = _from_half(ud * tab["m1"][:, :w], shape)
        g2 = _from_half(ud * tab["m2"][:, :w], shape)
        flux_x, flux_y = u * g1, u * g2
        if eq.kind == "sem_on_soliton":
            p = eq.soliton
            z = (grid.x - (p.x0 + p.omega * t) + 0.5 * grid.lx) % grid.lx - 0.5 * grid.lx
            phi = soliton_shape(p.omega, z)[:, None]
            flux_x = flux_x + (g1 + u) * phi
            flux_y = flux_y + g2 * phi
        nhat = ddx * _to_half(flux_x, 0.5)[:, :w] + ddy * _to_half(flux_y, 0.5)[:, :w]
    out[:, :w] = np.where(mask, nhat, 0.0)
    return out


KERNEL_KINDS = [LINEAR, ZK, SEM, sem_on_soliton(SolitonParams(1.0, 40.0))]


@pytest.mark.parametrize("eq", KERNEL_KINDS, ids=["linear", "zk", "sem", "sem_on_soliton"])
def test_batched_kernel_matches_per_node_calls(eq):
    # Five nodes, unbatched and in batches of 1, 3 (a partial last batch of
    # 2) and 8 (one partial batch), against the one-call-per-field
    # reference node by node: on 128x8 the kernel stacks every field of a
    # direction into one transform call, on 128^2 two fields to a call, on
    # 192x96 (sizes that 3 divides) and 256^2 it makes one call per field.
    # Each node has its own state, so a batch that mixed up rows would
    # differ from the reference.
    rng = np.random.default_rng(21)
    for g, per_call in ((Grid2D(128, 8, 80.0, 2 * np.pi), 32), (Grid2D(128, 128, 80.0, 2 * np.pi), 2),
                        (Grid2D(192, 96, 80.0, 2 * np.pi), 1), (Grid2D(256, 256, 80.0, 2 * np.pi), 1)):
        uhats = _to_half(0.1 * rng.standard_normal((5, g.nx, g.ny)))
        expected = np.stack([per_field_reference(g, eq, uhats[j]) for j in range(5)])
        single = _Nonlinearity(g, eq)
        assert single.per_call == per_call
        got = np.full_like(uhats, np.nan)
        for j in range(5):
            single(uhats[j], got[j])
        assert np.array_equal(got, expected)
        for batch in (1, 3, 8):
            batched = _Nonlinearity(g, eq, batch=batch)
            got = np.full_like(uhats, np.nan)
            for j0 in range(0, 5, batch):
                out = got[j0:j0 + batch]
                assert batched(uhats[j0:j0 + batch], out) is out
            assert np.array_equal(got, expected), (g.nx, batch)


def test_kernel_evaluates_the_profile_once(monkeypatch):
    # The background is the profile at the kernel's time, evaluated when the
    # kernel is built: evaluations and whole IFRK4 steps add none.
    g = Grid2D(256, 16, 80.0, 2 * np.pi)
    eq = KERNEL_KINDS[3]
    uhat = _to_half(band_limited_field(g, 15, [(3, 1), (5, 2), (8, 0)], amplitude=0.1).values)
    evaluations = []

    def counted(omega, z):
        evaluations.append(np.shape(z))
        return soliton_shape(omega, z)

    monkeypatch.setattr(dynamics, "soliton_shape", counted)
    for batch, state in ((None, uhat), (2, np.stack([uhat, uhat]))):
        kernel = _Nonlinearity(g, eq, batch=batch, t=0.35)
        assert evaluations == [(g.nx,)]
        first = kernel(state, np.empty_like(state)).copy()
        for _ in range(3):
            assert np.array_equal(kernel(state, np.empty_like(state)), first)
        assert evaluations == [(g.nx,)]
        expected = per_field_reference(g, eq, uhat, 0.35)
        assert all(np.array_equal(row, expected) for row in first.reshape((-1,) + uhat.shape))
        del evaluations[:]
    # three steps from a late start build one kernel; the other
    # evaluations check the seam
    evolve(RealField(g, _from_half(uhat)), eq, 0.3, 0.1, t0=7.25)
    assert evaluations.count((g.nx,)) == 1


@pytest.mark.parametrize("grid, batch, calls", [
    (Grid2D(256, 16, 80.0, 2 * np.pi), None, [("inverse", 3), ("forward", 2)]),
    (Grid2D(128, 128, 80.0, 2 * np.pi), None, [("inverse", 1), ("inverse", 2), ("forward", 2)]),
    (Grid2D(512, 512, 80.0, 2 * np.pi), None, [("inverse", 1)] * 3 + [("forward", 1)] * 2),
    (Grid2D(64, 64, 2 * np.pi, 2 * np.pi), 8, [("inverse", 1)] * 3 + [("forward", 1)] * 2),
], ids=["256x16", "128^2", "512^2", "64^2x8"])
def test_fields_per_transform_call(monkeypatch, grid, batch, calls):
    # One transform call spans at most _NODE_BATCH_BYTES of real samples
    # and at least one field: the three inverses and two forwards of sem at
    # 256x16 (32 KiB a field) go through one call each way, two fields at
    # 128^2 (128 KiB) share a call, while a field at 512^2 (2 MiB) and a
    # full Picard batch at 64^2 (8 nodes, 256 KiB) each get a call of their
    # own.  One field to a call, the x and y lanes' calls interleave, so
    # the calls are compared as a multiset.
    seen = []

    def spy(direction, transform):
        def call(a, *args, **kwargs):
            field_ndim = 2 if batch is None else 3
            seen.append((direction, a.shape[0] if a.ndim > field_ndim else 1))
            return transform(a, *args, **kwargs)
        return call

    monkeypatch.setattr(dynamics, "_from_half", spy("inverse", _from_half))
    monkeypatch.setattr(dynamics, "_to_half", spy("forward", _to_half))
    lead = () if batch is None else (batch,)
    uhat = _to_half(0.1 * np.random.default_rng(3).standard_normal(lead + (grid.nx, grid.ny)))
    kernel = _Nonlinearity(grid, SEM, batch=batch)
    assert kernel.per_call == max(1, _NODE_BATCH_BYTES // (8 * (batch or 1) * grid.nx * grid.ny))
    kernel(uhat, np.empty_like(uhat))
    assert Counter(seen) == Counter(calls)


@pytest.mark.parametrize("grid, eq", [(Grid2D(512, 512, 80.0, 2 * np.pi), SEM),
                                      (Grid2D(512, 512, 80.0, 2 * np.pi), KERNEL_KINDS[3]),
                                      (Grid2D(256, 16, 80.0, 2 * np.pi), KERNEL_KINDS[3])],
                         ids=["512^2-sem", "512^2-sem_on_soliton", "256x16-sem_on_soliton"])
def test_kernel_allocations(grid, eq):
    # The kernel holds its work buffers: u, G1u and G2u, and for
    # sem_on_soliton a field per flux; the band rows, ``ud`` and one per
    # lane; a half spectrum per lane.  An evaluation adds only transients:
    # an inverse call's x-pass intermediate, a band stack of the call's
    # fields, or numpy's iteration buffers for the band products.  With one
    # field per call that is the x-pass of one field, 1.34 MiB at 512^2, or
    # of each of the two lanes when they run side by side; stacked
    # (256x16), it stays within the byte budget of one call.
    uhat = _to_half(0.1 * np.random.default_rng(4).standard_normal((grid.nx, grid.ny)))
    out = np.empty_like(uhat)
    _Nonlinearity(grid, eq)(uhat, out)  # cached tables
    tracemalloc.start()
    try:
        kernel = _Nonlinearity(grid, eq)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kernel(uhat, out)
        kernel(uhat, out)
        transient = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    k, w, split = kernel.per_call, kernel.band, kernel.split
    assert split == (8 * grid.nx * grid.ny >= _SPLIT_FIELD_BYTES)
    soliton = eq.kind == "sem_on_soliton"
    field = 8 * grid.nx * grid.ny
    band_row = 16 * grid.nx * w
    buffers = ((3 + 2 * soliton) * field + 3 * band_row + 2 * 16 * uhat.size
               + grid.nx * w  # the boolean complement of the mask
               + soliton * 8 * grid.nx)  # the background's column
    assert held <= buffers + 4096, held - buffers
    if k == 1:
        assert transient <= (1 + split) * (band_row + 8192), transient - band_row
    else:
        assert transient <= _NODE_BATCH_BYTES


def transform_threads(monkeypatch):
    """Record the thread of every 2-D transform, by name."""
    threads = []

    def spy(name):
        transform = getattr(np.fft, name)

        def call(*args, **kwargs):
            threads.append(threading.current_thread())
            return transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, call)

    for name in ("rfftn", "irfftn"):
        spy(name)
    return threads


def hold_x_lane_until_the_y_lane_begins(monkeypatch, kernel):
    """Start the kernel's x lane only once its y lane has begun, so that a
    y lane handed to a thread always runs there."""
    begun = threading.Event()
    lanes = kernel._lanes

    def held(a, b, *args, **kwargs):
        if a == 1:
            begun.set()
        else:
            assert begun.wait(timeout=60)
        return lanes(a, b, *args, **kwargs)

    monkeypatch.setattr(kernel, "_lanes", held)


SPLIT_CASES = [(Grid2D(512, 512, 80.0, 2 * np.pi), None),
               (Grid2D(1024, 256, 80.0, 2 * np.pi), None),
               (Grid2D(512, 512, 80.0, 2 * np.pi), 1)]


@pytest.mark.parametrize("grid, batch", SPLIT_CASES, ids=["512^2", "1024x256", "512^2-node"])
@pytest.mark.parametrize("eq", KERNEL_KINDS[2:], ids=["sem", "sem_on_soliton"])
def test_split_kernel_matches_the_inline_kernel(monkeypatch, grid, batch, eq):
    # From _SPLIT_FIELD_BYTES of samples a field (512^2 and 1024x256 are at
    # it; a Picard kernel at 512^2 is a batch of one node) the y lane
    # runs on a thread of its own, whatever the host's CPUs; with one CPU
    # it runs inline.  Both give the one-call-per-field reference to the bit.
    assert 8 * grid.nx * grid.ny == _SPLIT_FIELD_BYTES
    rng = np.random.default_rng(31)
    lead = () if batch is None else (batch,)
    uhat = _to_half(0.1 * rng.standard_normal(lead + (grid.nx, grid.ny)))
    expected = per_field_reference(grid, eq, uhat.reshape(grid.nx, -1)).reshape(uhat.shape)
    got = {}
    for cpus in (2, 1):
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: cpus)
        kernel = _node_kernel(grid, eq, 33) if batch else _Nonlinearity(grid, eq)
        assert kernel.split and kernel.batch == batch
        if cpus == 2:
            hold_x_lane_until_the_y_lane_begins(monkeypatch, kernel)
        threads = transform_threads(monkeypatch)
        got[cpus] = kernel(uhat, np.full_like(uhat, np.nan))
        workers = {t.name for t in threads if t is not threading.main_thread()}
        assert len(threads) == 5
        assert len(workers) == (cpus == 2), workers
        monkeypatch.undo()
    assert np.array_equal(got[2], got[1])
    assert np.array_equal(got[2], expected)


@pytest.mark.parametrize("grid, batch", [(Grid2D(512, 510, 80.0, 2 * np.pi), None),
                                         (Grid2D(64, 64, 2 * np.pi, 2 * np.pi), 8)],
                         ids=["512x510", "64^2x8"])
def test_kernel_below_the_split_runs_on_the_caller(monkeypatch, grid, batch):
    # just below _SPLIT_FIELD_BYTES, and a full Picard batch at 64^2 (one
    # field to a transform call, but 256 KiB of samples), the lanes run
    # one after the other on the caller's thread
    assert 8 * (batch or 1) * grid.nx * grid.ny < _SPLIT_FIELD_BYTES
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    lead = () if batch is None else (batch,)
    uhat = _to_half(0.1 * np.random.default_rng(32).standard_normal(lead + (grid.nx, grid.ny)))
    kernel = _Nonlinearity(grid, SEM, batch=batch)
    assert kernel.per_call == 1 and not kernel.split
    threads = transform_threads(monkeypatch)
    kernel(uhat, np.empty_like(uhat))
    assert len(threads) == 5
    assert all(t is threading.main_thread() for t in threads)


@pytest.mark.parametrize("thread", ["late", "unstartable"])
def test_caller_runs_the_y_lane_its_thread_has_not_begun(monkeypatch, thread):
    # A thread that has not begun the y lane when the x lane ends
    # (as when the second core is busy), or that could not be started,
    # leaves it to the caller, which gives the same bits; the late thread
    # then finds the call taken and makes none.
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    g = Grid2D(512, 512, 80.0, 2 * np.pi)
    uhat = _to_half(0.1 * np.random.default_rng(36).standard_normal((g.nx, g.ny)))
    expected = per_field_reference(g, SEM, uhat)
    released, late = threading.Event(), []
    if thread == "late":
        run = dynamics._Beside._run

        def held_run(self):
            late.append(threading.current_thread())
            released.wait(timeout=60)
            run(self)

        monkeypatch.setattr(dynamics._Beside, "_run", held_run)
    else:
        def start(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(dynamics.threading.Thread, "start", start)
    kernel = _Nonlinearity(g, SEM)
    threads = transform_threads(monkeypatch)
    got = kernel(uhat, np.empty_like(uhat))
    released.set()
    for t in late:
        t.join(timeout=60)
        assert not t.is_alive()
    assert len(threads) == 5
    assert all(t is threading.main_thread() for t in threads)
    assert np.array_equal(got, expected)


def test_worker_runs_under_the_callers_error_state(monkeypatch):
    # evolve ignores overflow inside a step and reports a non-finite state
    # itself; the y lane, on its thread, must ignore it as well
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    g = Grid2D(512, 512, 80.0, 2 * np.pi)
    u0 = random_low_mode_field(g, 0, amplitude=1e3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match=r"step diverged at step 2 of 20 "):
            evolve(u0, SEM, 0.2, 0.01)
    assert [str(w.message) for w in caught] == []


def test_worker_error_propagates_from_the_kernel_call(monkeypatch):
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    g = Grid2D(512, 512, 80.0, 2 * np.pi)
    uhat = _to_half(0.1 * np.random.default_rng(33).standard_normal((g.nx, g.ny)))
    kernel = _Nonlinearity(g, SEM)
    expected = kernel(uhat, np.empty_like(uhat)).copy()
    hold_x_lane_until_the_y_lane_begins(monkeypatch, kernel)
    raised_on = []

    class Failing:
        # ``i mu``, whose product only the y lane forms
        def __array_ufunc__(self, *args, **kwargs):
            raised_on.append(threading.current_thread())
            raise ArithmeticError("y lane failed")

    lanes = kernel.lanes
    kernel.lanes = (lanes[0], (lanes[1][0], Failing()))
    with pytest.raises(ArithmeticError, match="y lane failed"):
        kernel(uhat, np.empty_like(uhat))
    assert len(raised_on) == 1 and raised_on[0] is not threading.main_thread()
    # the next call starts a thread of its own
    kernel.lanes = lanes
    assert np.array_equal(kernel(uhat, np.empty_like(uhat)), expected)


def test_kernels_on_several_threads_keep_their_bits(monkeypatch):
    # Four caller threads on two CPUs, each with its own split kernel and
    # state, under a short switch interval: each call's thread races its
    # caller for the y lane, and each result is its own state's
    # reference, to the bit.
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    g = Grid2D(512, 512, 80.0, 2 * np.pi)
    rng = np.random.default_rng(34)
    cases = [(eq, _to_half(0.1 * rng.standard_normal((g.nx, g.ny))))
             for eq in KERNEL_KINDS[2:] * 2]
    expected = [per_field_reference(g, eq, uhat) for eq, uhat in cases]
    got = [[] for _ in cases]

    def evaluate(i):
        eq, uhat = cases[i]
        kernel = _Nonlinearity(g, eq)
        for _ in range(3):
            got[i].append(kernel(uhat, np.empty_like(uhat)).copy())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=evaluate, args=(i,)) for i in range(len(cases))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for results, reference in zip(got, expected):
        assert len(results) == 3
        assert all(np.array_equal(r, reference) for r in results)


def test_split_march_ends_while_the_interpreter_shuts_down(tmp_path):
    # A 512^2 march on a non-daemon thread that the main thread leaves
    # behind keeps its kernel's threads while the interpreter waits for it
    # to end, and ends with the bits of the same march run in the open.
    script = textwrap.dedent("""\
        import sys, threading
        import numpy as np
        import semzk.dynamics as dynamics
        from semzk.integrators import evolve
        from semzk.probes import random_low_mode_field
        from semzk.spectral import Grid2D
        dynamics._usable_cpus = lambda: 2
        def march():
            u0 = random_low_mode_field(Grid2D(512, 512, 80.0, 2 * np.pi), 5)
            last = evolve(u0, dynamics.SEM, 0.05, 0.01).fields[-1]
            np.save(sys.argv[1], last.values)
        threading.Thread(target=march).start()
        """)
    env = dict(os.environ, PYTHONPATH=str(Path(dynamics.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "last.npy")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    u0 = random_low_mode_field(Grid2D(512, 512, 80.0, 2 * np.pi), 5)
    expected = evolve(u0, SEM, 0.05, 0.01).fields[-1].values
    assert np.array_equal(np.load(tmp_path / "last.npy"), expected)


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
# sem_on_soliton in the crest frame

CREST_GRID = Grid2D(256, 16, 80.0, 36.0)


def lab_frame_march(u0, eq, t0, dt, n_steps):
    """IFRK4 in the lab frame, the background sampled at every stage time
    ``t, t + dt/2, t + dt/2, t + dt`` (the scheme the march ran before it
    moved to the crest frame)."""
    grid = u0.grid
    E = np.exp(0.5j * dt * _half_symbols(grid)["omega"])
    E2 = E * E

    def k(v, t):
        return -per_field_reference(grid, eq, v, t)

    uhat = _to_half(u0.values)
    for i in range(n_steps):
        t = t0 + i * dt
        k1 = k(uhat, t)
        k2 = np.conj(E) * k(E * (uhat + 0.5 * dt * k1), t + 0.5 * dt)
        k3 = np.conj(E) * k(E * (uhat + 0.5 * dt * k2), t + 0.5 * dt)
        k4 = np.conj(E2) * k(E2 * (uhat + dt * k3), t + dt)
        uhat = E2 * (uhat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return uhat


@pytest.mark.parametrize("t0", [0.0, 7.25])
def test_crest_frame_march_matches_the_lab_frame_march(t0):
    # the same interaction-picture variable, exp(-i(omega + c xi)t) w =
    # exp(-i omega t) u, integrated in two frames: on smooth data they part
    # only by how the sampled profile shifts
    eq = sem_on_soliton(SolitonParams(omega=1.0, x0=20.0))
    u0 = band_limited_field(CREST_GRID, 22, [(3, 1), (5, 2), (8, 0), (2, 3)], amplitude=0.1)
    got = evolve(u0, eq, 0.5, 0.05, t0=t0).fields[-1]._half
    expected = lab_frame_march(u0, eq, t0, 0.05, 10)
    assert np.max(np.abs(got - expected)) <= 1e-11 * np.max(np.abs(expected))


def test_crest_frame_restart_matches_the_one_leg_run():
    # Ten steps of 0.1 from t0 = 31.51, and two legs of five, the second
    # from START.  In the lab frame the background read the stage times, and
    # leg two's round differently from the one-leg run's by more than the
    # crest offset's rounding absorbs, which left that restart 1.5e-16 off.
    # In the crest frame the kernel reads no time, and the restart differs
    # only by turning the state out of the frame and back.
    t0, dt, START = 31.51, 0.1, 32.010000000000005

    def stages(t):
        return np.array([t, t + 0.5 * dt, t + dt])

    assert max(np.max(np.abs(stages(START + j * dt) - stages(t0 + (5 + j) * dt)))
               for j in range(5)) > 4e-15
    eq = sem_on_soliton(SolitonParams(omega=1.0, x0=20.0))
    u0 = band_limited_field(CREST_GRID, 23, [(3, 1), (5, 2), (8, 0), (2, 3)], amplitude=0.1)
    one_leg = evolve(u0, eq, 1.0, dt, t0=t0).fields[-1]._half
    first = evolve(u0, eq, 0.5, dt, t0=t0)
    assert first.times[-1] == START
    second = evolve(first.fields[-1], eq, 0.5, dt, t0=START).fields[-1]._half
    assert np.max(np.abs(second - one_leg)) <= 1e-14 * np.max(np.abs(one_leg))


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
