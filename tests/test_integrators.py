"""Duhamel quadrature, Picard iteration, and the IFRK4 marcher."""

import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from semzk.dynamics import (
    LINEAR,
    SEM,
    ZK,
    SolitonParams,
    _Nonlinearity,
    _phase,
    propagator_apply,
    sem_on_soliton,
    soliton_profile,
)
import semzk.integrators as integrators
from semzk.integrators import (
    TrajectoryPath,
    _duhamel_hat,
    _node_kernel,
    duhamel_term,
    evolve,
    ifrk4_step,
    picard_solve,
)
from semzk.norms import conserved_I1, conserved_I2, sobolev_norm
from semzk.scenarios import DiagnosticsCollector
from semzk.spectral import (
    Grid2D,
    RealField,
    _from_half,
    _half_symbols,
    _to_half,
    forward_transform,
    inverse_transform,
)

SMALL = Grid2D(32, 32, 2 * np.pi, 2 * np.pi)


def smooth_field(grid, seed, amplitude, modes=((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2))):
    rng = np.random.default_rng(seed)
    c = np.zeros((grid.nx, grid.ny), dtype=complex)
    for j, k in modes:
        a = rng.standard_normal() + 1j * rng.standard_normal()
        c[j, k] += a
        c[-j, -k] += np.conj(a)
    vals = np.real(np.fft.ifft2(c)) * grid.nx * grid.ny
    return RealField(grid, amplitude * vals / np.abs(vals).max())


def free_path(grid, u0, T, n_nodes):
    F = forward_transform(u0)
    times = np.linspace(0.0, T, n_nodes)
    fields = [inverse_transform(propagator_apply(F, float(t))) for t in times]
    return TrajectoryPath(grid, times, fields)


# ---------------------------------------------------------------------------
# trajectory container


def test_trajectory_validation():
    u = smooth_field(SMALL, 0, 0.1)
    with pytest.raises(ValueError, match="uniformly spaced"):
        TrajectoryPath(SMALL, np.array([0.0, 0.1, 0.3]), [u, u, u])
    with pytest.raises(ValueError, match="increasing"):
        TrajectoryPath(SMALL, np.array([0.0, -0.1, -0.2]), [u, u, u])
    with pytest.raises(ValueError, match="length mismatch"):
        TrajectoryPath(SMALL, np.array([0.0, 0.1]), [u])
    path = TrajectoryPath(SMALL, np.array([0.0, 0.5, 1.0]), [u, u, u])
    assert path.node_index(0.5) == 1
    with pytest.raises(ValueError, match="outside"):
        path.node_index(2.0)
    with pytest.raises(ValueError, match="lattice"):
        path.node_index(0.3)


# ---------------------------------------------------------------------------
# Duhamel terms


def test_duhamel_zero_cases():
    u = smooth_field(SMALL, 1, 0.5)
    path = free_path(SMALL, u, 0.5, 9)
    at0 = duhamel_term(ZK, path, 0.0)
    assert np.all(at0.values == 0.0)
    zpath = free_path(SMALL, RealField(SMALL, np.zeros((32, 32))), 0.5, 9)
    assert np.all(duhamel_term(ZK, zpath, 0.5).values == 0.0)
    assert np.all(duhamel_term(LINEAR, path, 0.5).values == 0.0)


def test_duhamel_single_mode_closed_form():
    """Trapezoid Duhamel vs. the analytic oscillatory integral, O(dt^2)."""
    g = Grid2D(32, 8, 2 * np.pi, 2 * np.pi)
    k = 1.0
    u0 = RealField(g, np.cos(k * g.x)[:, None] * np.ones((1, g.ny)))
    T = 0.4
    w1, w2 = k**3, (2 * k) ** 3
    # coefficient of mode (2, 0):
    #   -(k/4i) e^{i w2 T} (e^{i(2w1-w2)T} - 1) / (i (2w1 - w2))
    expect = -(k / 4j) * np.exp(1j * w2 * T) * (np.exp(1j * (2 * w1 - w2) * T) - 1) \
        / (1j * (2 * w1 - w2))
    errs = []
    for M in (33, 65, 129):
        path = free_path(g, u0, T, M)
        c = forward_transform(duhamel_term(ZK, path, T)).coeffs[2, 0]
        errs.append(abs(c - expect))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)
    assert errs[2] <= 5e-6


def test_duhamel_background_kinds_run():
    g = Grid2D(256, 8, 80.0, 2 * np.pi)
    p = SolitonParams(omega=1.0, x0=40.0)
    u = smooth_field(g, 2, 0.1, modes=((3, 1), (7, 0), (5, 2)))
    path = free_path(g, u, 0.2, 9)
    for eq in (SEM, sem_on_soliton(p)):
        out = duhamel_term(eq, path, 0.2)
        assert np.all(np.isfinite(out.values))
        assert out.l2() > 0


@pytest.mark.parametrize("nodes", [1, 2, 17])
def test_duhamel_trapezoid_matches_scipy_bits(nodes):
    # the in-place sum repeats cumulative_trapezoid's operations in its order
    g = Grid2D(48, 32, 2 * np.pi, 2 * np.pi)
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 0.3, nodes)
    uhats = _to_half(20.0 * rng.standard_normal((nodes, g.nx, g.ny)))
    phases = _phase(_half_symbols(g)["omega"], times)
    kernel = _Nonlinearity(g, SEM)
    integrand = np.empty_like(uhats)
    for j in range(nodes):
        kernel(uhats[j], integrand[j])
        np.multiply(np.conj(phases[j]), integrand[j], out=integrand[j])
    expected = cumulative_trapezoid(integrand, x=times, axis=0, initial=0.0)
    nhat = np.empty_like(uhats)
    got = _duhamel_hat(uhats, times, phases, _node_kernel(g, SEM, nodes), nhat)
    assert got is nhat
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("eq", [SEM, sem_on_soliton(SolitonParams(1.0, 40.0))],
                         ids=["sem", "sem_on_soliton"])
def test_duhamel_bits_do_not_depend_on_the_batch(eq):
    # 17 nodes in batches of 1, of 3 (a partial last batch of 2) and of all
    # 17: the batch changes how many nodes one kernel call sees, and which
    # slots take their lower integrand across a batch boundary, not a bit
    g = Grid2D(128, 8, 80.0, 2 * np.pi)
    rng = np.random.default_rng(6)
    times = np.linspace(0.0, 0.2, 17)
    uhats = _to_half(0.1 * rng.standard_normal((17, g.nx, g.ny)))
    phases = _phase(_half_symbols(g)["omega"], times)
    results = [_duhamel_hat(uhats, times, phases, _Nonlinearity(g, eq, batch=b),
                            np.empty_like(uhats)) for b in (1, 3, 17)]
    assert np.any(results[0] != 0.0)
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])


# ---------------------------------------------------------------------------
# Picard iteration


def test_picard_zero_data():
    z = RealField(SMALL, np.zeros((32, 32)))
    path, rep = picard_solve(z, ZK, 0.5, nodes=9)
    assert rep.converged and rep.iterations == 1
    assert rep.distances == [0.0]
    assert rep.ratios == []
    assert all(np.all(f.values == 0.0) for f in path.fields)


def test_picard_contracts_and_matches_marcher():
    u0 = smooth_field(SMALL, 7, 1.0)
    u0 = (0.01 / sobolev_norm(u0, 1.0)) * u0
    for eq in (ZK, SEM):
        path, rep = picard_solve(u0, eq, 0.1, nodes=65, tol=1e-12, max_iter=30)
        assert rep.converged
        assert all(r < 1.0 for r in rep.ratios)
        assert rep.distances == sorted(rep.distances, reverse=True)
        march = evolve(u0, eq, 0.1, 1e-3).fields[-1]
        assert (path.fields[-1] - march).l2() <= 1e-8


def test_picard_report_shapes():
    u0 = smooth_field(SMALL, 3, 0.05)
    _, rep = picard_solve(u0, ZK, 0.2, nodes=33, tol=1e-10)
    assert len(rep.ratios) == len(rep.distances) - 1
    assert rep.iterations == len(rep.distances)


def test_picard_memory_in_node_stacks():
    # A stack is one complex half spectrum per node.  The sweep holds the
    # phases, the iterate and the integrand buffer, which then takes the
    # next iterate while the iterate's buffer takes the difference for the
    # distance, squared in place; the rest is the output fields, built after
    # the sweep's buffers are released (4.02 stacks at 128^2).  On a small
    # grid the batched kernel's buffers weigh more next to a stack; the
    # batch cap of 8 nodes keeps 32^2 at 4.15 stacks.
    for n, bound in ((128, 4.1), (32, 4.25)):
        g = Grid2D(n, n, 2 * np.pi, 2 * np.pi)
        u0 = smooth_field(g, 8, 0.1)
        picard_solve(u0, SEM, 1e-3, nodes=5, tol=0.0, max_iter=1)  # cached tables
        stack = 65 * g.nx * (g.ny // 2 + 1) * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            _, rep = picard_solve(u0, SEM, 0.01, nodes=65, tol=0.0, max_iter=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.iterations == 3
        assert peak < bound * stack, (n, peak / stack)


def test_picard_fields_hold_the_final_iterate():
    # every node holds its half spectrum, a view of one node stack, and its
    # samples are those of one stacked inverse of that stack, bit for bit;
    # node 0 holds u0's own half spectrum, also when u0 holds one itself
    u0 = smooth_field(SMALL, 7, 0.5)
    held = RealField._of_half(SMALL, _to_half(u0.values))
    for start in (u0, held):
        path, rep = picard_solve(start, SEM, 0.05, nodes=9)
        assert rep.converged
        halves = [f._half for f in path.fields]
        assert all(h is not None and h.base is halves[0].base for h in halves)
        stack = np.stack(halves)
        assert np.array_equal(stack[0], _to_half(u0.values))
        assert np.array_equal(np.stack([f.values for f in path.fields]), _from_half(stack))


def test_picard_divergence_detected():
    big = smooth_field(SMALL, 4, 300.0)
    with pytest.raises(RuntimeError, match="diverged"):
        picard_solve(big, ZK, 2.0, nodes=17, max_iter=25)


def test_picard_divergence_names_the_first_nonfinite_node(monkeypatch):
    u0 = smooth_field(SMALL, 4, 0.1)
    _, first = picard_solve(u0, ZK, 0.2, nodes=17, tol=0.0, max_iter=1)
    sweeps = []

    def poisoned(uhats, times, phases, kernel, nhat):
        integ = _duhamel_hat(uhats, times, phases, kernel, nhat)
        sweeps.append(None)
        if len(sweeps) == 2:
            integ[5, 3, 2] = np.nan
            integ[9:] = np.inf
        return integ

    monkeypatch.setattr(integrators, "_duhamel_hat", poisoned)
    message = (f"picard iteration diverged at sweep 2: first non-finite node 5 of 17 "
               f"(t = {0.2 * 5 / 16:.6g}); last distance {first.distances[0]:.3e}")
    with pytest.raises(RuntimeError) as err:
        picard_solve(u0, ZK, 0.2, nodes=17, tol=0.0, max_iter=4)
    assert str(err.value) == message


def test_picard_divergence_reports_where():
    big = smooth_field(SMALL, 4, 300.0)
    with pytest.raises(RuntimeError) as err:
        picard_solve(big, ZK, 2.0, nodes=17, max_iter=25)
    found = re.fullmatch(r"picard iteration diverged at sweep \d+: first non-finite node "
                         r"(\d+) of 17 \(t = (\S+)\); last distance \S+", str(err.value))
    assert found, str(err.value)
    node, t = int(found[1]), float(found[2])
    # node 0 is the data itself, which stays finite
    assert 1 <= node <= 16
    assert t == pytest.approx(2.0 * node / 16, rel=1e-5)


def test_picard_divergence_stops_at_an_infinite_distance():
    # on this data a sweep's iterate stays finite while its H^s distance
    # overflows; that sweep must raise, not be recorded as an inf distance
    big = smooth_field(SMALL, 4, 300.0)
    with pytest.raises(RuntimeError) as err:
        picard_solve(big, ZK, 2.0, nodes=17, max_iter=25)
    found = re.search(r"last distance (\S+)$", str(err.value))
    assert found and math.isfinite(float(found[1])), str(err.value)


def test_picard_rejects_bad_horizon():
    u0 = smooth_field(SMALL, 5, 0.1)
    with pytest.raises(ValueError):
        picard_solve(u0, ZK, 0.0)
    with pytest.raises(ValueError):
        picard_solve(u0, ZK, 1.0, nodes=1)
    with pytest.raises(ValueError, match="nodes"):
        picard_solve(u0, ZK, 1.0, nodes=2.5)
    with pytest.raises(ValueError, match="max_iter"):
        picard_solve(u0, ZK, 1.0, max_iter=0)


# ---------------------------------------------------------------------------
# IFRK4


def test_ifrk4_linear_step_equals_propagator():
    u = smooth_field(SMALL, 8, 1.0)
    dt = 0.05
    stepped = ifrk4_step(u, LINEAR, 0.0, dt)
    exact = inverse_transform(propagator_apply(forward_transform(u), dt))
    assert (stepped - exact).l2() <= 1e-13 * max(1.0, u.l2())


def test_ifrk4_zero_fixed_point():
    z = RealField(SMALL, np.zeros((32, 32)))
    out = ifrk4_step(z, SEM, 0.0, 0.01)
    assert np.all(out.values == 0.0)


def test_ifrk4_divergence_detected():
    big = smooth_field(SMALL, 9, 1e6)
    with pytest.raises(RuntimeError, match="reduce dt"):
        u = big
        for _ in range(50):
            u = ifrk4_step(u, ZK, 0.0, 0.5)


def test_ifrk4_fourth_order():
    u0 = smooth_field(SMALL, 7, 0.1)
    T = 0.25
    base = 0.005
    sols = [evolve(u0, ZK, T, dt).fields[-1] for dt in (base, base / 2, base / 4)]
    e1 = (sols[0] - sols[1]).l2()
    e2 = (sols[1] - sols[2]).l2()
    order = np.log2(e1 / e2)
    assert 3.8 <= order <= 4.2


# ---------------------------------------------------------------------------
# evolve


def test_evolve_zero_horizon():
    u0 = smooth_field(SMALL, 10, 0.2)
    path = evolve(u0, ZK, 0.0, 0.01)
    assert path.n_nodes == 1
    assert np.array_equal(path.fields[0].values, u0.values)


def test_evolve_sampling_and_callbacks():
    u0 = smooth_field(SMALL, 11, 0.1)
    seen = []
    path = evolve(u0, ZK, 0.1, 0.001, callbacks=[lambda i, t, f: seen.append((i, t))],
                  callback_stride=25)
    assert [i for i, _ in seen] == [0, 25, 50, 75, 100]
    assert path.n_nodes == 2  # the endpoints only
    assert np.array_equal(path.fields[0].values, u0.values)
    assert path.times[-1] == pytest.approx(0.1)


def test_evolve_memory_does_not_grow_with_steps():
    # Only the endpoints are kept, so the peak is set by one step's
    # temporaries and not by the number of steps.
    g = Grid2D(64, 64, 2 * np.pi, 2 * np.pi)
    u0 = smooth_field(g, 15, 0.1)
    evolve(u0, SEM, 1e-3, 1e-3)  # build the cached spectral tables first
    peaks = {}
    for n_steps in (50, 200):
        tracemalloc.start()
        try:
            evolve(u0, SEM, n_steps * 1e-3, 1e-3)
            peaks[n_steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200] <= 1.1 * peaks[50]


@pytest.mark.parametrize("grid, eq", [(Grid2D(128, 128, 2 * np.pi, 2 * np.pi), SEM),
                                      (Grid2D(96, 96, 2 * np.pi, 2 * np.pi), ZK)],
                         ids=["sem-128", "zk-96"])
def test_evolve_step_transients_stay_small(grid, eq):
    # The stages and the nonlinearity write into buffers evolve holds for
    # the whole run, so what one step adds at its peak is about the fresh
    # field handed to the callbacks, not a dozen stage temporaries.
    u0 = smooth_field(grid, 16, 0.1)
    evolve(u0, eq, 1e-3, 1e-3)  # build the cached spectral tables first
    half_bytes = grid.nx * (grid.ny // 2 + 1) * np.dtype(complex).itemsize
    base, rises = [], []

    def watch(step, t, u):
        current, peak = tracemalloc.get_traced_memory()
        if base:
            rises.append(peak - base[-1])
        base.append(current)
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        evolve(u0, eq, 0.02, 1e-3, callbacks=[watch])
    finally:
        tracemalloc.stop()
    assert len(rises) == 20
    assert max(rises) < 4 * half_bytes


def test_evolve_time_reversal_linear():
    u0 = smooth_field(SMALL, 12, 0.7)
    fwd = evolve(u0, LINEAR, 0.7, 0.01).fields[-1]
    back = evolve(fwd, LINEAR, -0.7, 0.01)
    assert back.times[0] == pytest.approx(-0.7)
    assert (back.fields[0] - u0).l2() <= 1e-10 * u0.l2()


def test_evolve_conserves_invariants_short_run():
    u0 = smooth_field(SMALL, 13, 0.5)
    for eq in (ZK, SEM):
        path = evolve(u0, eq, 0.2, 0.002)
        uT = path.fields[-1]
        assert abs(conserved_I1(uT) - conserved_I1(u0)) <= 1e-10 * max(1.0, abs(conserved_I1(u0)))
        assert abs(conserved_I2(uT) - conserved_I2(u0)) <= 1e-10 * conserved_I2(u0)


def test_evolve_soliton_short_travel():
    # 512 x-points keep the soliton spectrum well inside the dealias cutoff.
    g = Grid2D(512, 8, 80.0, 2 * np.pi)
    p = SolitonParams(omega=1.0, x0=30.0)
    u0 = soliton_profile(g, p, 0.0)
    uT = evolve(u0, ZK, 0.2, 2e-3).fields[-1]
    exact = soliton_profile(g, p, 0.2)
    assert (uT - exact).l2() / exact.l2() <= 1e-8


def test_evolve_soliton_background_zero_perturbation():
    g = Grid2D(256, 8, 80.0, 2 * np.pi)
    eq = sem_on_soliton(SolitonParams(omega=1.0, x0=40.0))
    z = RealField(g, np.zeros((g.nx, g.ny)))
    path = evolve(z, eq, 0.5, 0.01)
    assert np.all(path.fields[-1].values == 0.0)


def test_evolve_divergence_reports_where():
    big = smooth_field(SMALL, 9, 1e6)
    with pytest.raises(RuntimeError, match=r"diverged at step \d+ of 50 \(t = .*\); "
                       r"last finite L2 norm .*; reduce dt"):
        evolve(big, ZK, 25.0, 0.5)


def test_evolve_validates_args():
    u0 = smooth_field(SMALL, 14, 0.1)
    with pytest.raises(ValueError):
        evolve(u0, ZK, 1.0, -0.1)
    with pytest.raises(ValueError):
        evolve(u0, ZK, float("inf"), 0.1)
    for t0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="t0"):
            evolve(u0, ZK, 0.1, 0.01, t0=t0)
    # a stride that is not an integer >= 1 is refused before the first step
    calls = []
    for stride in (0, -1, 2.5, 1.0, True):
        with pytest.raises(ValueError, match="callback_stride"):
            evolve(u0, SEM, 0.04, 0.01, callbacks=[lambda *args: calls.append(args)],
                   callback_stride=stride)
    assert calls == []
    evolve(u0, SEM, 0.04, 0.01, callbacks=[lambda *args: calls.append(args)],
           callback_stride=np.int64(2))
    assert [args[0] for args in calls] == [0, 2, 4]


# ---------------------------------------------------------------------------
# one clock: evolve's start time, and ifrk4_step as one step of the march

SOLITON_GRID = Grid2D(128, 8, 80.0, 2 * np.pi)
CLOCK_EQUATIONS = {"zk": ZK, "sem": SEM,
                   "sem_on_soliton": sem_on_soliton(SolitonParams(omega=1.0, x0=40.0))}


@pytest.mark.parametrize("s", [0.0, 0.3, -2.5, 1e3])
def test_evolve_from_t0_reports_absolute_times(s):
    u0 = smooth_field(SMALL, 17, 0.1)
    T, dt = 0.1, 0.003
    n = round(T / dt)
    dt_eff = T / n
    seen = []
    path = evolve(u0, ZK, T, dt, t0=s, callbacks=[lambda i, t, f: seen.append((i, t))],
                  callback_stride=7)
    assert path.times[0] == s
    assert path.times[-1] == s + n * dt_eff
    assert path.times[-1] == pytest.approx(s + T)
    assert [i for i, _ in seen] == [0, 7, 14, 21, 28, 33]
    assert all(t == s + i * dt_eff for i, t in seen)
    back = evolve(u0, ZK, -T, dt, t0=s)
    assert back.times[-1] == s
    assert back.times[0] == pytest.approx(s - T)
    single = evolve(u0, ZK, 0.0, dt, t0=s, callbacks=[lambda i, t, f: seen.append((i, t))])
    assert single.times.tolist() == [s]
    assert seen[-1] == (0, s)


@pytest.mark.parametrize("name", sorted(CLOCK_EQUATIONS))
@pytest.mark.parametrize("t", [0.0, 0.3, 7.25])
@pytest.mark.parametrize("dt", [0.01, -0.02])
def test_ifrk4_step_is_one_step_of_evolve(name, t, dt):
    eq = CLOCK_EQUATIONS[name]
    grid = SOLITON_GRID
    u = smooth_field(grid, 18, 1e-3)
    path = evolve(u, eq, dt, abs(dt), t0=t)
    marched = path.fields[0 if dt < 0 else -1]
    assert np.array_equal(ifrk4_step(u, eq, t, dt).values, marched.values)


def test_ifrk4_step_far_from_the_origin_of_time():
    # t + dt == t in floating point here; a step still runs
    u = smooth_field(SMALL, 19, 0.1)
    out = ifrk4_step(u, ZK, 1e16, 0.01)
    assert np.all(np.isfinite(out.values))
    assert np.array_equal(out.values, ifrk4_step(u, ZK, 0.0, 0.01).values)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="start time"):
            ifrk4_step(u, ZK, t, 0.01)


def test_divergence_names_the_absolute_time():
    big = smooth_field(SMALL, 9, 1e6)
    with pytest.raises(RuntimeError, match="diverged") as err:
        evolve(big, ZK, 25.0, 0.5, t0=100.0)
    t = float(re.search(r"\(t = ([^)]*)\)", str(err.value)).group(1))
    assert t >= 100.0


def test_evolve_refuses_a_horizon_that_does_not_move_t0():
    # t0 + T rounds to t0: refused before the first step, naming both
    u = smooth_field(SMALL, 19, 0.1)
    calls = []
    with pytest.raises(ValueError, match=r"T = 0\.01 .* t0 = 1e\+16"):
        evolve(u, ZK, 0.01, 0.01, t0=1e16, callbacks=[lambda *args: calls.append(args)])
    assert calls == []
    # a horizon that does move it still runs, and ends where it says
    path = evolve(u, ZK, 4.0, 2.0, t0=1e16)
    assert path.times.tolist() == [1e16, 1e16 + 4.0]


# ---------------------------------------------------------------------------
# the march keeps its half spectrum: a band state, and samples on request

MARCH_CASES = {
    "zk-256x16": (Grid2D(256, 16, 80.0, 36.0), ZK),
    "sem-256x16": (Grid2D(256, 16, 80.0, 36.0), SEM),
    "sem_on_soliton-256x16": (Grid2D(256, 16, 80.0, 36.0),
                              sem_on_soliton(SolitonParams(omega=1.0, x0=20.0))),
    "zk-96": (Grid2D(96, 96, 2 * np.pi, 2 * np.pi), ZK),
    "sem-96": (Grid2D(96, 96, 2 * np.pi, 2 * np.pi), SEM),
}


def full_width_march(u0, eq, T, n_steps):
    """The IFRK4 loop on whole half spectra, as the march ran before it
    split its state into the band and the columns past it; from time 0, so
    ``sem_on_soliton``'s crest frame starts at ``u0`` and takes the phase
    ``c xi`` into its dispersion and out at the end."""
    grid = u0.grid
    dt = T / n_steps
    tab = _half_symbols(grid)
    c = eq.soliton.omega if eq.kind == "sem_on_soliton" else 0.0
    E = _phase(tab["omega"] + c * tab["ddx"].imag, 0.5 * dt)
    E2 = E * E
    phases = (E, E2, np.conj(E), np.conj(E2))
    kernel = _Nonlinearity(grid, eq)
    uhat = _to_half(u0.values)
    new, acc, k = (np.empty_like(uhat) for _ in range(3))
    for i in range(n_steps):
        integrators._ifrk4_hat(uhat, kernel, dt, phases, new, acc, k)
        uhat, new = new, uhat
    if c:
        uhat = uhat * _phase(-c * tab["ddx"].imag, n_steps * dt)
    return uhat


@pytest.mark.parametrize("case", sorted(MARCH_CASES))
def test_band_march_matches_the_full_width_march(case):
    grid, eq = MARCH_CASES[case]
    # every column of the half spectrum carries energy, the ones past the
    # band too, so the split state is exercised on both sides
    u0 = RealField(grid, 1e-3 * np.random.default_rng(4).standard_normal((grid.nx, grid.ny)))
    last = evolve(u0, eq, 0.2, 0.01).fields[-1]
    reference = full_width_march(u0, eq, 0.2, 20)
    assert np.array_equal(last._half, reference)
    assert np.array_equal(last.values, _from_half(reference))


def test_march_releases_the_input_spectrum_after_step_0():
    # the transform of a u0 that holds only samples goes to the step-0
    # callbacks and is not kept past them: the march holds its own state
    u0 = smooth_field(SMALL, 22, 0.1)
    spectra = []

    def watch(step, t, u):
        if step == 0:
            spectra.append(weakref.ref(u._half))
        else:
            assert spectra[0]() is None

    evolve(u0, SEM, 0.02, 0.01, callbacks=[watch])
    assert len(spectra) == 1


def test_samples_are_made_only_on_request(monkeypatch):
    grid = Grid2D(64, 64, 2 * np.pi, 2 * np.pi)
    u0 = smooth_field(grid, 21, 0.1)
    collector = DiagnosticsCollector(grid)
    inside = [False]
    counts = {"kernel": 0, "irfftn": 0, "rfftn": 0}

    def counted(name):
        original = getattr(np.fft, name)

        def call(*args, **kwargs):
            if not inside[0]:
                counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, call)

    kernel_call = _Nonlinearity.__call__

    def kernel(self, *args):
        counts["kernel"] += 1
        inside[0] = True
        try:
            return kernel_call(self, *args)
        finally:
            inside[0] = False

    monkeypatch.setattr(_Nonlinearity, "__call__", kernel)
    for name in ("irfftn", "rfftn"):
        counted(name)
    path = evolve(u0, SEM, 0.05, 0.01, callbacks=[collector])
    # four kernel evaluations a step; outside them one forward transform of
    # the samples of u0, and no transform at all for the six callbacks
    assert counts == {"kernel": 20, "irfftn": 0, "rfftn": 1}
    assert len(collector.records) == 6
    last = path.fields[-1]
    last.values
    last.values
    assert counts == {"kernel": 20, "irfftn": 1, "rfftn": 1}


@pytest.mark.parametrize("grid", [Grid2D(32, 32, 2 * np.pi, 2 * np.pi),
                                  Grid2D(96, 96, 2 * np.pi, 2 * np.pi),
                                  Grid2D(256, 16, 80.0, 36.0)],
                         ids=["32", "96", "256x16"])
def test_spectral_diagnostics_match_the_samples(grid):
    u0 = smooth_field(grid, 22, 0.5)
    # a mean, so that I1 is not round-off
    u0 = RealField(grid, u0.values + 0.3)
    marched = evolve(u0, SEM, 0.05, 0.01).fields[-1]
    for held in (RealField._of_half(grid, _to_half(u0.values)), marched):
        samples = RealField(grid, held.values.copy())
        assert held._half is not None and samples._half is None
        for norm in (conserved_I1, conserved_I2, lambda u: sobolev_norm(u, 1.0)):
            assert norm(held) == pytest.approx(norm(samples), rel=1e-14, abs=0.0)
