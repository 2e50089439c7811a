"""Time integration: Duhamel terms, Picard iteration, and an
integrating-factor RK4 marcher.

Two independent routes to the solution are provided on purpose:

* :func:`picard_solve` iterates the Duhamel fixed-point map on a uniform
  time lattice, with composite-trapezoid quadrature of the oscillatory
  integral; it converges geometrically for small data / short times and its
  successive-iterate distances give an empirical contraction diagnostic.
* :func:`evolve` marches with classical RK4 applied to the integrating-
  factor transform of the equation; the stiff linear phase ``exp(i t omega)``
  is applied exactly (unitarily), so only the nonlinearity is integrated
  approximately and the scheme is globally fourth order.

Both evaluate the nonlinearity through the one conservative-form kernel in
:mod:`semzk.dynamics`, so their agreement is a genuine cross-check of the
time discretizations, not of shared stepping code.  :func:`duhamel_term`
exposes the Duhamel integral of a given trajectory through the same
quadrature as :func:`picard_solve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import cumulative_trapezoid

from semzk.dynamics import EquationKind, _check_equation, _phase, _quadratic_hat
from semzk.norms import _sobolev_weight
from semzk.spectral import Grid2D, RealField, SpectralField, _to_coeffs, _to_values

__all__ = [
    "TrajectoryPath",
    "PicardReport",
    "duhamel_term",
    "picard_solve",
    "ifrk4_step",
    "evolve",
]


@dataclass
class TrajectoryPath:
    """Fields sampled on a uniform time lattice.

    ``times`` is strictly increasing with uniform spacing; a single-snapshot
    path (``M == 1``) is permitted and represents an instantaneous state
    (quadrature-based operations require at least two nodes).
    """

    grid: Grid2D
    times: np.ndarray
    fields: list[RealField]

    def __post_init__(self) -> None:
        self.times = np.ascontiguousarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size < 1:
            raise ValueError("trajectory needs at least one time node")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("non-finite trajectory times")
        if len(self.fields) != self.times.size:
            raise ValueError("times and fields length mismatch")
        for f in self.fields:
            if f.grid != self.grid:
                raise ValueError("fields live on different grids")
        if self.times.size > 1:
            d = np.diff(self.times)
            if np.any(d <= 0):
                raise ValueError("trajectory times must be strictly increasing")
            if np.max(np.abs(d - d[0])) > 1e-8 * max(abs(d[0]), 1e-300):
                raise ValueError("trajectory times must be uniformly spaced")

    @property
    def n_nodes(self) -> int:
        return self.times.size

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0

    def node_index(self, t: float) -> int:
        """Index of the node at time ``t`` (must lie on the lattice)."""
        t0, t1 = self.times[0], self.times[-1]
        scale = max(1.0, abs(t1 - t0))
        if t < t0 - 1e-9 * scale or t > t1 + 1e-9 * scale:
            raise ValueError(f"time {t} outside trajectory range [{t0}, {t1}]")
        if self.times.size == 1:
            return 0
        i = int(round((t - t0) / self.dt))
        i = min(max(i, 0), self.times.size - 1)
        if abs(self.times[i] - t) > 1e-9 * scale:
            raise ValueError(f"time {t} does not lie on the trajectory lattice")
        return i


@dataclass
class PicardReport:
    """Convergence record of the Duhamel fixed-point iteration.

    ``distances[k]`` is the sup-over-nodes Sobolev distance between iterates
    ``k`` and ``k+1``; ``ratios`` are successive quotients (one entry fewer).
    """

    iterations: int
    distances: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    converged: bool = False
    tol: float = 0.0
    sobolev_index: float = 1.0


# ---------------------------------------------------------------------------
# Duhamel integral


def _duhamel_hat(uhats: np.ndarray, times: np.ndarray, phases: np.ndarray,
                 grid: Grid2D, eq: EquationKind) -> np.ndarray:
    """``integral_{t_0}^{t_j} U(-t') N(u(t')) dt'`` at every node ``t_j``.

    ``uhats`` holds the spectra of ``u`` on the node lattice ``times`` and
    ``phases`` the matching ``exp(i t omega)``; the integral is the
    cumulative composite trapezoid rule.  Multiplying node ``j`` by
    ``phases[j]`` gives the Duhamel term ``integral U(t_j - t') N dt'``.
    """
    nhat = np.empty_like(uhats)
    for j in range(times.size):
        nhat[j] = _quadratic_hat(uhats[j], grid, eq, float(times[j]))
    return cumulative_trapezoid(np.conj(phases) * nhat, x=times, axis=0, initial=0.0)


def duhamel_term(eq: EquationKind, path: TrajectoryPath, t: float) -> RealField:
    """Trapezoid approximation of the Duhamel integral of ``eq`` at time ``t``.

    Computes ``integral_{t_0}^t U(t - t') N(u(t'), t') dt'`` where ``N`` is
    the full nonlinearity of ``eq`` and ``u`` is read off the trajectory
    nodes from the first node ``t_0`` on; ``t`` must lie on the node
    lattice.  The quadrature is the one :func:`picard_solve` uses, with error
    ``O(dt^2)`` for smooth trajectories.
    """
    grid = path.grid
    _check_equation(grid, eq)
    i = path.node_index(t)
    times = path.times[:i + 1]
    uhats = _to_coeffs(np.stack([f.values for f in path.fields[:i + 1]]))
    phases = _phase(grid, times)
    integ = _duhamel_hat(uhats, times, phases, grid, eq)
    return RealField(grid, _to_values(phases[-1] * integ[-1]))


# ---------------------------------------------------------------------------
# Picard iteration


def picard_solve(u0: RealField, eq: EquationKind, T: float, *,
                 nodes: int = 33, tol: float = 1e-8, max_iter: int = 25,
                 s: float = 1.0) -> tuple[TrajectoryPath, PicardReport]:
    """Iterate the Duhamel map to a fixed point on ``[0, T]``.

    Starting from the free evolution ``U(t) u0``, each sweep replaces the
    trajectory by ``U(t) u0 - integral_0^t U(t-t') N(u(t')) dt'`` with
    composite-trapezoid quadrature on the node lattice.  Iteration stops when
    the sup-in-time H^s distance between sweeps drops below ``tol``.

    Returns the final trajectory and a :class:`PicardReport`; raises
    ``RuntimeError`` if the iteration produces non-finite values.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError("picard_solve needs a positive horizon T")
    if nodes < 2:
        raise ValueError("picard_solve needs at least two time nodes")
    grid = u0.grid
    _check_equation(grid, eq)
    times = np.linspace(0.0, T, nodes)
    u0hat = _to_coeffs(u0.values)
    phases = _phase(grid, times)
    w2s = _sobolev_weight(grid, s)
    area = grid.lx * grid.ly

    current = phases * u0hat[None, :, :]
    report = PicardReport(iterations=0, tol=tol, sobolev_index=s)
    for _ in range(max_iter):
        with np.errstate(over="ignore", invalid="ignore"):
            integ = _duhamel_hat(current, times, phases, grid, eq)
            new = phases * (u0hat[None, :, :] - integ)
            if not np.all(np.isfinite(new.view(np.float64))):
                last = f"{report.distances[-1]:.3e}" if report.distances else "none"
                raise RuntimeError(f"picard iteration diverged at sweep {report.iterations + 1}; "
                                   f"last distance {last}")
            dist = float(np.max(np.sqrt(
                area * np.sum(w2s[None, :, :] * np.abs(new - current) ** 2, axis=(1, 2)))))
        report.iterations += 1
        report.distances.append(dist)
        if len(report.distances) > 1 and report.distances[-2] > 0:
            report.ratios.append(dist / report.distances[-2])
        current = new
        if dist <= tol:
            report.converged = True
            break
    fields = [RealField(grid, values) for values in _to_values(current)]
    return TrajectoryPath(grid, times, fields), report


# ---------------------------------------------------------------------------
# integrating-factor RK4


def _ifrk4_hat(uhat: np.ndarray, grid: Grid2D, eq: EquationKind, t: float, dt: float,
               half_phase: np.ndarray, full_phase: np.ndarray) -> np.ndarray:
    """One IFRK4 step in coefficient space (phases precomputed for ``dt``)."""
    E, E2 = half_phase, full_phase
    cE, cE2 = np.conj(E), np.conj(E2)

    def rhs(vhat, tt):
        return -_quadratic_hat(vhat, grid, eq, tt)

    k1 = rhs(uhat, t)
    k2 = cE * rhs(E * (uhat + 0.5 * dt * k1), t + 0.5 * dt)
    k3 = cE * rhs(E * (uhat + 0.5 * dt * k2), t + 0.5 * dt)
    k4 = cE2 * rhs(E2 * (uhat + dt * k3), t + dt)
    return E2 * (uhat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def ifrk4_step(u: RealField, eq: EquationKind, t: float, dt: float) -> RealField:
    """Advance one step of size ``dt`` from time ``t``.

    The linear flow is applied through its exact unitary phase, so a linear-
    only step reproduces the propagator to round-off; the nonlinearity sees
    classical RK4 with stage times ``t, t+dt/2, t+dt/2, t+dt``.
    """
    if not (math.isfinite(dt) and dt != 0.0):
        raise ValueError("step size must be finite and nonzero")
    grid = u.grid
    _check_equation(grid, eq)
    E = _phase(grid, 0.5 * dt)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _to_values(_ifrk4_hat(_to_coeffs(u.values), grid, eq, t, dt, E, E * E))
    if not np.all(np.isfinite(vals)):
        raise RuntimeError(f"step diverged at t = {t:.6g}; last finite L2 norm "
                           f"{u.l2():.3e}; reduce dt")
    return RealField(grid, vals)


def evolve(u0: RealField, eq: EquationKind, T: float, dt: float, *,
           callbacks: Sequence[Callable[[int, float, RealField], None]] = (),
           callback_stride: int = 1) -> TrajectoryPath:
    """March from ``u0`` over ``[0, T]`` with IFRK4 steps of size about ``dt``.

    The step count is ``round(T/dt)`` (at least one) and the step is adjusted
    to divide ``T`` exactly.  ``T`` may be negative (backwards flow).  The
    returned trajectory holds the endpoints only: ``u0`` at time 0 and the
    final state at ``T``, in increasing-time order (a single node when
    ``T == 0``), so memory stays at a few fields however long the run.
    Intermediate states go to the callbacks, which receive
    ``(step_index, time, field)`` at every ``callback_stride``-th step plus
    both endpoints and must not mutate the field.
    """
    if not math.isfinite(T):
        raise ValueError("horizon T must be finite")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    grid = u0.grid
    _check_equation(grid, eq)
    first = u0.copy()
    if T == 0.0:
        for cb in callbacks:
            cb(0, 0.0, first)
        return TrajectoryPath(grid, np.array([0.0]), [first])

    n_steps = max(1, int(round(abs(T) / dt)))
    dt_eff = T / n_steps
    E = _phase(grid, 0.5 * dt_eff)
    E2 = E * E

    uhat = _to_coeffs(u0.values)
    for cb in callbacks:
        cb(0, 0.0, u0)
    for i in range(n_steps):
        t = i * dt_eff
        with np.errstate(over="ignore", invalid="ignore"):
            new = _ifrk4_hat(uhat, grid, eq, t, dt_eff, E, E2)
        if not np.all(np.isfinite(new.view(np.float64))):
            raise RuntimeError(
                f"step diverged at step {i + 1} of {n_steps} (t = {t:.6g}); last finite "
                f"L2 norm {SpectralField(grid, uhat).l2():.3e}; reduce dt")
        uhat = new
        step = i + 1
        if step == n_steps or (callbacks and step % callback_stride == 0):
            last = RealField(grid, _to_values(uhat))
            for cb in callbacks:
                cb(step, step * dt_eff, last)

    t_last = n_steps * dt_eff
    if T < 0:  # store in increasing-time order
        return TrajectoryPath(grid, np.array([t_last, 0.0]), [last, first])
    return TrajectoryPath(grid, np.array([0.0, t_last]), [first, last])
