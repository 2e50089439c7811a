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
  approximately and the scheme is globally fourth order.  It starts at an
  absolute time ``t0``, and every time it hands out is absolute;
  :func:`ifrk4_step` is one step of the same march.

Both evaluate the nonlinearity through the one conservative-form kernel in
:mod:`semzk.dynamics` and carry the state as a real half spectrum (see
:mod:`semzk.spectral`), ``sem_on_soliton``'s in its crest frame anchored at
time 0 (they hand out lab-frame fields), so their agreement is a genuine
cross-check of the time discretizations, not of shared stepping code.
:func:`evolve` calls the kernel on one state per stage; a Picard sweep
calls it on batches of consecutive time nodes, as many as fit the kernel's
bound on the samples of one transform call (``_NODE_BATCH_BYTES`` in
:mod:`semzk.dynamics`), so that every transform runs once per batch and not
once per node.  :func:`duhamel_term` exposes the Duhamel integral of a
given trajectory through the same quadrature as :func:`picard_solve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from semzk.dynamics import _NODE_BATCH_BYTES, EquationKind, _check_equation, _Nonlinearity, _phase
from semzk.norms import _half_sobolev_weight, conserved_I2
from semzk.spectral import (
    Grid2D,
    RealField,
    _from_half,
    _half_ncols,
    _half_of,
    _integer,
    _real,
    _require_same_grid,
    _to_half,
)

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
            _require_same_grid(f.grid, self.grid)
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
        t, t0, t1 = _real("t", t), self.times[0], self.times[-1]
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


#: Most nodes in one batch: on small grids the kernel's buffers for a
#: byte-filled batch (32 nodes at 32^2) outweigh the node stacks themselves.
_NODE_BATCH_MAX = 8


def _node_kernel(grid: Grid2D, eq: EquationKind, nodes: int) -> _Nonlinearity:
    """The kernel of ``eq`` batched over as many of ``nodes`` time nodes as
    fit one real field stack of ``_NODE_BATCH_BYTES``, at least one and at
    most ``_NODE_BATCH_MAX``."""
    per_node = np.dtype(float).itemsize * grid.nx * grid.ny
    batch = min(nodes, _NODE_BATCH_MAX, _NODE_BATCH_BYTES // per_node)
    return _Nonlinearity(grid, eq, batch=max(1, batch))


def _trapezoid_slot(slot: np.ndarray, lower: np.ndarray, step: float) -> None:
    """Overwrite the integrand ``slot`` with its interval's trapezoid
    ``step * (slot + lower) / 2``, in ``cumulative_trapezoid``'s operations."""
    np.add(slot, lower, out=slot)
    np.multiply(step, slot, out=slot)
    np.divide(slot, 2.0, out=slot)


def _duhamel_hat(uhats: np.ndarray, times: np.ndarray, phases: np.ndarray,
                 kernel: _Nonlinearity, nhat: np.ndarray) -> np.ndarray:
    """``integral_{t_0}^{t_j} U(-t') N(u(t')) dt'`` at every node ``t_j``.

    ``uhats`` holds the kernel frame's half spectra of ``u`` on the node
    lattice ``times`` and ``phases`` the matching ``exp(i t kernel.omega)``;
    ``nhat``, shaped like ``uhats``, receives the integrand and the integral.
    ``kernel`` is batched (see :func:`_node_kernel`): the nodes go through it
    ``kernel.batch`` at a time, and each batch is turned by ``conj(phases)``,
    conjugated into one batch-sized buffer that every batch reuses.
    One pass over all nodes then sums the integrand by the cumulative
    composite trapezoid rule, with the operations and per-interval steps
    ``np.diff(times)`` of ``scipy.integrate.cumulative_trapezoid``, so it
    matches that function to the bit without its three temporary node
    stacks.  Multiplying node ``j`` by ``phases[j]`` gives the Duhamel term
    ``integral U(t_j - t') N dt'``.
    """
    turn = np.empty((min(kernel.batch, times.size),) + phases.shape[1:],
                    dtype=phases.dtype)
    for j0 in range(0, times.size, kernel.batch):
        j1 = min(j0 + kernel.batch, times.size)
        block = nhat[j0:j1]
        kernel(uhats[j0:j1], block)
        conj = np.conj(phases[j0:j1], out=turn[:j1 - j0])
        np.multiply(conj, block, out=block)
    # interval j-1 goes into slot j from the top down, so the lower node it
    # reads is still the integrand; then the slots are summed from the bottom
    # (``np.add.accumulate`` over the node axis gives the same bits but ran
    # 2.5-3x slower at 64^2-128^2)
    steps = np.diff(times)
    for j in range(times.size - 1, 0, -1):
        _trapezoid_slot(nhat[j], nhat[j - 1], steps[j - 1])
    nhat[0] = 0.0
    for j in range(1, times.size):
        np.add(nhat[j - 1], nhat[j], out=nhat[j])
    return nhat


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
    with _node_kernel(grid, eq, times.size) as kernel:
        uhats = kernel.to_lab(_to_half(np.stack([f.values for f in path.fields[:i + 1]])), -times)
        phases = _phase(kernel.omega, times)
        integ = _duhamel_hat(uhats, times, phases, kernel, np.empty_like(uhats))
        return RealField(grid, _from_half(kernel.to_lab(phases[-1] * integ[-1], times[-1])))


# ---------------------------------------------------------------------------
# Picard iteration


def picard_solve(u0: RealField, eq: EquationKind, T: float, *,
                 nodes: int = 33, tol: float = 1e-8, max_iter: int = 25,
                 s: float = 1.0) -> tuple[TrajectoryPath, PicardReport]:
    """Iterate the Duhamel map to a fixed point on ``[0, T]``.

    Starting from the free evolution ``U(t) u0``, each sweep replaces the
    trajectory by ``U(t) u0 - integral_0^t U(t-t') N(u(t')) dt'`` with
    composite-trapezoid quadrature on the node lattice.  Iteration stops when
    the sup-in-time H^s distance between sweeps drops to ``tol`` (``tol = 0``
    runs all ``max_iter`` sweeps unless two are equal).

    Returns the final trajectory and a :class:`PicardReport`.  The
    trajectory's fields hold the final iterate's half spectra, views of one
    node stack, and make their samples only when ``values`` is read (see
    :class:`~semzk.spectral.RealField`).  Raises ``RuntimeError`` if a sweep
    gives a non-finite iterate or H^s distance, naming the sweep, the first
    node whose distance is non-finite and its time, and the last finite
    distance.
    """
    T = _real("T", T, positive=True)
    nodes, max_iter = _integer("nodes", nodes, 2), _integer("max_iter", max_iter, 1)
    tol, s = _real("tol", tol, nonnegative=True), _real("s", s)
    grid = u0.grid
    _check_equation(grid, eq)
    times = np.linspace(0.0, T, nodes)
    u0hat = _half_of(u0)  # the kernel's frame is the lab frame at time 0
    with _node_kernel(grid, eq, nodes) as kernel:
        phases = _phase(kernel.omega, times)
        # the H^s weight of each float of a half spectrum's real view
        w2 = np.repeat(_half_sobolev_weight(grid, s).ravel(), 2)
        area = grid.lx * grid.ly

        # Two node stacks swap roles every sweep: the iterate, and the buffer
        # that takes the integrand, then the next iterate in place, while the
        # iterate's buffer takes the difference for the distance.
        current = phases * u0hat[None, :, :]
        spare = np.empty_like(current)
        report = PicardReport(iterations=0, tol=tol, sobolev_index=s)
        for _ in range(max_iter):
            with np.errstate(over="ignore", invalid="ignore"):
                new = _duhamel_hat(current, times, phases, kernel, spare)
                np.subtract(u0hat, new, out=new)
                np.multiply(new, phases, out=new)
                np.subtract(new, current, out=current)
                # the difference is discarded, so its real and imaginary parts
                # are squared and weighted in place (``np.abs`` would build a
                # real stack, and its ``** 2`` undo a square root)
                terms = current.view(np.float64).reshape(nodes, -1)
                np.multiply(terms, terms, out=terms)
                terms *= w2
                node_dist = np.sqrt(area * np.sum(terms, axis=1))
                # a non-finite iterate node gives a non-finite distance, and an
                # overflow can give one on a finite node
                bad = ~np.isfinite(node_dist)
                if bad.any():
                    j = int(np.argmax(bad))
                    last = f"{report.distances[-1]:.3e}" if report.distances else "none"
                    raise RuntimeError(
                        f"picard iteration diverged at sweep {report.iterations + 1}: first "
                        f"non-finite node {j} of {nodes} (t = {times[j]:.6g}); last distance {last}")
                dist = float(np.max(node_dist))
            report.iterations += 1
            report.distances.append(dist)
            if len(report.distances) > 1 and report.distances[-2] > 0:
                report.ratios.append(dist / report.distances[-2])
            current, spare = new, current
            if dist <= tol:
                report.converged = True
                break
        fields = [RealField._of_half(grid, node) for node in kernel.to_lab(current, times)]
        return TrajectoryPath(grid, times, fields), report


# ---------------------------------------------------------------------------
# integrating-factor RK4


def _ifrk4_hat(uhat: np.ndarray, kernel: _Nonlinearity, dt: float,
               phases: tuple[np.ndarray, np.ndarray], out: np.ndarray,
               acc: np.ndarray, k: np.ndarray) -> np.ndarray:
    """One IFRK4 step on the half spectrum, written into ``out``.

    ``phases`` holds ``E = exp(i dt/2 kernel.omega)`` and ``E**2`` on the
    half spectrum; ``acc`` and ``k`` are work buffers shaped like ``uhat``.
    The stages ``k_i = -conj(phase) N(...)`` are summed as they come, in the
    order ``k1 + 2 k2 + 2 k3 + k4``, and the arguments of stages 2-4 are
    built in ``out``, which takes ``conj(phase)`` once the kernel has read
    the argument, so the step keeps no conjugate tables.  The buffers hold
    ``-k_i``, so every minus sign rides on a scalar coefficient.
    """
    E, E2 = phases
    h = 0.5 * dt

    def stage(k_prev, coef, phase):
        """``-k_i`` into ``k`` from the argument ``phase (uhat + coef k_prev)``."""
        np.multiply(coef, k_prev, out=out)
        np.add(out, uhat, out=out)
        np.multiply(phase, out, out=out)
        kernel(out, k)
        np.multiply(np.conjugate(phase, out=out), k, out=k)

    kernel(uhat, acc)
    stage(acc, -h, E)
    acc += np.multiply(2.0, k, out=out)
    stage(k, -h, E)
    acc += np.multiply(2.0, k, out=out)
    stage(k, -dt, E2)
    acc += k
    np.multiply(-(dt / 6.0), acc, out=out)
    out += uhat
    return np.multiply(E2, out, out=out)


def _ifrk4_march(u0: RealField, eq: EquationKind, t0: float, dt: float,
                 n_steps: int, callbacks=(), callback_stride: int = 1) -> RealField:
    """``n_steps`` IFRK4 steps of signed size ``dt`` from ``u0`` at time
    ``t0``; the callbacks get ``(step, t0 + step dt, field)`` at step 0,
    every ``callback_stride``-th step and the last, whose field is returned.

    The march starts from the half spectrum ``u0`` holds, or else from that
    of its samples, and hands out fields that hold a copy of the state's
    half spectrum and make samples only when ``values`` is read (at step 0
    also ``u0``'s samples, when it has them).  The state is kept in two
    pieces: the kernel's ``band`` leading columns, contiguous, on which the
    RK4 stages run, and the columns past them, which hold no retained mode,
    so the nonlinearity is zero there and a step only turns them by
    ``E**2`` -- to the bit what a full-width step gives them.  The state is
    in the kernel's frame, turned in at ``-t0`` and out at each field's time.
    """
    grid = u0.grid
    with _Nonlinearity(grid, eq) as kernel:
        w = kernel.band
        E = _phase(kernel.omega, 0.5 * dt)
        E2 = E * E
        turn = E2[:, w:].copy()
        phases = E[:, :w].copy(), E2[:, :w].copy()
        del E, E2
        spectrum = _half_of(u0)
        held = kernel.to_lab(spectrum, -t0)
        # two band buffers, alternated, the step's two work buffers, and the rest
        band, tail = np.array(held[:, :w]), np.array(held[:, w:])
        new, acc, k = (np.empty_like(band) for _ in range(3))
        shape = (grid.nx, _half_ncols(grid))

        def state() -> np.ndarray:
            full = np.empty(shape, dtype=complex)
            full[:, :w], full[:, w:] = band, tail
            return full

        first = u0 if u0._half is not None else RealField._of_half(grid, spectrum, u0.values)
        for cb in callbacks:
            cb(0, t0, first)
        # the march keeps none of the input's spectra past step 0
        del spectrum, held, first
        for i in range(n_steps):
            with np.errstate(over="ignore", invalid="ignore"):
                _ifrk4_hat(band, kernel, dt, phases, new, acc, k)
            if not np.all(np.isfinite(new.view(np.float64))):
                l2 = math.sqrt(conserved_I2(RealField._of_half(grid, state())))
                raise RuntimeError(
                    f"step diverged at step {i + 1} of {n_steps} (t = {t0 + i * dt:.6g}); "
                    f"last finite L2 norm {l2:.3e}; reduce dt")
            np.multiply(turn, tail, out=tail)
            band, new = new, band
            step = i + 1
            if step == n_steps or (callbacks and step % callback_stride == 0):
                last = RealField._of_half(grid, kernel.to_lab(state(), t0 + step * dt))
                for cb in callbacks:
                    cb(step, t0 + step * dt, last)
        return last


def ifrk4_step(u: RealField, eq: EquationKind, t: float, dt: float) -> RealField:
    """Advance one step of size ``dt`` from time ``t``: one step of the
    :func:`evolve` march.

    The linear flow is applied through its exact unitary phase, so a linear-
    only step reproduces the propagator to round-off; the nonlinearity sees
    classical RK4 (``sem_on_soliton``'s in its crest frame, see :func:`evolve`).
    """
    t, dt = _real("start time t", t), _real("dt", dt)
    if dt == 0.0:
        raise ValueError(f"dt must be nonzero, got {dt!r}")
    _check_equation(u.grid, eq)
    return _ifrk4_march(u, eq, t, dt, 1)


def _step_count(T: float, dt: float) -> int:
    """The steps of :func:`evolve` over ``T``: ``round(|T|/dt)``, at least 1 (0 if ``T == 0``)."""
    return max(1, int(round(abs(T) / dt))) if T else 0


def evolve(u0: RealField, eq: EquationKind, T: float, dt: float, *,
           t0: float = 0.0,
           callbacks: Sequence[Callable[[int, float, RealField], None]] = (),
           callback_stride: int = 1) -> TrajectoryPath:
    """March from ``u0`` at time ``t0`` over ``[t0, t0 + T]`` with IFRK4
    steps of size about ``dt``.

    The step count is ``round(T/dt)`` (at least one) and the step is adjusted
    to divide ``T`` exactly.  ``T`` may be negative (backwards flow).  Every
    time is absolute and every field is the lab frame's, though
    ``sem_on_soliton`` is marched in its crest frame.  That trajectory
    holds the endpoints only: ``u0`` at ``t0`` and the final state, in
    increasing-time order (a single node when ``T == 0``), so memory stays at
    a few fields however long the run.  Intermediate states go to the
    callbacks, which receive ``(step_index, time, field)`` at every
    ``callback_stride``-th step (a stride that is not an integer >= 1 raises
    ``ValueError`` before the first step) plus both endpoints and must not
    mutate the field.  Past step 0 that field, like the final endpoint,
    holds a copy of the march's half spectrum, which the callback may keep:
    it makes its samples only when ``values`` is read, and the norms and
    :func:`semzk.snapshots.write_snapshot` read the spectrum itself.  A
    ``u0`` that holds a half spectrum (a field from an earlier march, or
    from a version-2 snapshot) is marched from that spectrum, so a restart
    continues the uninterrupted march to the bit when the step agrees (to
    round-off for ``sem_on_soliton``, whose state is turned out of its frame
    and back).  A horizon too small to move ``t0`` in floating point raises
    ``ValueError`` before the first step.
    """
    T, t0, dt = _real("T", T), _real("t0", t0), _real("dt", dt, positive=True)
    callback_stride = _integer("callback_stride", callback_stride, 1)
    grid = u0.grid
    _check_equation(grid, eq)
    first = u0.copy()
    if T == 0.0:
        for cb in callbacks:
            cb(0, t0, first)
        return TrajectoryPath(grid, np.array([t0]), [first])

    n_steps = _step_count(T, dt)
    dt_eff = T / n_steps
    t_last = t0 + n_steps * dt_eff
    if t_last == t0:
        raise ValueError(f"horizon T = {T!r} does not move the start time t0 = {t0!r} "
                         "in floating point; the trajectory would have no length")
    last = _ifrk4_march(u0, eq, t0, dt_eff, n_steps, callbacks, callback_stride)
    if T < 0:  # store in increasing-time order
        return TrajectoryPath(grid, np.array([t_last, t0]), [last, first])
    return TrajectoryPath(grid, np.array([t0, t_last]), [first, last])
