"""Equation right-hand sides, the free propagator, and soliton profiles.

The evolution solved by this package is, in physical variables,

    u_t + dx(Laplacian u) + N(u) = 0,

with three choices of nonlinearity ``N``:

* ``zk``:   ``N(u) = u u_x`` (the classical two-dimensional KdV extension);
* ``sem``:  ``N(u) = (1/2) (u u_x + u_x * G1 u + u_y * G2 u)`` where ``G1``
  and ``G2`` are the bounded nonlocal operators with symbols ``m1`` and
  ``m2`` (x- and y-derivative of the inverse Laplacian of ``u_x``); this is
  the single-equation form of the surface-electromigration system, with the
  electric potential eliminated;
* ``sem_on_soliton``: the ``sem`` nonlinearity plus the linear-in-u forcing
  produced by linearizing around a travelling line soliton, used to study
  the transverse instability of that soliton.

A ``linear`` tag disables the nonlinearity entirely (free flow); it exists
for time-reversal and convergence diagnostics.

All three are evaluated by one kernel, in conservative form.  The symbols
obey ``i xi m1 + i mu m2 = i xi`` on the lattice, i.e. ``dx G1 u + dy G2 u =
u_x``, so

    N_zk  = (1/2) dx(u^2),
    N_sem = (1/2) [dx(u G1u) + dy(u G2u)],

and the soliton background ``Phi`` adds ``(1/2) [dx(Phi (u + G1u)) +
dy(Phi G2u)]``.  The identities are exact for trigonometric polynomials, so
they hold on the retained band; the mean mode of every ``N`` is zero by
construction, which makes ``I1`` conservation structural.  The flux products
are formed pointwise in physical space from two-thirds dealiased factors and
the result is dealiased again, so the retained band is alias-free.  The
kernel's background is fixed: the marches evolve ``sem_on_soliton`` in its
crest frame ``w(x, t) = u(x + ct, t)``, whose dispersion is ``omega + c xi``.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from semzk.spectral import (
    Grid2D,
    RealField,
    SpectralField,
    _from_half,
    _half_ncols,
    _half_symbols,
    _real,
    _symbols,
    _to_half,
)

__all__ = [
    "KINDS",
    "SolitonParams",
    "EquationKind",
    "ZK",
    "SEM",
    "LINEAR",
    "sem_on_soliton",
    "soliton_shape",
    "soliton_shape_dx",
    "potential_shape",
    "soliton_profile",
    "soliton_profile_dx",
    "potential_profile",
    "propagator_apply",
    "background_terms",
    "nonlinear_rhs",
    "solve_potential",
    "poisson_residual",
]

#: Largest admissible soliton amplitude at the periodic seam.  Domains must
#: be long enough that the (non-periodic) sech^2 profile has decayed below
#: this at distance lx/2 from the crest.
SEAM_TOLERANCE = 1e-13


@dataclass(frozen=True)
class SolitonParams:
    """Travelling-wave parameters: speed ``omega > 0`` and crest origin ``x0``."""

    omega: float
    x0: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", _real("omega", self.omega, positive=True))
        object.__setattr__(self, "x0", _real("x0", self.x0))


#: the admissible right-hand sides
KINDS = ("linear", "zk", "sem", "sem_on_soliton")


@dataclass(frozen=True)
class EquationKind:
    """Which right-hand side to evolve; see the module docstring."""

    kind: str
    soliton: SolitonParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown equation kind {self.kind!r}")
        if self.kind == "sem_on_soliton" and self.soliton is None:
            raise ValueError("sem_on_soliton requires SolitonParams")
        if self.kind != "sem_on_soliton" and self.soliton is not None:
            raise ValueError(f"equation {self.kind!r} takes no soliton parameters")


ZK = EquationKind("zk")
SEM = EquationKind("sem")
LINEAR = EquationKind("linear")


def sem_on_soliton(params: SolitonParams) -> EquationKind:
    """Perturbation dynamics around the travelling soliton ``params``."""
    return EquationKind("sem_on_soliton", params)


# ---------------------------------------------------------------------------
# closed-form profiles


def _sech(z: np.ndarray) -> np.ndarray:
    # overflow-free: sech(z) = 2 e^{-|z|} / (1 + e^{-2|z|})
    a = np.exp(-np.abs(z))
    return 2.0 * a / (1.0 + a * a)


def soliton_shape(omega: float, z):
    """Travelling-wave profile ``3*omega*sech^2(sqrt(omega)/2 * z)``."""
    return 3.0 * omega * _sech(0.5 * math.sqrt(omega) * np.asarray(z, dtype=float)) ** 2


def soliton_shape_dx(omega: float, z):
    """Exact derivative of :func:`soliton_shape` with respect to ``z``."""
    a = 0.5 * math.sqrt(omega)
    az = a * np.asarray(z, dtype=float)
    s = _sech(az)
    return -6.0 * a * omega * s * s * np.tanh(az)


def potential_shape(omega: float, z):
    """Potential profile ``6*sqrt(omega)*tanh(sqrt(omega)/2 * z)``.

    Its derivative is exactly :func:`soliton_shape`; the profile itself is
    not periodic (it steps by ``12*sqrt(omega)`` across the line) and is only
    ever evaluated pointwise.
    """
    return 6.0 * math.sqrt(omega) * np.tanh(0.5 * math.sqrt(omega) * np.asarray(z, dtype=float))


def _check_domain(grid: Grid2D, p: SolitonParams) -> None:
    tail = soliton_shape(p.omega, 0.5 * grid.lx)
    if tail > SEAM_TOLERANCE:
        raise ValueError(
            f"domain too small for soliton: profile is {tail:.2e} at the periodic seam "
            f"(lx = {grid.lx:g}, omega = {p.omega:g}); need the tail below {SEAM_TOLERANCE:g}")


def _wrapped_offset(grid: Grid2D, p: SolitonParams, t: float) -> np.ndarray:
    # distance from the crest at the time ``t``, wrapped to [-lx/2, lx/2)
    d = grid.x - (p.x0 + p.omega * _real("t", t))
    return (d + 0.5 * grid.lx) % grid.lx - 0.5 * grid.lx


def soliton_profile(grid: Grid2D, p: SolitonParams, t: float = 0.0) -> RealField:
    """The travelling soliton sampled on the grid at time ``t`` (y-uniform)."""
    _check_domain(grid, p)
    col = soliton_shape(p.omega, _wrapped_offset(grid, p, t))
    return RealField(grid, np.repeat(col[:, None], grid.ny, axis=1))


def soliton_profile_dx(grid: Grid2D, p: SolitonParams, t: float = 0.0) -> RealField:
    """Exact x-derivative of :func:`soliton_profile`."""
    _check_domain(grid, p)
    col = soliton_shape_dx(p.omega, _wrapped_offset(grid, p, t))
    return RealField(grid, np.repeat(col[:, None], grid.ny, axis=1))


def potential_profile(grid: Grid2D, p: SolitonParams, t: float = 0.0) -> RealField:
    """Pointwise samples of the (non-periodic) potential profile.

    The crest offset is *not* wrapped, so the samples trace the genuine tanh
    ramp across the box.  Diagnostics only -- never Fourier-transform this.
    """
    z = grid.x - (p.x0 + p.omega * _real("t", t))
    col = potential_shape(p.omega, z)
    return RealField(grid, np.repeat(np.asarray(col)[:, None], grid.ny, axis=1))


# ---------------------------------------------------------------------------
# the free propagator


def _phase(omega: np.ndarray, t) -> np.ndarray:
    """``exp(i t omega)`` on the lattice of the dispersion table ``omega``
    (full or half spectrum) for a scalar time, or stacked along a leading
    axis for an array of times."""
    t = np.asarray(t, dtype=float)
    z = 1j * t[..., None, None] * omega
    return np.exp(z, out=z)


def propagator_apply(F: SpectralField, t: float) -> SpectralField:
    """Apply the free-flow group ``U(t)``, i.e. multiply by ``exp(i t omega)``.

    ``omega = xi^3 + xi mu^2`` is real and odd, so ``U(t)`` is unitary on L2,
    preserves conjugate symmetry, and satisfies ``U(s)U(t) = U(s+t)`` and
    ``U(0) = Id``.
    """
    t = _real("t", t)
    return SpectralField(F.grid, F.coeffs * _phase(_symbols(F.grid)["omega"], t))


def _check_equation(grid: Grid2D, eq: EquationKind) -> None:
    if eq.kind == "sem_on_soliton":
        _check_domain(grid, eq.soliton)


#: Bytes of real samples that one transform call of the kernel spans, at
#: least one field: enough fields, or nodes of a batch, per call to amortize
#: each transform's fixed cost on small grids, few enough that the stack
#: stays in cache on large ones.  Stacking three fields of 32 KiB (256x16)
#: into one call cut their transform time by a fifth; stacking fields of
#: 2 MiB (512^2) slowed the kernel by a tenth.
_NODE_BATCH_BYTES = 256 * 1024

#: Bytes of real samples of one field (a batch's whole node stack) from
#: which a ``sem`` kernel runs its y lane on a second thread, beside the
#: x lane on the caller's.  Starting and joining the thread costs about
#: 50 us a call, and the split pays only while the second core is free:
#: measured on a shared 2-core host, it gained from 512^2 up and lost
#: 5-13% at every size while the second core was busy.  The timings are
#: in CHANGES.md.
_SPLIT_FIELD_BYTES = 2 * 1024 * 1024


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Beside:
    """``call(*args)`` on a thread of its own, begun beside the caller's
    work in a copy of the caller's context, so under its numpy error state.
    ``result`` waits for the call and returns its value or raises its
    error; if the thread has not begun the call by then, or could not be
    started, the caller makes the call itself."""

    def __init__(self, call, *args):
        self._call, self._args = call, args
        self._value = self._error = None
        self._claim = threading.Lock()
        self._thread = threading.Thread(target=contextvars.copy_context().run,
                                        args=(self._run,), name="semzk-y-flux")
        try:
            self._thread.start()
        except RuntimeError:  # no new thread, as when the host is out of them
            pass

    def _run(self) -> None:
        if self._claim.acquire(blocking=False):
            try:
                self._value = self._call(*self._args)
            except BaseException as error:
                self._error = error

    def result(self):
        if self._claim.acquire(blocking=False):
            return self._call(*self._args)
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._value


class _Nonlinearity:
    """The dealiased N(u) of one equation on one grid, in conservative form,
    from half spectrum to half spectrum; the 1/2 of every flux rides on its
    transform's scale.

    Built once per public call, it owns its work buffers and a fixed soliton
    background, the profile at its time ``t``.  Its spectral side runs on
    the ``band`` leading half-spectrum columns that hold a retained mode: the
    rest of the input is dropped by the mask, and of the output is zero.  So
    it takes, and fills, either whole half spectra or their ``band`` columns
    alone, which the IFRK4 march keeps contiguous.

    After u's samples, an evaluation runs one lane per flux: the x lane,
    ``m1 ud`` to G1u to flux_x to ``i xi`` times its transform, and the y
    lane, ``m2 ud`` to G2u to flux_y to ``i mu`` times its transform;
    ``zk`` has the x lane alone, with the flux u^2.  The x lane writes its
    result into N, and the y lane into its band row, which is added last.
    Each lane of ``sem`` has a band row of its own for its product with
    ``ud``, a half spectrum for its flux's transform and, for
    ``sem_on_soliton``, a field for its flux; the lanes share only what they
    read.

    The schedule groups the lanes into transform calls of ``per_call``
    fields: as many as fit ``_NODE_BATCH_BYTES`` of samples, at least one.
    With three, u and both G u share one inverse call and both fluxes one
    forward; with two, u goes alone and the lanes together; with one, the
    lanes run one after the other.  When a field's samples reach
    ``_SPLIT_FIELD_BYTES`` (``split``), the y lane runs on a thread started
    for the call, under the caller's numpy error state, while the x lane
    runs on the caller's; the caller runs the y lane itself, after the x
    lane, when the process may use one CPU only or the thread has not begun
    it by then.  A stacked call gives each field the bits of its own call,
    and a lane does the same operations on the same values wherever it
    runs, so the result does not depend on the schedule, to the bit.

    Beyond its buffers, an evaluation allocates only transients: the x-pass
    intermediate of an inverse call, a band stack of that call's fields
    (1.34 MiB at 512^2, within ``_NODE_BATCH_BYTES`` when fields are
    stacked) and numpy's iteration buffers for a product on the band
    (``np.getbufsize()`` elements an operand).  They come one at a time,
    two when the lanes run side by side.

    With ``batch`` it evaluates a stack of up to ``batch`` states in one
    call, each transform running once over the stack; its buffers then
    carry that leading node axis, so their size is bounded by the batch and
    not by the number of nodes the caller holds.  Without it the kernel
    takes one state.
    """

    def __init__(self, grid: Grid2D, eq: EquationKind, batch: int | None = None, t: float = 0.0):
        self.grid, self.eq, self.batch = grid, eq, batch
        tab = _half_symbols(grid)
        self.band = w = int(np.count_nonzero(tab["mask"].any(axis=0)))
        self.mask = tab["mask"][:, :w]
        self.outside = ~self.mask
        self.shape = (grid.nx, grid.ny)
        lead = () if batch is None else (batch,)
        field_bytes = np.dtype(float).itemsize * (batch or 1) * grid.nx * grid.ny
        self.per_call = max(1, _NODE_BATCH_BYTES // field_bytes)
        # each lane's real symbol m and its derivative d, the rank-1 i xi or
        # i mu, views of the cached tables; zk's lane has no symbol: its G u
        # is u itself, so its flux is u^2
        names = {"linear": (), "zk": ((None, "i_xi"),)}.get(eq.kind, (("m1", "i_xi"), ("m2", "i_mu")))
        self.lanes = tuple((None if m is None else tab[m][:, :w], tab[d][:, :w]) for m, d in names)
        n = len(self.lanes)
        self.split = self.per_call == 1 and n == 2 and field_bytes >= _SPLIT_FIELD_BYTES
        # ``fields`` holds u, then lane i's G u in row g + i (u's own row
        # for zk) and its flux in row f + i: zk's flux takes u's row, sem's
        # its G u's, and sem_on_soliton's have rows of their own.
        # ``spectral`` holds ``ud``, the half spectrum of u kept zero outside
        # the mask, then lane i's band row, for its product m ud, in row
        # g + i; ``spectrum`` holds the lanes' half spectra, so no buffer
        # serves both directions and ``ud`` is never zeroed again.
        self._g, self._f = {"zk": (0, 0), "sem": (1, 1), "sem_on_soliton": (1, 3)}.get(eq.kind, (0, 0))
        self.fields = np.empty((self._f + n,) + lead + self.shape)
        self.spectral = np.zeros((self._g + n,) + lead + (grid.nx, w), dtype=complex)
        self.spectrum = np.empty((n,) + lead + (grid.nx, _half_ncols(grid)), dtype=complex)
        if eq.kind == "sem_on_soliton":
            p = eq.soliton
            self.phi = soliton_shape(p.omega, _wrapped_offset(grid, p, t))[:, None]

    @property
    def omega(self) -> np.ndarray:
        """The dispersion of the kernel's frame, on the half spectrum."""
        tab = _half_symbols(self.grid)
        if self.eq.kind != "sem_on_soliton":
            return tab["omega"]
        return tab["omega"] + self.eq.soliton.omega * tab["ddx"].imag

    def to_lab(self, half: np.ndarray, tau) -> np.ndarray:
        """The frame's half spectra ``half`` at the times ``tau`` in the lab
        frame: shifted by ``c tau`` for ``sem_on_soliton``, else ``half``."""
        if self.eq.kind != "sem_on_soliton":
            return half
        return half * _phase(-self.eq.soliton.omega * _half_symbols(self.grid)["ddx"].imag, tau)

    def __call__(self, uhat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the half spectrum of N(u) into ``out`` and return it; for a
        batched kernel ``uhat`` and ``out`` are stacks of ``m <= batch``."""
        w, n = self.band, len(self.lanes)
        if self.eq.kind == "linear":
            out[...] = 0.0
            return out
        out[..., w:] = 0.0
        band, spec, fields = self.spectral, self.spectrum, self.fields
        if uhat.ndim == 3 and uhat.shape[0] < self.batch:
            m = uhat.shape[0]
            band, spec, fields = band[:, :m], spec[:, :m], fields[:, :m]
        nhat = out[..., :w]
        buffers = (nhat, band, spec, fields)
        np.copyto(band[0], uhat[..., :w], where=self.mask)
        if self.per_call >= self._g + n:  # u and every G u in one call
            self._lanes(0, n, *buffers, u_too=True)
        else:
            _from_half(band[0], self.shape, out=fields[0])
            if self.per_call >= n:
                self._lanes(0, n, *buffers)
            elif self.split and _usable_cpus() > 1:
                beside = _Beside(self._lanes, 1, 2, *buffers)
                try:
                    self._lanes(0, 1, *buffers)
                finally:
                    # the y lane writes into the kernel's buffers until it ends
                    beside.result()
            else:
                for i in range(n):
                    self._lanes(i, i + 1, *buffers)
        if n == 2:
            nhat += band[2]
        np.copyto(nhat, 0.0, where=self.outside)
        return out

    def _lanes(self, a, b, nhat, band, spectrum, fields, u_too=False) -> None:
        """Lanes ``a`` to ``b - 1``, one transform call each way: their G u
        from their products with ``ud`` (in the same call as u's samples
        when ``u_too``), their fluxes, and ``d`` times the fluxes' half
        spectra, the x lane's into ``nhat`` and the y lane's into its band
        row."""
        g, f = self._g, self._f
        for i in range(a, b):
            m = self.lanes[i][0]
            if m is not None:
                np.multiply(band[0], m, out=band[g + i])
        first = 0 if u_too else g + a
        _from_half(band[first:g + b], self.shape, out=fields[first:g + b])
        u = fields[0]
        for i in range(a, b):
            gu = fields[g + i]
            flux = np.multiply(u, gu, out=fields[f + i])
            if self.eq.kind == "sem_on_soliton":
                # flux_x = u g1 + phi (u + g1), flux_y = u g2 + phi g2
                if i == 0:
                    gu += u
                gu *= self.phi
                flux += gu
        _to_half(fields[f + a:f + b], 0.5, out=spectrum[a:b])
        for i in range(a, b):
            np.multiply(self.lanes[i][1], spectrum[i, ..., :self.band], out=band[g + i] if i else nhat)


def background_terms(u: RealField, p: SolitonParams, t: float) -> RealField:
    """Linear-in-``u`` forcing from the soliton background at time ``t``.

    The difference between the ``sem_on_soliton`` and ``sem``
    nonlinearities, i.e. ``(1/2)(phi_x u + 2 phi u_x) + (1/2) phi_x G1 u``
    with the profile ``phi`` at the travelling-crest position for time ``t``.
    """
    return nonlinear_rhs(u, sem_on_soliton(p), t) - nonlinear_rhs(u, SEM, t)


def nonlinear_rhs(u: RealField, eq: EquationKind, t: float = 0.0) -> RealField:
    """Full nonlinearity ``N(u)`` for the given equation (zero for linear),
    with the soliton background of ``sem_on_soliton`` at the time ``t``.

    For ``sem`` and y-independent mean-zero fields ``G1 u = u`` exactly on
    the lattice, so ``N`` reduces to ``u u_x`` (the one-dimensional KdV
    nonlinearity).
    """
    g = u.grid
    _check_equation(g, eq)
    kernel = _Nonlinearity(g, eq, t=_real("t", t))
    uhat = _to_half(u.values)
    return RealField(g, _from_half(kernel(uhat, np.empty_like(uhat))))


def solve_potential(u: RealField) -> RealField:
    """Reconstruct the potential: solve ``Laplacian(phi) = u_x`` with zero mean."""
    inv_lap_dx = _half_symbols(u.grid)["inv_laplacian_dx"]
    return RealField(u.grid, _from_half(_to_half(u.values) * inv_lap_dx))


def poisson_residual(u: RealField, phi: RealField) -> float:
    """L2 norm of ``Laplacian(phi) - u_x``."""
    if u.grid != phi.grid:
        raise ValueError("fields live on different grids")
    g = u.grid
    tab = _half_symbols(g)
    res = _to_half(phi.values) * tab["laplacian"] - _to_half(u.values) * tab["ddx"]
    return float(np.sqrt(g.lx * g.ly * np.sum(tab["columns"] * np.abs(res) ** 2)))
