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
    return np.exp(1j * t[..., None, None] * omega)


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
#: which a ``sem`` kernel runs its y pipeline on a second thread, beside
#: the x pipeline on the caller's.  Starting and joining the thread costs
#: about 50 us a call, and the split pays only while the second core is
#: free.  A kernel call in ms, serial -> split (best of 40 interleaved
#: triples, with one persistent worker thread), on a 2-core host whose
#: cores other machines share, while two threads ran two 512^2 transforms
#: 1.9-2.1x (free) and 1.1-1.35x (busy) faster than one thread:
#:
#:     grid         free            busy
#:     256x128      1.54 -> 1.25    1.00 -> 1.10
#:     256^2        3.14 -> 2.20    2.13 -> 2.24
#:     512x256      5.28 -> 4.16    4.49 -> 4.87
#:     512^2        9.60 -> 6.67    9.74 -> 11.03
#:     1024x256    10.72 -> 7.92   12.21 -> 13.17
#:
#: On a quieter day the same host read 512x256 4.1 -> 4.0-4.3 and 512^2
#: 8.5-9.0 -> 6.1-7.7, so the split starts at 512^2, where the gain is
#: largest; the busy loss, 5-13%, comes at every size.  With a thread
#: started per call, a busy host (two threads 0.93-1.28x) read medians of
#: 4.12 -> 4.53 at 512x256 and 8.96 -> 9.83 at 512^2.
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

    An evaluation transforms u, G1u and G2u to samples and the two fluxes
    back, ``per_call`` fields to one transform call: as many as fit
    ``_NODE_BATCH_BYTES`` of samples, at least one.  A stacked call gives
    each field the bits of its own call.  With one field to a call, ``sem``
    and ``sem_on_soliton`` run as two pipelines after u's inverse: the x
    pipeline, ``m1 ud`` to G1u to flux_x to ``i xi`` times its transform,
    into the output, and the y pipeline, ``m2 ud`` to G2u to flux_y to
    ``i mu`` times its transform, which is then added.  When a field's
    samples reach ``_SPLIT_FIELD_BYTES`` (``split``), the pipelines get
    buffers of their own and the y pipeline runs on a thread started for
    the call, under the caller's numpy error state, while the x pipeline
    runs on the caller's; the caller runs the y pipeline itself, after the
    x pipeline, when the process may use one CPU only or the thread has
    not begun it by then.  Each pipeline does the operations of a serial
    evaluation on the same values, so the result does not depend on the
    thread, to the bit.

    Beyond its buffers, an evaluation allocates only transients: the x-pass
    intermediate of an inverse call, a band stack of that call's fields
    (1.34 MiB at 512^2, within ``_NODE_BATCH_BYTES`` when fields are
    stacked) and numpy's iteration buffers for a product on the band
    (``np.getbufsize()`` elements an operand).  They come one at a time,
    two when the pipelines run side by side.

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
        self.ddx, self.ddy = tab["ddx"][:, :w], tab["ddy"][:, :w]
        self.m1, self.m2 = tab["m1"][:, :w], tab["m2"][:, :w]
        self.shape = (grid.nx, grid.ny)
        lead = () if batch is None else (batch,)
        field_bytes = np.dtype(float).itemsize * (batch or 1) * grid.nx * grid.ny
        self.per_call = k = max(1, _NODE_BATCH_BYTES // field_bytes)
        n_fields = {"linear": 0, "zk": 1, "sem": 3, "sem_on_soliton": 4}[eq.kind]
        n_in, n_flux = min(n_fields, 3), min(n_fields, 2)
        self.split = split = k == 1 and n_flux == 2 and field_bytes >= _SPLIT_FIELD_BYTES
        # ``fields`` holds u, G1u, G2u, and the fluxes in its last two rows;
        # split, ``sem_on_soliton`` adds a row for flux_x, which otherwise
        # takes flux_y's.  ``spectral`` holds ``ud``, the half spectrum of u
        # kept zero outside the mask, then the band rows of the products
        # that one call stacks with it, one at least for sem.  ``spectrum``
        # takes the fluxes' transforms, so no buffer serves both directions
        # and ``ud`` is never zeroed again.  Split, it has a row for each
        # pipeline, which also forms its product with ``ud`` in that row's
        # band columns, and ``spectral`` holds ``ud`` alone.
        self.fields = np.empty((n_fields + (split and n_fields == 4),) + lead + self.shape)
        n_band = 1 if split else max(min(k, n_in), n_flux)
        self.spectral = np.zeros((n_band,) + lead + (grid.nx, w), dtype=complex)
        self.spectrum = np.empty((min(k, n_flux) + split,) + lead + (grid.nx, _half_ncols(grid)),
                                 dtype=complex)
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
        w = self.band
        if self.eq.kind == "linear":
            out[...] = 0.0
            return out
        out[..., w:] = 0.0
        band, spec, fields = self.spectral, self.spectrum, self.fields
        if uhat.ndim == 3 and uhat.shape[0] < self.batch:
            m = uhat.shape[0]
            band, spec, fields = band[:, :m], spec[:, :m], fields[:, :m]
        ud = band[0]
        np.copyto(ud, uhat[..., :w], where=self.mask)
        nhat = out[..., :w]
        if self.per_call == 1 and self.eq.kind != "zk":
            self._pipelines(ud, band, spec, fields, nhat)
        else:
            self._stacked(ud, band, spec, fields, nhat)
        np.copyto(nhat, 0.0, where=self.outside)
        return out

    def _stacked(self, ud, band, spec, fields, nhat) -> None:
        """N into ``nhat``, ``per_call`` fields to a transform call: ``sem``
        and ``sem_on_soliton`` on small fields, and ``zk``, whose one flux
        leaves nothing to run beside it."""
        kind, w, shape, k = self.eq.kind, self.band, self.shape, self.per_call
        # u, G1u and G2u (fields a to b - 1 of each call), ``k`` to a call:
        # the first call takes ``ud`` and the products after it, a later one
        # its products in the rows after ``ud``
        symbols = (None, self.m1, self.m2)[:min(len(fields), 3)]
        for a in range(0, len(symbols), k):
            b = min(a + k, len(symbols))
            row = min(a, 1)
            for i in range(max(a, 1), b):
                np.multiply(ud, symbols[i], out=band[row + i - a])
            if b - a == 1:
                _from_half(band[row], shape, out=fields[a])
            else:
                _from_half(band[row:row + b - a], shape, out=fields[a:b])
        u = fields[0]
        if kind == "zk":
            np.multiply(u, u, out=u)
            np.multiply(self.ddx, _to_half(u, 0.5, out=spec[0])[..., :w], out=nhat)
            return
        g1, g2 = fields[1], fields[2]
        if kind == "sem":
            np.multiply(u, g1, out=g1)
            np.multiply(u, g2, out=g2)
        else:
            # flux_x = u g1 + phi (u + g1), flux_y = u g2 + phi g2
            phi = self.phi
            flux_y = np.multiply(u, g2, out=fields[3])
            g2 *= phi
            flux_y += g2
            flux_x = np.multiply(u, g1, out=g2)
            g1 += u
            g1 *= phi
            flux_x += g1
        spec = _to_half(fields[-2:], 0.5, out=spec[:2])
        np.multiply(self.ddx, spec[0, ..., :w], out=nhat)
        nhat += np.multiply(self.ddy, spec[1, ..., :w], out=band[1])

    def _pipelines(self, ud, band, spec, fields, nhat) -> None:
        """N of ``sem`` or ``sem_on_soliton`` into ``nhat``, one field to a
        transform call: u's samples, then the x and y pipelines.  Split, with
        a second CPU usable, the y pipeline runs on a thread of its own
        beside the x pipeline; else it runs after it, in the same buffers
        unless split."""
        _from_half(ud, self.shape, out=fields[0])
        if self.split:
            # each pipeline forms its product in the band columns of its own
            # half spectrum, which saves a band row (1.34 MiB at 512^2)
            rows = spec[..., :self.band]
        else:
            # one contiguous work row: on a Picard batch at 64^2 the products
            # ran at about half speed into the band columns of a half
            # spectrum, and picard_window at 0.93x
            rows = band[1:]
        y = (ud, rows[-1], spec[-1], fields)
        if not self.split or _usable_cpus() < 2:
            self._x_pipeline(ud, rows[0], spec[0], fields, nhat)
            nhat += self._y_pipeline(*y)
            return
        beside = _Beside(self._y_pipeline, *y)
        try:
            self._x_pipeline(ud, rows[0], spec[0], fields, nhat)
        finally:
            # the y pipeline writes into the kernel's buffers until it ends
            row = beside.result()
        nhat += row

    def _x_pipeline(self, ud, row, spec, fields, nhat) -> None:
        """``i xi`` times the half spectrum of flux_x into ``nhat``, with
        G1u's spectrum formed in the band row ``row`` and the flux
        transformed into the half spectrum ``spec``."""
        u, g1 = fields[0], fields[1]
        np.multiply(ud, self.m1, out=row)
        _from_half(row, self.shape, out=g1)
        if self.eq.kind == "sem":
            flux = np.multiply(u, g1, out=g1)
        else:
            # flux_x = u g1 + phi (u + g1), in the last field row: flux_y's
            # when the y pipeline comes after, one of its own when split
            flux = np.multiply(u, g1, out=fields[-1])
            g1 += u
            g1 *= self.phi
            flux += g1
        np.multiply(self.ddx, _to_half(flux, 0.5, out=spec)[..., :self.band], out=nhat)

    def _y_pipeline(self, ud, row, spec, fields) -> np.ndarray:
        """``i mu`` times the half spectrum of flux_y, into the band row
        ``row`` and returned, with G2u's spectrum formed in ``row`` and the
        flux transformed into the half spectrum ``spec``."""
        u, g2 = fields[0], fields[2]
        np.multiply(ud, self.m2, out=row)
        _from_half(row, self.shape, out=g2)
        if self.eq.kind == "sem":
            flux = np.multiply(u, g2, out=g2)
        else:
            # flux_y = u g2 + phi g2
            flux = np.multiply(u, g2, out=fields[3])
            g2 *= self.phi
            flux += g2
        return np.multiply(self.ddy, _to_half(flux, 0.5, out=spec)[..., :self.band], out=row)


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
