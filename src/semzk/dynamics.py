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
import weakref
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
    _require_same_grid,
    _symbols,
    _to_half,
    _x_forward,
    _x_inverse,
    _y_forward,
    _y_inverse,
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
#: which the kernel splits every pass of an evaluation by lines between the
#: caller and a helper thread of its own (see :class:`_Nonlinearity`).  At
#: 512^2 (2 MiB) on a shared 2-core host the split body took 4.7-6.2 ms a
#: ``sem`` evaluation, against 8.1-10.9 ms on the caller alone and 6.0-6.8
#: ms for a y lane on a thread started per call (p5 of 300 calls).  The
#: value is the one that per-call thread needed; the split body also gained
#: at 256^2 and 512x256 while the second core was free, but no benchmark
#: workload runs a grid between 256x16 and 512^2 to show it end to end.
#: The timings are in CHANGES.md.
_SPLIT_FIELD_BYTES = 2 * 1024 * 1024


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Helper:
    """A thread that runs half of the caller's work beside it.

    ``run(work, (first, second))`` offers ``work(second)`` to the thread
    and runs ``work(first)`` on the caller's; then the caller runs
    ``work(second)`` too if the thread has not claimed it by then (as while
    the second core is busy), or else waits for the thread.  It raises the
    caller's error, else the thread's.  The thread runs its half in a copy
    of the caller's context, so under the caller's numpy error state.
    ``close`` ends the thread; a thread that cannot be started raises
    ``RuntimeError`` from the constructor.
    """

    def __init__(self):
        self._cv = threading.Condition()
        self._offer = self._error = None
        self._busy, self._open = False, True
        self._thread = threading.Thread(target=self._serve, name="semzk-kernel", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        cv = self._cv
        with cv:
            while True:
                while self._open and self._offer is None:
                    cv.wait()
                if not self._open:
                    return
                (work, part, context), self._offer = self._offer, None
                self._busy = True
                cv.release()
                error = None
                try:
                    context.run(work, part)
                except BaseException as caught:  # raised again by the caller
                    error = caught
                cv.acquire()
                self._busy, self._error = False, error
                cv.notify_all()

    def run(self, work, parts) -> None:
        first, second = parts
        with self._cv:
            self._offer = (work, second, contextvars.copy_context())
            self._cv.notify()
        try:
            work(first)
        finally:
            with self._cv:
                # withdraw the offer, and wait for a claimed half, which
                # writes into the caller's buffers until it ends
                unclaimed, self._offer = self._offer, None
                while self._busy:
                    self._cv.wait()
                error, self._error = self._error, None
        if unclaimed is not None:
            work(second)
        elif error is not None:
            raise error

    def close(self) -> None:
        with self._cv:
            self._open = False
            self._cv.notify_all()
        self._thread.join()


class _Nonlinearity:
    """The dealiased N(u) of one equation on one grid, in conservative form,
    from half spectrum to half spectrum; the 1/2 of every flux rides on its
    transform's scale.

    Built once per public call, which closes it when it ends (``close``, or
    a ``with`` block), it owns its work buffers and a fixed soliton
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
    ``sem_on_soliton``, a field for its flux.

    Below ``_SPLIT_FIELD_BYTES`` of samples a field, the schedule groups
    the lanes into transform calls of ``per_call`` fields: as many as fit
    ``_NODE_BATCH_BYTES`` of samples, at least one.  With three, u and both
    G u share one inverse call and both fluxes one forward; with two, u goes
    alone and the lanes together; with one, the lanes run one after the
    other.  From ``_SPLIT_FIELD_BYTES`` (``split``) every kind runs one body
    of four phases, each cut into two halves of lines: (A) rows: ``ud`` and
    each lane's ``m ud``; (B) band columns: the x-pass of every inverse, in
    place on the band rows; (C) rows: the y-pass of every inverse, the
    fluxes and the y-pass of every forward; (D) band columns: the x-pass of
    every forward, its scale, ``d`` times it, the lane sum and the mask.
    The caller runs the first half of each phase and offers the second to
    a helper thread that the kernel starts at its first such call
    (:class:`_Helper`); the caller runs every half the helper has not
    claimed: all of them when the process may use one CPU only (no helper
    is started), when the helper could not be started or while it is
    late.  Each line's
    transform is independent, and the products are elementwise, so a stacked
    call gives each field the bits of its own call, a half gives its lines
    the bits of the whole pass, and the result does not depend on the
    schedule, to the bit.

    Beyond its buffers, an evaluation allocates only transients: numpy's
    iteration buffers for a product on the band (``np.getbufsize()``
    elements an operand) and, below the split, the x-pass intermediate of
    an inverse call (a band stack of that call's fields, 1.33 MiB for one
    512 x 510 field); from the split the x-passes run in place.

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
        self.split = n > 0 and field_bytes >= _SPLIT_FIELD_BYTES
        # ``fields`` holds u, then lane i's G u in row g + i (u's own row
        # for zk) and its flux in row f + i: zk's flux takes u's row, sem's
        # its G u's, and sem_on_soliton's have rows of their own.
        # ``spectral`` holds ``ud``, the half spectrum of u kept zero outside
        # the mask, then lane i's band row, for its product m ud, in row
        # g + i; ``spectrum`` holds the lanes' half spectra, so no buffer
        # serves both directions.  Below the split ``ud`` is never zeroed
        # again; from it the x-passes overwrite the band rows.
        self._g, self._f = {"zk": (0, 0), "sem": (1, 1), "sem_on_soliton": (1, 3)}.get(eq.kind, (0, 0))
        self.fields = np.empty((self._f + n,) + lead + self.shape)
        self.spectral = np.zeros((self._g + n,) + lead + (grid.nx, w), dtype=complex)
        self.spectrum = np.empty((n,) + lead + (grid.nx, _half_ncols(grid)), dtype=complex)
        if eq.kind == "sem_on_soliton":
            p = eq.soliton
            self.phi = soliton_shape(p.omega, _wrapped_offset(grid, p, t))[:, None]
        self._helper = None

    def __enter__(self) -> "_Nonlinearity":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End the helper thread, if the kernel started one."""
        if self._helper is not None:
            self._close_helper()
            self._helper = None

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
        if self.split:
            self._split(uhat, nhat, band, spec, fields)
            return out
        buffers = (nhat, band, spec, fields)
        np.copyto(band[0], uhat[..., :w], where=self.mask)
        if self.per_call >= self._g + n:  # u and every G u in one call
            self._lanes(0, n, *buffers, u_too=True)
        else:
            _from_half(band[0], self.shape, out=fields[0])
            if self.per_call >= n:
                self._lanes(0, n, *buffers)
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
        for i in range(a, b):
            self._flux(i, fields, slice(None))
        _to_half(fields[f + a:f + b], 0.5, out=spectrum[a:b])
        for i in range(a, b):
            np.multiply(self.lanes[i][1], spectrum[i, ..., :self.band], out=band[g + i] if i else nhat)

    def _flux(self, i: int, fields: np.ndarray, rows: slice) -> None:
        """Lane ``i``'s flux on the ``rows`` of ``fields``, from u and its
        G u there."""
        u, gu = fields[0, ..., rows, :], fields[self._g + i, ..., rows, :]
        flux = np.multiply(u, gu, out=fields[self._f + i, ..., rows, :])
        if self.eq.kind == "sem_on_soliton":
            # flux_x = u g1 + phi (u + g1), flux_y = u g2 + phi g2
            if i == 0:
                gu += u
            gu *= self.phi[rows]
            flux += gu

    def _split(self, uhat, nhat, band, spectrum, fields) -> None:
        """The four phases of a split evaluation (see the class docstring),
        each on two halves, of the rows or of the band columns, that the
        caller shares with the helper thread."""
        g, f, n, w = self._g, self._f, len(self.lanes), self.band
        nx, ny = self.shape
        rows = (slice(0, nx // 2), slice(nx // 2, nx))
        cols = (slice(0, w // 2), slice(w // 2, w))
        factor = 0.5 / (nx * ny)  # _to_half's scale

        def ud_and_products(r):  # (A)
            ud = band[0, ..., r, :]
            np.copyto(ud, uhat[..., r, :w])
            np.copyto(ud, 0.0, where=self.outside[r])
            for i, (m, _) in enumerate(self.lanes):
                if m is not None:
                    np.multiply(ud, m[r], out=band[g + i, ..., r, :])

        def inverse_x(c):  # (B)
            _x_inverse(band[:g + n, ..., c])

        def fluxes(r):  # (C)
            _y_inverse(band[:g + n, ..., r, :], ny, out=fields[:g + n, ..., r, :])
            for i in range(n):
                self._flux(i, fields, r)
            _y_forward(fields[f:f + n, ..., r, :], out=spectrum[:, ..., r, :])

        def forward_x(c):  # (D)
            half = spectrum[:, ..., c]
            _x_forward(half, factor)
            for i, (_, d) in enumerate(self.lanes):
                # i xi is a column, i mu a row
                np.multiply(d if d.shape[-1] == 1 else d[:, c], half[i],
                            out=band[g + i, ..., c] if i else nhat[..., c])
            if n == 2:
                nhat[..., c] += band[2, ..., c]
            np.copyto(nhat[..., c], 0.0, where=self.outside[:, c])

        helper = self._start_helper()
        for phase, parts in ((ud_and_products, rows), (inverse_x, cols), (fluxes, rows), (forward_x, cols)):
            if helper is None:
                for part in parts:
                    phase(part)
            else:
                helper.run(phase, parts)

    def _start_helper(self) -> "_Helper | None":
        """The kernel's helper thread, started at the first split call when
        the process may use more than one CPU; None while it cannot be."""
        if self._helper is None and _usable_cpus() > 1:
            try:
                self._helper = _Helper()
            except RuntimeError:  # no new thread, as when the host is out of them
                return None
            # and ended at the latest with the kernel
            self._close_helper = weakref.finalize(self, self._helper.close)
        return self._helper


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
    uhat = _to_half(u.values)
    with _Nonlinearity(g, eq, t=_real("t", t)) as kernel:
        return RealField(g, _from_half(kernel(uhat, np.empty_like(uhat))))


def solve_potential(u: RealField) -> RealField:
    """Reconstruct the potential: solve ``Laplacian(phi) = u_x`` with zero mean."""
    inv_lap_dx = _half_symbols(u.grid)["inv_laplacian_dx"]
    return RealField(u.grid, _from_half(_to_half(u.values) * inv_lap_dx))


def poisson_residual(u: RealField, phi: RealField) -> float:
    """L2 norm of ``Laplacian(phi) - u_x``."""
    _require_same_grid(u.grid, phi.grid)
    g = u.grid
    tab = _half_symbols(g)
    res = _to_half(phi.values) * tab["laplacian"] - _to_half(u.values) * tab["ddx"]
    return float(np.sqrt(g.lx * g.ly * np.sum(tab["columns"] * np.abs(res) ** 2)))
