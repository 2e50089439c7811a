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

import math
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
    each field the bits of its own call.

    Beyond its buffers, an evaluation allocates only transients, one at a
    time: the x-pass intermediate of one inverse call, a band stack of that
    call's fields (1.34 MiB at 512^2, within ``_NODE_BATCH_BYTES`` when
    fields are stacked) and numpy's iteration buffers for a product on the
    band (``np.getbufsize()`` elements an operand).

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
        # ``fields`` holds u, G1u, G2u, and the fluxes in its last two rows.
        # ``spectral`` holds ``ud``, the half spectrum of u kept zero outside
        # the mask, then the band rows of the products that one call stacks
        # with it, one at least for sem.  ``spectrum`` takes the fluxes'
        # transforms, so no buffer serves both directions and ``ud`` is never
        # zeroed again.
        self.fields = np.empty((n_fields,) + lead + self.shape)
        self.spectral = np.zeros((max(min(k, n_in), n_flux),) + lead + (grid.nx, w),
                                 dtype=complex)
        self.spectrum = np.empty((min(k, n_flux),) + lead + (grid.nx, _half_ncols(grid)),
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
        kind, w, shape, k = self.eq.kind, self.band, self.shape, self.per_call
        if kind == "linear":
            out[...] = 0.0
            return out
        out[..., w:] = 0.0
        band, spec, fields = self.spectral, self.spectrum, self.fields
        if uhat.ndim == 3 and uhat.shape[0] < self.batch:
            m = uhat.shape[0]
            band, spec, fields = band[:, :m], spec[:, :m], fields[:, :m]
        ud = band[0]
        np.copyto(ud, uhat[..., :w], where=self.mask)
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
        nhat = out[..., :w]
        if kind == "zk":
            np.multiply(u, u, out=u)
            np.multiply(self.ddx, _to_half(u, 0.5, out=spec[0])[..., :w], out=nhat)
        else:
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
            work = band[1]
            if k > 1:
                spec = _to_half(fields[-2:], 0.5, out=spec[:2])
                np.multiply(self.ddx, spec[0, ..., :w], out=nhat)
                nhat += np.multiply(self.ddy, spec[1, ..., :w], out=work)
            else:
                np.multiply(self.ddx, _to_half(fields[-2], 0.5, out=spec[0])[..., :w], out=nhat)
                nhat += np.multiply(self.ddy, _to_half(fields[-1], 0.5, out=spec[0])[..., :w],
                                    out=work)
        np.copyto(nhat, 0.0, where=self.outside)
        return out


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
