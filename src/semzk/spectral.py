"""Periodic 2-D spectral grids, transforms, and Fourier multipliers.

Conventions used throughout the package:

* The domain is the rectangle ``[0, lx) x [0, ly)`` with periodic boundary
  conditions, sampled on a uniform ``nx x ny`` grid (x is the first array
  axis, y the second).
* Spectral coefficients are Fourier-series coefficients, i.e. the raw FFT
  divided by ``nx * ny``.  A single cosine ``cos(2*pi*x/lx)`` therefore has
  two coefficients of magnitude 1/2.  With this normalization Parseval's
  identity reads ``||f||_{L^2}^2 = lx * ly * sum |fhat|^2``, with no further
  factors; all norm code relies on it.  Every transform in the package, 2-D
  and space-time, goes through the pair ``_to_coeffs``/``_to_values`` below,
  and every symbol table comes from the per-grid cache ``_symbols``.
* Wavenumbers are ``xi_j = 2*pi*j/lx`` and ``mu_k = 2*pi*k/ly`` with integer
  indices ``j in [-nx/2, nx/2)`` stored in FFT order.
* The unpaired Nyquist rows (``j == -nx/2`` or ``k == -ny/2``) carry no
  conjugate partner, so every multiplier built here is zeroed on them.  This
  keeps all applied symbols conjugate-symmetric and real fields real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = [
    "DEALIAS_FRACTION",
    "Grid2D",
    "RealField",
    "SpectralField",
    "MultiplierTable",
    "forward_transform",
    "inverse_transform",
    "make_multiplier",
    "apply_multiplier",
    "dealias",
]

#: Dealiasing cutoff (the classical two-thirds rule).  Quadratic
#: products of fields truncated at this fraction are alias-free.
DEALIAS_FRACTION = 2.0 / 3.0

MULTIPLIER_KINDS = ("ddx", "ddy", "m1", "m2", "laplacian", "inv_laplacian_dx", "symbol_omega")

#: Largest conjugate-symmetry defect a spectrum may carry and still be
#: inverted to real samples (each check states its own metric).
_HERMITIAN_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic grid on ``[0, lx) x [0, ly)``.

    Parameters
    ----------
    nx, ny : int
        Number of grid points per direction.  Must be even and at least 8 so
        that the two-thirds dealiased band is non-trivial.
    lx, ly : float
        Domain edge lengths, strictly positive.

    The instance is immutable and hashable; derived arrays are computed once
    and cached (read-only), so a grid can safely be shared between threads.
    """

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self) -> None:
        for n, name in ((self.nx, "nx"), (self.ny, "ny")):
            if not isinstance(n, int) or n < 8 or n % 2 != 0:
                raise ValueError(f"{name} must be an even integer >= 8, got {n!r}")
        for l, name in ((self.lx, "lx"), (self.ly, "ly")):
            if not (isinstance(l, (int, float)) and math.isfinite(l) and l > 0):
                raise ValueError(f"{name} must be a positive finite number, got {l!r}")
        object.__setattr__(self, "lx", float(self.lx))
        object.__setattr__(self, "ly", float(self.ly))

    # -- physical-space coordinates -------------------------------------
    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @cached_property
    def x(self) -> np.ndarray:
        """Grid abscissae, shape ``(nx,)``."""
        return _readonly(self.dx * np.arange(self.nx))

    @cached_property
    def y(self) -> np.ndarray:
        """Grid ordinates, shape ``(ny,)``."""
        return _readonly(self.dy * np.arange(self.ny))

    # -- spectral-space coordinates -------------------------------------
    @cached_property
    def jx(self) -> np.ndarray:
        """Integer mode indices along x in FFT order, shape ``(nx,)``."""
        return _readonly(np.rint(np.fft.fftfreq(self.nx) * self.nx).astype(np.int64))

    @cached_property
    def jy(self) -> np.ndarray:
        """Integer mode indices along y in FFT order, shape ``(ny,)``."""
        return _readonly(np.rint(np.fft.fftfreq(self.ny) * self.ny).astype(np.int64))

    @cached_property
    def xi(self) -> np.ndarray:
        """Wavenumbers ``2*pi*j/lx`` along x, shape ``(nx,)``."""
        return _readonly(2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx))

    @cached_property
    def mu(self) -> np.ndarray:
        """Wavenumbers ``2*pi*k/ly`` along y, shape ``(ny,)``."""
        return _readonly(2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy))

    @cached_property
    def xi2d(self) -> np.ndarray:
        """Broadcast x-wavenumbers, shape ``(nx, 1)``."""
        return _readonly(self.xi[:, None].copy())

    @cached_property
    def mu2d(self) -> np.ndarray:
        """Broadcast y-wavenumbers, shape ``(1, ny)``."""
        return _readonly(self.mu[None, :].copy())

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """Boolean ``(nx, ny)`` mask of the unpaired Nyquist rows/columns."""
        mask = np.zeros((self.nx, self.ny), dtype=bool)
        mask[self.jx == -self.nx // 2, :] = True
        mask[:, self.jy == -self.ny // 2] = True
        return _readonly(mask)

    def dealias_mask(self) -> np.ndarray:
        """Boolean mask keeping modes with ``|j| < DEALIAS_FRACTION*n/2`` per axis.

        The inequality is strict: this keeps ``3|j| < n`` (Orszag's rule), so
        the product of two retained modes never aliases onto the retained
        band, also when 3 divides ``n``.
        """
        keep_x = np.abs(self.jx) < DEALIAS_FRACTION * self.nx / 2.0
        keep_y = np.abs(self.jy) < DEALIAS_FRACTION * self.ny / 2.0
        return keep_x[:, None] & keep_y[None, :]


def _validate_values(values: np.ndarray, grid: Grid2D, dtype, what: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    if arr.shape != (grid.nx, grid.ny):
        raise ValueError(f"{what} shape {arr.shape} does not match grid ({grid.nx}, {grid.ny})")
    if not np.all(np.isfinite(arr.view(np.float64) if dtype is np.complex128 else arr)):
        raise ValueError("non-finite field")
    return arr


@dataclass
class RealField:
    """Real scalar field sampled on a :class:`Grid2D` (values shape ``(nx, ny)``)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _validate_values(self.values, self.grid, np.float64, "field")

    def copy(self) -> "RealField":
        return RealField(self.grid, self.values.copy())

    def l2(self) -> float:
        """Physical-quadrature L2 norm, ``sqrt(sum u^2 dx dy)``."""
        return float(np.sqrt(np.sum(self.values**2) * self.grid.dx * self.grid.dy))

    def mean(self) -> float:
        return float(np.mean(self.values))

    def __add__(self, other: "RealField") -> "RealField":
        _require_same_grid(self.grid, other.grid)
        return RealField(self.grid, self.values + other.values)

    def __sub__(self, other: "RealField") -> "RealField":
        _require_same_grid(self.grid, other.grid)
        return RealField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "RealField":
        return RealField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "RealField":
        return RealField(self.grid, -self.values)


@dataclass
class SpectralField:
    """Fourier-series coefficients of a field on a :class:`Grid2D`.

    Coefficients are stored in FFT index order, shape ``(nx, ny)``; see the
    module docstring for the normalization.
    """

    grid: Grid2D
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = _validate_values(self.coeffs, self.grid, np.complex128, "spectrum")

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def l2(self) -> float:
        """L2 norm via Parseval, ``sqrt(lx*ly*sum |fhat|^2)``."""
        g = self.grid
        return float(np.sqrt(g.lx * g.ly * np.sum(np.abs(self.coeffs) ** 2)))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _require_same_grid(self.grid, other.grid)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _require_same_grid(self.grid, other.grid)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class MultiplierTable:
    """A Fourier multiplier tabulated on a grid's mode lattice.

    ``values`` has shape ``(nx, ny)`` in FFT order and is read-only.  Tables
    are zeroed on the Nyquist rows/columns at construction.
    """

    grid: Grid2D
    kind: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.values, dtype=np.complex128)
        if arr.shape != (self.grid.nx, self.grid.ny):
            raise ValueError("multiplier table shape does not match grid")
        object.__setattr__(self, "values", _readonly(arr))


def _require_same_grid(a: Grid2D, b: Grid2D) -> None:
    if a != b:
        raise ValueError("fields live on different grids")


def _conjugate_flip(coeffs: np.ndarray) -> np.ndarray:
    """conj(c) sampled at the negated lattice index of every mode, on every axis."""
    axes = tuple(range(coeffs.ndim))
    return np.conj(np.roll(np.flip(coeffs), 1, axis=axes))


def _hermitian_defect(coeffs: np.ndarray) -> float:
    norm = np.linalg.norm(coeffs)
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(coeffs - _conjugate_flip(coeffs)) / norm)


def _to_coeffs(values: np.ndarray, axes=(-2, -1)) -> np.ndarray:
    """Series coefficients over ``axes``: the FFT over the number of samples."""
    coeffs = np.fft.fftn(values, axes=axes)
    # numpy's complex division also multiplies by the reciprocal, so this
    # gives the bits of ``/ size`` without its extra array pass
    coeffs *= 1.0 / math.prod(values.shape[a] for a in axes)
    return coeffs


def _to_values(coeffs: np.ndarray, axes=(-2, -1)) -> np.ndarray:
    """Real samples of series coefficients over ``axes``."""
    size = math.prod(coeffs.shape[a] for a in axes)
    return np.real(np.fft.ifftn(coeffs, axes=axes)) * size


def forward_transform(f: RealField) -> SpectralField:
    """Fourier-series coefficients of ``f`` (FFT scaled by ``1/(nx*ny)``)."""
    return SpectralField(f.grid, _to_coeffs(f.values))


def inverse_transform(F: SpectralField) -> RealField:
    """Invert :func:`forward_transform`, returning a real field.

    Raises ``ValueError`` if the spectrum's relative conjugate-symmetry
    defect exceeds ``_HERMITIAN_TOL``, since only Hermitian spectra describe
    real fields.
    """
    if _hermitian_defect(F.coeffs) > _HERMITIAN_TOL:
        raise ValueError("non-Hermitian spectrum")
    return RealField(F.grid, _to_values(F.coeffs))


@lru_cache(maxsize=32)
def _symbols(grid: Grid2D) -> Mapping[str, np.ndarray]:
    """The grid's read-only symbol tables, cached by grid value.

    One complex table per entry of ``MULTIPLIER_KINDS``, zeroed on the
    Nyquist rows/columns, plus the real dispersion symbol ``omega`` and the
    two-thirds dealiasing ``mask``.
    """
    xi, mu = grid.xi2d, grid.mu2d
    r2 = xi**2 + mu**2
    safe = r2.copy()
    safe[0, 0] = 1.0  # the undefined (0,0) entries are zeroed below
    tables = {
        "ddx": 1j * xi * np.ones_like(mu),
        "ddy": 1j * mu * np.ones_like(xi),
        "m1": xi**2 / safe,
        "m2": xi * mu / safe,
        "laplacian": -r2 + 0j,
        "inv_laplacian_dx": (1j * xi) / -safe,
        "symbol_omega": xi * r2 + 0j,
    }
    for kind, vals in tables.items():
        vals = np.broadcast_to(vals, (grid.nx, grid.ny)).astype(np.complex128)
        if kind in ("m1", "m2", "inv_laplacian_dx"):
            vals[0, 0] = 0.0
        vals[grid.nyquist_mask] = 0.0
        tables[kind] = _readonly(vals)
    tables["omega"] = tables["symbol_omega"].real
    tables["mask"] = _readonly(grid.dealias_mask())
    return MappingProxyType(tables)


def make_multiplier(grid: Grid2D, kind: str) -> MultiplierTable:
    """The :class:`MultiplierTable` of one of the named symbols.

    Kinds
    -----
    ``ddx``, ``ddy``
        Differentiation, ``i*xi`` and ``i*mu``.
    ``m1``, ``m2``
        The bounded nonlocal symbols ``xi^2/(xi^2+mu^2)`` and
        ``xi*mu/(xi^2+mu^2)`` (the x- and y-derivative of the inverse
        Laplacian composed with d/dx).  The undefined ``(0,0)`` entry is set
        to 0, i.e. the operator annihilates the mean mode.
    ``laplacian``, ``inv_laplacian_dx``
        ``-(xi^2+mu^2)`` and ``i*xi / -(xi^2+mu^2)`` (mean mode -> 0); the
        latter reconstructs the potential from the field.
    ``symbol_omega``
        The dispersion symbol ``xi^3 + xi*mu^2`` (real-valued) of the
        linearized flow.

    Every table is zeroed on the Nyquist rows/columns so that its application
    preserves conjugate symmetry.  Tables are shared, read-only, between all
    equal grids.
    """
    if kind not in MULTIPLIER_KINDS:
        raise ValueError(f"unknown multiplier kind {kind!r}; expected one of {MULTIPLIER_KINDS}")
    return MultiplierTable(grid, kind, _symbols(grid)[kind])


def apply_multiplier(F: SpectralField, table: MultiplierTable) -> SpectralField:
    """Multiply a spectrum pointwise by a tabulated symbol."""
    _require_same_grid(F.grid, table.grid)
    return SpectralField(F.grid, F.coeffs * table.values)


def dealias(F: SpectralField) -> SpectralField:
    """Zero all modes outside the two-thirds band :meth:`Grid2D.dealias_mask`.

    Pointwise products of two dealiased fields are alias-free on the retained
    band.  Idempotent.
    """
    return SpectralField(F.grid, np.where(_symbols(F.grid)["mask"], F.coeffs, 0.0))
