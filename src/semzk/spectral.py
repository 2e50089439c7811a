"""Periodic 2-D spectral grids, transforms, and Fourier multipliers.

Conventions used throughout the package:

* The domain is the rectangle ``[0, lx) x [0, ly)`` with periodic boundary
  conditions, sampled on a uniform ``nx x ny`` grid (x is the first array
  axis, y the second).
* Spectral coefficients are Fourier-series coefficients, i.e. the raw FFT
  divided by ``nx * ny``.  A single cosine ``cos(2*pi*x/lx)`` therefore has
  two coefficients of magnitude 1/2.  With this normalization Parseval's
  identity reads ``||f||_{L^2}^2 = lx * ly * sum |fhat|^2``, with no further
  factors; all norm code relies on it.  Every transform in the package goes
  through one of two private pairs below: ``_to_coeffs``/``_to_values`` for
  full complex spectra (the public API and the space-time fields), and
  ``_to_half``/``_from_half`` for the real half spectra of shape
  ``(..., nx, ny//2 + 1)`` that the solvers evolve.  The one other
  transform user, the linear convolution of the dense probes, is
  ``_linear_convolve`` beside them.  Every symbol table comes from the
  per-grid cache ``_symbols``, or its half-width counterpart
  ``_half_symbols``; both evaluate the one formula of ``_symbol`` per kind,
  and each is a read-only mapping that builds a kind the first time it is
  read (once, also when threads read it together), so a run holds only the
  tables it uses.  The full lattice holds complex tables, which
  ``make_multiplier`` hands out, and ``omega`` as float64.  The half
  lattice stores the real symbols (``m1``, ``m2``, ``laplacian`` and the
  dispersion ``omega``) as float64 and the rest as complex; beside the 2-D
  ``ddx`` and ``ddy`` it holds the rank-1 ``i_xi``, an ``(nx, 1)`` column
  zeroed on the Nyquist row, and ``i_mu``, a ``(1, ny/2 + 1)`` row zeroed
  on the Nyquist column, which the solvers' kernel reads on its band.
* A half spectrum stores the columns ``k = 0 .. ny/2`` of a real field's
  spectrum; the columns ``k = -ny/2+1 .. -1`` are the conjugates of the
  stored ones.  A sum over the full spectrum of a quantity even under
  ``(j, k) -> (-j, -k)`` is therefore a sum over the half spectrum with the
  column multiplicities ``_half_symbols(grid)["columns"]``: 1 for ``k = 0``
  and the Nyquist column, 2 for every other column.  A :class:`RealField`
  the solvers hand out holds its half spectrum and makes its samples only
  when they are read.
* Wavenumbers are ``xi_j = 2*pi*j/lx`` and ``mu_k = 2*pi*k/ly`` with integer
  indices ``j in [-nx/2, nx/2)`` stored in FFT order.
* The unpaired Nyquist rows (``j == -nx/2`` or ``k == -ny/2``) carry no
  conjugate partner, so every multiplier built here is zeroed on them.  This
  keeps all applied symbols conjugate-symmetric and real fields real.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

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

#: Largest relative conjugate-symmetry defect a spectrum may carry and still be
#: inverted to real samples: the one Hermitian rule, held by ``_hermitian_values``.
_HERMITIAN_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _real(name: str, value, *, positive: bool = False, nonnegative: bool = False) -> float:
    """``value`` as a float, if it is a finite (and ``positive``, or
    ``nonnegative``) real and no bool; else a ``ValueError`` that names the
    argument ``name`` and shows the value abridged by :func:`reprlib.repr`.
    (numpy registers its scalars with :mod:`numbers`, but not
    ``np.bool_``.)"""
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if (isinstance(value, bool) or not math.isfinite(x) or (positive and x <= 0)
            or (nonnegative and x < 0)):
        what = ("positive and finite" if positive else "nonnegative and finite"
                if nonnegative else "a finite real number")
        raise ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")
    return x


def _integer(name: str, value, least: int, *, even: bool = False) -> int:
    """``value`` as an int, if it is an integer ``>= least`` (and ``even``)
    and no bool; else a ``ValueError`` that names the argument ``name``,
    like :func:`_real`'s."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {reprlib.repr(value)}")
    if even and value % 2:
        raise ValueError(f"{name} must be even, got {reprlib.repr(int(value))}")
    return int(value)


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
        for name in ("nx", "ny"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 8, even=True))
        for name in ("lx", "ly"):
            object.__setattr__(self, name, _real(name, getattr(self, name), positive=True))

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


def _validate_values(values: np.ndarray, grid: Grid2D, dtype, what: str,
                     shape: tuple | None = None) -> np.ndarray:
    """``values`` as a contiguous finite array of ``dtype`` and ``shape`` (by
    default the grid's sample shape; ``None`` matches an axis of any length),
    else ``ValueError("<what> shape ... does not match grid ...")`` or
    ``ValueError("non-finite <what>")``.  Callers (``what``): RealField
    (field), SpectralField and Snapshot.field (spectrum), MultiplierTable
    (multiplier table), and in dyadic SpaceTimeField and SparseBlock
    (coefficients) and spacetime_from_snapshots (frames)."""
    arr = np.ascontiguousarray(values, dtype=dtype)
    shape = shape or (grid.nx, grid.ny)
    if arr.ndim != len(shape) or any(n not in (None, m) for m, n in zip(arr.shape, shape)):
        raise ValueError(f"{what} shape {arr.shape} does not match grid {shape}")
    if not np.all(np.isfinite(arr.view(np.float64) if dtype is np.complex128 else arr)):
        raise ValueError(f"non-finite {what}")
    return arr


class RealField:
    """Real scalar field sampled on a :class:`Grid2D` (values shape ``(nx, ny)``).

    A field the solvers hand out holds its real half spectrum instead (see
    :meth:`_of_half`) and makes its samples on the first read of ``values``;
    the norms of :mod:`semzk.norms` and the snapshot writer read that
    spectrum directly.
    """

    def __init__(self, grid: Grid2D, values: np.ndarray):
        self.grid = grid
        self._values = _validate_values(values, grid, np.float64, "field")
        self._half = None

    @classmethod
    def _of_half(cls, grid: Grid2D, half: np.ndarray,
                 values: np.ndarray | None = None) -> "RealField":
        """The field whose half spectrum is ``half``, which it keeps (so the
        caller must not write into it), with its samples ``values`` when
        they are already known.  Nothing is validated."""
        f = cls.__new__(cls)
        f.grid, f._values, f._half = grid, values, half
        return f

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _from_half(self._half)
        return self._values

    def __repr__(self) -> str:
        held = "values" if self._half is None else "half spectrum"
        return f"RealField(grid={self.grid!r}, holds {held})"

    def copy(self) -> "RealField":
        if self._half is None:
            return RealField(self.grid, self._values.copy())
        values = None if self._values is None else self._values.copy()
        return RealField._of_half(self.grid, self._half.copy(), values)

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
        arr = _validate_values(self.values, self.grid, np.complex128, "multiplier table")
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


def _hermitian_values(coeffs: np.ndarray) -> np.ndarray:
    """Real samples of series coefficients over every axis; a ``ValueError`` if
    their relative conjugate-symmetry defect exceeds ``_HERMITIAN_TOL``."""
    if _hermitian_defect(coeffs) > _HERMITIAN_TOL:
        raise ValueError("non-Hermitian spectrum")
    return _to_values(coeffs, axes=tuple(range(coeffs.ndim)))


def _to_half(values: np.ndarray, scale: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """Half-spectrum series coefficients of real samples over the last two
    axes, times ``scale`` (folded into the one normalizing pass), written
    into ``out`` when it is given."""
    coeffs = np.fft.rfftn(values, axes=(-2, -1), out=out)
    coeffs *= scale / (values.shape[-2] * values.shape[-1])
    return coeffs


def _from_half(coeffs: np.ndarray, shape: tuple[int, int] | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Real samples of half-spectrum series coefficients over the last two
    axes, written into ``out`` when it is given.

    Without ``shape`` the coefficients are a whole half spectrum, and a
    grid's ``ny`` is even, so the transform's default output length
    ``2 * (ny//2)`` recovers it.  With the sample shape ``(nx, ny)``,
    ``coeffs`` may hold only the leading columns of the half spectrum, the
    rest being zero: the x-pass then runs on those columns alone.
    ``norm="forward"`` leaves the inverse unscaled, which is the series
    convention."""
    return np.fft.irfftn(coeffs, s=shape, axes=(-2, -1), norm="forward", out=out)


def _half_of(u: RealField) -> np.ndarray:
    """The half spectrum of ``u``: the one it holds, which must not be
    written into, or else a fresh transform of its samples."""
    return _to_half(u.values) if u._half is None else u._half


def _fast_length(n: int) -> int:
    """The smallest 5-smooth integer ``>= n``: an FFT length numpy
    factors into radix-2, 3 and 5 passes alone."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _linear_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The linear (unwrapped) convolution of two n-D arrays, of length
    ``n1 + n2 - 1`` on each axis.

    Each axis is zero-padded to the 5-smooth length of :func:`_fast_length`
    at least ``n1 + n2 - 1``, so the circular convolution that the product
    of the n-D transforms gives wraps nothing; the result is its leading
    corner, a view of the padded buffer.
    """
    shape = tuple(n1 + n2 - 1 for n1, n2 in zip(a.shape, b.shape))
    padded = tuple(_fast_length(n) for n in shape)
    axes = tuple(range(len(shape)))
    spec = np.fft.fftn(a, s=padded, axes=axes)
    spec *= np.fft.fftn(b, s=padded, axes=axes)
    np.fft.ifftn(spec, axes=axes, out=spec)
    return spec[tuple(slice(0, n) for n in shape)]


def forward_transform(f: RealField) -> SpectralField:
    """Fourier-series coefficients of ``f`` (FFT scaled by ``1/(nx*ny)``)."""
    return SpectralField(f.grid, _to_coeffs(f.values))


def inverse_transform(F: SpectralField) -> RealField:
    """Invert :func:`forward_transform`, returning a real field; raises
    ``ValueError`` unless the spectrum is Hermitian (``_hermitian_values``)."""
    return RealField(F.grid, _hermitian_values(F.coeffs))


#: The symbols with real values, which the half lattice stores as float64.
_REAL_KINDS = ("m1", "m2", "laplacian", "symbol_omega")


def _symbol(grid: Grid2D, ncols: int, kind: str) -> np.ndarray:
    """The values of the symbol ``kind`` of ``MULTIPLIER_KINDS`` on the
    leading ``ncols`` columns of the grid's mode lattice, broadcastable to
    ``(nx, ncols)``: complex for the derivatives and ``inv_laplacian_dx``,
    real for ``_REAL_KINDS``, whose values are the real parts of the
    complex formulas to the bit (``+ 0.0`` gives the mean entry the +0 of
    ``-r2 + 0j``).  The undefined ``(0, 0)`` entries are left to the caller.
    """
    xi, mu = grid.xi2d, grid.mu2d[:, :ncols]
    if kind == "ddx":
        return 1j * xi * np.ones_like(mu)
    if kind == "ddy":
        return 1j * mu * np.ones_like(xi)
    r2 = xi**2 + mu**2
    if kind == "laplacian":
        return -r2 + 0.0
    if kind == "symbol_omega":
        return xi * r2 + 0.0
    r2[0, 0] = 1.0
    if kind == "m1":
        return xi**2 / r2
    if kind == "m2":
        return xi * mu / r2
    return (1j * xi) / -r2


def _table(grid: Grid2D, ncols: int, kind: str, dtype) -> np.ndarray:
    """The read-only ``dtype`` table of the symbol ``kind`` on the leading
    ``ncols`` columns, zeroed on the Nyquist rows/columns and, where the
    symbol is undefined, at ``(0, 0)``.  Every entry is evaluated
    pointwise, so a table on fewer columns is exactly the leading columns of
    the full one."""
    vals = np.broadcast_to(_symbol(grid, ncols, kind), (grid.nx, ncols)).astype(dtype)
    if kind in ("m1", "m2", "inv_laplacian_dx"):
        vals[0, 0] = 0.0
    vals[grid.nyquist_mask[:, :ncols]] = 0.0
    return _readonly(vals)


def _i_xi(grid: Grid2D) -> np.ndarray:
    """``i xi`` as an ``(nx, 1)`` column, zeroed on the Nyquist row: each
    entry has the bits of the ``ddx`` table's entries in its row."""
    col = 1j * grid.xi2d * np.ones((1, 1))
    col[grid.jx == -grid.nx // 2] = 0.0
    return _readonly(col)


def _i_mu(grid: Grid2D, ncols: int) -> np.ndarray:
    """``i mu`` as a ``(1, ncols)`` row, zeroed on the Nyquist column: each
    entry has the bits of the ``ddy`` table's entries in its column."""
    row = 1j * grid.mu2d[:, :ncols] * np.ones((1, 1))
    row[:, grid.jy[:ncols] == -grid.ny // 2] = 0.0
    return _readonly(row)


class _Tables(Mapping):
    """A read-only mapping from each kind to its table, which it builds the
    first time the kind is read and keeps; a lock makes threads that read a
    kind for the first time together build it once and get the same
    table."""

    def __init__(self, builders: dict):
        self._builders = builders
        self._built: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def __getitem__(self, kind: str) -> np.ndarray:
        table = self._built.get(kind)
        if table is None:
            build = self._builders[kind]
            with self._lock:
                table = self._built.get(kind)
                if table is None:
                    table = self._built[kind] = build()
        return table

    def __contains__(self, kind) -> bool:  # without building the table
        return kind in self._builders

    def __iter__(self):
        return iter(self._builders)

    def __len__(self) -> int:
        return len(self._builders)

    @property
    def built(self) -> tuple[str, ...]:
        """The kinds built so far."""
        return tuple(self._built)


def _mask(grid: Grid2D, ncols: int) -> np.ndarray:
    return _readonly(np.ascontiguousarray(grid.dealias_mask()[:, :ncols]))


@lru_cache(maxsize=32)
def _symbols(grid: Grid2D) -> Mapping[str, np.ndarray]:
    """The grid's symbol tables on the full lattice, cached by grid value
    and each built the first time it is read: one complex table per entry
    of ``MULTIPLIER_KINDS`` (see :func:`_table`), the real dispersion
    symbol ``omega`` as float64 and the two-thirds dealiasing ``mask``."""
    n = grid.ny
    builders = {kind: partial(_table, grid, n, kind, np.complex128) for kind in MULTIPLIER_KINDS}
    builders.update(omega=partial(_table, grid, n, "symbol_omega", np.float64),
                    mask=partial(_mask, grid, n))
    return _Tables(builders)


def _half_ncols(grid: Grid2D) -> int:
    """The number of columns ``k = 0 .. ny/2`` of the grid's half spectrum."""
    return grid.ny // 2 + 1


def _columns(grid: Grid2D) -> np.ndarray:
    columns = np.full(_half_ncols(grid), 2.0)
    columns[[0, -1]] = 1.0
    return _readonly(columns)


@lru_cache(maxsize=32)
def _half_symbols(grid: Grid2D) -> Mapping[str, np.ndarray]:
    """The kinds of :func:`_symbols` on the half spectrum, cached by grid
    and each built the first time it is read, on the columns
    ``k = 0 .. ny/2`` alone; they equal the leading columns of the full
    tables, and the Nyquist column ``k = ny/2`` is zero in every symbol and
    in the mask.  ``_REAL_KINDS`` and ``omega`` are float64, the rest
    complex.  Two rank-1 entries serve the kernel's lanes: ``i_xi``, an
    ``(nx, 1)`` column zeroed on the Nyquist row only, and ``i_mu``, a
    ``(1, ny/2 + 1)`` row zeroed on the Nyquist column only.  ``columns``
    holds the multiplicity of each column in the full spectrum (see the
    module docstring).
    """
    n = _half_ncols(grid)
    builders = {kind: partial(_table, grid, n, kind,
                              np.float64 if kind in _REAL_KINDS else np.complex128)
                for kind in MULTIPLIER_KINDS}
    builders.update(omega=partial(_table, grid, n, "symbol_omega", np.float64),
                    mask=partial(_mask, grid, n), columns=partial(_columns, grid),
                    i_xi=partial(_i_xi, grid), i_mu=partial(_i_mu, grid, n))
    return _Tables(builders)


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
