"""Dyadic frequency and modulation decompositions on a space-time lattice.

The smooth cutoffs are built from the classical C^infinity step
``S(t) = f(t) / (f(t) + f(1 - t))`` with ``f(t) = exp(-1/t)`` for positive
``t``.  The profile :func:`bump` equals one on ``[-5/4, 5/4]`` and vanishes
outside ``(-8/5, 8/5)``; the ring profile ``annulus(x) = bump(x) - bump(2x)``
equals one for ``4/5 <= |x| <= 5/4`` and is supported in
``5/8 <= |x| <= 8/5``.

Summing :func:`frequency_weight` (or :func:`modulation_weight`) over the
dyadic levels ``1, 2, 4, ...`` telescopes: each ring contributes
``bump(r/N) - bump(2 r/N)`` and dividing by a power of two is exact in binary
floating point, so adjacent terms cancel to the last bit.  The partition of
unity therefore holds exactly wherever the top-level bump has saturated.

Space-time fields are stored as Fourier-series coefficients ``c[jx, jy, jt]``
in FFT ordering; the time frequency on a box of length ``t_box`` is
``tau = 2*pi*jt/t_box`` and the modulation variable is
``m = tau - (xi**3 + xi*mu**2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    Grid2D,
    _HERMITIAN_TOL,
    _conjugate_flip,
    _to_coeffs,
    _to_values,
)

__all__ = [
    "BUMP_PLATEAU",
    "BUMP_SUPPORT",
    "ANNULUS_PLATEAU",
    "ANNULUS_SUPPORT",
    "smooth_step",
    "bump",
    "annulus",
    "dyadic_levels",
    "frequency_radius",
    "dispersion_values",
    "tau_values",
    "modulation_values",
    "frequency_weight",
    "modulation_weight",
    "SpaceTimeField",
    "spacetime_from_snapshots",
    "project_frequency",
    "project_modulation",
    "block_modes",
    "SparseBlock",
    "random_block_sparse",
    "random_block",
]

#: the bump equals one on [-BUMP_PLATEAU, BUMP_PLATEAU]
BUMP_PLATEAU = 1.25
#: the bump vanishes for |x| >= BUMP_SUPPORT
BUMP_SUPPORT = 1.6
#: the ring profile equals one on this closed |x| interval
ANNULUS_PLATEAU = (0.8, 1.25)
#: the ring profile vanishes outside this open |x| interval
ANNULUS_SUPPORT = (0.625, 1.6)

_EDGE = BUMP_SUPPORT - BUMP_PLATEAU


def smooth_step(t):
    """Monotone C^infinity ramp: 0 for t <= 0, 1 for t >= 1."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(arr)
    out[arr >= 1.0] = 1.0
    mid = (arr > 0.0) & (arr < 1.0)
    tm = arr[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    if np.asarray(t).shape == ():
        return float(out[0])
    return out


def bump(x):
    """Even C^infinity cutoff: 1 on the plateau, 0 beyond the support edge."""
    ax = np.abs(np.asarray(x, dtype=float))
    return 1.0 - smooth_step((ax - BUMP_PLATEAU) / _EDGE)


def annulus(x):
    """Ring profile bump(x) - bump(2x); the dyadic shells sum telescopically."""
    x = np.asarray(x, dtype=float)
    return bump(x) - bump(2.0 * x)


def dyadic_levels(max_value: float) -> tuple:
    """Dyadic levels 1, 2, 4, ... whose shells cover radii up to max_value.

    The returned top level N satisfies ``max_value <= 5N/4`` so the telescoped
    sum of all shell weights equals one on [0, max_value].
    """
    if not np.isfinite(max_value) or max_value <= 0:
        raise ValueError("max_value must be positive and finite")
    levels = [1]
    while levels[-1] * BUMP_PLATEAU < max_value:
        levels.append(2 * levels[-1])
    return tuple(levels)


def _check_level(n) -> int:
    n = int(n)
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"dyadic level must be a positive power of two, got {n}")
    return n


def frequency_radius(grid: Grid2D) -> np.ndarray:
    """|(xi, mu)| on the spatial lattice, in FFT ordering."""
    return np.hypot(grid.xi2d, grid.mu2d * np.ones((1, grid.ny)))


def dispersion_values(grid: Grid2D) -> np.ndarray:
    """The raw dispersion symbol xi^3 + xi mu^2 on the lattice (no masking)."""
    return grid.xi2d**3 + grid.xi2d * grid.mu2d**2


def tau_values(t_box: float, nt: int) -> np.ndarray:
    """Time frequencies 2*pi*fftfreq for an nt-point box of length t_box."""
    return 2.0 * np.pi * np.fft.fftfreq(nt, d=t_box / nt)


def modulation_values(grid: Grid2D, t_box: float, nt: int) -> np.ndarray:
    """m = tau - dispersion, shape (nx, ny, nt)."""
    tau = tau_values(t_box, nt)
    return tau[None, None, :] - dispersion_values(grid)[:, :, None]


@lru_cache(maxsize=256)
def _frequency_weight_cached(grid: Grid2D, n: int) -> np.ndarray:
    r = frequency_radius(grid)
    w = bump(r) if n == 1 else annulus(r / n)
    w.setflags(write=False)
    return w


def frequency_weight(grid: Grid2D, n: int) -> np.ndarray:
    """Shell weight in |(xi, mu)|: the bump for n == 1, else annulus(r/n).

    Returns a cached read-only array.
    """
    return _frequency_weight_cached(grid, _check_level(n))


@lru_cache(maxsize=256)
def _modulation_weight_cached(grid: Grid2D, t_box: float, nt: int,
                              l: int) -> np.ndarray:
    m = modulation_values(grid, t_box, nt)
    w = bump(m) if l == 1 else annulus(m / l)
    w.setflags(write=False)
    return w


def modulation_weight(grid: Grid2D, t_box: float, nt: int, l: int) -> np.ndarray:
    """Shell weight in the modulation m = tau - dispersion, shape (nx, ny, nt).

    Returns a cached read-only array.
    """
    return _modulation_weight_cached(grid, float(t_box), int(nt), _check_level(l))


@dataclass
class SpaceTimeField:
    """Fourier-series coefficients of a field on a periodic space-time box.

    `coeffs` has shape (nx, ny, nt) in FFT ordering.  The squared L^2 norm of
    the field is lx * ly * t_box times the sum of squared coefficient moduli.
    """

    grid: Grid2D
    t_box: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.t_box) and self.t_box > 0):
            raise ValueError("t_box must be positive and finite")
        c = np.ascontiguousarray(self.coeffs, dtype=complex)
        if c.ndim != 3 or c.shape[:2] != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"coefficient shape {c.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny}, nt)")
        if c.shape[2] < 4 or c.shape[2] % 2:
            raise ValueError("nt must be an even integer >= 4")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coefficients")
        self.coeffs = c

    @property
    def nt(self) -> int:
        return self.coeffs.shape[2]

    def l2(self) -> float:
        total = np.sum(np.abs(self.coeffs) ** 2)
        return float(np.sqrt(self.grid.lx * self.grid.ly * self.t_box * total))

    def physical(self) -> np.ndarray:
        """Real samples on the lattice; raises if the spectrum is not Hermitian.

        The defect is the largest deviation from conjugate symmetry, relative
        to the largest coefficient modulus (or to 1, if that is smaller).
        """
        defect = np.max(np.abs(self.coeffs - _conjugate_flip(self.coeffs)))
        scale = max(1.0, float(np.max(np.abs(self.coeffs))))
        if defect > _HERMITIAN_TOL * scale:
            raise ValueError(f"non-Hermitian spectrum (defect {defect:.3e})")
        return _to_values(self.coeffs, axes=(0, 1, 2))


def spacetime_from_snapshots(grid: Grid2D, t_box: float,
                             frames: np.ndarray) -> SpaceTimeField:
    """Transform real samples (nx, ny, nt) into series coefficients."""
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 3 or frames.shape[:2] != (grid.nx, grid.ny):
        raise ValueError("frames must have shape (nx, ny, nt)")
    return SpaceTimeField(grid, float(t_box), _to_coeffs(frames, axes=(0, 1, 2)))


def project_frequency(field: SpaceTimeField, n: int) -> SpaceTimeField:
    """Restrict to the dyadic shell n in spatial frequency magnitude."""
    w = frequency_weight(field.grid, n)
    return SpaceTimeField(field.grid, field.t_box, field.coeffs * w[:, :, None])


def project_modulation(field: SpaceTimeField, l: int) -> SpaceTimeField:
    """Restrict to the dyadic shell l in the modulation variable."""
    w = modulation_weight(field.grid, field.t_box, field.nt, l)
    return SpaceTimeField(field.grid, field.t_box, field.coeffs * w)


@lru_cache(maxsize=64)
def _block_modes_cached(grid: Grid2D, t_box: float, nt: int, n: int,
                        l: int) -> np.ndarray:
    wfreq = frequency_weight(grid, n)
    ix, iy = np.nonzero(wfreq == 1.0)
    jx = ((ix + grid.nx // 2) % grid.nx) - grid.nx // 2
    jy = ((iy + grid.ny // 2) % grid.ny) - grid.ny // 2
    spatial = (np.abs(jx) <= grid.nx // 2 - 1) & (np.abs(jy) <= grid.ny // 2 - 1)
    jx, jy = jx[spatial], jy[spatial]
    omega = dispersion_values(grid)[ix[spatial], iy[spatial]]
    tau = tau_values(t_box, nt)
    # Candidate integer time frequencies: the modulation plateau requires
    # |tau - omega| <= 5/4 * l, so only a short window around each dispersion
    # value can contribute.
    scale = t_box / (2.0 * np.pi)
    lo = np.floor((omega - BUMP_PLATEAU * l) * scale).astype(np.int64) - 1
    width = int(np.ceil(2.0 * BUMP_PLATEAU * l * scale)) + 3
    jt = lo[:, None] + np.arange(width, dtype=np.int64)[None, :]
    valid = np.abs(jt) <= nt // 2 - 1
    m = tau[np.where(valid, jt, 0) % nt] - omega[:, None]
    wmod = bump(m) if l == 1 else annulus(m / l)
    keep = valid & (wmod == 1.0)
    rows, cols = np.nonzero(keep)
    modes = np.column_stack([jx[rows], jy[rows], jt[rows, cols]])
    order = np.lexsort((modes[:, 2], modes[:, 1], modes[:, 0]))
    modes = np.ascontiguousarray(modes[order])
    modes.setflags(write=False)
    return modes


def block_modes(grid: Grid2D, t_box: float, nt: int, n: int,
                l: int) -> np.ndarray:
    """Integer lattice modes where both shell weights equal one.

    Returns a cached read-only (count, 3) array of centered indices
    (jx, jy, jt), sorted lexicographically.  The spatial plateau is evaluated
    on the grid's own frequency lattice and the modulation plateau on the
    tau lattice of an nt-point time box, so the mode set matches the dense
    weight arrays bit for bit.  Nyquist planes are excluded so every mode has
    its conjugate partner on the lattice; modes whose dispersion falls
    outside the representable tau range drop out naturally.
    """
    if nt < 4 or nt % 2:
        raise ValueError("nt must be an even integer >= 4")
    if not t_box > 0.0:
        raise ValueError("t_box must be positive")
    return _block_modes_cached(grid, float(t_box), int(nt),
                               _check_level(n), _check_level(l))


@dataclass
class SparseBlock:
    """A space-time field stored as a short list of Fourier modes.

    `modes` holds centered integer indices (jx, jy, jt) and `values` the
    matching complex coefficients.  Compared to a dense
    :class:`SpaceTimeField`, this form stays cheap on fine lattices where a
    dyadic block touches only a tiny fraction of the modes.
    """

    grid: Grid2D
    t_box: float
    nt: int
    modes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.modes.ndim != 2 or self.modes.shape[1] != 3:
            raise ValueError("modes must have shape (count, 3)")
        if self.values.shape != (self.modes.shape[0],):
            raise ValueError("values must match the number of modes")

    @property
    def volume(self) -> float:
        return self.grid.lx * self.grid.ly * self.t_box

    def l2(self) -> float:
        """Space-time L^2 norm of the represented field."""
        return float(np.sqrt(self.volume * np.sum(np.abs(self.values) ** 2)))

    def to_field(self) -> SpaceTimeField:
        """Scatter the modes into a dense coefficient array."""
        c = np.zeros((self.grid.nx, self.grid.ny, self.nt), dtype=complex)
        ix = self.modes[:, 0] % self.grid.nx
        iy = self.modes[:, 1] % self.grid.ny
        it = self.modes[:, 2] % self.nt
        c[ix, iy, it] = self.values
        return SpaceTimeField(self.grid, self.t_box, c)


def random_block_sparse(grid: Grid2D, t_box: float, nt: int, n: int, l: int, *,
                        seed, shift=None) -> SparseBlock:
    """Random unit-norm real block supported where both shell weights equal one.

    The block is a translated wave packet: every retained mode carries the
    same random space-time translation (uniform over the box, applied as a
    linear phase) and a magnitude jitter symmetric under negation of the mode,
    so the physical field is real.  Coherent phases concentrate the product of
    two blocks on the resonant mode pairs; independently randomized phases
    would flatten every product norm to the same value regardless of the
    blocks' supports, leaving bilinear scaling probes blind.

    Pass `shift` (a triple (x0, y0, t0)) to translate several blocks by the
    same amount; by default the shift is drawn from `seed`.  The result is
    normalized to unit space-time L^2 norm and is reproducible from the
    arguments alone.
    """
    modes = block_modes(grid, t_box, nt, n, l)
    if modes.shape[0] == 0:
        raise ValueError(
            f"space-time lattice has no modes in the block n={n}, l={l}; "
            "increase the resolution or shrink the levels")
    rng = np.random.default_rng(seed)
    if shift is None:
        shift = (rng.uniform(0.0, grid.lx), rng.uniform(0.0, grid.ly),
                 rng.uniform(0.0, t_box))
    mags = rng.uniform(0.5, 1.5, modes.shape[0])
    # Average each magnitude with its value at the negated mode so the
    # coefficients stay Hermitian-symmetric.
    key = ((modes[:, 0] + grid.nx // 2) * grid.ny
           + (modes[:, 1] + grid.ny // 2)) * nt + (modes[:, 2] + nt // 2)
    neg = ((-modes[:, 0] + grid.nx // 2) * grid.ny
           + (-modes[:, 1] + grid.ny // 2)) * nt + (-modes[:, 2] + nt // 2)
    order = np.argsort(key)
    partner = order[np.searchsorted(key, neg, sorter=order)]
    mags = 0.5 * (mags + mags[partner])
    xi = (2.0 * np.pi / grid.lx) * modes[:, 0]
    mu = (2.0 * np.pi / grid.ly) * modes[:, 1]
    tau = (2.0 * np.pi / t_box) * modes[:, 2]
    values = mags * np.exp(1j * (xi * shift[0] + mu * shift[1] + tau * shift[2]))
    volume = grid.lx * grid.ly * t_box
    values /= np.sqrt(volume * np.sum(np.abs(values) ** 2))
    return SparseBlock(grid, float(t_box), int(nt), modes, values)


def random_block(grid: Grid2D, t_box: float, nt: int, n: int, l: int, *,
                 seed, shift=None) -> SpaceTimeField:
    """Dense version of :func:`random_block_sparse` (same coefficients)."""
    return random_block_sparse(grid, t_box, nt, n, l, seed=seed,
                               shift=shift).to_field()
