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

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    Grid2D,
    _hermitian_values,
    _integer,
    _real,
    _to_coeffs,
    _validate_values,
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
    return _on_copy(_smooth_step_inplace, t)


def bump(x):
    """Even C^infinity cutoff: 1 on the plateau, 0 beyond the support edge."""
    return _on_copy(_bump_inplace, x)


def annulus(x):
    """Ring profile bump(x) - bump(2x); the dyadic shells sum telescopically."""
    return _on_copy(_annulus_inplace, x)


# The in-place forms below overwrite their float array argument with the
# profile, so a weight costs its own array and the transition bands, not a
# stack of full-size temporaries.  Each runs the same float operations, in
# the same order, as the formulas in the docstrings above.

def _on_copy(profile, x):
    """`profile` evaluated on a float copy of x; a float for a scalar x."""
    arr = np.array(x, dtype=float, ndmin=1)
    profile(arr)
    return float(arr[0]) if np.asarray(x).shape == () else arr


def _smooth_step_inplace(t: np.ndarray) -> None:
    """t <- smooth_step(t); exponentials only inside the ramp 0 < t < 1."""
    mid = (t > 0.0) & (t < 1.0)
    a = t[mid]
    b = np.subtract(1.0, a)
    np.exp(np.divide(-1.0, a, out=a), out=a)
    np.exp(np.divide(-1.0, b, out=b), out=b)
    np.divide(a, np.add(a, b, out=b), out=a)
    np.greater_equal(t, 1.0, out=t)
    t[mid] = a


def _bump_inplace(x: np.ndarray) -> None:
    """x <- bump(x)."""
    np.abs(x, out=x)
    np.subtract(x, BUMP_PLATEAU, out=x)
    np.divide(x, _EDGE, out=x)
    _smooth_step_inplace(x)
    np.subtract(1.0, x, out=x)


def _annulus_inplace(x: np.ndarray) -> None:
    """x <- annulus(x).  bump(2x) is evaluated only below |x| = 4/5: from
    there on 2|x| >= 8/5 rounds the ramp argument to at least one, so
    bump(2x) is exactly zero and subtracting it changes nothing."""
    np.abs(x, out=x)
    inner = ~(x >= 0.5 * BUMP_SUPPORT)
    ring = x[inner]
    ring *= 2.0
    _bump_inplace(ring)
    _bump_inplace(x)
    x[inner] -= ring


def dyadic_levels(max_value: float) -> tuple:
    """Dyadic levels 1, 2, 4, ... whose shells cover radii up to max_value.

    The returned top level N satisfies ``max_value <= 5N/4`` so the telescoped
    sum of all shell weights equals one on [0, max_value].
    """
    max_value = _real("max_value", max_value, positive=True)
    levels = [1]
    while levels[-1] * BUMP_PLATEAU < max_value:
        levels.append(2 * levels[-1])
    return tuple(levels)


def _check_level(name: str, n) -> int:
    if isinstance(n, numbers.Integral) and (n < 1 or n & (n - 1)):
        raise ValueError(f"{name} must be a power of two >= 1, got {n!r}")
    return _integer(name, n, 1)


def _check_nt(nt) -> int:
    return _integer("nt", nt, 4, even=True)


def _shell(x: np.ndarray, level: int) -> np.ndarray:
    """Weight of the dyadic shell `level` at x: the bump for level 1, else
    the ring annulus(x / level).  Overwrites the float array x with the
    weight and returns it."""
    if level == 1:
        _bump_inplace(x)
    else:
        np.divide(x, level, out=x)
        _annulus_inplace(x)
    return x


def frequency_radius(grid: Grid2D) -> np.ndarray:
    """|(xi, mu)| on the spatial lattice, in FFT ordering."""
    return np.hypot(grid.xi2d, grid.mu2d)


def _modulation(xi: np.ndarray, mu: np.ndarray, tau: np.ndarray | None = None) -> np.ndarray:
    """The dispersion xi^3 + xi mu^2 on the lattice of an (nx, 1) column xi and a
    (1, ny) row mu or, given time frequencies tau, the modulation tau - dispersion
    (nx, ny, nt): every weight, on a grid or on a probe's box, reads it here."""
    omega = xi**3 + xi * mu**2
    return omega if tau is None else tau[None, None, :] - omega[:, :, None]


def dispersion_values(grid: Grid2D) -> np.ndarray:
    """The raw dispersion symbol xi^3 + xi mu^2 on the lattice (no masking)."""
    return _modulation(grid.xi2d, grid.mu2d)


def tau_values(t_box: float, nt: int) -> np.ndarray:
    """Time frequencies 2*pi*fftfreq for an nt-point box of length t_box."""
    nt = _check_nt(nt)
    return 2.0 * np.pi * np.fft.fftfreq(nt, d=_real("t_box", t_box, positive=True) / nt)


def modulation_values(grid: Grid2D, t_box: float, nt: int) -> np.ndarray:
    """m = tau - dispersion, shape (nx, ny, nt)."""
    return _modulation(grid.xi2d, grid.mu2d, tau_values(t_box, nt))


def frequency_weight(grid: Grid2D, n: int) -> np.ndarray:
    """Shell weight in |(xi, mu)|: the bump for n == 1, else annulus(r/n).

    Returns a new (nx, ny) array in FFT ordering; nothing is kept.
    """
    return _shell(frequency_radius(grid), _check_level("n", n))


def modulation_weight(grid: Grid2D, t_box: float, nt: int, l: int) -> np.ndarray:
    """Shell weight in the modulation m = tau - dispersion.

    Returns a new (nx, ny, nt) array in FFT ordering; nothing is kept, so
    a caller holds at most the weights it still uses.
    """
    return _shell(modulation_values(grid, t_box, nt), _check_level("l", l))


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
        self.t_box = _real("t_box", self.t_box, positive=True)
        self.coeffs = _validate_values(self.coeffs, self.grid, np.complex128, "coefficients",
                                       (self.grid.nx, self.grid.ny, None))
        _check_nt(self.nt)

    @property
    def nt(self) -> int:
        return self.coeffs.shape[2]

    def l2(self) -> float:
        total = np.sum(np.abs(self.coeffs) ** 2)
        return float(np.sqrt(self.grid.lx * self.grid.ly * self.t_box * total))

    def physical(self) -> np.ndarray:
        """Real samples on the lattice; a ``ValueError`` unless the spectrum is
        Hermitian by the one rule in :mod:`semzk.spectral`, ``inverse_transform``'s."""
        return _hermitian_values(self.coeffs)


def spacetime_from_snapshots(grid: Grid2D, t_box: float,
                             frames: np.ndarray) -> SpaceTimeField:
    """Transform real samples (nx, ny, nt) into series coefficients."""
    frames = _validate_values(frames, grid, np.float64, "frames", (grid.nx, grid.ny, None))
    return SpaceTimeField(grid, t_box, _to_coeffs(frames, axes=(0, 1, 2)))


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
    # Centered spatial lattice: row a holds jx = a - nx/2, column b holds
    # jy = b - ny/2, so np.nonzero walks the plane in (jx, jy) order.  Row
    # and column 0 are the Nyquist planes, which have no conjugate partner.
    shift = np.fft.fftshift
    plateau = shift(frequency_weight(grid, n)) == 1.0
    plateau[0, :] = plateau[:, 0] = False
    cx, cy = np.nonzero(plateau)
    jx, jy = shift(grid.jx)[cx], shift(grid.jy)[cy]
    omega = shift(dispersion_values(grid))[cx, cy]
    tau = tau_values(t_box, nt)
    # Candidate integer time frequencies: the modulation plateau requires
    # |tau - omega| <= 5/4 * l, so only a short window around each dispersion
    # value can contribute.  Each row of jt ascends, so the kept modes come
    # out in key order.
    scale = t_box / (2.0 * np.pi)
    lo = np.floor((omega - BUMP_PLATEAU * l) * scale).astype(np.int64) - 1
    width = int(np.ceil(2.0 * BUMP_PLATEAU * l * scale)) + 3
    jt = lo[:, None] + np.arange(width, dtype=np.int64)[None, :]
    valid = np.abs(jt) <= nt // 2 - 1
    m = tau[np.where(valid, jt, 0) % nt] - omega[:, None]
    keep = valid & (_shell(m, l) == 1.0)
    rows, cols = np.nonzero(keep)
    modes = np.column_stack([jx[rows], jy[rows], jt[rows, cols]])
    modes.setflags(write=False)
    return modes


def block_modes(grid: Grid2D, t_box: float, nt: int, n: int,
                l: int) -> np.ndarray:
    """Integer lattice modes where both shell weights equal one.

    Returns a cached read-only (count, 3) array of centered indices
    (jx, jy, jt) in key order, the order a :class:`SparseBlock` keeps:
    lexicographic in (jx, jy, jt).  The spatial plateau is evaluated on the
    grid's own frequency lattice and the modulation plateau on the tau
    lattice of an nt-point time box, so the mode set matches the dense
    weight arrays bit for bit.  Nyquist planes are excluded so every mode has
    its conjugate partner on the lattice.  The block is truncated to
    ``|jt| <= nt/2 - 1``: modes whose dispersion puts them beyond are left
    out, and nothing reports it.  At criterion 10's nt = 512 every n = 8
    shell loses about two thirds of its modes this way.  Once nt holds the
    whole block, a larger nt gives the same modes, because the tau of an
    index jt does not depend on nt.
    """
    return _block_modes_cached(grid, _real("t_box", t_box, positive=True), _check_nt(nt),
                               _check_level("n", n), _check_level("l", l))


def _mode_keys(modes: np.ndarray, grid: Grid2D, nt: int) -> np.ndarray:
    """One integer per centered mode of an (nx, ny, nt) lattice, increasing
    in the lexicographic order of (jx, jy, jt): the key order."""
    jx, jy, jt = (np.asarray(modes, dtype=np.int64)
                  + (grid.nx // 2, grid.ny // 2, nt // 2)).T
    return (jx * grid.ny + jy) * nt + jt


def _conjugate_partner(modes: np.ndarray):
    """Row of each mode's negation in distinct modes held in key order, or
    None when some negation is missing.

    Negation reverses the key order, so in a set closed under negation the
    partner of row i is row count - 1 - i; that reversal is checked, not
    assumed.
    """
    if not np.array_equal(modes[::-1], -modes):
        return None
    return np.arange(modes.shape[0])[::-1]


@dataclass
class SparseBlock:
    """A real, even space-time field stored as a short list of Fourier modes.

    `modes` holds distinct centered integer indices (jx, jy, jt), each in
    ``[-n/2, n/2)`` for its axis length n, and `values` the matching real
    coefficients, with ``c(-k) = c(k)``: every mode's negation is in the
    block and carries the same value, so the field is real and even under
    negation of space-time.  These are the blocks the bilinear probe
    measures; construction rejects any other.

    The modes are held in key order, lexicographic in (jx, jy, jt), the
    order :func:`block_modes` returns: construction sorts modes and values
    together once, and only when they come out of order.  Every later pass
    reads that order: a mode's negation sits at the mirrored row, and the
    rows of one jx are contiguous.  Compared to a dense
    :class:`SpaceTimeField`, this form stays cheap on fine lattices where a
    dyadic block touches only a tiny fraction of the modes.
    """

    grid: Grid2D
    t_box: float
    nt: int
    modes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.t_box = _real("t_box", self.t_box, positive=True)
        self.nt = _check_nt(self.nt)
        self.modes = np.asarray(self.modes)
        self.values = np.asarray(self.values)
        if self.modes.ndim != 2 or self.modes.shape[1] != 3:
            raise ValueError("modes must have shape (count, 3)")
        if not np.issubdtype(self.modes.dtype, np.integer):
            raise ValueError(f"modes must be integers, got dtype {self.modes.dtype}")
        if self.values.shape != (self.modes.shape[0],):
            raise ValueError("values must match the number of modes")
        # first: the cast to float64 drops an imaginary part with only a warning
        if not np.issubdtype(self.values.dtype, np.floating):
            raise ValueError(f"values must be real floats, got dtype {self.values.dtype}")
        self.values = _validate_values(self.values, self.grid, np.float64, "coefficients", (None,))
        sizes = np.array([self.grid.nx, self.grid.ny, self.nt])
        lo = -(sizes // 2)
        if np.any((self.modes < lo) | (self.modes >= lo + sizes)):
            raise ValueError("modes must lie in [-n/2, n/2) on every axis "
                             f"(n = {self.grid.nx}, {self.grid.ny}, {self.nt})")
        key = _mode_keys(self.modes, self.grid, self.nt)
        if np.any(key[1:] < key[:-1]):
            order = np.argsort(key)
            key = key[order]
            self.modes, self.values = self.modes[order], self.values[order]
        if np.any(key[1:] == key[:-1]):
            raise ValueError("modes must be unique")
        partner = _conjugate_partner(self.modes)
        if partner is None:
            raise ValueError("every mode's negation must be in the block")
        if not np.array_equal(self.values[partner], self.values):
            raise ValueError("values must be even: c(-k) == c(k)")

    @property
    def volume(self) -> float:
        return self.grid.lx * self.grid.ly * self.t_box

    def l2(self) -> float:
        """Space-time L^2 norm of the represented field."""
        return float(np.sqrt(self.volume * np.sum(self.values ** 2)))

    def to_field(self) -> SpaceTimeField:
        """Scatter the modes into a dense coefficient array."""
        c = np.zeros((self.grid.nx, self.grid.ny, self.nt), dtype=complex)
        ix = self.modes[:, 0] % self.grid.nx
        iy = self.modes[:, 1] % self.grid.ny
        it = self.modes[:, 2] % self.nt
        c[ix, iy, it] = self.values
        return SpaceTimeField(self.grid, self.t_box, c)


def random_block_sparse(grid: Grid2D, t_box: float, nt: int, n: int, l: int, *,
                        seed) -> SparseBlock:
    """Random unit-norm real even block supported where both shell weights
    equal one.

    The block is a wave packet centered at the origin of space-time: every
    retained mode carries a positive magnitude, jittered at random and
    averaged with its value at the negated mode.  Coherent coefficients
    concentrate the product of two blocks on the resonant mode pairs;
    independently randomized phases would flatten every product norm to the
    same value regardless of the blocks' supports, leaving bilinear scaling
    probes blind.

    The result is normalized to unit space-time L^2 norm and is reproducible
    from the arguments alone.
    """
    modes = block_modes(grid, t_box, nt, n, l)
    if modes.shape[0] == 0:
        raise ValueError(
            f"space-time lattice has no modes in the block n={n}, l={l}; "
            "increase the resolution or shrink the levels")
    mags = np.random.default_rng(seed).uniform(0.5, 1.5, modes.shape[0])
    values = 0.5 * (mags + mags[_conjugate_partner(modes)])
    volume = grid.lx * grid.ly * t_box
    values *= 1.0 / np.sqrt(volume * np.sum(values ** 2))
    return SparseBlock(grid, t_box, nt, modes, values)


def random_block(grid: Grid2D, t_box: float, nt: int, n: int, l: int, *,
                 seed) -> SpaceTimeField:
    """Dense version of :func:`random_block_sparse` (same coefficients)."""
    return random_block_sparse(grid, t_box, nt, n, l, seed=seed).to_field()
