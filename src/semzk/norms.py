"""Conserved quantities, Sobolev norms, and mixed space-time norms.

The two conserved integrals of the flow are the plain integral ``I1`` and the
squared L2 mass ``I2``.  On samples both are computed by the (spectrally
exact) periodic trapezoid rule; a field that holds its half spectrum (the
solvers hand out such fields) gives ``I1`` from its mean mode and ``I2`` by
Parseval, which agree with the samples' values to round-off.  Sobolev
weights use the bracket ``<r> = 1 + |r|``, and a Sobolev norm reads a held
half spectrum as it is.

Mixed norms such as ``L^inf_x L^2_y L^2_T`` are evaluated by reducing one
axis at a time, innermost (last listed) first: finite exponents use weighted
sums (trapezoid weights along the time axis), and infinite exponents take the
sampled maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from semzk.spectral import (
    Grid2D,
    RealField,
    SpectralField,
    _float_or_nan,
    _half_ncols,
    _half_of,
    _half_symbols,
    _readonly,
    _real,
)

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from semzk.integrators import TrajectoryPath

__all__ = [
    "conserved_I1",
    "conserved_I2",
    "sobolev_norm",
    "MixedNormDescriptor",
    "mixed_norm",
    "DiagnosticsRecord",
    "diagnostics_header",
]

_ALLOWED_EXPONENTS = (1.0, 2.0, 3.0, 4.0, math.inf)


def conserved_I1(u: RealField) -> float:
    """Integral of ``u`` over the periodic box: the area times the mean mode
    of a held half spectrum, else the rectangle rule on the samples."""
    g = u.grid
    if u._half is not None:
        return float(g.lx * g.ly * u._half[0, 0].real)
    return float(np.sum(u.values) * g.dx * g.dy)


def conserved_I2(u: RealField) -> float:
    """Integral of ``u^2`` over the periodic box (the squared L2 norm): by
    Parseval on a held half spectrum, else by the rectangle rule."""
    g = u.grid
    half = u._half
    if half is not None:
        # |c|^2 summed down each column, then weighted by the column's
        # multiplicity; einsum's own loop, where ``np.vdot`` would start
        # BLAS threads
        parts = half.view(np.float64)
        columns = np.einsum("ij,ij->j", parts, parts).reshape(-1, 2).sum(axis=1)
        return float(g.lx * g.ly * np.sum(_half_symbols(g)["columns"] * columns))
    return float(np.sum(u.values**2) * g.dx * g.dy)


def _hs_weight(xi: np.ndarray, mu: np.ndarray, s: float) -> np.ndarray:
    """The squared H^s weight ``(1 + |(xi, mu)|)^(2s)`` on a lattice."""
    return (1.0 + np.hypot(xi, mu)) ** (2.0 * s)


@lru_cache(maxsize=32)
def _sobolev_weight(grid: Grid2D, s: float) -> np.ndarray:
    """:func:`_hs_weight` on every mode (read-only, cached per grid and ``s``)."""
    return _readonly(_hs_weight(grid.xi2d, grid.mu2d, s))


@lru_cache(maxsize=32)
def _half_sobolev_weight(grid: Grid2D, s: float) -> np.ndarray:
    """:func:`_hs_weight` on the half spectrum times the column
    multiplicities, so a weighted sum over a half spectrum equals the sum
    over the full one (read-only, cached per grid and ``s``)."""
    mu = grid.mu2d[:, :_half_ncols(grid)]
    return _readonly(_hs_weight(grid.xi2d, mu, s) * _half_symbols(grid)["columns"])


def sobolev_norm(u: RealField | SpectralField, s: float = 1.0) -> float:
    """H^s norm with weight ``(1 + |(xi, mu)|)^s`` on each mode.

    ``s = 0`` reproduces the L2 norm exactly.  A real field is read through
    its half spectrum, the held one when it has one.
    """
    g, s = u.grid, _real("s", s)
    if isinstance(u, RealField):
        w, coeffs = _half_sobolev_weight(g, s), _half_of(u)
    else:
        w, coeffs = _sobolev_weight(g, s), u.coeffs
    return float(np.sqrt(g.lx * g.ly * np.sum(w * np.abs(coeffs) ** 2)))


def _parse_exponent(tok: str) -> float:
    tok = tok.strip().lower()
    if tok in ("inf", "infinity", "oo"):
        return math.inf
    p = float(tok)
    return p


@dataclass(frozen=True)
class MixedNormDescriptor:
    """Ordered axis/exponent list for a mixed norm, outermost axis first.

    ``entries`` is a tuple of ``(axis, exponent)`` pairs with axes drawn from
    ``{"x", "y", "T"}`` (each at most once) and exponents in
    ``{1, 2, 3, 4, inf}``.  The axes must be a permutation of ``(x, y, T)``,
    or of ``(x, y)`` for single-snapshot (time-slice) norms.

    Example: ``L^inf_x L^2_y L^2_T`` is ``(("x", inf), ("y", 2), ("T", 2))``
    and is written ``"x:inf,y:2,T:2"`` in configuration files.
    """

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        axes = [a for a, _ in self.entries]
        if sorted(axes) not in (["T", "x", "y"], ["x", "y"]):
            raise ValueError(f"invalid mixed-norm axes {axes}; expected a permutation "
                             "of (x, y, T) or of (x, y)")
        cleaned = []
        for a, p in self.entries:
            x = _float_or_nan(p)  # the one reading of a real, which keeps inf
            if x not in _ALLOWED_EXPONENTS:
                shown = repr(p) if isinstance(p, str) else p
                raise ValueError(f"mixed-norm exponent {shown} not in {{1, 2, 3, 4, inf}}")
            cleaned.append((a, x))
        object.__setattr__(self, "entries", tuple(cleaned))

    @classmethod
    def from_string(cls, text: str) -> "MixedNormDescriptor":
        """Parse ``"x:inf,y:2,T:2"`` style descriptors."""
        entries = []
        for chunk in text.split(","):
            if ":" not in chunk:
                raise ValueError(f"bad mixed-norm component {chunk!r}; expected axis:exponent")
            axis, p = chunk.split(":", 1)
            entries.append((axis.strip(), _parse_exponent(p)))
        return cls(tuple(entries))

    @property
    def label(self) -> str:
        def fmt(p: float) -> str:
            return "inf" if math.isinf(p) else str(int(p))
        return ",".join(f"{a}:{fmt(p)}" for a, p in self.entries)


def _snapshot_descriptors(labels) -> list[MixedNormDescriptor]:
    """Parse diagnostics norm descriptors, which must omit the time axis."""
    descriptors = [MixedNormDescriptor.from_string(label) for label in labels]
    for label, desc in zip(labels, descriptors):
        if "T" in dict(desc.entries):
            raise ValueError(f"diagnostics norm {label!r} must omit the time axis")
    return descriptors


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.empty_like(times)
    w[1:-1] = 0.5 * (times[2:] - times[:-2])
    w[0] = 0.5 * (times[1] - times[0])
    w[-1] = 0.5 * (times[-1] - times[-2])
    return w


def mixed_norm(path: "TrajectoryPath", descriptor: MixedNormDescriptor) -> float:
    """Evaluate a mixed space-time norm over a trajectory.

    The time axis uses trapezoid quadrature on the trajectory nodes and the
    spatial axes the periodic rectangle rule; ``inf`` axes take the sampled
    maximum.  A descriptor without the time axis is only valid for a
    single-snapshot trajectory.
    """
    axes = [a for a, _ in descriptor.entries]
    # one path-sized buffer: abs, power and weights are applied in place
    data = np.stack([f.values for f in path.fields])  # (M, nx, ny)
    np.abs(data, out=data)
    grid = path.grid
    if "T" in axes:
        position = {"T": 0, "x": 1, "y": 2}
    else:
        if data.shape[0] != 1:
            raise ValueError("descriptor omits the time axis but the trajectory "
                             "has several snapshots")
        data = data[0]
        position = {"x": 0, "y": 1}

    weights = {"x": grid.dx, "y": grid.dy}
    for axis, p in reversed(descriptor.entries):
        ax = position.pop(axis)
        if math.isinf(p):
            data = data.max(axis=ax)
        elif axis == "T":
            if len(path.times) < 2:
                raise ValueError("time quadrature needs at least two snapshots")
            tweights = _trapezoid_weights(np.asarray(path.times, dtype=float))
            shape = [1] * data.ndim
            shape[ax] = len(tweights)
            data **= p
            data *= tweights.reshape(shape)
            data = np.sum(data, axis=ax) ** (1.0 / p)
        else:
            data **= p
            data = (np.sum(data, axis=ax) * weights[axis]) ** (1.0 / p)
        position = {a: (v - 1 if v > ax else v) for a, v in position.items()}
    return float(data)


@dataclass
class DiagnosticsRecord:
    """One row of scalar diagnostics sampled along an evolution."""

    time: float
    i1: float
    i2: float
    norms: dict[str, float] = field(default_factory=dict)

    def to_row(self, norm_keys: Sequence[str]) -> list[float]:
        return [self.time, self.i1, self.i2] + [self.norms[k] for k in norm_keys]


def diagnostics_header(norm_keys: Sequence[str]) -> list[str]:
    return ["time", "I1", "I2"] + list(norm_keys)
