"""Conserved quantities, Sobolev norms, and mixed space-time norms.

The two conserved integrals of the flow are the plain integral ``I1`` and the
squared L2 mass ``I2``; both are computed by the (spectrally exact) periodic
trapezoid rule.  Sobolev weights use the bracket ``<r> = 1 + |r|``.

Mixed norms such as ``L^inf_x L^2_y L^2_T`` are evaluated by reducing one
axis at a time, innermost (last listed) first: finite exponents use weighted
sums (trapezoid weights along the time axis), and infinite exponents take the
sampled maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from semzk.spectral import Grid2D, RealField, SpectralField, forward_transform

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
    """Integral of ``u`` over the periodic box."""
    return float(np.sum(u.values) * u.grid.dx * u.grid.dy)


def conserved_I2(u: RealField) -> float:
    """Integral of ``u^2`` over the periodic box (the squared L2 norm)."""
    return float(np.sum(u.values**2) * u.grid.dx * u.grid.dy)


def _sobolev_weight(grid: Grid2D, s: float) -> np.ndarray:
    """The squared H^s weight ``(1 + |(xi, mu)|)^(2s)`` on every mode."""
    return (1.0 + np.hypot(grid.xi2d, grid.mu2d)) ** (2.0 * s)


def sobolev_norm(u: RealField | SpectralField, s: float = 1.0) -> float:
    """H^s norm with weight ``(1 + |(xi, mu)|)^s`` on each mode.

    ``s = 0`` reproduces the L2 norm exactly.
    """
    F = forward_transform(u) if isinstance(u, RealField) else u
    g = F.grid
    w = _sobolev_weight(g, s)
    return float(np.sqrt(g.lx * g.ly * np.sum(w * np.abs(F.coeffs) ** 2)))


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
            p = float(p)
            if p not in _ALLOWED_EXPONENTS:
                raise ValueError(f"mixed-norm exponent {p} not in {{1, 2, 3, 4, inf}}")
            cleaned.append((a, p))
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
    data = np.abs(np.stack([f.values for f in path.fields]))  # (M, nx, ny)
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
            data = (np.sum(data**p * tweights.reshape(shape), axis=ax)) ** (1.0 / p)
        else:
            data = (np.sum(data**p, axis=ax) * weights[axis]) ** (1.0 / p)
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
