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
the result is dealiased again, so the retained band is alias-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from semzk.spectral import (
    Grid2D,
    RealField,
    SpectralField,
    _symbols,
    _to_coeffs,
    _to_values,
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
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"soliton speed must be positive and finite, got {self.omega!r}")
        if not math.isfinite(self.x0):
            raise ValueError("soliton crest position must be finite")


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
    # distance from the crest, wrapped to [-lx/2, lx/2)
    d = grid.x - (p.x0 + p.omega * t)
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
    z = grid.x - (p.x0 + p.omega * t)
    col = potential_shape(p.omega, z)
    return RealField(grid, np.repeat(np.asarray(col)[:, None], grid.ny, axis=1))


# ---------------------------------------------------------------------------
# the free propagator


def _phase(grid: Grid2D, t) -> np.ndarray:
    """``exp(i t omega)`` for a scalar time, or stacked along a leading axis
    for an array of times."""
    t = np.asarray(t, dtype=float)
    return np.exp(1j * t[..., None, None] * _symbols(grid)["omega"])


def propagator_apply(F: SpectralField, t: float) -> SpectralField:
    """Apply the free-flow group ``U(t)``, i.e. multiply by ``exp(i t omega)``.

    ``omega = xi^3 + xi mu^2`` is real and odd, so ``U(t)`` is unitary on L2,
    preserves conjugate symmetry, and satisfies ``U(s)U(t) = U(s+t)`` and
    ``U(0) = Id``.
    """
    if not math.isfinite(t):
        raise ValueError("propagator time must be finite")
    return SpectralField(F.grid, F.coeffs * _phase(F.grid, t))


def _check_equation(grid: Grid2D, eq: EquationKind) -> None:
    if eq.kind == "sem_on_soliton":
        _check_domain(grid, eq.soliton)


def _quadratic_hat(uhat: np.ndarray, grid: Grid2D, eq: EquationKind, t: float) -> np.ndarray:
    """Spectrum of N(u) (dealiased) from the spectrum of u, in conservative form."""
    if eq.kind == "linear":
        return np.zeros_like(uhat)
    tab = _symbols(grid)
    ud = np.where(tab["mask"], uhat, 0.0)
    u = _to_values(ud)
    if eq.kind == "zk":
        nhat = tab["ddx"] * _to_coeffs(u * u)
    else:
        g1 = _to_values(ud * tab["m1"])
        g2 = _to_values(ud * tab["m2"])
        flux_x = u * g1
        flux_y = u * g2
        if eq.kind == "sem_on_soliton":
            p = eq.soliton
            phi = soliton_shape(p.omega, _wrapped_offset(grid, p, t))[:, None]
            flux_x = flux_x + phi * (u + g1)
            flux_y = flux_y + phi * g2
        nhat = tab["ddx"] * _to_coeffs(flux_x) + tab["ddy"] * _to_coeffs(flux_y)
    return np.where(tab["mask"], 0.5 * nhat, 0.0)


def background_terms(u: RealField, p: SolitonParams, t: float) -> RealField:
    """Linear-in-``u`` forcing from the soliton background at time ``t``.

    The difference between the ``sem_on_soliton`` and ``sem``
    nonlinearities, i.e. ``(1/2)(phi_x u + 2 phi u_x) + (1/2) phi_x G1 u``
    with the profile ``phi`` at the travelling-crest position for time ``t``.
    """
    return nonlinear_rhs(u, sem_on_soliton(p), t) - nonlinear_rhs(u, SEM, t)


def nonlinear_rhs(u: RealField, eq: EquationKind, t: float = 0.0) -> RealField:
    """Full nonlinearity ``N(u)`` for the given equation (zero for linear).

    For ``sem`` and y-independent mean-zero fields ``G1 u = u`` exactly on
    the lattice, so ``N`` reduces to ``u u_x`` (the one-dimensional KdV
    nonlinearity).
    """
    g = u.grid
    _check_equation(g, eq)
    return RealField(g, _to_values(_quadratic_hat(_to_coeffs(u.values), g, eq, t)))


def solve_potential(u: RealField) -> RealField:
    """Reconstruct the potential: solve ``Laplacian(phi) = u_x`` with zero mean."""
    inv_lap_dx = _symbols(u.grid)["inv_laplacian_dx"]
    return RealField(u.grid, _to_values(_to_coeffs(u.values) * inv_lap_dx))


def poisson_residual(u: RealField, phi: RealField) -> float:
    """L2 norm of ``Laplacian(phi) - u_x``."""
    if u.grid != phi.grid:
        raise ValueError("fields live on different grids")
    g = u.grid
    tab = _symbols(g)
    res = _to_coeffs(phi.values) * tab["laplacian"] - _to_coeffs(u.values) * tab["ddx"]
    return float(np.sqrt(g.lx * g.ly * np.sum(np.abs(res) ** 2)))
