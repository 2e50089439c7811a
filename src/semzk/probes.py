"""Numerical probes for multilinear space-time estimates.

Products of band-limited fields are evaluated through exact linear
convolution of their Fourier coefficients: the coefficients are re-centered,
trimmed to their bounding boxes, and convolved with
:func:`scipy.signal.fftconvolve`, so the output lives on an enlarged
("unwrapped") integer lattice and no aliasing occurs in any axis.  Parseval
then turns the convolved coefficients directly into the space-time L^2 norm
of the product.

Weighted norms use the Japanese bracket ``1 + |.|``: the (s, b) norm weights
each coefficient by ``(1 + |m|)^(2b) * (1 + r)^(2s)`` where ``r`` is the
spatial frequency magnitude and ``m = tau - (xi^3 + xi mu^2)`` the
modulation.

Three probe families are provided:

* :func:`probe_block_bilinear` draws random unit blocks on dyadic shells and
  compares the measured product norm against the predicted bilinear bound,
  distinguishing comparable shells from widely separated ones.
* :func:`probe_linear_estimates` measures mixed-norm constants of the free
  flow (time-Lebesgue/sup combinations against L^2 or Sobolev data).
* :func:`probe_nonlinear_estimate` pushes a space-time field through the
  quadratic nonlinearity in coefficient space and reports the ratio of the
  weighted output norm to the squared weighted input norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve
from scipy.stats import linregress

from .dyadic import SpaceTimeField, SparseBlock, random_block_sparse
from .dynamics import _phase
from .integrators import TrajectoryPath
from .norms import MixedNormDescriptor, mixed_norm, sobolev_norm
from .spectral import (
    Grid2D,
    RealField,
    SpectralField,
    _to_values,
    forward_transform,
    inverse_transform,
    make_multiplier,
)

__all__ = [
    "DELTA",
    "B_PLUS",
    "B_MINUS",
    "B_FOURTH",
    "CoefficientBox",
    "product_l2",
    "sparse_product_l2",
    "xsb_norm",
    "nonlinear_box",
    "bilinear_bound",
    "BlockTrial",
    "BilinearReport",
    "probe_block_bilinear",
    "fit_separated_exponent",
    "DEFAULT_N_PAIRS",
    "DEFAULT_L_PAIRS",
    "DEFAULT_SEEDS",
    "random_bandlimited_spacetime",
    "random_low_mode_field",
    "LinearProbeReport",
    "probe_linear_estimates",
    "probe_l4_estimate",
    "NonlinearProbeReport",
    "probe_nonlinear_estimate",
]

#: regularization offset used in all b-type exponents
DELTA = 0.01
#: exponent for the solution-space norm
B_PLUS = 0.5 + DELTA
#: exponent for the nonlinearity norm (one power of the bracket lower)
B_MINUS = -0.5 + 2 * DELTA
#: exponent used by the fourth-power estimate
B_FOURTH = 5.0 / 6.0 + DELTA


# ---------------------------------------------------------------------------
# coefficient boxes and exact product norms


@dataclass
class CoefficientBox:
    """Dense block of Fourier coefficients on an unwrapped integer lattice.

    `start` holds the integer lattice index of `values[0, 0, 0]` in each of
    the (x-frequency, y-frequency, time-frequency) axes; the lattice is not
    folded, so indices may exceed the Nyquist range of the originating grid.
    """

    values: np.ndarray
    start: tuple


def _centered_box(coeffs: np.ndarray) -> CoefficientBox:
    """Re-center FFT-ordered coefficients and trim to the nonzero extent."""
    start = tuple(-(n // 2) for n in coeffs.shape)
    return _trim_box(CoefficientBox(np.fft.fftshift(coeffs), start))


def _trim_box(box: CoefficientBox) -> CoefficientBox:
    nz = np.nonzero(box.values)
    if nz[0].size == 0:
        return CoefficientBox(np.zeros((1, 1, 1), dtype=complex), (0, 0, 0))
    slices = tuple(slice(int(a.min()), int(a.max()) + 1) for a in nz)
    start = tuple(s0 + sl.start for s0, sl in zip(box.start, slices))
    return CoefficientBox(np.ascontiguousarray(box.values[slices]), start)


def _convolve_boxes(a: CoefficientBox, b: CoefficientBox) -> CoefficientBox:
    vals = fftconvolve(a.values, b.values)
    start = tuple(x + y for x, y in zip(a.start, b.start))
    return CoefficientBox(vals, start)


def _add_boxes(boxes) -> CoefficientBox:
    starts = np.array([b.start for b in boxes])
    stops = np.array([[s + n for s, n in zip(b.start, b.values.shape)]
                      for b in boxes])
    lo = starts.min(axis=0)
    hi = stops.max(axis=0)
    out = np.zeros(tuple(hi - lo), dtype=boxes[0].values.dtype)
    for b in boxes:
        sl = tuple(slice(s - o, s - o + n)
                   for s, o, n in zip(b.start, lo, b.values.shape))
        out[sl] += b.values
    return CoefficientBox(out, tuple(int(v) for v in lo))


def _check_compatible(f1: SpaceTimeField, f2: SpaceTimeField) -> None:
    if f1.grid != f2.grid or f1.t_box != f2.t_box or f1.nt != f2.nt:
        raise ValueError("fields live on different space-time lattices")


def product_l2(f1: SpaceTimeField, f2: SpaceTimeField) -> float:
    """Exact space-time L^2 norm of the pointwise product f1 * f2.

    The coefficient convolution is carried out linearly on the bounding
    boxes, so high output modes are kept rather than wrapped.
    """
    _check_compatible(f1, f2)
    box = _convolve_boxes(_centered_box(f1.coeffs), _centered_box(f2.coeffs))
    total = float(np.sum(np.abs(box.values) ** 2, dtype=np.float64))
    return math.sqrt(f1.grid.lx * f1.grid.ly * f1.t_box * total)


def _x_groups(block: SparseBlock):
    """Modes and values ordered by jx, with the row range of every jx.

    Rows with ``jx = lo + g`` are ``edges[g]:edges[g + 1]`` for each ``g``
    from ``lo`` to the largest jx; absent jx values give empty ranges.
    """
    order = np.argsort(block.modes[:, 0], kind="stable")
    modes = np.asarray(block.modes, dtype=np.intp)[order]
    jx = modes[:, 0]
    edges = np.searchsorted(jx, np.arange(jx[0], jx[-1] + 2))
    return modes, np.asarray(block.values)[order], edges


def sparse_product_l2(b1: SparseBlock, b2: SparseBlock) -> float:
    """Exact space-time L^2 norm of the product of two sparse fields.

    Equivalent to densifying both blocks and calling :func:`product_l2`, but
    scales with the number of occupied modes instead of the lattice size.
    Every pair of input modes contributes to one output mode of the linear
    convolution.  The output is built one x-plane ``X = jx1 + jx2`` at a
    time: the rows with ``jx1 = a`` are paired with the rows with
    ``jx2 = X - a`` for every ``a``, the contributions are summed per
    in-plane mode ``(jy1 + jy2, jt1 + jt2)``, and the plane's squared modulus
    is added to the total before the next plane.  Besides the sorted copies
    of the inputs, memory is bounded by the mode pairs of the largest plane
    and one ``span_y * span_t`` accumulator, not by the whole output lattice.
    """
    if b1.grid != b2.grid or b1.t_box != b2.t_box or b1.nt != b2.nt:
        raise ValueError("blocks live on different space-time lattices")
    if b1.modes.shape[0] == 0 or b2.modes.shape[0] == 0:
        return 0.0
    m1, v1, edges1 = _x_groups(b1)
    m2, v2, edges2 = _x_groups(b2)
    # Linearize the in-plane output pair (jy1+jy2, jt1+jt2) so the key of a
    # pair splits into a per-factor sum; the stride span[2] keeps it injective.
    lo1, lo2 = m1.min(axis=0), m2.min(axis=0)
    span = m1.max(axis=0) + m2.max(axis=0) - lo1 - lo2 + 1
    k1 = (m1[:, 1] - lo1[1]) * span[2] + (m1[:, 2] - lo1[2])
    k2 = (m2[:, 1] - lo2[1]) * span[2] + (m2[:, 2] - lo2[2])
    bins = int(span[1] * span[2])
    count1, count2 = np.diff(edges1), np.diff(edges2)
    plane_pairs = np.convolve(count1, count2)
    keys = np.empty(plane_pairs.max(), dtype=np.intp)
    vals = np.empty(plane_pairs.max(), dtype=complex)
    total = 0.0
    for plane in range(plane_pairs.size):
        end = 0
        for a in range(max(0, plane - count2.size + 1),
                       min(count1.size, plane + 1)):
            b = plane - a
            rows1 = slice(edges1[a], edges1[a + 1])
            rows2 = slice(edges2[b], edges2[b + 1])
            shape = (count1[a], count2[b])
            dest = slice(end, end + shape[0] * shape[1])
            np.add(k1[rows1, None], k2[None, rows2],
                   out=keys[dest].reshape(shape))
            np.multiply(v1[rows1, None], v2[None, rows2],
                        out=vals[dest].reshape(shape))
            end = dest.stop
        re = np.bincount(keys[:end], weights=vals[:end].real, minlength=bins)
        im = np.bincount(keys[:end], weights=vals[:end].imag, minlength=bins)
        total += float(np.sum(re * re + im * im, dtype=np.float64))
    return math.sqrt(b1.volume * total)


# ---------------------------------------------------------------------------
# weighted (s, b) norms


def _box_weight(box: CoefficientBox, grid: Grid2D, t_box: float, s: float,
                b: float) -> np.ndarray:
    px, py, pt = box.values.shape
    xi = 2 * np.pi / grid.lx * (box.start[0] + np.arange(px))
    mu = 2 * np.pi / grid.ly * (box.start[1] + np.arange(py))
    tau = 2 * np.pi / t_box * (box.start[2] + np.arange(pt))
    r = np.hypot(xi[:, None], mu[None, :])
    omega = xi[:, None] ** 3 + xi[:, None] * mu[None, :] ** 2
    m = tau[None, None, :] - omega[:, :, None]
    return (1.0 + np.abs(m)) ** (2 * b) * ((1.0 + r) ** (2 * s))[:, :, None]


def xsb_norm_box(box: CoefficientBox, grid: Grid2D, t_box: float, s: float,
                 b: float) -> float:
    """Weighted norm of an unwrapped coefficient box."""
    w = _box_weight(box, grid, t_box, s, b)
    total = float(np.sum(w * np.abs(box.values) ** 2, dtype=np.float64))
    return math.sqrt(grid.lx * grid.ly * t_box * total)


def xsb_norm(f: SpaceTimeField, s: float, b: float) -> float:
    """Weighted space-time norm (1+|m|)^b in modulation, (1+r)^s in frequency."""
    return xsb_norm_box(_centered_box(f.coeffs), f.grid, f.t_box, s, b)


# ---------------------------------------------------------------------------
# quadratic nonlinearity in coefficient space


def _derivative_box(box: CoefficientBox, axis: int, length: float) -> CoefficientBox:
    """Differentiate along spatial ``axis`` on the unwrapped lattice."""
    j = box.start[axis] + np.arange(box.values.shape[axis])
    shape = [1, 1, 1]
    shape[axis] = j.size
    factor = (2j * np.pi / length) * j.reshape(shape)
    return CoefficientBox(box.values * factor, box.start)


def nonlinear_box(f: SpaceTimeField) -> CoefficientBox:
    """Coefficients of (u u_x + u_x G1 u + u_y G2 u) / 2 on the unwrapped lattice.

    G1 and G2 are the gradient components of the inverse-Laplacian x-derivative,
    with symbols xi^2/(xi^2 + mu^2) and xi mu/(xi^2 + mu^2).  Since
    ``dx G1 u + dy G2 u = u_x``, the sum is evaluated in conservative form,
    ``(dx(u G1u) + dy(u G2u)) / 2``: two convolutions, then the derivative
    symbols of the output lattice.
    """
    g = f.grid
    m1 = make_multiplier(g, "m1").values[:, :, None]
    m2 = make_multiplier(g, "m2").values[:, :, None]
    c = f.coeffs
    base = _centered_box(c)
    c1 = _centered_box(c * m1)
    c2 = _centered_box(c * m2)
    out = _add_boxes([
        _derivative_box(_convolve_boxes(base, c1), 0, g.lx),
        _derivative_box(_convolve_boxes(base, c2), 1, g.ly),
    ])
    out.values *= 0.5
    return out


# ---------------------------------------------------------------------------
# bilinear block probes


def bilinear_bound(n1: int, l1: int, n2: int, l2: int):
    """Predicted product-norm bound for unit blocks, and the regime flag.

    Shells of comparable size obey ``min(n) * sqrt(min(l))``; once the
    spatial shells are separated by a factor of four the improved bound
    ``sqrt(min(n)) / max(n) * sqrt(l1 * l2)`` applies.
    """
    n_min, n_max = sorted((int(n1), int(n2)))
    l_min, l_max = sorted((int(l1), int(l2)))
    separated = n_max >= 4 * n_min
    if separated:
        bound = math.sqrt(n_min) / n_max * math.sqrt(l_min * l_max)
    else:
        bound = n_min * math.sqrt(l_min)
    return bound, separated


@dataclass(frozen=True)
class BlockTrial:
    n1: int
    l1: int
    n2: int
    l2: int
    seed: int
    product_norm: float
    bound: float
    separated: bool

    @property
    def ratio(self) -> float:
        return self.product_norm / self.bound


@dataclass
class BilinearReport:
    trials: tuple
    separated_exponent: float
    separated_count: int

    def ratios(self) -> np.ndarray:
        return np.array([t.ratio for t in self.trials])

    def max_ratio(self) -> float:
        return float(self.ratios().max())


DEFAULT_N_PAIRS = tuple((a, b) for a in (1, 2, 4, 8) for b in (1, 2, 4, 8))
DEFAULT_L_PAIRS = ((1, 1), (2, 2), (4, 4), (8, 8), (1, 8), (8, 1))
DEFAULT_SEEDS = tuple(range(10))


def fit_separated_exponent(trials):
    """Fitted growth of log(measured/bound) in log(max shell), separated regime.

    The regression runs over the self-similar family of separated trials
    whose shell gap is exactly a factor of four — (1, 4) against (2, 8) and
    so on — so the abscissa doubles while the geometry of the pair is
    preserved.  A slope near zero means the separated bound captures the
    actual decay in the shell gap.  Returns None when fewer than two
    distinct shell maxima are available.
    """
    xs, ys = [], []
    for t in trials:
        n_min, n_max = sorted((t.n1, t.n2))
        if t.separated and n_max == 4 * n_min and t.product_norm > 0:
            xs.append(math.log(n_max))
            ys.append(math.log(t.ratio))
    if len(set(xs)) < 2:
        return None
    return float(linregress(xs, ys).slope)


def probe_block_bilinear(grid: Grid2D, t_box: float, nt: int, *,
                         n_pairs=DEFAULT_N_PAIRS, l_pairs=DEFAULT_L_PAIRS,
                         seeds=DEFAULT_SEEDS,
                         share_shift: bool = True) -> BilinearReport:
    """Measure product norms of random dyadic blocks against predicted bounds.

    With ``share_shift`` both blocks of a trial are translated by the same
    random space-time offset, making them near extremizers of the product
    bound; with independent offsets the packets rarely overlap and the
    measured norms say little about worst-case scaling.
    """
    trials = []
    for n1, n2 in n_pairs:
        for l1, l2 in l_pairs:
            bound, separated = bilinear_bound(n1, l1, n2, l2)
            for seed in seeds:
                if share_shift:
                    rng = np.random.default_rng((seed, n1, l1, n2, l2))
                    shift = (rng.uniform(0.0, grid.lx),
                             rng.uniform(0.0, grid.ly),
                             rng.uniform(0.0, t_box))
                else:
                    shift = None
                u1 = random_block_sparse(grid, t_box, nt, n1, l1,
                                        seed=(seed, n1, l1, 1), shift=shift)
                u2 = random_block_sparse(grid, t_box, nt, n2, l2,
                                        seed=(seed, n2, l2, 2), shift=shift)
                norm = sparse_product_l2(u1, u2)
                trials.append(BlockTrial(n1, l1, n2, l2, seed, norm, bound,
                                         separated))
    exponent = fit_separated_exponent(trials)
    count = sum(1 for t in trials if t.separated)
    return BilinearReport(tuple(trials), exponent, count)


def random_bandlimited_spacetime(grid: Grid2D, t_box: float, nt: int, seed, *,
                                 max_mode: int = 4,
                                 max_tmode: int = 8) -> SpaceTimeField:
    """Random real space-time field carried by |jx|, |jy|, |jt| below cutoffs.

    Coefficients are iid complex Gaussians on the small centered box,
    Hermitian-symmetrized so the physical field is real.  Draws depend only
    on the seed and the cutoffs, so the same seed on a finer lattice yields
    the identical trigonometric polynomial.
    """
    if 2 * max_mode >= min(grid.nx, grid.ny) or 2 * max_tmode >= nt:
        raise ValueError("lattice too coarse for the requested mode range")
    rng = np.random.default_rng(seed)
    c = np.zeros((grid.nx, grid.ny, nt), dtype=complex)
    for jx in range(-max_mode, max_mode + 1):
        for jy in range(-max_mode, max_mode + 1):
            for jt in range(-max_tmode, max_tmode + 1):
                a = rng.standard_normal() + 1j * rng.standard_normal()
                c[jx % grid.nx, jy % grid.ny, jt % nt] += 0.5 * a
                c[-jx % grid.nx, -jy % grid.ny, -jt % nt] += 0.5 * np.conj(a)
    return SpaceTimeField(grid, float(t_box), c)


# ---------------------------------------------------------------------------
# linear (free-flow) probes


def random_low_mode_field(grid: Grid2D, seed, *, max_mode: int = 4,
                          amplitude: float = 1.0) -> RealField:
    """Random mean-zero field carried by modes |jx|, |jy| <= max_mode.

    The coefficient draw depends only on the seed and max_mode, so the same
    function evaluated on a finer grid returns the identical trigonometric
    polynomial; this makes refinement studies meaningful.
    """
    if 2 * max_mode >= min(grid.nx, grid.ny):
        raise ValueError("grid too coarse for the requested mode range")
    rng = np.random.default_rng(seed)
    c = np.zeros((grid.nx, grid.ny), dtype=complex)
    for j in range(-max_mode, max_mode + 1):
        for k in range(-max_mode, max_mode + 1):
            if j == 0 and k == 0:
                continue
            a = rng.standard_normal() + 1j * rng.standard_normal()
            c[j % grid.nx, k % grid.ny] += 0.5 * a
            c[-j % grid.nx, -k % grid.ny] += 0.5 * np.conj(a)
    spec = SpectralField(grid, amplitude * c)
    return inverse_transform(spec)


@dataclass
class LinearProbeReport:
    constants: dict
    norms: dict
    references: dict
    params: dict = field(default_factory=dict)


_STRICHARTZ = MixedNormDescriptor.from_string("T:3,x:inf,y:inf")
_KATO = MixedNormDescriptor.from_string("x:inf,y:2,T:2")
_MAXIMAL = MixedNormDescriptor.from_string("x:2,y:inf,T:inf")


def _free_flow(spec: SpectralField, times) -> tuple:
    """Paths of u, u_x and u_y under the free flow from the spectrum ``spec``.

    ``spec`` comes from a real field, so the flow stays Hermitian and the
    stack of the three spectra is inverted without a check, once per node.
    """
    grid, c = spec.grid, spec.coeffs
    stack = np.stack([c, c * make_multiplier(grid, "ddx").values,
                      c * make_multiplier(grid, "ddy").values])
    frames = ([], [], [])
    for t in times:
        for frame, values in zip(frames, _to_values(stack * _phase(grid, t))):
            frame.append(RealField(grid, values))
    return tuple(TrajectoryPath(grid, times, f) for f in frames)


def probe_linear_estimates(grid: Grid2D, *, horizon: float = 1.0,
                           n_nodes: int = 65, seed=0, s: float = 1.0,
                           max_mode: int = 4) -> LinearProbeReport:
    """Mixed-norm constants of the free flow for random band-limited data.

    Measures three dispersive quantities over [0, horizon]:

    * time-cubed sup norm of the solution against the L^2 norm of the data,
    * sup-in-x L^2(y, T) norm of the solution gradient against the same,
    * L^2(x) sup(y, T) norm of the solution against the H^s norm of the data.
    """
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")
    if n_nodes < 2:
        raise ValueError("need at least two time nodes")
    u0 = random_low_mode_field(grid, seed, max_mode=max_mode)
    times = np.linspace(0.0, horizon, n_nodes)
    path_u, path_ux, path_uy = _free_flow(forward_transform(u0), times)
    norm_strichartz = mixed_norm(path_u, _STRICHARTZ)
    norm_kato = mixed_norm(path_ux, _KATO) + mixed_norm(path_uy, _KATO)
    norm_maximal = mixed_norm(path_u, _MAXIMAL)
    l2 = u0.l2()
    hs = sobolev_norm(u0, s)
    constants = {
        "strichartz": norm_strichartz / l2,
        "kato_smoothing": norm_kato / l2,
        "maximal": norm_maximal / hs,
    }
    norms = {
        _STRICHARTZ.label: norm_strichartz,
        "grad " + _KATO.label: norm_kato,
        _MAXIMAL.label: norm_maximal,
    }
    references = {"l2": l2, "sobolev": hs}
    params = {"nx": grid.nx, "ny": grid.ny, "lx": grid.lx, "ly": grid.ly,
              "horizon": horizon, "n_nodes": n_nodes, "seed": seed, "s": s,
              "max_mode": max_mode}
    return LinearProbeReport(constants, norms, references, params)


def probe_l4_estimate(f: SpaceTimeField, *, delta: float = DELTA) -> float:
    """Fourth-power norm against the (0, 5/6+delta) weighted norm.

    Uses the identity that the squared space-time L^4 norm of a real field
    equals the L^2 norm of its square.
    """
    l4 = math.sqrt(product_l2(f, f))
    return l4 / xsb_norm(f, 0.0, 5.0 / 6.0 + delta)


# ---------------------------------------------------------------------------
# nonlinear probe


@dataclass
class NonlinearProbeReport:
    constant: float
    output_norm: float
    input_norm: float
    s: float
    delta: float


def probe_nonlinear_estimate(f: SpaceTimeField, *, s: float = 1.0,
                             delta: float = DELTA) -> NonlinearProbeReport:
    """Weighted norm of the quadratic nonlinearity over the squared input norm.

    The output is weighted with exponent ``-1/2 + 2 delta`` in the modulation
    bracket, the input with ``1/2 + delta``; both carry ``s`` powers of the
    frequency bracket.
    """
    box = nonlinear_box(f)
    out_norm = xsb_norm_box(box, f.grid, f.t_box, s, -0.5 + 2 * delta)
    in_norm = xsb_norm(f, s, 0.5 + delta)
    if in_norm == 0.0:
        raise ValueError("input field is identically zero")
    return NonlinearProbeReport(out_norm / in_norm**2, out_norm, in_norm,
                                s, delta)
