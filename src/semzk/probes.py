"""Numerical probes for multilinear space-time estimates.

Products of band-limited fields are evaluated through exact linear
convolution of their Fourier coefficients: the coefficients are re-centered,
trimmed to their bounding boxes, and convolved on zero-padded n-D transforms
(``spectral._linear_convolve``), so the output lives on an enlarged
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

from .dyadic import (
    SpaceTimeField,
    SparseBlock,
    _check_level,
    _check_nt,
    _modulation,
    random_block_sparse,
)
from .dynamics import _phase
from .integrators import TrajectoryPath
from .norms import MixedNormDescriptor, _hs_weight, mixed_norm, sobolev_norm
from .spectral import (
    Grid2D,
    RealField,
    _from_half,
    _half_symbols,
    _integer,
    _linear_convolve,
    _real,
    _to_half,
    _to_values,
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
    centered = np.fft.fftshift(coeffs)
    nz = np.nonzero(centered)
    if nz[0].size == 0:
        return CoefficientBox(np.zeros((1, 1, 1), dtype=complex), (0, 0, 0))
    slices = tuple(slice(int(a.min()), int(a.max()) + 1) for a in nz)
    start = tuple(sl.start - n // 2 for sl, n in zip(slices, coeffs.shape))
    return CoefficientBox(np.ascontiguousarray(centered[slices]), start)


def _convolve_boxes(a: CoefficientBox, b: CoefficientBox) -> CoefficientBox:
    vals = _linear_convolve(a.values, b.values)
    start = tuple(x + y for x, y in zip(a.start, b.start))
    return CoefficientBox(vals, start)


def _check_compatible(f1, f2) -> None:
    """Raise unless two fields or blocks share grid, t_box and nt."""
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


def _x_groups(modes: np.ndarray) -> np.ndarray:
    """Row range of every jx in key-ordered modes.

    Rows with ``jx = lo + g`` are ``edges[g]:edges[g + 1]`` for each ``g``
    from ``lo`` to the largest jx; absent jx values give empty ranges.
    """
    jx = modes[:, 0]
    return np.searchsorted(jx, np.arange(jx[0], jx[-1] + 2))


def _runs(modes: np.ndarray, values: np.ndarray):
    """The jt runs of key-ordered modes: maximal stretches of consecutive jt
    inside one (jx, jy) column.

    Returns the first mode of every run, in key order, and a zero-padded
    ``(runs, R)`` array whose row ``i`` holds run ``i``'s values in jt order,
    ``R`` being the longest run.
    """
    step = np.diff(modes, axis=0)
    first = np.ones(modes.shape[0], dtype=bool)
    first[1:] = (step[:, 0] != 0) | (step[:, 1] != 0) | (step[:, 2] != 1)
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    offset = np.arange(modes.shape[0]) - starts[run]
    padded = np.zeros((starts.size, int(offset.max()) + 1))
    padded[run, offset] = values
    return modes[starts], padded


def sparse_product_l2(b1: SparseBlock, b2: SparseBlock) -> float:
    """Exact space-time L^2 norm of the product of two sparse fields.

    Equivalent to densifying both blocks and calling :func:`product_l2`, but
    scales with the number of occupied modes instead of the lattice size.
    The blocks hold their modes in key order, so each block splits into jt
    runs, contiguous row ranges (see :func:`_runs`), zero-padded to its
    longest run ``R``.  Two runs meet in a 1-d convolution with
    ``S = R1 + R2 - 1`` outputs at the consecutive in-plane keys
    ``k1 + k2 + s``.

    The output is built one x-plane ``X = jx1 + jx2`` at a time.  For every
    ``a``, the ``P`` runs with ``jx1 = a`` meet the ``Q`` runs with
    ``jx2 = X - a`` in one matrix product: the ``(P, R1)`` run values against
    the ``(R1, Q * S)`` Toeplitz expansion of block 2's runs, which gives
    every run-pair convolution at once.  Its ``S`` outputs per run pair, not
    one per mode pair, are added per in-plane mode ``(jy1 + jy2, jt1 + jt2)``
    into one ``span_y * span_t`` accumulator by ``np.add.at`` as soon as they
    are made.  At the plane's end its squared modulus is added to the total
    and the accumulator is zeroed for the next plane.  Memory is bounded by
    one x-group pair's outputs, the largest ``P * Q * S`` keys and values,
    two ``span_y * span_t`` buffers and block 2's Toeplitz expansion, not by
    a plane or the whole output lattice.  ``np.add.at`` adds in array order
    onto +0.0, as one ``bincount`` of the plane's outputs laid end to end
    does, and the pairs come in that order, so every bit is that of the
    plane-at-a-time sum.  Blocks whose runs all have length one give
    ``S = 1`` and one product per mode pair.  The product is ``np.dot``: at
    ``R1 = 1`` ``np.matmul`` skips BLAS and takes twice as long.

    Both blocks are real even fields, so the product's coefficients are
    real and obey ``C(-K) = C(K)``: plane ``-X`` has the squared sum of
    plane ``X``.  Only the planes ``X >= 0`` are built, and those with
    ``X > 0`` are counted twice.
    """
    _check_compatible(b1, b2)
    if b1.modes.shape[0] == 0 or b2.modes.shape[0] == 0:
        return 0.0
    m1, v1 = _runs(np.asarray(b1.modes, dtype=np.intp), b1.values)
    m2, v2 = _runs(np.asarray(b2.modes, dtype=np.intp), b2.values)
    r1, r2 = v1.shape[1], v2.shape[1]
    width = r1 + r2 - 1
    edges1, edges2 = _x_groups(m1), _x_groups(m2)
    # Linearize the in-plane output pair (jy1+jy2, jt1+jt2) so the key of a
    # pair splits into a per-factor sum; the stride span[2], wide enough for
    # the last output of the latest-starting run pair, keeps it injective.
    lo1, lo2 = m1.min(axis=0), m2.min(axis=0)
    span = m1.max(axis=0) + m2.max(axis=0) - lo1 - lo2 + 1
    span[2] += width - 1
    k1 = (m1[:, 1] - lo1[1]) * span[2] + (m1[:, 2] - lo1[2])
    k2 = (m2[:, 1] - lo2[1]) * span[2] + (m2[:, 2] - lo2[2])
    # Column q * S + s of block 2's expansion belongs to output s of run q;
    # its row r holds run q shifted by r, the partner of block 1's value r.
    k2 = (k2[:, None] + np.arange(width)).ravel()
    toeplitz = np.zeros((r1, v2.shape[0], width))
    for shift in range(r1):
        toeplitz[shift, :, shift:shift + r2] = v2
    toeplitz = toeplitz.reshape(r1, k2.size)
    bins = int(span[1] * span[2])
    count1, count2 = np.diff(edges1), np.diff(edges2)
    # One x-group pair's outputs at a time: the buffers and the plane's
    # accumulator are allocated once and reused for every pair and plane.
    pair_outputs = int(count1.max()) * int(count2.max()) * width
    keys = np.empty(pair_outputs, dtype=np.intp)
    vals = np.empty(pair_outputs)
    sums = np.zeros(bins)
    squares = np.empty(bins)
    # Plane index of X = 0; an even block's jx range is symmetric about 0.
    zero = -int(m1[0, 0] + m2[0, 0])
    total = 0.0
    for plane in range(zero, count1.size + count2.size - 1):
        for a in range(max(0, plane - count2.size + 1),
                       min(count1.size, plane + 1)):
            b = plane - a
            rows1 = slice(edges1[a], edges1[a + 1])
            cols2 = slice(edges2[b] * width, edges2[b + 1] * width)
            shape = (count1[a], count2[b] * width)
            n = shape[0] * shape[1]
            np.add(k1[rows1, None], k2[None, cols2],
                   out=keys[:n].reshape(shape))
            np.dot(v1[rows1], toeplitz[:, cols2],
                   out=vals[:n].reshape(shape))
            np.add.at(sums, keys[:n], vals[:n])
        np.multiply(sums, sums, out=squares)
        weight = 1.0 if plane == zero else 2.0
        total += weight * float(np.sum(squares, dtype=np.float64))
        sums.fill(0.0)
    return math.sqrt(b1.volume * total)


# ---------------------------------------------------------------------------
# weighted (s, b) norms


def _box_weight(box: CoefficientBox, grid: Grid2D, t_box: float, s: float,
                b: float) -> np.ndarray:
    px, py, pt = box.values.shape
    # the box's own wavenumbers: the grid's fftfreq ones differ in the last bit
    xi = (2 * np.pi / grid.lx * (box.start[0] + np.arange(px)))[:, None]
    mu = (2 * np.pi / grid.ly * (box.start[1] + np.arange(py)))[None, :]
    tau = 2 * np.pi / t_box * (box.start[2] + np.arange(pt))
    m = _modulation(xi, mu, tau)
    return (1.0 + np.abs(m)) ** (2 * b) * _hs_weight(xi, mu, s)[:, :, None]


def xsb_norm_box(box: CoefficientBox, grid: Grid2D, t_box: float, s: float,
                 b: float) -> float:
    """Weighted norm of an unwrapped coefficient box."""
    t_box = _real("t_box", t_box, positive=True)
    w = _box_weight(box, grid, t_box, _real("s", s), _real("b", b))
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
    base = _centered_box(f.coeffs)
    # The multipliers are cut on the coefficients' own centered box.
    cut = tuple(slice(s + n // 2, s + n // 2 + k)
                for s, n, k in zip(base.start, (g.nx, g.ny), base.values.shape))

    def term(name: str, axis: int, length: float) -> CoefficientBox:
        m = np.fft.fftshift(make_multiplier(g, name).values)[cut][:, :, None]
        product = _convolve_boxes(base, CoefficientBox(base.values * m, base.start))
        return _derivative_box(product, axis, length)

    out = term("m1", 0, g.lx)
    out.values += term("m2", 1, g.ly).values
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
    n_min, n_max = sorted((_check_level("n1", n1), _check_level("n2", n2)))
    l_min, l_max = sorted((_check_level("l1", l1), _check_level("l2", l2)))
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
    # the least-squares slope as scipy.stats.linregress forms it, bit for bit
    ssxm, ssxym, _, _ = np.cov(xs, ys, bias=1).flat
    return float(ssxym / ssxm)


def probe_block_bilinear(grid: Grid2D, t_box: float, nt: int, *,
                         n_pairs=DEFAULT_N_PAIRS, l_pairs=DEFAULT_L_PAIRS,
                         seeds=DEFAULT_SEEDS) -> BilinearReport:
    """Measure product norms of random dyadic blocks against predicted bounds.

    Every block is a real even field with positive coefficients (see
    :func:`~semzk.dyadic.random_block_sparse`), and one kind of block is
    enough.  Replacing each Fourier coefficient of u1 and u2 by its modulus
    keeps the L^2 norms of u1 and u2 and cannot lower that of u1 u2,
    because ``|sum c1 c2| <= sum |c1| |c2|`` at every output mode; for a
    real field those moduli are even in k.  So the worst case over real blocks is
    reached on blocks with real, even, nonnegative coefficients.  Both
    packets sit at the origin of space-time and overlap; the seeds of a pair
    differ only in the magnitude jitter.
    """
    trials = []
    for n1, n2 in n_pairs:
        for l1, l2 in l_pairs:
            bound, separated = bilinear_bound(n1, l1, n2, l2)
            for seed in seeds:
                u1 = random_block_sparse(grid, t_box, nt, n1, l1,
                                         seed=(seed, n1, l1, 1))
                u2 = random_block_sparse(grid, t_box, nt, n2, l2,
                                         seed=(seed, n2, l2, 2))
                norm = sparse_product_l2(u1, u2)
                trials.append(BlockTrial(n1, l1, n2, l2, seed, norm, bound,
                                         separated))
    exponent = fit_separated_exponent(trials)
    count = sum(1 for t in trials if t.separated)
    return BilinearReport(tuple(trials), exponent, count)


def _random_hermitian(seed, shape, cutoffs, *, skip_zero=False) -> np.ndarray:
    """Coefficients on the lattice ``shape`` carried by |j_i| <= cutoffs[i].

    One iid complex Gaussian per mode of the centered box, drawn in C order
    of the box (the last axis fastest), the zero mode left out and kept zero
    under ``skip_zero``; the box is then averaged with its conjugate flip,
    ``c(j) = (a(j) + conj a(-j)) / 2``, so the physical field is real.
    """
    box = tuple(2 * m + 1 for m in cutoffs)
    size = math.prod(box)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((size - 1 if skip_zero else size, 2)).view(complex)[:, 0]
    if skip_zero:
        a = np.insert(a, size // 2, 0.0)  # the middle of the box is the zero mode
    a = a.reshape(box)
    c = np.zeros(shape, dtype=complex)
    c[np.ix_(*(np.arange(-m, m + 1) % n for m, n in zip(cutoffs, shape)))] = \
        0.5 * a + 0.5 * np.conj(np.flip(a))
    return c


def random_bandlimited_spacetime(grid: Grid2D, t_box: float, nt: int, seed, *,
                                 max_mode: int = 4,
                                 max_tmode: int = 8) -> SpaceTimeField:
    """Random real space-time field carried by |jx|, |jy|, |jt| below cutoffs.

    Coefficients are iid complex Gaussians on the small centered box,
    Hermitian-symmetrized so the physical field is real.  Draws depend only
    on the seed and the cutoffs, so the same seed on a finer lattice yields
    the identical trigonometric polynomial.
    """
    nt = _check_nt(nt)
    max_mode, max_tmode = _integer("max_mode", max_mode, 0), _integer("max_tmode", max_tmode, 0)
    if 2 * max_mode >= min(grid.nx, grid.ny) or 2 * max_tmode >= nt:
        raise ValueError("lattice too coarse for the requested mode range")
    c = _random_hermitian(seed, (grid.nx, grid.ny, nt), (max_mode, max_mode, max_tmode))
    return SpaceTimeField(grid, t_box, c)


# ---------------------------------------------------------------------------
# linear (free-flow) probes


def random_low_mode_field(grid: Grid2D, seed, *, max_mode: int = 4,
                          amplitude: float = 1.0) -> RealField:
    """Random mean-zero field carried by modes |jx|, |jy| <= max_mode.

    The coefficient draw depends only on the seed and max_mode, so the same
    function evaluated on a finer grid returns the identical trigonometric
    polynomial; this makes refinement studies meaningful.
    """
    max_mode = _integer("max_mode", max_mode, 0)
    amplitude = _real("amplitude", amplitude, nonnegative=True)
    if 2 * max_mode >= min(grid.nx, grid.ny):
        raise ValueError("grid too coarse for the requested mode range")
    c = _random_hermitian(seed, (grid.nx, grid.ny), (max_mode, max_mode), skip_zero=True)
    # c is Hermitian to the bit, so the inverse skips the public check
    return RealField(grid, _to_values(amplitude * c))


@dataclass
class LinearProbeReport:
    constants: dict
    norms: dict
    references: dict
    params: dict = field(default_factory=dict)


_STRICHARTZ = MixedNormDescriptor.from_string("T:3,x:inf,y:inf")
_KATO = MixedNormDescriptor.from_string("x:inf,y:2,T:2")
_MAXIMAL = MixedNormDescriptor.from_string("x:2,y:inf,T:inf")


def _free_flow(u0: RealField, times) -> tuple:
    """Paths of u, u_x and u_y under the free flow from ``u0``.

    The three half spectra are stacked and inverted together, once per node.
    """
    grid, c = u0.grid, _to_half(u0.values)
    tab = _half_symbols(grid)
    stack = np.stack([c, c * tab["ddx"], c * tab["ddy"]])
    frames = ([], [], [])
    for t in times:
        for frame, values in zip(frames, _from_half(stack * _phase(tab["omega"], t))):
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
    horizon, n_nodes = _real("horizon", horizon, positive=True), _integer("n_nodes", n_nodes, 2)
    u0 = random_low_mode_field(grid, seed, max_mode=max_mode)
    times = np.linspace(0.0, horizon, n_nodes)
    path_u, path_ux, path_uy = _free_flow(u0, times)
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


def probe_l4_estimate(f: SpaceTimeField) -> float:
    """Fourth-power norm against the (0, B_FOURTH) weighted norm.

    Uses the identity that the squared space-time L^4 norm of a real field
    equals the L^2 norm of its square.
    """
    denom = xsb_norm(f, 0.0, B_FOURTH)
    if denom == 0.0:
        raise ValueError("input field is identically zero")
    return math.sqrt(product_l2(f, f)) / denom


# ---------------------------------------------------------------------------
# nonlinear probe


@dataclass
class NonlinearProbeReport:
    constant: float
    output_norm: float
    input_norm: float
    s: float
    delta: float


def probe_nonlinear_estimate(f: SpaceTimeField, *,
                             s: float = 1.0) -> NonlinearProbeReport:
    """Weighted norm of the quadratic nonlinearity over the squared input norm.

    The output is weighted with exponent ``B_MINUS`` in the modulation
    bracket, the input with ``B_PLUS``; both carry ``s`` powers of the
    frequency bracket.
    """
    box = nonlinear_box(f)
    out_norm = xsb_norm_box(box, f.grid, f.t_box, s, B_MINUS)
    in_norm = xsb_norm(f, s, B_PLUS)
    if in_norm == 0.0:
        raise ValueError("input field is identically zero")
    return NonlinearProbeReport(out_norm / in_norm**2, out_norm, in_norm,
                                s, DELTA)
