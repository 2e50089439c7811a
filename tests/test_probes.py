"""Product norms, weighted norms, and the three probe families."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import fftconvolve
from scipy.stats import linregress

from semzk.dyadic import (
    SparseBlock,
    SpaceTimeField,
    _conjugate_partner,
    block_modes,
    dispersion_values,
    frequency_weight,
    random_block_sparse,
)
from semzk import probes
from semzk.probes import (
    BlockTrial,
    CoefficientBox,
    bilinear_bound,
    fit_separated_exponent,
    nonlinear_box,
    probe_block_bilinear,
    probe_l4_estimate,
    probe_linear_estimates,
    probe_nonlinear_estimate,
    product_l2,
    random_bandlimited_spacetime,
    random_low_mode_field,
    sparse_product_l2,
    xsb_norm,
    xsb_norm_box,
)
from semzk.dynamics import SEM, _Nonlinearity, propagator_apply
from semzk.integrators import TrajectoryPath
from semzk.norms import MixedNormDescriptor, mixed_norm, sobolev_norm
from semzk.spectral import (
    Grid2D,
    SpectralField,
    _from_half,
    _hermitian_defect,
    _to_coeffs,
    _to_half,
    _to_values,
    apply_multiplier,
    forward_transform,
    inverse_transform,
    make_multiplier,
)

G = Grid2D(32, 32, 2 * np.pi, 2 * np.pi)
TBOX = 2 * np.pi
NT = 64
VOLUME = G.lx * G.ly * TBOX


def cosine_field(triples, nt=NT, grid=G, t_box=TBOX):
    """Sum of a * cos(jx x + jy y + jt t) terms from (jx, jy, jt, a) triples."""
    c = np.zeros((grid.nx, grid.ny, nt), dtype=complex)
    for jx, jy, jt, a in triples:
        c[jx % grid.nx, jy % grid.ny, jt % nt] += 0.5 * a
        c[-jx % grid.nx, -jy % grid.ny, -jt % nt] += 0.5 * a
    return SpaceTimeField(grid, t_box, c)


class TestProductNorm:
    def test_matches_lattice_quadrature(self):
        # Low modes: the product stays band-limited, so the rectangle rule on
        # the lattice is exact and must agree with the coefficient convolution.
        f1 = cosine_field([(1, 2, 3, 1.0), (2, -1, 1, 0.3)])
        f2 = cosine_field([(0, 1, 2, 0.7), (1, 1, -1, 0.25)])
        prod = f1.physical() * f2.physical()
        cell = VOLUME / (G.nx * G.ny * NT)
        quad = math.sqrt(cell * float(np.sum(prod**2)))
        assert product_l2(f1, f2) == pytest.approx(quad, rel=1e-12)

    def test_sparse_agrees_with_dense(self):
        b1 = random_block_sparse(G, TBOX, 512, 2, 4, seed=(0, 2, 4, 1))
        b2 = random_block_sparse(G, TBOX, 512, 8, 1, seed=(0, 8, 1, 2))
        rng = np.random.default_rng(7)

        def shuffled(b):
            order = rng.permutation(b.modes.shape[0])
            return SparseBlock(b.grid, b.t_box, b.nt, b.modes[order],
                               b.values[order])

        empty = SparseBlock(G, TBOX, 512, np.zeros((0, 3), dtype=int),
                            np.zeros(0))
        cases = [(b1, b2), (shuffled(b1), shuffled(b2)), (b1, empty)]
        for f1, f2 in cases:
            sparse = sparse_product_l2(f1, f2)
            dense = product_l2(f1.to_field(), f2.to_field())
            assert sparse == pytest.approx(dense, rel=1e-12)
        assert sparse_product_l2(empty, b2) == 0.0

    def test_permuted_block_is_held_in_key_order(self, monkeypatch):
        # A block keeps its modes in key order, lexicographic in (jx, jy, jt),
        # whatever order it was given them in, and each value follows its mode.
        b1 = random_block_sparse(G, TBOX, 512, 2, 4, seed=(0, 2, 4, 1))
        b2 = random_block_sparse(G, TBOX, 512, 8, 1, seed=(0, 8, 1, 2))
        assert np.array_equal(b1.modes, block_modes(G, TBOX, 512, 2, 4))
        order = np.random.default_rng(7).permutation(b1.modes.shape[0])
        permuted = SparseBlock(G, TBOX, 512, b1.modes[order], b1.values[order])
        assert np.array_equal(permuted.modes, b1.modes)
        assert np.array_equal(permuted.values, b1.values)
        # and every plane sum of the product keeps its bits
        for pair, twin in (((permuted, b2), (b1, b2)), ((b2, permuted), (b2, b1))):
            got = plane_bits(sparse_product_l2, *pair, monkeypatch)
            assert got == plane_bits(sparse_product_l2, *twin, monkeypatch)

    def test_sparse_memory_bounded_by_the_largest_x_group_pair(self):
        # The fine pair n=(2, 8), l=(8, 8): its largest plane has 539,784
        # run-pair outputs, its largest x-group pair 30,912.  The product
        # holds one pair's keys and values at a time (16 B an output), two
        # float64 accumulators over the in-plane keys, and block 2's Toeplitz
        # expansion with its keys.  Plane-sized buffers add 8.1 MB more.
        b1, b2 = fine_blocks((2, 8), (8, 8))
        m1, v1 = probes._runs(np.asarray(b1.modes, dtype=np.intp), b1.values)
        m2, v2 = probes._runs(np.asarray(b2.modes, dtype=np.intp), b2.values)
        r1, width = v1.shape[1], v1.shape[1] + v2.shape[1] - 1
        count1 = np.diff(probes._x_groups(m1))
        count2 = np.diff(probes._x_groups(m2))
        span = m1.max(axis=0) + m2.max(axis=0) - m1.min(axis=0) - m2.min(axis=0) + 1
        bins = int(span[1] * (span[2] + width - 1))
        pair = int(count1.max()) * int(count2.max()) * width
        assert pair == 30912
        toeplitz = (r1 + 1) * m2.shape[0] * width
        bound = 16 * pair + 2 * 8 * bins + 8 * toeplitz + 2**20
        tracemalloc.start()
        try:
            sparse_product_l2(b1, b2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_real_coefficients_agree_with_the_other_paths(self):
        # The planes X >= 0 alone give the dense norm (the bits are pinned
        # against the plane-at-a-time product in TestRunProduct).
        b1 = random_block_sparse(G, TBOX, 512, 2, 4, seed=(0, 2, 4, 1))
        b2 = random_block_sparse(G, TBOX, 512, 8, 1, seed=(0, 8, 1, 2))
        norm = sparse_product_l2(b1, b2)
        assert norm == plane_product_l2(b1, b2)
        assert norm == pytest.approx(
            product_l2(b1.to_field(), b2.to_field()), rel=1e-12)
        # Dropping the partner of one mode leaves a block that is not even.
        partner = _conjugate_partner(b1.modes)[0]
        keep = np.arange(b1.modes.shape[0]) != partner
        with pytest.raises(ValueError, match="negation"):
            SparseBlock(b1.grid, b1.t_box, b1.nt, b1.modes[keep],
                        b1.values[keep])

    def test_sparse_rejects_mismatched_lattices(self):
        b1 = random_block_sparse(G, TBOX, 64, 1, 1, seed=1)
        b2 = random_block_sparse(G, TBOX, 128, 1, 1, seed=1)
        with pytest.raises(ValueError, match="different space-time lattices"):
            sparse_product_l2(b1, b2)


def per_pair_product_l2(b1, b2):
    """Reference for sparse_product_l2: one key and one value per mode pair.

    The same planes without runs: the rows with jx1 = a meet the rows with
    jx2 = X - a by an outer sum of keys and an outer product of values, and
    one bincount sums each plane X >= 0.
    """
    m1, v1 = np.asarray(b1.modes, dtype=np.intp), b1.values
    m2, v2 = np.asarray(b2.modes, dtype=np.intp), b2.values
    edges1, edges2 = probes._x_groups(m1), probes._x_groups(m2)
    lo1, lo2 = m1.min(axis=0), m2.min(axis=0)
    span = m1.max(axis=0) + m2.max(axis=0) - lo1 - lo2 + 1
    k1 = (m1[:, 1] - lo1[1]) * span[2] + (m1[:, 2] - lo1[2])
    k2 = (m2[:, 1] - lo2[1]) * span[2] + (m2[:, 2] - lo2[2])
    bins = int(span[1] * span[2])
    count1, count2 = np.diff(edges1), np.diff(edges2)
    plane_pairs = np.convolve(count1, count2)
    keys = np.empty(plane_pairs.max(), dtype=np.intp)
    vals = np.empty(plane_pairs.max())
    zero = -int(m1[0, 0] + m2[0, 0])
    total = 0.0
    for plane in range(zero, plane_pairs.size):
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
        sums = np.bincount(keys[:end], weights=vals[:end], minlength=bins)
        weight = 1.0 if plane == zero else 2.0
        total += weight * float(np.sum(sums * sums, dtype=np.float64))
    return math.sqrt(b1.volume * total)


def plane_product_l2(b1, b2):
    """Reference for sparse_product_l2: the run products of one whole plane
    written out before they are summed.

    Every x-group pair of plane X lays its keys and its run-pair outputs
    end to end in buffers sized to the largest plane, and one bincount sums
    the plane.  sparse_product_l2 adds each pair into its accumulator as it
    is made, in the same order, so it must agree to the bit.
    """
    m1, v1 = probes._runs(np.asarray(b1.modes, dtype=np.intp), b1.values)
    m2, v2 = probes._runs(np.asarray(b2.modes, dtype=np.intp), b2.values)
    r1, r2 = v1.shape[1], v2.shape[1]
    width = r1 + r2 - 1
    edges1, edges2 = probes._x_groups(m1), probes._x_groups(m2)
    lo1, lo2 = m1.min(axis=0), m2.min(axis=0)
    span = m1.max(axis=0) + m2.max(axis=0) - lo1 - lo2 + 1
    span[2] += width - 1
    k1 = (m1[:, 1] - lo1[1]) * span[2] + (m1[:, 2] - lo1[2])
    k2 = (m2[:, 1] - lo2[1]) * span[2] + (m2[:, 2] - lo2[2])
    k2 = (k2[:, None] + np.arange(width)).ravel()
    toeplitz = np.zeros((r1, v2.shape[0], width))
    for shift in range(r1):
        toeplitz[shift, :, shift:shift + r2] = v2
    toeplitz = toeplitz.reshape(r1, k2.size)
    bins = int(span[1] * span[2])
    count1, count2 = np.diff(edges1), np.diff(edges2)
    plane_outputs = np.convolve(count1, count2) * width
    keys = np.empty(plane_outputs.max(), dtype=np.intp)
    vals = np.empty(plane_outputs.max())
    zero = -int(m1[0, 0] + m2[0, 0])
    total = 0.0
    for plane in range(zero, plane_outputs.size):
        end = 0
        for a in range(max(0, plane - count2.size + 1),
                       min(count1.size, plane + 1)):
            b = plane - a
            rows1 = slice(edges1[a], edges1[a + 1])
            cols2 = slice(edges2[b] * width, edges2[b + 1] * width)
            shape = (count1[a], count2[b] * width)
            dest = slice(end, end + shape[0] * shape[1])
            np.add(k1[rows1, None], k2[None, cols2],
                   out=keys[dest].reshape(shape))
            np.dot(v1[rows1], toeplitz[:, cols2],
                   out=vals[dest].reshape(shape))
            end = dest.stop
        sums = np.bincount(keys[:end], weights=vals[:end], minlength=bins)
        weight = 1.0 if plane == zero else 2.0
        total += weight * float(np.sum(sums * sums, dtype=np.float64))
    return math.sqrt(b1.volume * total)


def plane_bits(product, b1, b2, monkeypatch):
    """The norm `product` returns and a digest of every squared plane sum it
    hands to np.sum, in order.

    The norm alone rarely shows a change of summation order: reversing the
    x-group pairs of each plane moved the last bit of about one fine-sweep
    product in eight.
    """
    digests = []
    total = np.sum

    def record(a, *args, **kwargs):
        digests.append(hashlib.sha256(np.ascontiguousarray(a)).digest())
        return total(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "sum", record)
        norm = product(b1, b2)
    return norm, digests


def even_block(modes, values, nt=NT, grid=G):
    """Block holding each (jx, jy, jt) of `modes` and its negation, both with
    the mode's value; a mode listed with its negation, or the zero mode,
    is kept once."""
    modes = np.asarray(modes, dtype=int).reshape(-1, 3)
    both = np.concatenate([modes, -modes])
    vals = np.concatenate([values, values]).astype(float)
    _, first = np.unique(both, axis=0, return_index=True)
    return SparseBlock(grid, TBOX, nt, both[first], vals[first])


def run_lengths(block):
    """Lengths of the block's jt runs, in key order."""
    _, padded = probes._runs(np.asarray(block.modes, dtype=np.intp),
                             np.ones(block.modes.shape[0]))
    return np.count_nonzero(padded, axis=1)


#: criterion 10's fine sweep, the pairs of the bilinear_fine benchmark
FINE = Grid2D(160, 160, 12 * np.pi, 12 * np.pi)
FINE_PAIRS = [(n, l) for n in ((1, 4), (2, 8)) for l in ((1, 1), (2, 2), (8, 8))]


def fine_blocks(n_pair, l_pair, seed=0):
    return tuple(random_block_sparse(FINE, TBOX, 512, n, l, seed=(seed, n, l, k))
                 for n, l, k in zip(n_pair, l_pair, (1, 2)))


def scattered_pair():
    """Two even blocks of scattered modes, all with even jt, so every jt run
    has length one."""
    rng = np.random.default_rng(3)

    def scattered():
        # distinct modes with jx >= 1, so no two are each other's negation
        modes = np.unique(np.column_stack([rng.integers(1, 13, 60),
                                           rng.integers(-12, 13, 60),
                                           2 * rng.integers(-15, 16, 60)]),
                          axis=0)
        return even_block(modes, rng.uniform(0.5, 1.5, modes.shape[0]))

    return scattered(), scattered()


class TestRunProduct:
    """The run-based block product against the per-mode-pair loop and the
    dense product."""

    @pytest.mark.parametrize("n_pair, l_pair", FINE_PAIRS)
    def test_fine_pairs_match_the_per_pair_loop(self, n_pair, l_pair):
        b1, b2 = fine_blocks(n_pair, l_pair)
        norm = sparse_product_l2(b1, b2)
        assert norm == pytest.approx(per_pair_product_l2(b1, b2), rel=1e-14)
        assert sparse_product_l2(b1, b2) == norm

    def test_l8_blocks_have_runs_longer_than_one(self):
        # two runs per (jx, jy) column, one on each side of the dispersion
        # surface, of at most four modes each
        for n in (2, 8):
            lengths = run_lengths(fine_blocks((n, n), (8, 8))[0])
            assert lengths.max() == 4 and lengths.mean() > 3

    def test_unit_runs_give_the_per_pair_bits(self, monkeypatch):
        # l = 2 shells have runs of length one, and so has a block whose
        # modes all have even jt: the products are those of the loop, summed
        # in the same order, so every bit agrees.
        pairs = [fine_blocks(n, (2, 2)) for n in ((1, 4), (2, 8))]
        pairs.append(scattered_pair())
        for b1, b2 in pairs:
            assert run_lengths(b1).max() == run_lengths(b2).max() == 1
            norm = sparse_product_l2(b1, b2)
            assert norm == per_pair_product_l2(b1, b2)
            assert sparse_product_l2(b1, b2) == norm
            self.assert_plane_bits(b1, b2, monkeypatch)

    @staticmethod
    def assert_plane_bits(b1, b2, monkeypatch):
        got = plane_bits(sparse_product_l2, b1, b2, monkeypatch)
        assert got == plane_bits(plane_product_l2, b1, b2, monkeypatch)

    @pytest.mark.parametrize("n_pair, l_pair", FINE_PAIRS)
    def test_fine_pairs_keep_the_plane_bincount_bits(self, n_pair, l_pair,
                                                     monkeypatch):
        self.assert_plane_bits(*fine_blocks(n_pair, l_pair), monkeypatch)

    def test_scattered_and_complete_blocks_keep_the_plane_bincount_bits(
            self, monkeypatch):
        # unit runs, and complete n = 8 blocks: at nt = 4096 the coarse
        # shells keep every mode that nt = 8192 keeps, in runs of up to four
        complete = tuple(random_block_sparse(G, TBOX, 4096, n, 8, seed=(0, n, 8, k))
                         for n, k in ((2, 1), (8, 2)))
        for n, block in zip((2, 8), complete):
            assert np.array_equal(block.modes, block_modes(G, TBOX, 8192, n, 8))
        assert run_lengths(complete[1]).max() > 1
        for b1, b2 in (scattered_pair(), complete, complete[::-1]):
            self.assert_plane_bits(b1, b2, monkeypatch)

    @staticmethod
    def agrees_with_dense(b1, b2):
        for f1, f2 in ((b1, b2), (b2, b1)):
            dense = product_l2(f1.to_field(), f2.to_field())
            assert sparse_product_l2(f1, f2) == pytest.approx(dense, rel=1e-12)

    def test_runs_of_unequal_length(self):
        b1 = even_block([(1, 2, 4), (1, 2, 5), (1, 2, 6), (-2, 1, 3)],
                        [0.9, 1.1, 0.7, 1.3])
        b2 = even_block([(2, -1, t) for t in range(-3, 2)] + [(0, 3, 7), (0, 3, 8)],
                        [0.5, 1.5, 1.0, 0.8, 1.2, 0.6, 1.4])
        assert run_lengths(b1).max() == 3 and run_lengths(b2).max() == 5
        self.agrees_with_dense(b1, b2)

    def test_run_cut_short_at_the_time_nyquist(self):
        # At nt = 64 the (4, 8) shell keeps |jt| <= 31, and four of its runs
        # end there, shorter than the block's longest.
        nt = 64
        b1 = random_block_sparse(G, TBOX, nt, 4, 8, seed=1)
        b2 = random_block_sparse(G, TBOX, nt, 2, 8, seed=2)
        starts, _ = probes._runs(np.asarray(b1.modes, dtype=np.intp), b1.values)
        lengths = run_lengths(b1)
        cut = (starts[:, 2] + lengths - 1 == nt // 2 - 1) & (lengths < lengths.max())
        assert np.count_nonzero(cut) == 4
        self.agrees_with_dense(b1, b2)
        self.agrees_with_dense(b1, b1)

    def test_a_single_pair_of_modes(self):
        pair = even_block([(3, -2, 5)], [0.7])
        assert pair.modes.shape[0] == 2
        self.agrees_with_dense(pair, random_block_sparse(G, TBOX, NT, 2, 4, seed=5))
        self.agrees_with_dense(pair, pair)

    def test_a_block_in_one_column(self):
        # jx = jy = 0 and jt from -3 to 3: one x-group, one run of seven
        column = even_block([(0, 0, t) for t in range(4)], [1.0, 0.6, 0.9, 1.2])
        assert column.modes.shape[0] == 7 and list(run_lengths(column)) == [7]
        self.agrees_with_dense(column, random_block_sparse(G, TBOX, NT, 1, 8, seed=6))
        self.agrees_with_dense(column, column)

    def test_a_plane_without_outputs(self):
        # jx1 = +-3 and jx2 = +-1 never sum to 0, so plane X = 0 is built
        # empty, among the planes X = 1 and X = 3 between the occupied ones.
        b1 = even_block([(3, 1, 2), (3, 1, 3), (3, -4, -6)], [0.8, 1.2, 1.0])
        b2 = even_block([(1, 2, 1), (1, 2, 2), (1, 2, 3), (-1, 5, 0)],
                        [1.1, 0.9, 0.7, 1.3])
        assert set(b1.modes[:, 0]) == {-3, 3} and set(b2.modes[:, 0]) == {-1, 1}
        self.agrees_with_dense(b1, b2)


class TestWeightedNorm:
    def test_resonant_mode_hand_value(self):
        # cos(x + 2y + 5t) rides the dispersion surface (omega(1, 2) = 5), so
        # the modulation bracket is 1 and only the frequency bracket acts.
        f = cosine_field([(1, 2, 5, 1.0)])
        for s in (0.0, 1.0, 1.7):
            expect = math.sqrt(VOLUME / 2.0) * (1.0 + math.sqrt(5.0)) ** s
            assert xsb_norm(f, s, 0.31) == pytest.approx(expect, rel=1e-12)

    def test_modulation_bracket_hand_value(self):
        # cos(x + 2y + 6t) sits one unit off the dispersion surface.
        f = cosine_field([(1, 2, 6, 1.0)])
        for b in (-0.48, 0.51, 5.0 / 6.0):
            expect = math.sqrt(VOLUME / 2.0) * 2.0**b * (1.0 + math.sqrt(5.0))
            assert xsb_norm(f, 1.0, b) == pytest.approx(expect, rel=1e-12)


def kernel_nonlinear_box(f, batch=16):
    """nonlinear_box(f) evaluated by the solver kernel, frame by frame.

    N(f) is pointwise in t, so each time frame's N is the 2-D SEM
    nonlinearity of that frame.  For input modes |jx| <= Kx, |jy| <= Ky and
    |jt| <= Kt (no Nyquist mode), the frames are sampled on a lattice with
    n' > 6K per spatial axis, so the kernel's two-thirds mask (3|j| < n')
    keeps the whole product band 2K, and nt' > 4Kt, so the product's time
    band 2Kt does not wrap.  ``_Nonlinearity(..., SEM, batch=batch)`` then
    runs over the frames, ``batch`` at a time, and the output box of the linear
    convolution, from twice the input box's low corner, is read off the
    padded lattice, which the test checks holds nothing else.
    """
    g = f.grid
    freqs = [np.rint(np.fft.fftfreq(n) * n).astype(int) for n in f.coeffs.shape]
    support = [j[i] for j, i in zip(freqs, np.nonzero(f.coeffs))]
    low = [int(j.min()) for j in support]
    high = [int(j.max()) for j in support]
    k = [max(-a, b) for a, b in zip(low, high)]
    assert all(2 * kk < n for kk, n in zip(k, f.coeffs.shape)), "a Nyquist mode"
    fine = Grid2D(max(8, 6 * k[0] + 2), max(8, 6 * k[1] + 2), g.lx, g.ly)
    lattice = (fine.nx, fine.ny, 4 * k[2] + 2)
    keep = [np.flatnonzero(np.abs(j) <= kk) for j, kk in zip(freqs, k)]
    c = np.zeros(lattice, dtype=complex)
    c[np.ix_(*(j[i] % n for j, i, n in zip(freqs, keep, lattice)))] = \
        f.coeffs[np.ix_(*keep)]
    frames = np.moveaxis(_to_values(c, axes=(0, 1, 2)), 2, 0)
    del c
    kernel = _Nonlinearity(fine, SEM, batch=batch)
    nhat = np.empty((lattice[2], fine.nx, fine.ny // 2 + 1), dtype=complex)
    for j in range(0, lattice[2], batch):
        kernel(_to_half(frames[j:j + batch]), nhat[j:j + batch])
    del frames
    out = _to_coeffs(np.moveaxis(_from_half(nhat), 0, 2), axes=(0, 1, 2))
    rows = np.ix_(*(np.arange(2 * a, 2 * b + 1) % n for a, b, n in zip(low, high, lattice)))
    values = out[rows].copy()
    out[rows] = 0.0
    return CoefficientBox(values, tuple(2 * a for a in low)), float(np.max(np.abs(out)))


def fully_occupied(grid, nt, seed=0):
    """A random real field on every mode of the lattice off its Nyquist planes."""
    return random_bandlimited_spacetime(grid, TBOX, nt, seed, max_mode=grid.nx // 2 - 1,
                                        max_tmode=nt // 2 - 1)


class TestNonlinearBox:
    def test_single_free_mode(self):
        # For u = cos(theta), theta = x + 2y + 5t: u u_x = -sin(2 theta) / 2
        # and the gradient-potential terms contribute xi^2/r^2 + mu * ximu/r^2
        # = 1 at (xi, mu) = (1, 2), so the total is -sin(2 theta) / 2, whose
        # coefficients are +-1/4 at the doubled mode.
        f = cosine_field([(1, 2, 5, 1.0)])
        box = nonlinear_box(f)
        nz = np.argwhere(np.abs(box.values) > 1e-13)
        assert len(nz) == 2
        got = {}
        for idx in nz:
            mode = tuple(int(box.start[k] + idx[k]) for k in range(3))
            got[mode] = box.values[tuple(idx)]
        assert got[(2, 4, 10)] == pytest.approx(0.25j, abs=1e-13)
        assert got[(-2, -4, -10)] == pytest.approx(-0.25j, abs=1e-13)

    def test_output_weight_finite(self):
        f = cosine_field([(1, 2, 5, 1.0), (2, 0, 3, 0.4)])
        box = nonlinear_box(f)
        val = xsb_norm_box(box, G, TBOX, 1.0, -0.48)
        assert np.isfinite(val) and val > 0

    @pytest.mark.parametrize("field", [
        lambda: cosine_field([(1, 2, 5, 1.0)]),
        lambda: cosine_field([(1, 2, 5, 1.0), (2, -1, 3, 0.5), (0, 1, 1, 0.2)]),
        lambda: random_bandlimited_spacetime(Grid2D(16, 16, 2 * np.pi, 2 * np.pi), TBOX, 32, 5),
        lambda: fully_occupied(Grid2D(16, 16, 2 * np.pi, 2 * np.pi), 64),
    ], ids=["one-cosine", "three-cosines", "random-16x16x32", "full-16x16x64"])
    def test_matches_the_solver_kernel(self, field):
        # ROADMAP item 20: the convolution and the kernel are one
        # nonlinearity, to round-off
        f = field()
        box = nonlinear_box(f)
        ref, outside = kernel_nonlinear_box(f)
        assert ref.start == box.start and ref.values.shape == box.values.shape
        scale = np.max(np.abs(box.values))
        assert np.max(np.abs(ref.values - box.values)) <= 1e-13 * scale
        assert outside <= 1e-13 * scale


class TestBilinearBound:
    def test_values_and_regimes(self):
        bound, separated = bilinear_bound(2, 4, 2, 1)
        assert not separated
        assert bound == pytest.approx(2.0 * 1.0)
        bound, separated = bilinear_bound(1, 2, 4, 8)
        assert separated
        assert bound == pytest.approx(1.0 / 4.0 * math.sqrt(16.0))
        bound, separated = bilinear_bound(8, 1, 2, 1)
        assert separated
        assert bound == pytest.approx(math.sqrt(2.0) / 8.0)
        # a factor-two gap is still "comparable"
        _, separated = bilinear_bound(2, 1, 4, 1)
        assert not separated

    def test_symmetric_in_factors(self):
        assert bilinear_bound(1, 2, 8, 4) == bilinear_bound(8, 4, 1, 2)


class TestSeparatedFit:
    @staticmethod
    def synthetic(slope):
        trials = []
        for n_max, seed in [(4, 0), (4, 1), (8, 0), (8, 1)]:
            ratio = 0.3 * n_max**slope
            bound, separated = bilinear_bound(n_max // 4, 1, n_max, 1)
            trials.append(BlockTrial(n_max // 4, 1, n_max, 1, seed,
                                     ratio * bound, bound, separated))
        return trials

    def test_recovers_synthetic_slope(self):
        for slope in (-0.5, 0.0, 0.25):
            fitted = fit_separated_exponent(self.synthetic(slope))
            assert fitted == pytest.approx(slope, abs=1e-12)

    def test_ignores_wider_gaps(self):
        # Trials with a gap other than four never enter the fit, so a single
        # gap-four abscissa leaves the regression undetermined.
        bound, separated = bilinear_bound(1, 1, 8, 1)
        trials = [BlockTrial(1, 1, 8, 1, s, 0.1 * bound, bound, separated)
                  for s in range(3)]
        bound, separated = bilinear_bound(1, 1, 4, 1)
        trials += [BlockTrial(1, 1, 4, 1, 0, 0.1 * bound, bound, separated)]
        assert fit_separated_exponent(trials) is None

    @staticmethod
    def linregress_slope(trials):
        points = [(math.log(max(t.n1, t.n2)), math.log(t.ratio))
                  for t in trials
                  if t.separated and max(t.n1, t.n2) == 4 * min(t.n1, t.n2)
                  and t.product_norm > 0]
        return linregress(*zip(*points)).slope

    def test_slope_is_linregress_to_the_bit(self):
        cases = [self.synthetic(slope) for slope in (-0.5, 0.0, 0.25)]
        # two points: the fit through (log 4, .) and (log 8, .) alone
        cases.append([t for t in self.synthetic(0.3) if t.seed == 0])
        # a small coarse criterion-10 sweep: both gap-four pairs, two boxes
        # in modulation, three seeds
        cases.append(probe_block_bilinear(
            Grid2D(32, 32, 2 * np.pi, 2 * np.pi), TBOX, 512,
            n_pairs=((1, 4), (2, 8)), l_pairs=((1, 1), (2, 2)),
            seeds=(0, 1, 2)).trials)
        for trials in cases:
            fitted = fit_separated_exponent(trials)
            assert fitted == self.linregress_slope(trials)
        assert len(cases[3]) == 2


class TestBilinearProbe:
    def test_small_sweep_deterministic_and_finite(self):
        kwargs = dict(n_pairs=((1, 1), (1, 4)), l_pairs=((1, 1), (2, 2)),
                      seeds=(0, 1))
        rep1 = probe_block_bilinear(G, TBOX, 256, **kwargs)
        rep2 = probe_block_bilinear(G, TBOX, 256, **kwargs)
        assert rep1.trials == rep2.trials
        ratios = rep1.ratios()
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
        assert rep1.separated_count == 4
        assert len(rep1.trials) == 8

    @pytest.mark.parametrize("t_box", [True, 0.0, math.nan])
    def test_rejects_a_bad_t_box(self, t_box):
        with pytest.raises(ValueError, match="t_box must be positive and finite"):
            probe_block_bilinear(G, t_box, 256, n_pairs=((1, 1),), l_pairs=((1, 1),),
                                 seeds=(0,))
        with pytest.raises(ValueError, match="t_box must be positive and finite"):
            random_bandlimited_spacetime(G, t_box, 32, seed=0)

    def test_coarse_trials_obey_the_counting_bound(self):
        # Cauchy-Schwarz over the N(K) mode pairs that land on one output
        # mode K gives |u1 u2| <= sqrt(max_K N(K) / volume) for unit blocks.
        coarse = probe_block_bilinear(G, TBOX, 512)
        assert len(coarse.trials) == 960
        bounds = {}
        for t in coarse.trials:
            pair = (t.n1, t.l1, t.n2, t.l2)
            if pair not in bounds:
                boxes = []
                for n, l in ((t.n1, t.l1), (t.n2, t.l2)):
                    modes = block_modes(G, TBOX, 512, n, l)
                    modes = modes - modes.min(axis=0)
                    box = np.zeros(modes.max(axis=0) + 1)
                    box[tuple(modes.T)] = 1.0
                    boxes.append(box)
                count = np.rint(fftconvolve(*boxes)).max()
                bounds[pair] = math.sqrt(count / VOLUME)
            assert t.product_norm <= bounds[pair]
        assert len(bounds) == 96


def _loop_draw(seed, shape, cutoffs, skip_zero=False):
    """Reference for the random-field draw: one complex Gaussian per mode of
    the centered box in C order, added with its conjugate at the negated mode."""
    rng = np.random.default_rng(seed)
    c = np.zeros(shape, dtype=complex)
    for j in itertools.product(*(range(-m, m + 1) for m in cutoffs)):
        if skip_zero and not any(j):
            continue
        a = rng.standard_normal() + 1j * rng.standard_normal()
        c[tuple(np.mod(j, shape))] += 0.5 * a
        c[tuple(np.mod(np.negative(j), shape))] += 0.5 * np.conj(a)
    return c


#: draws on 2-D lattices with the zero mode left out, as random_low_mode_field
#: makes them, and on 3-D ones, as random_bandlimited_spacetime makes them
DRAWS = [
    ((32, 48), (5, 5), True, 0),
    ((16, 16), (4, 4), True, (16, 3)),
    ((16, 32, 64), (4, 4, 8), False, (3, 1)),
    ((8, 16, 8), (2, 3, 1), False, 11),
]


class TestLinearProbes:
    def test_random_data_refines_consistently(self):
        coarse = random_low_mode_field(G, seed=5)
        fine = random_low_mode_field(Grid2D(64, 64, 2 * np.pi, 2 * np.pi),
                                     seed=5)
        # Same trigonometric polynomial on both grids.
        assert coarse.l2() == pytest.approx(fine.l2(), rel=1e-12)
        assert coarse.values[0, 0] == pytest.approx(
            fine.values[0, 0], rel=1e-10)

    def test_too_coarse_grid_rejected(self):
        small = Grid2D(8, 8, 2 * np.pi, 2 * np.pi)
        with pytest.raises(ValueError, match="too coarse"):
            random_low_mode_field(small, seed=0)

    @pytest.mark.parametrize("shape, cutoffs, skip_zero, seed", DRAWS)
    def test_random_draw_matches_the_loop(self, shape, cutoffs, skip_zero, seed):
        ref = _loop_draw(seed, shape, cutoffs, skip_zero)
        assert np.array_equal(
            probes._random_hermitian(seed, shape, cutoffs, skip_zero=skip_zero), ref)

    @pytest.mark.parametrize("shape, cutoffs, skip_zero, seed", DRAWS)
    def test_random_draw_is_hermitian_to_the_bit(self, shape, cutoffs, skip_zero, seed):
        # random_low_mode_field inverts the scaled draw without the public
        # Hermitian check, which this stands in for
        c = probes._random_hermitian(seed, shape, cutoffs, skip_zero=skip_zero)
        assert _hermitian_defect(c) == 0.0
        assert _hermitian_defect(0.3 * c) == 0.0

    def test_random_fields_match_the_loop(self):
        grid = Grid2D(32, 48, 2 * np.pi, 3.0)
        low = random_low_mode_field(grid, 5, max_mode=5, amplitude=0.3)
        ref = SpectralField(grid, 0.3 * _loop_draw(5, (32, 48), (5, 5), True))
        assert np.array_equal(low.values, inverse_transform(ref).values)
        box = random_bandlimited_spacetime(grid, 1.0, 64, (3, 1))
        assert np.array_equal(box.coeffs, _loop_draw((3, 1), (32, 48, 64), (4, 4, 8)))

    def test_constants_deterministic_and_positive(self):
        rep1 = probe_linear_estimates(G, n_nodes=17, seed=3)
        rep2 = probe_linear_estimates(G, n_nodes=17, seed=3)
        assert rep1.constants == rep2.constants
        for value in rep1.constants.values():
            assert np.isfinite(value) and value > 0
        assert set(rep1.constants) == {"strichartz", "kato_smoothing",
                                       "maximal"}

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            probe_linear_estimates(G, horizon=-1.0)

    def test_constants_match_public_free_flow(self):
        # Reference: the free flow node by node through the public,
        # Hermitian-checked inverse transform.
        times = np.linspace(0.0, 1.0, 17)
        u0 = random_low_mode_field(G, seed=3)
        spec = forward_transform(u0)

        def path(kind=None):
            F = spec if kind is None else apply_multiplier(
                spec, make_multiplier(G, kind))
            return TrajectoryPath(G, times, [
                inverse_transform(propagator_apply(F, t)) for t in times])

        def norm(p, text):
            return mixed_norm(p, MixedNormDescriptor.from_string(text))

        u = path()
        kato = (norm(path("ddx"), "x:inf,y:2,T:2")
                + norm(path("ddy"), "x:inf,y:2,T:2"))
        expect = {
            "strichartz": norm(u, "T:3,x:inf,y:inf") / u0.l2(),
            "kato_smoothing": kato / u0.l2(),
            "maximal": norm(u, "x:2,y:inf,T:inf") / sobolev_norm(u0, 1.0),
        }
        rep = probe_linear_estimates(G, n_nodes=17, seed=3)
        assert set(rep.constants) == set(expect)
        for name, value in expect.items():
            assert rep.constants[name] == pytest.approx(value, rel=1e-13)


class TestFourthPowerProbe:
    def test_scale_invariant(self):
        f = cosine_field([(1, 2, 5, 1.0), (2, 0, 3, 0.4)])
        scaled = SpaceTimeField(G, TBOX, 7.5 * f.coeffs)
        assert probe_l4_estimate(f) == pytest.approx(
            probe_l4_estimate(scaled), rel=1e-12)

    def test_zero_input_rejected(self):
        zero = SpaceTimeField(G, TBOX,
                              np.zeros((G.nx, G.ny, NT), dtype=complex))
        with pytest.raises(ValueError, match="identically zero"):
            probe_l4_estimate(zero)

    def test_resonant_mode_hand_value(self):
        # For u = cos(theta) on the dispersion surface, |u^2| has L^2 norm
        # sqrt(V (1/4 + 1/8 + 1/8)) ... computed directly instead:
        f = cosine_field([(1, 2, 5, 1.0)])
        l4 = math.sqrt(product_l2(f, f))
        denom = xsb_norm(f, 0.0, 5.0 / 6.0 + 0.01)
        assert probe_l4_estimate(f) == pytest.approx(l4 / denom, rel=1e-12)


class TestNonlinearProbe:
    def test_quadratic_scaling(self):
        f = cosine_field([(1, 2, 5, 1.0), (2, 0, 3, 0.4)])
        one = probe_nonlinear_estimate(f)
        scaled = probe_nonlinear_estimate(
            SpaceTimeField(G, TBOX, 3.0 * f.coeffs))
        # Output norm is quadratic, input norm linear: the constant is scale
        # free.
        assert one.constant == pytest.approx(scaled.constant, rel=1e-12)
        assert scaled.output_norm == pytest.approx(9.0 * one.output_norm,
                                                   rel=1e-12)

    def test_embedding_invariance(self):
        # The same trigonometric polynomial on a finer spatial grid must give
        # the same probe constant: the coefficients are identical.
        triples = [(1, 2, 5, 1.0), (2, -1, 3, 0.5), (0, 1, 1, 0.2)]
        small = probe_nonlinear_estimate(cosine_field(triples))
        embed = probe_nonlinear_estimate(
            cosine_field(triples, grid=Grid2D(64, 64, 2 * np.pi, 2 * np.pi)))
        assert small.constant == pytest.approx(embed.constant, rel=1e-10)

    def test_zero_input_rejected(self):
        zero = SpaceTimeField(G, TBOX,
                              np.zeros((G.nx, G.ny, NT), dtype=complex))
        with pytest.raises(ValueError, match="identically zero"):
            probe_nonlinear_estimate(zero)


class TestBlockModes:
    def test_symmetric_under_negation(self):
        modes = block_modes(G, TBOX, 256, 2, 2)
        mode_set = set(map(tuple, modes.tolist()))
        assert mode_set == {(-a, -b, -c) for a, b, c in mode_set}

    def test_count_grows_with_shell(self):
        n1 = block_modes(G, TBOX, 256, 1, 1).shape[0]
        n4 = block_modes(G, TBOX, 256, 4, 1).shape[0]
        assert 0 < n1 < n4

    @pytest.mark.parametrize("grid", [G, FINE], ids=["coarse", "fine"])
    def test_a_sufficient_nt_keeps_its_modes_at_any_larger_nt(self, grid):
        # tau of an index jt is 2 pi jt / t_box whatever nt is, so once the jt
        # window of every plateau column fits in |jt| <= nt/2 - 1, a larger
        # nt, a power of two or not, keeps the same modes.
        for n in (1, 2, 4, 8):
            omega = np.abs(dispersion_values(grid))[frequency_weight(grid, n) == 1.0]
            for l in (1, 2, 8):
                nt = 2 * (math.ceil((omega.max() + 1.25 * l) * TBOX / (2 * np.pi)) + 2)
                modes = block_modes(grid, TBOX, nt, n, l)
                for larger in (nt + 2, 2 * nt, 3 * nt + 2, 8192):
                    assert np.array_equal(block_modes(grid, TBOX, larger, n, l), modes)

    @pytest.mark.parametrize("grid, kept", [
        (G, {1: (192, 588), 2: (128, 392), 4: (260, 784), 8: (512, 1568)}),
        (FINE, {1: (5856, 17574), 2: (4352, 12936), 8: (17456, 51420)}),
    ], ids=["coarse", "fine"])
    def test_criterion_10_truncates_every_n8_block(self, grid, kept):
        # Criterion 10's nt = 512 keeps |jt| <= 255; every n = 8 shell reaches
        # beyond, and block_modes drops those modes without a word.  nt = 8192
        # holds the whole block.
        for l, counts in kept.items():
            short = block_modes(grid, TBOX, 512, 8, l)
            whole = block_modes(grid, TBOX, 8192, 8, l)
            assert (short.shape[0], whole.shape[0]) == counts
            kept_rows = set(map(tuple, short.tolist()))
            assert kept_rows < set(map(tuple, whole.tolist()))
            dropped = np.array([m for m in whole.tolist() if tuple(m) not in kept_rows])
            assert np.abs(dropped[:, 2]).min() > 255
