"""Product norms, weighted norms, and the three probe families."""

import math
import tracemalloc

import numpy as np
import pytest

from semzk.dyadic import (
    SparseBlock,
    SpaceTimeField,
    block_modes,
    random_block_sparse,
)
from semzk.probes import (
    BlockTrial,
    bilinear_bound,
    fit_separated_exponent,
    nonlinear_box,
    probe_block_bilinear,
    probe_l4_estimate,
    probe_linear_estimates,
    probe_nonlinear_estimate,
    product_l2,
    random_low_mode_field,
    sparse_product_l2,
    xsb_norm,
    xsb_norm_box,
)
from semzk.dynamics import propagator_apply
from semzk.integrators import TrajectoryPath
from semzk.norms import MixedNormDescriptor, mixed_norm, sobolev_norm
from semzk.spectral import (
    Grid2D,
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
        b2 = random_block_sparse(G, TBOX, 512, 8, 1, seed=(0, 8, 1, 2),
                                 shift=(1.0, 2.0, 3.0))
        rng = np.random.default_rng(7)

        def complex_values(b):
            # random complex coefficients: the field is no longer real
            n = b.modes.shape[0]
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return SparseBlock(b.grid, b.t_box, b.nt, b.modes, v)

        def shuffled(b):
            order = rng.permutation(b.modes.shape[0])
            return SparseBlock(b.grid, b.t_box, b.nt, b.modes[order],
                               b.values[order])

        empty = SparseBlock(G, TBOX, 512, np.zeros((0, 3), dtype=int),
                            np.zeros(0, dtype=complex))
        cases = [(b1, b2),
                 (complex_values(b1), complex_values(b2)),
                 (shuffled(complex_values(b1)), shuffled(b2)),
                 (b1, empty)]
        for f1, f2 in cases:
            sparse = sparse_product_l2(f1, f2)
            dense = product_l2(f1.to_field(), f2.to_field())
            assert sparse == pytest.approx(dense, rel=1e-12)
        assert sparse_product_l2(empty, b2) == 0.0

    def test_sparse_memory_bounded_by_plane(self):
        # The fine criterion-10 pair n=(1, 4), l=(8, 8): 17M mode pairs.
        # Accumulating one output x-plane at a time keeps the peak near the
        # largest plane's pairs; a global lattice of pairs needs ~600 MB.
        fine = Grid2D(160, 160, 12 * np.pi, 12 * np.pi)
        b1 = random_block_sparse(fine, TBOX, 512, 1, 8, seed=(0, 1, 8, 1))
        b2 = random_block_sparse(fine, TBOX, 512, 4, 8, seed=(0, 4, 8, 2))
        tracemalloc.start()
        try:
            sparse_product_l2(b1, b2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_sparse_rejects_mismatched_lattices(self):
        b1 = random_block_sparse(G, TBOX, 64, 1, 1, seed=1)
        b2 = random_block_sparse(G, TBOX, 128, 1, 1, seed=1)
        with pytest.raises(ValueError, match="different space-time lattices"):
            sparse_product_l2(b1, b2)


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

    def test_shared_shift_changes_overlap(self):
        shared = probe_block_bilinear(G, TBOX, 256, n_pairs=((1, 4),),
                                      l_pairs=((1, 1),), seeds=(0,))
        independent = probe_block_bilinear(G, TBOX, 256, n_pairs=((1, 4),),
                                           l_pairs=((1, 1),), seeds=(0,),
                                           share_shift=False)
        # Co-located packets overlap more than independently placed ones.
        assert shared.max_ratio() > independent.max_ratio()


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
