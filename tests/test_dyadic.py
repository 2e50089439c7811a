"""Smooth dyadic cutoffs, shell projections, and random blocks."""

import tracemalloc
import warnings

import numpy as np
import pytest

from semzk.dyadic import (
    ANNULUS_PLATEAU,
    ANNULUS_SUPPORT,
    BUMP_PLATEAU,
    BUMP_SUPPORT,
    SpaceTimeField,
    SparseBlock,
    _conjugate_partner,
    annulus,
    block_modes,
    bump,
    dispersion_values,
    dyadic_levels,
    frequency_radius,
    frequency_weight,
    modulation_values,
    modulation_weight,
    project_frequency,
    project_modulation,
    random_block,
    random_block_sparse,
    smooth_step,
    spacetime_from_snapshots,
    tau_values,
)
from semzk.spectral import Grid2D

G = Grid2D(32, 32, 2 * np.pi, 2 * np.pi)


def test_smooth_step_saturates_exactly():
    assert smooth_step(-3.0) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(7.5) == 1.0
    assert smooth_step(0.5) == 0.5  # symmetry point
    t = np.linspace(-0.5, 1.5, 401)
    s = smooth_step(t)
    assert np.all(np.diff(s) >= 0)
    assert np.all((s >= 0) & (s <= 1))
    # complementary symmetry
    u = np.linspace(0.01, 0.99, 99)
    assert np.max(np.abs(smooth_step(u) + smooth_step(1 - u) - 1)) <= 1e-12


def test_bump_plateau_and_support():
    assert bump(0.0) == 1.0
    assert bump(BUMP_PLATEAU) == 1.0
    assert bump(-BUMP_PLATEAU) == 1.0
    assert bump(BUMP_SUPPORT) == 0.0
    assert bump(2.0) == 0.0
    mid = bump(0.5 * (BUMP_PLATEAU + BUMP_SUPPORT))
    assert 0.0 < mid < 1.0
    x = np.linspace(-3, 3, 601)
    assert np.array_equal(bump(x), bump(-x))


def test_annulus_plateau_and_support():
    lo_p, hi_p = ANNULUS_PLATEAU
    lo_s, hi_s = ANNULUS_SUPPORT
    assert annulus(lo_p) == 1.0
    assert annulus(1.0) == 1.0
    assert annulus(hi_p) == 1.0
    assert annulus(lo_s) == 0.0
    assert annulus(hi_s) == 0.0
    assert annulus(0.0) == 0.0
    assert 0.0 < annulus(0.7) < 1.0
    assert 0.0 < annulus(1.4) < 1.0


def test_dyadic_levels():
    assert dyadic_levels(1.0) == (1,)
    assert dyadic_levels(1.25) == (1,)
    assert dyadic_levels(10.0) == (1, 2, 4, 8)
    assert dyadic_levels(10.1) == (1, 2, 4, 8, 16)
    with pytest.raises(ValueError):
        dyadic_levels(0.0)


def test_frequency_partition_of_unity_exact():
    r = frequency_radius(G)
    total = sum(frequency_weight(G, n) for n in dyadic_levels(float(r.max())))
    # division by powers of two is exact, so the shells telescope to the bit
    assert np.array_equal(total, np.ones_like(total))


def test_modulation_partition_of_unity_exact():
    nt = 64
    m = modulation_values(G, 2 * np.pi, nt)
    levels = dyadic_levels(float(np.abs(m).max()))
    total = sum(modulation_weight(G, 2 * np.pi, nt, l) for l in levels)
    assert np.array_equal(total, np.ones_like(total))


def test_shells_widely_separated_are_disjoint():
    w = {n: frequency_weight(G, n) for n in (1, 2, 4, 8, 16)}
    assert np.all(w[4] * w[1] == 0.0)
    assert np.all(w[8] * w[2] == 0.0)
    assert np.all(w[16] * w[4] == 0.0)
    # adjacent shells genuinely overlap
    assert np.any(w[2] * w[1] > 0.0)
    assert np.any(w[4] * w[2] > 0.0)


def test_dense_weights_retain_nothing():
    # One (64, 64, 256) weight is 8 MiB; once the caller drops it, nothing of
    # it may stay behind, however many boxes and levels were asked for.
    grid = Grid2D(64, 64, 2 * np.pi, 2 * np.pi)
    nbytes = grid.nx * grid.ny * 256 * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        for t_box, l in ((1.0, 1), (2.0, 4), (2 * np.pi, 16)):
            assert modulation_weight(grid, t_box, 256, l).nbytes == nbytes
            frequency_weight(grid, l)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < nbytes


def _reference_profiles():
    """bump and annulus spelled out with full-size temporaries: the formulas
    of the module docstring, in the operation order the in-place evaluation
    has to reproduce."""
    def step(t):
        out = np.zeros_like(t)
        out[t >= 1.0] = 1.0
        mid = (t > 0.0) & (t < 1.0)
        a = np.exp(-1.0 / t[mid])
        b = np.exp(-1.0 / (1.0 - t[mid]))
        out[mid] = a / (a + b)
        return out

    def ref_bump(x):
        edge = BUMP_SUPPORT - BUMP_PLATEAU
        return 1.0 - step((np.abs(x) - BUMP_PLATEAU) / edge)

    return ref_bump, lambda x: ref_bump(x) - ref_bump(2.0 * x)


def _reference_shell(x, level):
    ref_bump, ref_annulus = _reference_profiles()
    return ref_bump(x) if level == 1 else ref_annulus(x / level)


def test_weights_match_the_reference_formulas():
    grid = Grid2D(32, 16, 40.0, 6.0)
    for n in (1, 2, 4, 8, 16):
        assert np.array_equal(frequency_weight(grid, n),
                              _reference_shell(frequency_radius(grid), n))
    for t_box, l in ((2 * np.pi, 1), (2 * np.pi, 2), (1.0, 4), (10.0, 8)):
        m = modulation_values(grid, t_box, 64)
        assert np.array_equal(modulation_weight(grid, t_box, 64, l),
                              _reference_shell(m, l))
    # the ramp ends, the plateau edges and the inner cut at |x| = 4/5
    x = np.concatenate([
        np.linspace(-2.0, 2.0, 4001),
        [0.625, 0.8, np.nextafter(0.8, 0.0), np.nextafter(0.8, 1.0), 1.25,
         1.6, np.nextafter(1.6, 0.0), 0.0, -0.0, np.inf, -np.inf]])
    x_before = x.copy()
    ref_bump, ref_annulus = _reference_profiles()
    assert np.array_equal(bump(x), ref_bump(x))
    assert np.array_equal(annulus(x), ref_annulus(x))
    assert np.array_equal(x, x_before)  # the public profiles copy their input
    assert isinstance(bump(0.7), float) and isinstance(annulus(0.7), float)


@pytest.mark.parametrize("l", [1, 2])
def test_modulation_weight_peak_memory(l):
    # One call holds the weight itself plus boolean masks and the transition
    # bands; a full-size temporary per ramp or per bump would exceed 3x.
    grid = Grid2D(64, 64, 2 * np.pi, 2 * np.pi)
    tracemalloc.start()
    try:
        w = modulation_weight(grid, 2 * np.pi, 256, l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * w.nbytes


def test_level_validation():
    with pytest.raises(ValueError, match="power of two"):
        frequency_weight(G, 3)
    with pytest.raises(ValueError, match="power of two"):
        modulation_weight(G, 2 * np.pi, 16, 0)


@pytest.mark.parametrize("t_box", [0.0, -1.0, np.inf, -np.inf, np.nan])
def test_block_modes_rejects_a_bad_t_box(t_box):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t_box must be positive and finite"):
            block_modes(G, t_box, 32, 1, 1)


def _set_t_box(field, t_box):
    field.t_box = t_box
    return field


T_BOX_USERS = {
    "tau_values": lambda t_box: tau_values(t_box, 16),
    "modulation_values": lambda t_box: modulation_values(G, t_box, 16),
    "modulation_weight": lambda t_box: modulation_weight(G, t_box, 16, 1),
    "project_modulation": lambda t_box: project_modulation(
        _set_t_box(SpaceTimeField(G, 1.0, np.zeros((G.nx, G.ny, 16))), t_box), 1),
    "SpaceTimeField": lambda t_box: SpaceTimeField(G, t_box, np.zeros((G.nx, G.ny, 16))),
    "spacetime_from_snapshots": lambda t_box: spacetime_from_snapshots(
        G, t_box, np.zeros((G.nx, G.ny, 16))),
    "block_modes": lambda t_box: block_modes(G, t_box, 32, 1, 1),
    "SparseBlock": lambda t_box: SparseBlock(G, t_box, 16, np.zeros((0, 3), dtype=int),
                                             np.zeros(0)),
    "random_block_sparse": lambda t_box: random_block_sparse(G, t_box, 32, 1, 1, seed=0),
}


@pytest.mark.parametrize("t_box", [True, False, 0.0, -1.0, np.inf, -np.inf, np.nan,
                                   "1.0", 1j], ids=repr)
@pytest.mark.parametrize("user", sorted(T_BOX_USERS))
def test_every_t_box_goes_through_one_check(user, t_box):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t_box must be positive and finite"):
            T_BOX_USERS[user](t_box)


@pytest.mark.parametrize("t_box", [2, np.float32(2.0), np.int64(2), np.float64(2.0)],
                         ids=repr)
def test_t_box_scalars_are_stored_as_floats(t_box):
    field = SpaceTimeField(G, t_box, np.zeros((G.nx, G.ny, 16)))
    assert type(field.t_box) is float and field.t_box == 2.0
    assert np.array_equal(tau_values(t_box, 16), tau_values(2.0, 16))
    assert np.array_equal(block_modes(G, t_box, 32, 1, 1), block_modes(G, 2.0, 32, 1, 1))
    block = random_block_sparse(G, t_box, 32, 1, 1, seed=0)
    assert type(block.t_box) is float


def test_spacetime_field_validation_and_parseval():
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((G.nx, G.ny, 16))
    f = spacetime_from_snapshots(G, 2 * np.pi, frames)
    dt = 2 * np.pi / 16
    direct = np.sqrt(np.sum(frames**2) * G.dx * G.dy * dt)
    assert f.l2() == pytest.approx(direct, rel=1e-12)
    back = f.physical()
    assert np.max(np.abs(back - frames)) <= 1e-12
    with pytest.raises(ValueError, match="shape"):
        SpaceTimeField(G, 2 * np.pi, np.zeros((4, 4, 8), dtype=complex))
    with pytest.raises(ValueError, match="even"):
        SpaceTimeField(G, 2 * np.pi, np.zeros((G.nx, G.ny, 7), dtype=complex))
    with pytest.raises(ValueError, match="t_box"):
        SpaceTimeField(G, -1.0, np.zeros((G.nx, G.ny, 8), dtype=complex))
    bad = np.zeros((G.nx, G.ny, 8), dtype=complex)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        SpaceTimeField(G, 2 * np.pi, bad)
    # refused as the frames handed in, before the transform
    for value in (np.nan, np.inf, -np.inf):
        frames[1, 2, 3] = value
        with pytest.raises(ValueError, match="^non-finite frames$"):
            spacetime_from_snapshots(G, 2 * np.pi, frames)


def test_builders_refuse_results_beyond_the_float_range():
    # frames that overflow in the transform, and a block whose normalizing
    # volume underflows to zero
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="^non-finite coefficients$"):
            spacetime_from_snapshots(Grid2D(16, 16, 1.0, 1.0), 1.0, np.full((16, 16, 16), 1e305))
        with pytest.raises(ValueError, match="^non-finite coefficients$"):
            random_block_sparse(Grid2D(16, 16, 1e-160, 1e-160), 1e-5, 16, 1, 1, seed=0)


@pytest.mark.parametrize("shape", [(4, 4, 8), (G.nx, G.ny), (G.nx, G.ny, 8, 1)])
def test_space_time_shapes_name_the_array(shape):
    with pytest.raises(ValueError, match=r"^frames shape .* does not match grid"):
        spacetime_from_snapshots(G, 2 * np.pi, np.zeros(shape))
    with pytest.raises(ValueError, match=r"^coefficients shape .* does not match grid"):
        SpaceTimeField(G, 2 * np.pi, np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("size", [1.0, 1e-11])
def test_physical_rejects_non_hermitian(size):
    # the defect is relative, so a small spectrum has no absolute floor to
    # hide under
    c = np.zeros((G.nx, G.ny, 8), dtype=complex)
    c[1, 0, 1] = size  # no conjugate partner
    with pytest.raises(ValueError, match="^non-Hermitian spectrum$"):
        SpaceTimeField(G, 2 * np.pi, c).physical()


def test_free_solution_lives_at_zero_modulation():
    """cos(x + 2y + 5t) satisfies tau = dispersion, so the low shell keeps it."""
    small = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    nt = 64
    t = np.arange(nt) * 2 * np.pi / nt
    xx = small.x[:, None, None]
    yy = small.y[None, :, None]
    frames = np.cos(xx + 2 * yy + 5.0 * t[None, None, :])
    f = spacetime_from_snapshots(small, 2 * np.pi, frames)
    kept = project_modulation(f, 1)
    assert np.max(np.abs(kept.coeffs - f.coeffs)) <= 1e-12
    for l in (8, 16):
        assert project_modulation(f, l).l2() <= 1e-12


def test_single_mode_on_shell_keeps_weight_one():
    c = np.zeros((G.nx, G.ny, 16), dtype=complex)
    # mode (xi, mu) = (1, 0) has dispersion 1; place tau = 1 + 4 so m = 4
    c[1, 0, 5] = 1.0
    f = SpaceTimeField(G, 2 * np.pi, c)
    out = project_modulation(f, 4)
    assert out.coeffs[1, 0, 5] == 1.0
    assert project_modulation(f, 1).coeffs[1, 0, 5] == 0.0


def test_frequency_projection_matches_weight():
    rng = np.random.default_rng(1)
    frames = rng.standard_normal((G.nx, G.ny, 8))
    f = spacetime_from_snapshots(G, 2 * np.pi, frames)
    w = frequency_weight(G, 2)
    out = project_frequency(f, 2)
    assert np.max(np.abs(out.coeffs - f.coeffs * w[:, :, None])) == 0.0


def test_dispersion_and_tau_tables():
    assert dispersion_values(G)[1, 2] == pytest.approx(5.0, abs=1e-12)
    assert dispersion_values(G)[2, 1] == pytest.approx(10.0, abs=1e-12)
    tau = tau_values(2 * np.pi, 16)
    assert tau[3] == pytest.approx(3.0, abs=1e-13)
    assert tau[-3] == pytest.approx(-3.0, abs=1e-13)


class TestRandomBlock:
    def test_unit_norm_and_real(self):
        blk = random_block(G, 2 * np.pi, 64, 2, 2, seed=0)
        assert blk.l2() == pytest.approx(1.0, rel=1e-12)
        vals = blk.physical()  # raises if not Hermitian
        assert vals.shape == (G.nx, G.ny, 64)

    def test_support_on_plateaus(self):
        n, l = 4, 2
        blk = random_block(G, 2 * np.pi, 64, n, l, seed=3)
        nz = np.abs(blk.coeffs) > 0
        wf = np.broadcast_to(frequency_weight(G, n)[:, :, None], nz.shape)
        wm = modulation_weight(G, 2 * np.pi, 64, l)
        assert np.all(wf[nz] == 1.0)
        assert np.all(wm[nz] == 1.0)
        # projections act as the identity on the block
        assert np.array_equal(project_frequency(blk, n).coeffs, blk.coeffs)
        assert np.array_equal(project_modulation(blk, l).coeffs, blk.coeffs)

    def test_nyquist_planes_empty(self):
        blk = random_block(G, 2 * np.pi, 32, 8, 4, seed=5)
        assert np.all(blk.coeffs[G.nx // 2, :, :] == 0.0)
        assert np.all(blk.coeffs[:, G.ny // 2, :] == 0.0)
        assert np.all(blk.coeffs[:, :, 16] == 0.0)

    def test_deterministic_per_seed(self):
        a = random_block(G, 2 * np.pi, 64, 2, 4, seed=11)
        b = random_block(G, 2 * np.pi, 64, 2, 4, seed=11)
        c = random_block(G, 2 * np.pi, 64, 2, 4, seed=12)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert np.any(a.coeffs != c.coeffs)

    def test_empty_block_raises(self):
        with pytest.raises(ValueError, match="no modes"):
            random_block(G, 2 * np.pi, 64, 4096, 1, seed=0)
        # tau only reaches +-7 here, far below the l = 64 plateau
        with pytest.raises(ValueError, match="no modes"):
            random_block(G, 2 * np.pi, 16, 1, 64, seed=0)


class TestSparseBlock:
    def block(self, modes, values=None, nt=8):
        modes = np.asarray(modes)
        if values is None:
            values = np.ones(modes.shape[0])
        return SparseBlock(G, 2 * np.pi, nt, modes, values)

    def test_rejects_duplicate_modes(self):
        # summed by the sparse product but overwritten by to_field, the two
        # copies gave 63.0 against 15.7 dense
        with pytest.raises(ValueError, match="unique"):
            self.block([[1, 1, 1], [-1, -1, -1], [1, 1, 1]])
        with pytest.raises(ValueError, match="unique"):
            self.block([[0, 0, 0], [1, -2, 3], [-1, 2, -3], [0, 0, 0]])

    def test_rejects_modes_outside_the_lattice(self):
        # to_field would wrap 16 onto -16 and 4 onto -4
        for mode in ([16, 0, 0], [0, -17, 0], [0, 0, 4], [0, 0, -5]):
            with pytest.raises(ValueError, match=r"\[-n/2, n/2\)"):
                self.block([[0, 0, 0], mode, [-j for j in mode]])
        edge = self.block([[-15, -15, -3], [15, 15, 3]])
        assert edge.to_field().coeffs[15, 15, 3] == 1.0
        assert edge.to_field().coeffs[17, 17, 5] == 1.0

    def test_rejects_non_integer_modes(self):
        with pytest.raises(ValueError, match="integers"):
            self.block(np.array([[0.0, 1.0, 1.0], [0.0, -1.0, -1.0]]))
        with pytest.raises(ValueError, match="integers"):
            self.block(np.array([[True, False, True]]))

    def test_rejects_complex_values(self):
        with pytest.raises(ValueError, match="real"):
            self.block([[1, 2, 3], [-1, -2, -3]], np.ones(2, dtype=complex))

    def test_rejects_a_missing_negation(self):
        with pytest.raises(ValueError, match="negation"):
            self.block([[0, 0, 0], [1, 2, 3]])
        # a mode at -n/2 has no negation on the lattice
        with pytest.raises(ValueError, match="negation"):
            self.block([[-16, -16, -4], [15, 15, 3]])
        with pytest.raises(ValueError, match="negation"):
            self.block([[-15, 1, 2], [15, -1, -2], [0, -16, 0]])

    def test_rejects_a_value_one_ulp_off_its_partner(self):
        blk = random_block_sparse(G, 2 * np.pi, 512, 4, 2, seed=(1, 4, 2, 1))
        values = blk.values.copy()
        values[3] = np.nextafter(values[3], np.inf)
        with pytest.raises(ValueError, match="even"):
            SparseBlock(G, blk.t_box, blk.nt, blk.modes, values)

    def test_accepts_lists(self):
        blk = SparseBlock(G, 2 * np.pi, 8, [[1, 2, 3], [-1, -2, -3]],
                          [0.5, 0.5])
        assert isinstance(blk.modes, np.ndarray)
        assert isinstance(blk.values, np.ndarray)
        assert blk.l2() == self.block([[1, 2, 3], [-1, -2, -3]],
                                      np.array([0.5, 0.5])).l2()

    def test_rejects_non_finite_values(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                self.block([[1, 2, 3], [-1, -2, -3]], np.array([bad, bad]))

    def test_holds_float32_values_as_float64(self):
        # l2() sums in the values' dtype: held as float32, these values read
        # 1.0 where their float64 sum reads 1.0000000049975601
        blk = random_block_sparse(G, 2 * np.pi, 512, 4, 2, seed=1)
        single = blk.values.astype(np.float32)
        held = SparseBlock(G, blk.t_box, blk.nt, blk.modes, single)
        assert held.values.dtype == np.float64
        wide = single.astype(np.float64)
        assert np.array_equal(held.values, wide)
        assert held.l2() == float(np.sqrt(held.volume * np.sum(wide ** 2)))

    def test_accepts_an_empty_block(self):
        empty = self.block(np.zeros((0, 3), dtype=int))
        assert empty.l2() == 0.0
        assert not np.any(empty.to_field().coeffs)

    def test_random_blocks_are_positive(self):
        # the probe's worst case is reached on nonnegative coefficients
        blk = random_block_sparse(G, 2 * np.pi, 64, 2, 4, seed=3)
        assert blk.values.dtype == np.float64
        assert np.all(blk.values > 0.0)

    def test_conjugate_partner(self):
        blk = random_block_sparse(G, 2 * np.pi, 64, 2, 4, seed=3)
        partner = _conjugate_partner(blk.modes)
        assert np.array_equal(blk.modes[partner], -blk.modes)
        assert np.array_equal(partner[partner], np.arange(partner.size))
        # modes in key order; a mode at -n/2 has no negation on the lattice
        modes = np.array([[-16, 1, 2], [-1, -2, -3], [0, 0, 0], [1, 2, 3]])
        assert _conjugate_partner(modes) is None
        assert np.array_equal(_conjugate_partner(modes[1:]), [2, 1, 0])
        assert _conjugate_partner(np.zeros((0, 3), dtype=int)).size == 0
