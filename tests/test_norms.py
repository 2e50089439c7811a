"""Conserved quantities, Sobolev norms, and mixed space-time norms."""

import tracemalloc

import numpy as np
import pytest

from semzk.norms import (
    DiagnosticsRecord,
    MixedNormDescriptor,
    conserved_I1,
    conserved_I2,
    diagnostics_header,
    mixed_norm,
    sobolev_norm,
)
from semzk.spectral import Grid2D, RealField
from semzk.integrators import TrajectoryPath

G = Grid2D(32, 16, 2 * np.pi, 4 * np.pi)


def const_field(c, grid=G):
    return RealField(grid, np.full((grid.nx, grid.ny), float(c)))


def test_conserved_quantities_constants():
    u = const_field(3.0)
    area = G.lx * G.ly
    assert conserved_I1(u) == pytest.approx(3.0 * area, rel=1e-14)
    assert conserved_I2(u) == pytest.approx(9.0 * area, rel=1e-14)


def test_conserved_quantities_cosine():
    u = RealField(G, np.cos(2 * np.pi * G.x / G.lx)[:, None] * np.ones((1, G.ny)))
    assert abs(conserved_I1(u)) <= 1e-12
    # integral of cos^2 over a full period is half the area
    assert conserved_I2(u) == pytest.approx(0.5 * G.lx * G.ly, rel=1e-12)


def test_sobolev_s0_is_l2():
    rng = np.random.default_rng(0)
    u = RealField(G, rng.standard_normal((G.nx, G.ny)))
    assert sobolev_norm(u, 0.0) == pytest.approx(u.l2(), rel=1e-12)
    assert sobolev_norm(u, 0.0) == pytest.approx(np.sqrt(conserved_I2(u)), rel=1e-12)


def test_sobolev_single_mode_weights():
    # cos(x): wavenumber magnitude 1, H^1 weight (1 + 1) = 2 over the L^2 norm
    u = RealField(G, np.cos(G.x)[:, None] * np.ones((1, G.ny)))
    assert sobolev_norm(u, 1.0) == pytest.approx(2.0 * u.l2(), rel=1e-12)
    assert sobolev_norm(u, 2.0) == pytest.approx(4.0 * u.l2(), rel=1e-12)


def test_sobolev_monotone_in_s():
    rng = np.random.default_rng(1)
    u = RealField(G, rng.standard_normal((G.nx, G.ny)))
    vals = [sobolev_norm(u, s) for s in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# mixed norms


def snapshot_path(values_list, T, grid=G):
    times = np.linspace(0.0, T, len(values_list))
    fields = [RealField(grid, v) for v in values_list]
    return TrajectoryPath(grid, times, fields)


def test_descriptor_parse_and_label():
    d = MixedNormDescriptor.from_string("x:inf,y:2,T:2")
    assert d.label == "x:inf,y:2,T:2"
    assert MixedNormDescriptor.from_string(d.label) == d
    assert d.entries == (("x", np.inf), ("y", 2.0), ("T", 2.0))
    with pytest.raises(ValueError):
        MixedNormDescriptor.from_string("x:2,x:2,T:2")
    with pytest.raises(ValueError):
        MixedNormDescriptor.from_string("x:2,y:7,T:2")
    with pytest.raises(ValueError):
        MixedNormDescriptor.from_string("x:2,z:2,T:2")
    # a bool is no exponent, though float(True) is 1.0, and neither is a
    # string, though float("2") is 2.0
    for p, shown in ((True, "True"), (np.bool_(True), "True"), ("2", "'2'"), (None, "None")):
        with pytest.raises(ValueError, match=f"^mixed-norm exponent {shown} not in"):
            MixedNormDescriptor((("x", p), ("y", 2), ("T", 2)))
    assert MixedNormDescriptor((("x", np.float64(np.inf)), ("y", np.int64(2)))).entries == \
        (("x", np.inf), ("y", 2.0))


def test_mixed_norm_constant_closed_form():
    c = 2.0
    T = 3.0
    path = snapshot_path([np.full((G.nx, G.ny), c)] * 5, T)
    # all-2 norm of a constant: c * sqrt(lx*ly*T)
    d = MixedNormDescriptor.from_string("x:2,y:2,T:2")
    assert mixed_norm(path, d) == pytest.approx(c * np.sqrt(G.lx * G.ly * T), rel=1e-12)
    # sup in everything
    d = MixedNormDescriptor.from_string("x:inf,y:inf,T:inf")
    assert mixed_norm(path, d) == pytest.approx(c, rel=1e-14)
    # L^1 in time only, sup in space
    d = MixedNormDescriptor.from_string("x:inf,y:inf,T:1")
    assert mixed_norm(path, d) == pytest.approx(c * T, rel=1e-12)


def test_mixed_norm_all2_permutation_invariant():
    rng = np.random.default_rng(2)
    path = snapshot_path([rng.standard_normal((G.nx, G.ny)) for _ in range(7)], 1.3)
    vals = [mixed_norm(path, MixedNormDescriptor.from_string(s))
            for s in ("x:2,y:2,T:2", "T:2,x:2,y:2", "y:2,T:2,x:2")]
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[0] == pytest.approx(vals[2], rel=1e-12)


def brute_mixed(path, entries):
    """Reference evaluation: nested loops over the reduction order."""
    arr = np.abs(np.stack([f.values for f in path.fields], axis=-1))  # (nx, ny, nt)
    axis_of = {"x": 0, "y": 1, "T": 2}
    weights = {
        "x": np.full(path.grid.nx, path.grid.dx),
        "y": np.full(path.grid.ny, path.grid.dy),
    }
    t = path.times
    tw = np.zeros(len(t))
    if len(t) > 1:
        tw[:-1] += 0.5 * np.diff(t)
        tw[1:] += 0.5 * np.diff(t)
    weights["T"] = tw
    for name, p in reversed(entries):
        ax = axis_of[name]
        live = [axis_of[n] for n, _ in entries]
        pos = sorted(live).index(ax)
        if np.isinf(p):
            arr = arr.max(axis=pos)
        else:
            w = weights[name]
            shape = [1] * arr.ndim
            shape[pos] = len(w)
            arr = (np.sum(arr**p * w.reshape(shape), axis=pos)) ** (1.0 / p)
        entries = [e for e in entries if e[0] != name]
    return float(arr)


@pytest.mark.parametrize("spec", [
    "x:2,y:2,T:2",
    "T:3,x:inf,y:2",
    "x:inf,y:2,T:2",
    "x:2,y:inf,T:inf",
    "T:1,y:4,x:2",
    "y:inf,T:3,x:1",
])
def test_mixed_norm_matches_bruteforce(spec):
    rng = np.random.default_rng(hash(spec) % 2**32)
    path = snapshot_path([rng.standard_normal((G.nx, G.ny)) for _ in range(6)], 0.9)
    d = MixedNormDescriptor.from_string(spec)
    assert mixed_norm(path, d) == pytest.approx(brute_mixed(path, list(d.entries)), rel=1e-12)


def test_mixed_norm_single_snapshot_space_only():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((G.nx, G.ny))
    path = snapshot_path([v], 0.0)
    u = RealField(G, v)
    # a sup over the single time node is that snapshot's space norm
    for text in ("x:2,y:2", "T:inf,x:2,y:2"):
        d = MixedNormDescriptor.from_string(text)
        assert mixed_norm(path, d) == pytest.approx(u.l2(), rel=1e-12)


def test_mixed_norm_memory_one_path_buffer():
    # the norm works in one stacked copy of the path: abs, power and the
    # time weights are applied in place
    grid = Grid2D(256, 256, 2 * np.pi, 2 * np.pi)
    rng = np.random.default_rng(5)
    frames = [rng.standard_normal((grid.nx, grid.ny)) for _ in range(3)]
    path = TrajectoryPath(grid, np.array([0.0, 0.5, 1.0]), [RealField(grid, v) for v in frames])
    path_bytes = sum(v.nbytes for v in frames)
    for text in ("x:inf,y:2,T:2", "T:2,x:2,y:2"):
        d = MixedNormDescriptor.from_string(text)
        tracemalloc.start()
        try:
            mixed_norm(path, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * path_bytes, text


def test_mixed_norm_error_cases():
    rng = np.random.default_rng(4)
    multi = snapshot_path([rng.standard_normal((G.nx, G.ny)) for _ in range(3)], 1.0)
    with pytest.raises(ValueError, match="omits the time axis"):
        mixed_norm(multi, MixedNormDescriptor.from_string("x:2,y:2"))
    single = snapshot_path([rng.standard_normal((G.nx, G.ny))], 0.0)
    with pytest.raises(ValueError, match="at least two snapshots"):
        mixed_norm(single, MixedNormDescriptor.from_string("x:2,y:2,T:2"))


def test_diagnostics_record_roundtrip():
    rec = DiagnosticsRecord(time=0.25, i1=1.5, i2=2.5, norms={"H1": 3.5, "Linf_x L2_y": 0.5})
    keys = ["H1", "Linf_x L2_y"]
    assert diagnostics_header(keys) == ["time", "I1", "I2", "H1", "Linf_x L2_y"]
    assert rec.to_row(keys) == [0.25, 1.5, 2.5, 3.5, 0.5]
    with pytest.raises(KeyError):
        rec.to_row(["missing"])
