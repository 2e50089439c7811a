"""Checkpoint round trips and corruption handling."""

import math
import struct

import numpy as np
import pytest

from semzk import cli
from semzk.config import RunConfig
from semzk.dynamics import SEM
from semzk.integrators import evolve
from semzk.scenarios import run_simulation
from semzk.snapshots import (
    EQUATION_TAGS,
    MAGIC,
    read_snapshot,
    write_snapshot,
)
from semzk.spectral import Grid2D, RealField, _from_half

G = Grid2D(16, 8, 3.0, 2.0)


def sample_field(seed=0):
    rng = np.random.default_rng(seed)
    return RealField(G, rng.standard_normal((G.nx, G.ny)))


def test_round_trip_bit_exact(tmp_path):
    field = sample_field()
    path = tmp_path / "state.snap"
    write_snapshot(path, field, time=1.25, equation="sem")
    snap = read_snapshot(path)
    assert snap.grid == G
    assert snap.time == 1.25
    assert snap.equation == "sem"
    assert snap.values.dtype == np.float64
    assert np.array_equal(snap.values, field.values)
    assert np.array_equal(snap.field().values, field.values)


def test_identical_rewrites_are_bit_identical(tmp_path):
    field = sample_field(3)
    p1, p2 = tmp_path / "a.snap", tmp_path / "b.snap"
    write_snapshot(p1, field, time=0.5)
    write_snapshot(p2, field, time=0.5)
    assert p1.read_bytes() == p2.read_bytes()


def test_all_equation_tags_round_trip(tmp_path):
    field = sample_field(1)
    for name in EQUATION_TAGS:
        path = tmp_path / f"{name}.snap"
        write_snapshot(path, field, time=0.0, equation=name)
        assert read_snapshot(path).equation == name


def test_unknown_equation_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown equation kind"):
        write_snapshot(tmp_path / "x.snap", sample_field(), time=0.0,
                       equation="burgers")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "state.snap"
    write_snapshot(path, sample_field(), time=0.0)
    raw = bytearray(path.read_bytes())
    raw[:6] = b"NOTMAG"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="bad snapshot magic/version"):
        read_snapshot(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "state.snap"
    write_snapshot(path, sample_field(), time=0.0)
    raw = bytearray(path.read_bytes())
    raw[6:10] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="bad snapshot magic/version"):
        read_snapshot(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "state.snap"
    write_snapshot(path, sample_field(), time=0.0)
    raw = path.read_bytes()
    path.write_bytes(raw[:-17])
    with pytest.raises(ValueError, match="truncated"):
        read_snapshot(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "state.snap"
    path.write_bytes(MAGIC[:4])
    with pytest.raises(ValueError, match="bad snapshot magic/version"):
        read_snapshot(path)


def test_trailing_data_rejected(tmp_path):
    path = tmp_path / "state.snap"
    write_snapshot(path, sample_field(), time=0.0)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing data"):
        read_snapshot(path)


# ---------------------------------------------------------------------------
# format versions: samples (1) and half spectrum (2)


HEADER_FORMAT = "<6sIIIdddB"
HEADER_BYTES = struct.calcsize(HEADER_FORMAT)
#: the byte offset of the f64 time: after the magic, three u32 and lx, ly
TIME_OFFSET = struct.calcsize("<6sIIIdd")


def pack_version_1(path, field, *, time, equation="sem"):
    """A version-1 file packed by hand from the layout, not by the writer."""
    g = field.grid
    header = struct.pack(HEADER_FORMAT, MAGIC, 1, g.nx, g.ny, g.lx, g.ly, time,
                         EQUATION_TAGS[equation])
    path.write_bytes(header + field.values.astype("<f8").tobytes())


def marched_field(seed=0):
    """A field that holds its half spectrum, as the solvers hand out."""
    return evolve(sample_field(seed), SEM, 0.02, 0.01).fields[-1]


def test_plain_field_is_written_as_samples(tmp_path):
    path = tmp_path / "state.snap"
    write_snapshot(path, sample_field(), time=0.0)
    snap = read_snapshot(path)
    assert snap.version == 1
    assert path.stat().st_size == HEADER_BYTES + 8 * G.nx * G.ny
    assert snap.field()._half is None


def test_hand_packed_version_1_loads(tmp_path):
    values = sample_field(4).values
    path = tmp_path / "old.snap"
    pack_version_1(path, sample_field(4), time=0.75)
    snap = read_snapshot(path)
    assert (snap.version, snap.time, snap.equation) == (1, 0.75, "sem")
    assert np.array_equal(snap.values, values)
    assert np.array_equal(snap.field().values, values)


def test_restart_from_version_1_runs(tmp_path):
    grid = Grid2D(16, 16, 2 * math.pi, 2 * math.pi)
    u0 = RealField(grid, 0.1 * np.random.default_rng(5).standard_normal((16, 16)))
    path = tmp_path / "old.snap"
    pack_version_1(path, u0, time=0.5)
    rep = run_simulation(RunConfig(
        equation="sem", nx=16, ny=16, lx=grid.lx, ly=grid.ly, T=0.03, dt=0.01,
        initial="snapshot", initial_path=str(path), out_dir=str(tmp_path / "run")))
    assert rep.summary["t_start"] == 0.5
    marched = evolve(u0, SEM, 0.03, 0.01, t0=0.5).fields[-1]
    assert np.array_equal(rep.final.values, marched.values)
    # the run's own final snapshot is a version-2 file
    assert read_snapshot(tmp_path / "run" / "snapshots" / "final.snap").version == 2


def test_half_spectrum_round_trip_bit_exact(tmp_path):
    field = marched_field(6)
    path = tmp_path / "state.snap"
    write_snapshot(path, field, time=0.02, equation="sem")
    snap = read_snapshot(path)
    assert snap.version == 2
    assert path.stat().st_size == HEADER_BYTES + 16 * G.nx * (G.ny // 2 + 1)
    assert snap.payload.dtype == np.complex128
    assert np.array_equal(snap.payload, field._half)
    loaded = snap.field()
    assert np.array_equal(loaded._half, field._half)
    assert loaded._half is not snap.payload
    assert np.array_equal(loaded.values, _from_half(snap.payload))
    assert np.array_equal(snap.values, loaded.values)
    # and the loaded field writes the same bytes again
    again = tmp_path / "again.snap"
    write_snapshot(again, loaded, time=0.02, equation="sem")
    assert again.read_bytes() == path.read_bytes()


def test_half_spectrum_length_and_values_checked(tmp_path):
    path = tmp_path / "state.snap"
    write_snapshot(path, marched_field(7), time=0.0)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_snapshot(path)
    path.write_bytes(raw + b"\x00" * 16)
    with pytest.raises(ValueError, match="trailing data"):
        read_snapshot(path)
    path.write_bytes(raw[:-8] + struct.pack("<d", math.nan))
    with pytest.raises(ValueError, match="non-finite"):
        read_snapshot(path).field()


@pytest.mark.parametrize("time", [math.inf, -math.inf, math.nan])
def test_non_finite_header_time_rejected(tmp_path, time):
    path = tmp_path / "state.snap"
    write_snapshot(path, sample_field(), time=0.5)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, TIME_OFFSET, time)
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="^snapshot time must be a finite real number"):
        read_snapshot(path)


def test_restart_from_a_non_finite_time_writes_nothing(tmp_path, capsys):
    grid = Grid2D(16, 16, 2 * math.pi, 2 * math.pi)
    path = tmp_path / "state.snap"
    write_snapshot(path, RealField(grid, np.zeros((16, 16))), time=0.0, equation="zk")
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, TIME_OFFSET, math.inf)
    path.write_bytes(raw)
    out = tmp_path / "run"
    status = cli.main(["simulate", "nx=16", "ny=16", "ly=6.283185307179586",
                       "lx=6.283185307179586", "T=0.01", "dt=0.01", "initial=snapshot",
                       f"initial_path={path}", "--out", str(out)])
    assert status == 1
    assert "snapshot time must be a finite real number" in capsys.readouterr().err
    assert not out.exists()
