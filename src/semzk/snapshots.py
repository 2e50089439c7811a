"""Binary checkpoint files for a single real field on a periodic grid.

Layout (all little-endian, no padding): the 6-byte magic ``SEMZK1``, a u32
format version, u32 grid dimensions nx and ny, f64 domain sizes lx and ly,
the f64 simulation time, a u8 equation tag, then the payload in row-major
order, which the version names:

* version 1, the samples: nx*ny f64 field values;
* version 2, the half spectrum: nx*(ny/2+1) complex128 series coefficients
  (see :mod:`semzk.spectral`), each an f64 real part then an f64 imaginary
  part, the columns ``k = 0 .. ny/2`` of each row ``j`` in FFT order.

A field that holds its half spectrum (the solvers hand out such fields) is
written as version 2, any other as version 1; both are read.  Round trips
are bit-exact, of the samples and of the spectrum, so a run restarted from
a version-2 snapshot marches from the very state the earlier run stopped
in, which is what makes restart equivalence checks meaningful.
The time must be a finite real, on write and on read: :func:`write_snapshot`
refuses any other ``time`` and :func:`read_snapshot` a header time of NaN or
inf, each with a ``ValueError`` that names the time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .spectral import Grid2D, RealField, _from_half, _half_ncols, _real, _validate_values

__all__ = [
    "MAGIC",
    "VERSION",
    "EQUATION_TAGS",
    "Snapshot",
    "write_snapshot",
    "read_snapshot",
]

MAGIC = b"SEMZK1"
#: the newest format version, written for a field that holds its half spectrum
VERSION = 2
#: every version read, by the dtype of its payload
_PAYLOAD_DTYPES = {1: "<f8", 2: "<c16"}

#: stable on-disk codes for the equation kinds
EQUATION_TAGS = {"linear": 0, "zk": 1, "sem": 2, "sem_on_soliton": 3}
_TAG_NAMES = {v: k for k, v in EQUATION_TAGS.items()}

_HEADER = struct.Struct("<6sIIIdddB")


@dataclass(frozen=True)
class Snapshot:
    """A decoded checkpoint: grid geometry, time stamp, equation, and the
    payload of its format ``version``: the field's samples (1) or its half
    spectrum (2)."""

    grid: Grid2D
    time: float
    equation: str
    payload: np.ndarray
    version: int

    @property
    def values(self) -> np.ndarray:
        """The field's samples (transformed from a half-spectrum payload)."""
        return self.payload if self.version == 1 else _from_half(self.payload)

    def field(self) -> RealField:
        """The payload as a live field on the reconstructed grid; from a
        half spectrum, a field that holds a copy of it."""
        if self.version == 1:
            return RealField(self.grid, self.payload.copy())
        half = _validate_values(self.payload, self.grid, np.complex128, "spectrum",
                                (self.grid.nx, _half_ncols(self.grid)))
        return RealField._of_half(self.grid, half.copy())


def write_snapshot(path, field: RealField, *, time: float,
                   equation: str = "zk") -> None:
    """Write one field to `path` in the checkpoint format: its half spectrum
    (version 2) when it holds one, else its samples (version 1).

    `equation` must be one of the known kind names; it is stored as a tag so
    a restarted run can verify it resumes the same dynamics.
    """
    if equation not in EQUATION_TAGS:
        raise ValueError(f"unknown equation kind {equation!r}")
    time = _real("time", time)
    grid = field.grid
    version = 1 if field._half is None else 2
    header = _HEADER.pack(MAGIC, version, grid.nx, grid.ny,
                          grid.lx, grid.ly, time, EQUATION_TAGS[equation])
    data = field.values if version == 1 else field._half
    payload = np.ascontiguousarray(data, dtype=_PAYLOAD_DTYPES[version])
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(payload.tobytes())


def read_snapshot(path) -> Snapshot:
    """Read and validate a checkpoint written by :func:`write_snapshot`."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < _HEADER.size:
        raise ValueError("bad snapshot magic/version: header incomplete")
    magic, version, nx, ny, lx, ly, time, tag = _HEADER.unpack_from(raw)
    if magic != MAGIC or version not in _PAYLOAD_DTYPES:
        raise ValueError(
            f"bad snapshot magic/version: got {magic!r} v{version}, "
            f"expected {MAGIC!r} v1 or v2")
    if tag not in _TAG_NAMES:
        raise ValueError(f"unknown equation tag {tag} in snapshot")
    dtype = _PAYLOAD_DTYPES[version]
    count = nx * (ny if version == 1 else ny // 2 + 1)
    expected = _HEADER.size + np.dtype(dtype).itemsize * count
    if len(raw) < expected:
        raise ValueError(
            f"snapshot truncated: expected {expected} bytes, got {len(raw)}")
    if len(raw) > expected:
        raise ValueError(
            f"snapshot has trailing data: expected {expected} bytes, "
            f"got {len(raw)}")
    payload = np.frombuffer(raw, dtype=dtype, count=count,
                            offset=_HEADER.size).reshape(nx, -1).copy()
    grid = Grid2D(nx, ny, lx, ly)
    return Snapshot(grid, _real("snapshot time", time), _TAG_NAMES[tag], payload, version)
