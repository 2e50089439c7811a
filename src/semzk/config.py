"""Run configuration: TOML run files and their typed container.

Run files are TOML, read by the standard library's ``tomllib`` (Python >=
3.11).  A configuration is flat: ``key = value`` pairs whose values are
strings, integers, floats, booleans or arrays of them; :class:`RunConfig`
checks every value when it is built, however it is built.  Command-line
overrides are single TOML values, except that a value TOML cannot read
falls back to a bare string, so ``equation=sem`` works without shell
quoting.

Every run directory receives the fully resolved configuration in this
format; re-running it reproduces the run bit for bit.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, fields, replace

from .dyadic import _check_nt
from .dynamics import KINDS as EQUATION_KINDS
from .norms import _snapshot_descriptors
from .spectral import Grid2D, _integer, _real

__all__ = [
    "parse_toml_text",
    "parse_toml_file",
    "parse_scalar",
    "format_toml",
    "PERTURBATION_SHAPES",
    "INITIAL_KINDS",
    "RunConfig",
]

PERTURBATION_SHAPES = ("sinusoidal-in-y", "localized-gaussian")
INITIAL_KINDS = ("soliton", "random", "snapshot")

# the type each non-numeric field annotation admits, and how an error names it
_FIELD_KINDS = {"str": (str, "a string"), "bool": (bool, "true or false"),
                "tuple": (tuple, "an array of strings")}

# A TOML basic string must escape the quote, the backslash and the control
# characters but tab; tab is escaped too, so no written value holds one.
_ESCAPES = {ord("\\"): "\\\\", ord('"'): '\\"',
            **{c: f"\\u{c:04X}" for c in (*range(0x20), 0x7F)}}


def _key(default, **bound):
    """A numeric key's default and its bound: the keywords its annotation's
    rule (``_real``: ``positive``, ``nonnegative``; ``_integer``: ``least``)
    takes."""
    return field(default=default, metadata={"bound": bound})


def _arrays_as_tuples(value):
    if isinstance(value, list):
        return tuple(_arrays_as_tuples(item) for item in value)
    return value


def parse_scalar(value: str, where: str = "value"):
    """Parse one TOML value: string, bool, int, float, array (as a tuple).

    Raises ``tomllib.TOMLDecodeError`` (a ``ValueError``) on invalid TOML,
    and ``ValueError`` if the text holds more than the value, such as a
    second key after a newline.
    """
    data = tomllib.loads(f"v = {value}")
    if len(data) != 1:
        raise ValueError(f"{where}: expected a single value, got {value!r}")
    return _arrays_as_tuples(data["v"])


def parse_toml_text(text: str) -> dict:
    """Parse a TOML document into a dict in file order, arrays as tuples."""
    return {key: _arrays_as_tuples(value)
            for key, value in tomllib.loads(text).items()}


def parse_toml_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_toml_text(handle.read())


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return f'"{value.translate(_ESCAPES)}"'
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_format_value(item) for item in value) + "]"
    raise TypeError(f"cannot format config value of type {type(value).__name__}")


def format_toml(mapping: dict) -> str:
    """Serialize a flat mapping; parse_toml_text inverts this exactly."""
    lines = [f"{key} = {_format_value(value)}" for key, value in mapping.items()]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: equation, grid, schedule, outputs, seeds.

    The soliton fields are consulted only by scenarios that involve the
    traveling wave; the perturbation fields only by the instability scenario
    (amplitude zero means no perturbation).  `norms` lists extra mixed-norm
    descriptors (without a time axis) appended as diagnostics columns.

    ``__post_init__``, which every way of building a config runs, is the one
    place it is checked; any failure is a ``ValueError``.  A numeric key
    declares its bound beside its default and goes through the API's one
    scalar rule (``spectral._real`` for a float, ``spectral._integer`` for
    an int): numpy scalars are stored as Python numbers, a bool is neither,
    and the message starts with the key's name.  `nx` and `ny` follow
    `Grid2D`'s rule and `nt` the space-time lattice's (even, and at least 8
    or 4).  A string or a list for `norms` becomes a tuple.
    """

    equation: str = "zk"
    nx: int = 256  # Grid2D's rule
    ny: int = 32
    lx: float = _key(80.0, positive=True)
    ly: float = _key(6.283185307179586, positive=True)
    T: float = _key(1.0, nonnegative=True)
    dt: float = _key(0.002, positive=True)
    initial: str = "soliton"
    initial_path: str = ""
    amplitude: float = _key(0.01, nonnegative=True)
    omega: float = _key(1.0, positive=True)
    x0: float = _key(20.0)
    perturbation_shape: str = "sinusoidal-in-y"
    perturbation_amplitude: float = _key(0.0, nonnegative=True)
    perturbation_wavenumber: int = _key(1, least=0)
    window_low: float = _key(3.0, positive=True)
    window_high: float = _key(0.1, positive=True)
    diagnostic_stride: int = _key(10, least=1)
    snapshot_stride: int = _key(0, least=0)
    out_dir: str = "runs/run"
    seed: int = _key(0, least=0)
    norms: tuple = ()
    heatmaps: bool = False
    t_box: float = _key(6.283185307179586, positive=True)
    nt: int = 256  # dyadic._check_nt
    probe_seeds: int = _key(10, least=1)
    probe_trials: int = _key(30, least=1)
    probe_nodes: int = _key(65, least=2)
    picard_nodes: int = _key(65, least=2)
    picard_tol: float = _key(1e-8, positive=True)
    picard_find_window: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if "bound" in f.metadata:
                rule = _real if f.type == "float" else _integer
                value = rule(f.name, value, **f.metadata["bound"])
            elif f.type in _FIELD_KINDS:
                if f.type == "tuple" and isinstance(value, (str, list)):
                    value = (value,) if isinstance(value, str) else tuple(value)
                kind, expected = _FIELD_KINDS[f.type]
                if not isinstance(value, kind) or (
                        f.type == "tuple" and not all(isinstance(e, str) for e in value)):
                    raise ValueError(f"config key {f.name!r} must be {expected}")
            object.__setattr__(self, f.name, value)
        # nx, ny and nt declare no bound: the grid's rule and the lattice's
        # check them and store them as ints
        grid = self.grid()
        object.__setattr__(self, "nx", grid.nx)
        object.__setattr__(self, "ny", grid.ny)
        object.__setattr__(self, "nt", _check_nt(self.nt))
        _snapshot_descriptors(self.norms)
        if self.equation not in EQUATION_KINDS:
            raise ValueError(f"unknown equation kind {self.equation!r}")
        if not self.out_dir:
            raise ValueError("config field out_dir must not be empty")
        if self.initial not in INITIAL_KINDS:
            raise ValueError(f"unknown initial condition {self.initial!r}")
        if self.initial == "snapshot" and not self.initial_path:
            raise ValueError("initial = \"snapshot\" needs initial_path")
        if self.perturbation_shape not in PERTURBATION_SHAPES:
            raise ValueError(
                f"unknown perturbation shape {self.perturbation_shape!r}")
        if self.snapshot_stride and self.snapshot_stride % self.diagnostic_stride:
            raise ValueError(
                "snapshot_stride must be a multiple of diagnostic_stride")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        for key in mapping:
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
        return cls(**mapping)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_mapping(parse_toml_file(path))

    def with_overrides(self, overrides) -> "RunConfig":
        """Apply ``key=value`` strings; each value is one TOML value, or a
        bare string where TOML cannot read it."""
        updates = {}
        known = {f.name: f for f in fields(self)}
        for item in overrides:
            if "=" not in item:
                raise ValueError(f"override {item!r} is not of the form "
                                 "key=value")
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            try:
                parsed = parse_scalar(value, f"override {key}")
            except ValueError:
                parsed = value.strip()
            if known[key].type == "str" and not isinstance(parsed, str):
                parsed = value.strip()
            updates[key] = parsed
        return self.replace(**updates)

    def to_mapping(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def resolved_text(self) -> str:
        return format_toml(self.to_mapping())

    def grid(self) -> Grid2D:
        return Grid2D(self.nx, self.ny, self.lx, self.ly)

    def replace(self, **changes) -> "RunConfig":
        return replace(self, **changes)
