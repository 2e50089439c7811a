"""Run configuration: a flat key-value file format and its typed container.

The on-disk format is a TOML subset chosen to stay human-diffable: one
``key = value`` pair per line, ``#`` comments, scalar values (quoted string,
integer, float, true/false) and flat arrays of scalars.  No tables, no
multi-line values.  The same scalar grammar parses command-line overrides,
except that an unquoted override value falls back to a bare string, so
``equation=sem`` works without shell quoting.

Every run directory receives the fully resolved configuration in this
format; re-running it reproduces the run bit for bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace

from .dynamics import KINDS as EQUATION_KINDS
from .spectral import Grid2D

__all__ = [
    "parse_toml_text",
    "parse_toml_file",
    "parse_scalar",
    "format_toml",
    "PERTURBATION_SHAPES",
    "INITIAL_KINDS",
    "RunConfig",
]

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_INT_RE = re.compile(r"^[+-]?\d+$")

PERTURBATION_SHAPES = ("sinusoidal-in-y", "localized-gaussian")
INITIAL_KINDS = ("soliton", "random", "snapshot")


def _strip_comment(value: str) -> str:
    quoted = False
    for pos, char in enumerate(value):
        if char == '"':
            quoted = not quoted
        elif char == "#" and not quoted:
            return value[:pos].rstrip()
    return value


def _parse_string(value: str, where: str) -> str:
    body = value[1:-1]
    out = []
    pos = 0
    while pos < len(body):
        char = body[pos]
        if char == "\\":
            if pos + 1 >= len(body) or body[pos + 1] not in '\\"':
                raise ValueError(f"{where}: unsupported escape in string")
            out.append(body[pos + 1])
            pos += 2
        elif char == '"':
            raise ValueError(f"{where}: unescaped quote in string")
        else:
            out.append(char)
            pos += 1
    return "".join(out)


def _split_array(body: str, where: str) -> list:
    items, depth, quoted, start = [], 0, False, 0
    for pos, char in enumerate(body):
        if char == '"' and (pos == 0 or body[pos - 1] != "\\"):
            quoted = not quoted
        elif quoted:
            continue
        elif char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        elif char == "," and depth == 0:
            items.append(body[start:pos])
            start = pos + 1
    if quoted or depth != 0:
        raise ValueError(f"{where}: unterminated array")
    items.append(body[start:])
    return [item.strip() for item in items if item.strip()]


def parse_scalar(value: str, where: str = "value"):
    """Parse one TOML-subset value: string, bool, int, float, or flat array."""
    value = value.strip()
    if not value:
        raise ValueError(f"{where}: empty value")
    if value.startswith('"'):
        if len(value) < 2 or not value.endswith('"'):
            raise ValueError(f"{where}: unterminated string")
        return _parse_string(value, where)
    if value.startswith("["):
        if not value.endswith("]"):
            raise ValueError(f"{where}: unterminated array")
        return tuple(parse_scalar(item, where)
                     for item in _split_array(value[1:-1], where))
    if value == "true":
        return True
    if value == "false":
        return False
    if _INT_RE.match(value):
        return int(value)
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{where}: cannot parse value {value!r}") from None


def parse_toml_text(text: str) -> dict:
    """Parse flat ``key = value`` lines into a dict, preserving order."""
    data: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw.strip())
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ValueError(f"line {lineno}: invalid key {key!r}")
        if key in data:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        data[key] = parse_scalar(value, f"line {lineno}")
    return data


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
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
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
    """

    equation: str = "zk"
    nx: int = 256
    ny: int = 32
    lx: float = 80.0
    ly: float = 6.283185307179586
    T: float = 1.0
    dt: float = 0.002
    initial: str = "soliton"
    initial_path: str = ""
    amplitude: float = 0.01
    omega: float = 1.0
    x0: float = 20.0
    perturbation_shape: str = "sinusoidal-in-y"
    perturbation_amplitude: float = 0.0
    perturbation_wavenumber: int = 1
    window_low: float = 3.0
    window_high: float = 0.1
    diagnostic_stride: int = 10
    snapshot_stride: int = 0
    out_dir: str = "runs/run"
    seed: int = 0
    norms: tuple = ()
    heatmaps: bool = False
    t_box: float = 6.283185307179586
    nt: int = 256
    probe_seeds: int = 10
    probe_trials: int = 30
    probe_nodes: int = 65
    picard_nodes: int = 65
    picard_tol: float = 1e-8

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"config field {f.name} must be finite")
        if self.equation not in EQUATION_KINDS:
            raise ValueError(f"unknown equation kind {self.equation!r}")
        if self.initial not in INITIAL_KINDS:
            raise ValueError(f"unknown initial condition {self.initial!r}")
        if self.initial == "snapshot" and not self.initial_path:
            raise ValueError("initial = \"snapshot\" needs initial_path")
        if self.perturbation_shape not in PERTURBATION_SHAPES:
            raise ValueError(
                f"unknown perturbation shape {self.perturbation_shape!r}")
        for name in ("lx", "ly", "dt", "omega", "window_low", "window_high",
                     "t_box", "picard_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"config field {name} must be positive")
        if self.T < 0:
            raise ValueError("config field T must be nonnegative")
        if self.amplitude < 0 or self.perturbation_amplitude < 0:
            raise ValueError("amplitudes must be nonnegative")
        if self.diagnostic_stride < 1:
            raise ValueError("diagnostic_stride must be at least 1")
        if self.snapshot_stride < 0:
            raise ValueError("snapshot_stride must be nonnegative")
        if self.snapshot_stride and self.snapshot_stride % self.diagnostic_stride:
            raise ValueError(
                "snapshot_stride must be a multiple of diagnostic_stride")
        if self.perturbation_wavenumber < 0:
            raise ValueError("perturbation_wavenumber must be nonnegative")
        if self.nt < 4 or self.nt % 2:
            raise ValueError("nt must be an even integer >= 4")
        for name in ("probe_seeds", "probe_trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"config field {name} must be at least 1")
        for name in ("probe_nodes", "picard_nodes"):
            if getattr(self, name) < 2:
                raise ValueError(f"config field {name} must be at least 2")
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")
        if not all(isinstance(entry, str) for entry in self.norms):
            raise ValueError("norms must be a list of descriptor strings")
        self.grid()  # reject impossible grid dimensions up front

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        known = {f.name: f for f in fields(cls)}
        values = {}
        for key, value in mapping.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            target = known[key].type
            if target == "float" and isinstance(value, int) \
                    and not isinstance(value, bool):
                value = float(value)
            if target == "tuple" and isinstance(value, str):
                value = (value,)
            if target == "int" and (isinstance(value, bool)
                                    or not isinstance(value, int)):
                raise ValueError(f"config key {key!r} must be an integer")
            if target == "float" and not isinstance(value, float):
                raise ValueError(f"config key {key!r} must be a number")
            if target == "str" and not isinstance(value, str):
                raise ValueError(f"config key {key!r} must be a string")
            if target == "bool" and not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be true or false")
            values[key] = value
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_mapping(parse_toml_file(path))

    def with_overrides(self, overrides) -> "RunConfig":
        """Apply ``key=value`` strings; unquoted values may be bare strings."""
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
        merged = dict(self.to_mapping())
        merged.update(updates)
        return type(self).from_mapping(merged)

    def to_mapping(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def resolved_text(self) -> str:
        return format_toml(self.to_mapping())

    def grid(self) -> Grid2D:
        return Grid2D(self.nx, self.ny, self.lx, self.ly)

    def replace(self, **changes) -> "RunConfig":
        return replace(self, **changes)
