"""Command-line front end for the experiment drivers.

Every run subcommand reads an optional TOML configuration file, applies
``key=value`` overrides from the command line, and hands the resolved
configuration to the matching driver in :mod:`semzk.scenarios`.  Its one
line of results is read back from the ``summary.json`` the run just wrote.
Exit codes: 0 on success, 2 for usage or configuration problems, 1 for
runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .config import RunConfig
from .dynamics import KINDS
from .scenarios import (
    _WINDOW_DOUBLINGS,
    run_instability,
    run_picard_demo,
    run_probe_bilinear,
    run_probe_linear,
    run_probe_nonlinear,
    run_simulation,
    run_soliton_benchmark,
)

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """Configuration or argument problem; maps to exit code 2."""


def _simulate_line(s: dict) -> str:
    return (f"evolved {s['equation']} to t={s['t_final']:g}; "
            f"I2 {s['i2_initial']:.6g} -> {s['i2_final']:.6g}")


def _soliton_line(s: dict) -> str:
    return (f"shape error {s['shape_error']:.3e}, crest off by "
            f"{s['crest_error_cells']:.3f} cells, "
            f"I2 drift {s['i2_drift']:.3e}")


def _instability_line(s: dict) -> str:
    sig = "none" if s["sigma"] is None else f"{s['sigma']:.6f}"
    line = f"k_y={s['k_y']:.4f}: sigma={sig}"
    if s["flags"]:
        line += " (" + "; ".join(s["flags"]) + ")"
    return line


def _picard_line(s: dict) -> str:
    state = "converged" if s["converged"] else "did not converge"
    line = f"{state} in {s['iterations']} sweeps"
    if s["existence_window"] is not None:
        line += f"; contraction holds out to T={s['existence_window']:g}"
        if s["window_search_capped"]:
            line += (" (the search stopped at its cap of "
                     f"{_WINDOW_DOUBLINGS} doublings)")
    return line


def _probe_linear_line(s: dict) -> str:
    return (f"constants stable to {100 * s['max_stability']:.2f}% "
            f"under refinement")


def _probe_bilinear_line(s: dict) -> str:
    expo = s["separated_exponent"]
    expo_text = "n/a" if expo is None else f"{expo:+.4f}"
    return (f"{s['n_trials']} trials, max ratio {s['max_ratio']:.4f}, "
            f"separated exponent {expo_text}")


def _probe_nonlinear_line(s: dict) -> str:
    return f"{s['n_trials']} trials, max constant {s['max_constant']:.4e}"


# subcommand -> (help, driver, result line from the run's summary.json)
_COMMANDS = {
    "simulate": ("evolve an initial state and record diagnostics and "
                 "snapshots", run_simulation, _simulate_line),
    "soliton-bench": ("propagate the exact travelling wave and measure the "
                      "error", run_soliton_benchmark, _soliton_line),
    "instability": ("grow a transverse perturbation on the soliton and fit "
                    "its rate", run_instability, _instability_line),
    "picard": ("run the fixed-point iteration and record contraction "
               "ratios", run_picard_demo, _picard_line),
    "probe-linear": ("measure free-flow mixed-norm constants",
                     run_probe_linear, _probe_linear_line),
    "probe-bilinear": ("measure dyadic block product norms",
                       run_probe_bilinear, _probe_bilinear_line),
    "probe-nonlinear": ("measure quadratic-output norms on random space-time "
                        "fields", run_probe_nonlinear, _probe_nonlinear_line),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semzk",
        description="Spectral experiments for a Zakharov-Kuznetsov-type "
                    "equation and its nonlocal surface-dynamics variant.")
    parser.add_argument("--version", action="version",
                        version=f"semzk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE",
                       help="configuration file (TOML key = value pairs)")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (overrides out_dir)")
        p.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                       help="configuration overrides")
    sub.add_parser("info", help="print version and build configuration")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise _UsageError(f"config file not found: {path}")
        try:
            cfg = RunConfig.from_file(path)
        except ValueError as exc:
            raise _UsageError(f"{path}: {exc}") from exc
    else:
        cfg = RunConfig()
    try:
        cfg = cfg.with_overrides(args.overrides)
        # --out is used as given, after (and over) the overrides
        return cfg if args.out is None else cfg.replace(out_dir=args.out)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_info() -> int:
    import numpy
    print(f"semzk {__version__}")
    print(f"python {sys.version.split()[0]}, numpy {numpy.__version__}")
    print(f"equations: {', '.join(KINDS)}")
    print("grids: nx, ny even and >= 8; two-thirds dealiasing; "
          "Nyquist rows zeroed by every multiplier")
    cfg = RunConfig()
    print(f"defaults: equation={cfg.equation} nx={cfg.nx} ny={cfg.ny} "
          f"lx={cfg.lx:g} ly={cfg.ly:g} T={cfg.T:g} dt={cfg.dt:g}")
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    _, driver, result_line = _COMMANDS[args.command]
    driver(cfg)
    out = Path(cfg.out_dir)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    print(result_line(summary))
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    # The overrides are one positional list, which ends at the first option;
    # the overrides after an option come back as extras and join the list.
    args, extras = parser.parse_known_args(argv)
    if extras:
        if not hasattr(args, "overrides") or any(e.startswith("-") for e in extras):
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.overrides += extras
    if args.command == "info":
        return _cmd_info()
    try:
        return _dispatch(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
