"""Command-line front end for the experiment drivers.

Every run subcommand reads an optional TOML configuration file, applies
``key=value`` overrides from the command line, and hands the resolved
configuration to the matching driver in :mod:`semzk.scenarios`.  Exit codes:
0 on success, 2 for usage or configuration problems, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import RunConfig
from .dynamics import KINDS
from .scenarios import (
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semzk",
        description="Spectral experiments for a Zakharov-Kuznetsov-type "
                    "equation and its nonlocal surface-dynamics variant.")
    parser.add_argument("--version", action="version",
                        version=f"semzk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE",
                       help="configuration file (TOML key = value pairs)")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (overrides out_dir)")
        p.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                       help="configuration overrides")
        return p

    add_run_command("simulate", "evolve an initial state and record "
                                "diagnostics and snapshots")
    bench = add_run_command("soliton-bench", "propagate the exact travelling "
                                             "wave and measure the error")
    bench.add_argument("--omega", type=float, default=None,
                       help="soliton speed parameter")
    bench.add_argument("--T", type=float, default=None, dest="horizon",
                       help="propagation time")
    add_run_command("instability", "grow a transverse perturbation on the "
                                   "soliton and fit its rate")
    picard = add_run_command("picard", "run the fixed-point iteration and "
                                       "record contraction ratios")
    picard.add_argument("--find-window", action="store_true",
                        help="double the horizon until contraction fails")
    add_run_command("probe-linear", "measure free-flow mixed-norm constants")
    add_run_command("probe-bilinear", "measure dyadic block product norms")
    add_run_command("probe-nonlinear", "measure quadratic-output norms on "
                                       "random space-time fields")
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
    # the flags are used as given, after (and over) the overrides
    flags = {"out_dir": args.out, "omega": getattr(args, "omega", None),
             "T": getattr(args, "horizon", None)}
    try:
        return cfg.with_overrides(args.overrides).replace(
            **{key: value for key, value in flags.items() if value is not None})
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_info() -> int:
    import numpy
    import scipy
    print(f"semzk {__version__}")
    print(f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}")
    print(f"equations: {', '.join(KINDS)}")
    print("grids: nx, ny even and >= 8; two-thirds dealiasing; "
          "Nyquist rows zeroed by every multiplier")
    cfg = RunConfig()
    print(f"defaults: equation={cfg.equation} nx={cfg.nx} ny={cfg.ny} "
          f"lx={cfg.lx:g} ly={cfg.ly:g} T={cfg.T:g} dt={cfg.dt:g}")
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    cmd = args.command
    if cmd == "simulate":
        rep = run_simulation(cfg)
        print(f"evolved {cfg.equation} to t={rep.summary['t_final']:g}; "
              f"I2 {rep.summary['i2_initial']:.6g} -> "
              f"{rep.summary['i2_final']:.6g}")
        out = rep.out_dir
    elif cmd == "soliton-bench":
        rep = run_soliton_benchmark(cfg)
        print(f"shape error {rep.shape_error:.3e}, crest off by "
              f"{rep.crest_error_cells:.3f} cells, "
              f"I2 drift {rep.i2_drift:.3e}")
        out = rep.out_dir
    elif cmd == "instability":
        rep = run_instability(cfg)
        sig = "none" if rep.sigma is None else f"{rep.sigma:.6f}"
        line = f"k_y={rep.k_y:.4f}: sigma={sig}"
        if rep.flags:
            line += " (" + "; ".join(rep.flags) + ")"
        print(line)
        out = rep.out_dir
    elif cmd == "picard":
        rep = run_picard_demo(cfg, find_window=args.find_window)
        state = "converged" if rep.report.converged else "did not converge"
        line = f"{state} in {rep.report.iterations} sweeps"
        if rep.existence_window is not None:
            line += f"; contraction holds out to T={rep.existence_window:g}"
        print(line)
        out = rep.out_dir
    elif cmd == "probe-linear":
        summary = run_probe_linear(cfg)
        print(f"constants stable to {100 * summary['max_stability']:.2f}% "
              f"under refinement")
        out = Path(cfg.out_dir)
    elif cmd == "probe-bilinear":
        rep = run_probe_bilinear(cfg)
        expo = rep.separated_exponent
        expo_text = "n/a" if expo is None else f"{expo:+.4f}"
        print(f"{len(rep.trials)} trials, max ratio {rep.max_ratio():.4f}, "
              f"separated exponent {expo_text}")
        out = Path(cfg.out_dir)
    else:
        summary = run_probe_nonlinear(cfg)
        print(f"{summary['n_trials']} trials, max constant "
              f"{summary['max_constant']:.4e}")
        out = Path(cfg.out_dir)
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
