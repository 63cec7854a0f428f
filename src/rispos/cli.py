"""Command-line entry points for simulation sweeps, bounds, and debugging."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import harness
from .errors import RisposError


# command-line option -> the ExperimentConfig field it overrides
_OVERRIDES = (("trials", "n_trials"), ("powers", "powers_dbm"),
              ("workers", "workers"), ("out", "out_dir"), ("seed", "master_seed"))


def _load_config(args) -> harness.ExperimentConfig:
    """The config file (or the defaults) with the command-line overrides,
    validated like any ``ExperimentConfig``."""
    if args.config:
        exp = harness.ExperimentConfig.from_file(args.config)
    else:
        exp = harness.ExperimentConfig()
    return dataclasses.replace(exp, **{
        name: getattr(args, option) for option, name in _OVERRIDES
        if getattr(args, option, None) is not None})


def _cmd_sweep(args) -> int:
    """``sweep`` writes the summary CSV; ``simulate`` adds the figure files."""
    exp = _load_config(args)
    report = harness.run_sweep(exp)
    out = Path(exp.out_dir)
    paths = [harness.write_summary_csv(report, out / "sweep_summary.csv")]
    if args.command == "simulate":
        paths += harness.emit_plot_data(report, out)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_bounds(args) -> int:
    exp = _load_config(args)
    rows = ["power_dbm," + ",".join(
        f"bound_{c}" for c in harness.REPORT_CLASSES)]
    for p, ref in zip(exp.powers_dbm, harness.reference_bounds(exp)):
        rows.append(",".join([f"{p:.12e}"] + [
            f"{ref[c]:.12e}" for c in harness.REPORT_CLASSES]))
    print("\n".join(rows))
    return 0


def _cmd_trial(args) -> int:
    exp = _load_config(args)
    if args.trial < 0:
        raise ValueError(f"--trial must be an integer >= 0, not {args.trial}")
    if args.power not in exp.powers_dbm:
        raise ValueError(f"--power {args.power:g} is not a configured power; "
                         f"powers_dbm is {exp.powers_dbm}")
    # the sweep seeds a trial by the power's index, so use the same index
    p_idx = exp.powers_dbm.index(args.power)
    rec = harness.run_trial(exp, exp.powers_dbm[p_idx], p_idx, args.trial)
    out = {
        "power_dbm": rec.power_dbm,
        "seed_entropy": list(rec.seed_entropy),
        "error": rec.error,
        "support_ok": rec.support_ok,
        "flags": {k: np.asarray(v).tolist() for k, v in rec.flags.items()},
        "peb_m": rec.peb,
        "oeb_deg": float(np.rad2deg(rec.oeb)),
        "stages": {k: np.asarray(v).tolist() for k, v in rec.stages.items()},
        "sq_errors": {s: {c: np.asarray(v).tolist() for c, v in d.items()}
                      for s, d in rec.sq_errors.items()},
    }
    print(json.dumps(out, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rispos",
        description="RIS-aided MIMO-OFDM positioning simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config file (defaults baked in)")
    common.add_argument("--seed", type=int, help="override master seed")

    for name, help_text in (
            ("simulate", "full sweep: summary CSV plus per-figure files"),
            ("sweep", "Monte Carlo sweep, aggregate CSV only")):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--out", help="output directory")
        p.add_argument("--trials", type=int)
        p.add_argument("--powers", nargs="+", type=float)
        p.add_argument("--workers", type=int)
        p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", parents=[common],
                       help="print bound curves for the configured sweep")
    p.add_argument("--powers", nargs="+", type=float)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("trial", parents=[common],
                       help="run one trial and dump the record as JSON")
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--trial", type=int, default=0)
    p.set_defaults(func=_cmd_trial)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RisposError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
