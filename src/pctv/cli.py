"""Command line entry point: run one experiment from a JSON config.

Usage: pctv <experiment> --config <file> --out <dir>

The experiment name picks the sweep, the config file parametrizes it,
and the output directory receives records.csv, summary.json, and any
SVG figures.  Exit status 0 on success, 2 on a config problem, 1 on any
other failure.  Config problems are found before the output directory
is created.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, load_config
from .errors import ConfigError, PCTVError
from .experiments import run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pctv", description=__doc__)
    subparsers = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sub = subparsers.add_parser(name, help=f"run the {name} experiment")
        sub.add_argument("--config", required=True, help="JSON config file")
        sub.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        payload = run_experiment(args.experiment, config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PCTVError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = payload["summary"]
    print(f"{args.experiment}: wrote records.csv and summary.json to {args.out}")
    for key in ("final_median_rel_error", "final_rel_error", "kendall_tau"):
        if summary.get(key) is not None:
            print(f"  {key} = {summary[key]:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
