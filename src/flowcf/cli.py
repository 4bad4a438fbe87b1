"""Command-line entry point.

Subcommands::

    flowcf run               one cross-validated experiment
    flowcf ablate-lambda     sweep the constraint weight
    flowcf ablate-loss       hinge vs cross-entropy validity loss
    flowcf export-trajectory dump one instance's optimization path
    flowcf compare-density   flow vs KDE vs Gaussian-mixture test likelihood

Exit codes: 0 success, 2 bad configuration or arguments, 3 training or
generation failure, 4 unreadable data file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .data import CsvFormatError
from .models import TrainingError
from .pipeline import (
    RunConfig,
    ablate_lambda,
    ablate_loss,
    compare_density,
    export_trajectory,
    run_experiment,
)

DEFAULT_LAMBDAS = (1.0, 2.0, 5.0, 10.0, 100.0, 1000.0)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--seed", type=int, help="override the experiment seed")
    sub.add_argument("--out", help="override the output directory")
    sub.add_argument("--method", choices=["plausible", "wachter"],
                     help="override the generation method")
    sub.add_argument("--lambda", dest="lam", type=float,
                     help="override the constraint weight")
    sub.add_argument("--dataset", help="override the dataset (name or JSON spec)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcf",
        description="Plausible counterfactual explanations via normalizing flows",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("run", "ablate-lambda", "ablate-loss", "compare-density",
                 "export-trajectory"):
        sub = subs.add_parser(name)
        _add_common(sub)
    subs.choices["ablate-lambda"].add_argument(
        "--lambdas", default=",".join(f"{v:g}" for v in DEFAULT_LAMBDAS),
        help="comma-separated sweep values",
    )
    traj = subs.choices["export-trajectory"]
    traj.add_argument("--run-dir", help="directory written by a previous run")
    traj.add_argument("--instance", type=int, default=0,
                      help="row index within the fold's counterfactual CSV")
    traj.add_argument("--fold", type=int, default=0)
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out"] = args.out
    if args.method is not None:
        raw["method"] = args.method
    if args.lam is not None:
        raw["cf"] = dict(raw.get("cf", {}), lam=args.lam)
    if args.dataset is not None:
        spec = args.dataset.strip()
        if spec.startswith("{"):
            raw["dataset"] = json.loads(spec)
        else:
            raw["dataset"] = {"name": spec}
    return RunConfig(**raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2

    try:
        if args.command == "run":
            record = run_experiment(config)
            print(json.dumps(record.aggregate, indent=2))
        elif args.command == "ablate-lambda":
            lambdas = [float(v) for v in args.lambdas.split(",") if v]
            for lam, record in ablate_lambda(config, lambdas):
                val = record.aggregate["validity"]["mean"]
                l2 = record.aggregate["l2_mean"]["mean"]
                print(f"lambda={lam:g} validity={val:.4f} l2={l2}")
        elif args.command == "ablate-loss":
            for loss, record in ablate_loss(config).items():
                print(f"{loss}: {json.dumps(record.aggregate)}")
        elif args.command == "compare-density":
            print(json.dumps(compare_density(config), indent=2))
        elif args.command == "export-trajectory":
            run_dir = args.run_dir or config.out
            if not run_dir:
                print("export-trajectory needs --run-dir or an 'out' entry",
                      file=sys.stderr)
                return 2
            paths = export_trajectory(run_dir, args.instance, fold=args.fold)
            print(json.dumps(paths, indent=2))
    except CsvFormatError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 4
    except FileNotFoundError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 4
    except (TrainingError, RuntimeError) as err:
        print(f"run failed: {err}", file=sys.stderr)
        return 3
    except (ValueError, IndexError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
