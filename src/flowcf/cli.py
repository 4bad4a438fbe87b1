"""Command-line entry point.

Subcommands and the flags each takes besides ``--config`` (a JSON
``RunConfig``) and ``--out`` (the output directory)::

    flowcf run               one cross-validated experiment
                             --seed --method --lambda --dataset
    flowcf ablate-lambda     sweep the constraint weight
                             --seed --method --dataset --lambdas
    flowcf ablate-loss       hinge vs cross-entropy validity loss
                             --seed --method --lambda --dataset
    flowcf export-trajectory dump one instance's optimization path
                             --run-dir --instance --fold
    flowcf compare-density   flow vs KDE vs Gaussian-mixture test likelihood
                             --seed --dataset

A subcommand offers only the flags it reads; ``export-trajectory`` replays
the settings saved in the run directory. The dataset, classifier, flow and
``cf`` specs are checked when the config loads, so a bad key fails before
any model trains.

Exit codes: 0 success, 2 bad configuration or arguments, 3 training or
generation failure, 4 unreadable data file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys

from .data import CsvFormatError
from .pipeline import (
    METHODS,
    RunConfig,
    ablate_lambda,
    ablate_loss,
    compare_density,
    export_trajectory,
    run_experiment,
)

DEFAULT_LAMBDAS = (1.0, 2.0, 5.0, 10.0, 100.0, 1000.0)
# glibc's mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_OVERRIDES = {
    "--seed": dict(type=int, help="override the experiment seed"),
    "--method": dict(choices=METHODS, help="override the generation method"),
    "--lambda": dict(dest="lam", type=float, help="override the constraint weight"),
    "--dataset": dict(help="override the dataset (name or JSON spec)"),
}
# the overrides each subcommand reads, besides --config and --out
_SUBCOMMANDS = {
    "run": ("--seed", "--method", "--lambda", "--dataset"),
    "ablate-lambda": ("--seed", "--method", "--dataset"),
    "ablate-loss": ("--seed", "--method", "--lambda", "--dataset"),
    "compare-density": ("--seed", "--dataset"),
    "export-trajectory": (),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcf",
        description="Plausible counterfactual explanations via normalizing flows",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, flags in _SUBCOMMANDS.items():
        # no abbreviations: ablate-lambda would read --lambda as --lambdas
        sub = subs.add_parser(name, allow_abbrev=False)
        sub.add_argument("--config", help="JSON config file")
        sub.add_argument("--out", help="override the output directory")
        for flag in flags:
            sub.add_argument(flag, **_OVERRIDES[flag])
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
    given = vars(args)  # a subcommand's namespace holds only its own flags
    if given.get("seed") is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out"] = args.out
    if given.get("method") is not None:
        raw["method"] = args.method
    if given.get("lam") is not None:
        raw["cf"] = dict(raw.get("cf", {}), lam=args.lam)
    if given.get("dataset") is not None:
        spec = args.dataset.strip()
        if spec.startswith("{"):
            raw["dataset"] = json.loads(spec)
        else:
            raw["dataset"] = {"name": spec}
    return RunConfig(**raw)


def _keep_freed_memory() -> None:
    """Stop glibc from handing freed heap memory back to the OS mid-run.

    Every search iteration allocates and frees the same few (rows x hidden)
    arrays. Under glibc's default thresholds the freed top of the heap goes
    back to the OS after an iteration and is faulted in again on the next:
    on blobs fold 0, about 170 page faults per iteration and a third of the
    generation time. A run is one short process, so it keeps what it freed,
    and arrays under 32 MiB come from the heap rather than from fresh
    mappings. Where the C library has no ``mallopt``, this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_memory()
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
    except RuntimeError as err:  # TrainingError included
        print(f"run failed: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
