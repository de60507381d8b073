"""Command-line interface: train, eval, and diagnose subcommands.

Exit codes: 0 on success, 1 on validation errors (bad usage, bad config,
bad checkpoint, missing or inconsistent inputs), 2 on unexpected runtime
errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .data import SPLITS
from .training import run_diagnose, run_eval, run_train


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpirec",
        description="Offline policy optimization for sequential recommendation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model per a run config")
    train.add_argument("--config", required=True, help="path to a key=value run config")

    evaluate = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    evaluate.add_argument("--config", required=True)
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--split", required=True, choices=SPLITS)
    evaluate.add_argument("--output", help="also write the metrics JSON here")

    diagnose = sub.add_parser(
        "diagnose", help="compare several checkpoints on the validation split"
    )
    diagnose.add_argument("--config", required=True)
    diagnose.add_argument(
        "--checkpoints", required=True, nargs="+", help="two or more checkpoint paths"
    )
    diagnose.add_argument("--output", help="also write the CSV table here")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; usage errors are
        # validation failures under this tool's exit-code contract
        return 0 if not exc.code else 1
    try:
        if args.command == "train":
            paths = run_train(load_config(args.config))
            for name, path in sorted(paths.items()):
                print(f"{name}: {path}")
        elif args.command == "eval":
            _, payload = run_eval(load_config(args.config), args.checkpoint, args.split)
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            print(payload, end="")
        elif args.command == "diagnose":
            table = run_diagnose(load_config(args.config), args.checkpoints)
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(table)
            print(table, end="")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unexpected is a runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
