"""Command-line interface.

Every subcommand prints a JSON document on stdout. ``sweep`` and ``train``
exit nonzero if any cell failed, so shell pipelines can gate on success.
Input the library rejects exits 2 with a one-line message, as argparse does.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import accountant, evaluation, harness


def _at_least_one(flag: str, count: int) -> int:
    if count < 1:
        raise ValueError(f"{flag} must be >= 1, got {count}")
    return count


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _cmd_sweep(args) -> int:
    summary = harness.run(
        harness.ExperimentConfig.load(args.config, args.set),
        args.out,
        jobs=_at_least_one("--jobs", args.jobs),
        seeds=args.seed or None,
        epsilons=args.eps or None,
    )
    _emit(summary)
    return 0 if summary["ok"] else 1


def _cmd_train(args) -> int:
    args.jobs, args.seed, args.eps = 1, [args.seed], [args.eps]
    return _cmd_sweep(args)


def _cmd_evaluate(args) -> int:
    result = harness.evaluate_run(args.dir)
    _emit(result)
    return 0 if result["matches_stored"] else 1


def _cmd_accountant(args) -> int:
    if args.eps_target is not None and args.sigma is not None:
        raise ValueError("give either --sigma or --eps-target, not both")
    if args.sigma is not None and args.split != 1:
        raise ValueError("--split divides an --eps-target budget; it does not apply to --sigma")
    if args.eps_target is not None:
        if _at_least_one("--split", args.split) > 1:
            bs = accountant.split_budget(
                args.eps_target, args.delta, args.split, args.q, args.steps
            )
            _emit(asdict(bs))
        else:
            sigma = accountant.calibrate_sigma(args.eps_target, args.delta, args.q, args.steps)
            report = accountant.account(sigma, args.q, args.steps, args.delta)
            _emit(asdict(report))
        return 0
    if args.sigma is None:
        raise ValueError("accountant needs either --sigma or --eps-target")
    report = accountant.account(args.sigma, args.q, args.steps, args.delta)
    _emit(asdict(report))
    return 0


def _cmd_oracle(args) -> int:
    scores, correctness = evaluation.ideal_score_oracle(args.a_full, args.n, args.seed)
    curve = evaluation.build_curve(scores, correctness)
    if args.out:
        evaluation.write_curve_csv(curve, args.out)
    metrics = evaluation.curve_metrics(curve)
    metrics["max_bound_deviation"] = float(
        np.max(np.abs(curve.accuracies - evaluation.bound_values(curve))))
    _emit(metrics)
    return 0


def _cmd_panel(args) -> int:
    kwargs = {"out_dir": args.out}
    if args.which == "bound":
        if args.seed:
            kwargs["seed"] = args.seed[0]
        summary = harness.panel_bound(**kwargs)
    else:
        if args.seed:
            kwargs["seeds"] = args.seed
        if args.eps:
            kwargs["epsilons"] = args.eps
        panel = harness.panel_outlier if args.which == "outlier" else harness.panel_imbalance
        summary = panel(**kwargs)
    _emit(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpselect",
        description="Selective classification under differential privacy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_opts(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default="out", help="output root directory")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="replace the value at a dotted config path: an object replaces an object "
                 "whole, and a VALUE that does not parse as JSON is a string",
        )

    p = sub.add_parser("sweep", help="run the full (seed, epsilon) grid")
    add_config_opts(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", action="append", type=int, help="restrict to this seed")
    p.add_argument(
        "--eps", action="append", type=harness.parse_epsilon, help="restrict to this epsilon"
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("train", help="run a single (seed, epsilon) cell")
    add_config_opts(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=harness.parse_epsilon, default=math.inf)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="read back a method's files and recompute its metrics")
    p.add_argument("--dir", required=True, help="method output directory")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("accountant", help="privacy accounting and calibration")
    p.add_argument("--sigma", type=float)
    p.add_argument("--eps-target", type=float)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--split", type=int, default=1, help="split budget over this many runs")
    p.set_defaults(func=_cmd_accountant)

    p = sub.add_parser("oracle", help="ideal-score oracle curve")
    p.add_argument("--a-full", type=float, required=True)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write curve CSV here")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("panel", help="fixed replication studies")
    p.add_argument("which", choices=("outlier", "imbalance", "bound"))
    p.add_argument("--out", help="directory for the panel summary JSON")
    p.add_argument("--seed", action="append", type=int)
    p.add_argument("--eps", action="append", type=harness.parse_epsilon)
    p.set_defaults(func=_cmd_panel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "panel" and args.which == "bound" and (
        args.eps or len(args.seed or ()) > 1
    ):
        parser.error("panel bound takes at most one --seed and no --eps")
    try:
        return args.func(args)
    except ValueError as exc:  # rejected input: a usage error, not a traceback
        which = f" {args.which}" if args.command == "panel" else ""
        parser.error(f"{args.command}{which}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
