"""Command-line front end: train, gradcheck, sweep, calibrate."""
from __future__ import annotations

import argparse
import json
import os
import sys

from ..calibration import bin_predictions, read_predictions_csv, write_reliability_csv
from ..errors import ContractViolation
from ..gradcheck import run_gradcheck
from .config import load_config, override
from .experiment import run_experiment
from .sweep import _AXIS_TYPES, parse_axis_value, sweep

_GRADCHECK_TOL = 1e-4


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.outdir:
        cfg = override(cfg, outdir=args.outdir)
    record = run_experiment(cfg)
    print(json.dumps(record.final))
    print(f"metrics: {record.metrics_path}")
    print(f"checkpoint: {record.checkpoint_path}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    records = run_gradcheck(args.instances, args.k, args.seed)
    for r in records:
        print(
            f"instance {r.index:02d} k={r.k_steps} n_params={r.n_params:3d} "
            f"kind={r.kind} boundary={'yes' if r.boundary else 'no'} "
            f"resamples={r.resamples} rel_err={r.rel_err:.3e}"
        )
    worst = max(r.rel_err for r in records)
    ok = worst <= _GRADCHECK_TOL
    print(
        f"gradcheck: max rel_err {worst:.3e} over {len(records)} instances "
        f"(tolerance {_GRADCHECK_TOL:g}) -> {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _parse_seed(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ContractViolation(f"bad seed: {raw!r}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    values = [parse_axis_value(args.axis, v) for v in args.values.split(",") if v]
    seeds = [_parse_seed(s) for s in args.seeds.split(",") if s] if args.seeds else None
    out_path = args.out or os.path.join(cfg.outdir, "sweep.csv")
    rows = sweep(cfg, args.axis, values, seeds, out_path)
    print(f"{len(rows)} rows -> {out_path}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    confidences, correct = read_predictions_csv(args.predictions)
    report = bin_predictions(confidences, correct, m_bins=args.bins, equal_mass=args.equal_mass_bins)
    out = args.out or os.path.join(os.path.dirname(os.path.abspath(args.predictions)), "reliability.csv")
    write_reliability_csv(report, out)
    print(f"n={report.n} ece={report.ece:.17g}")
    print(f"reliability: {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salt",
        description="Adversarial regularization with a leader that differentiates through the inner ascent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training job from a JSON config")
    p_train.add_argument("--config", required=True, help="path to the experiment JSON")
    p_train.add_argument("--outdir", help="override the config's output directory")
    p_train.set_defaults(fn=_cmd_train)

    p_gc = sub.add_parser("gradcheck", help="compare the analytic gradient with finite differences")
    p_gc.add_argument("--k", type=int, default=None, help="fix the ascent depth (default: mix 1-3)")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--instances", type=int, default=20)
    p_gc.set_defaults(fn=_cmd_gradcheck)

    p_sw = sub.add_parser("sweep", help="train across an adversary axis and summarize")
    p_sw.add_argument("--axis", required=True, choices=list(_AXIS_TYPES))
    p_sw.add_argument("--values", required=True, help="comma-separated axis values")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--seeds", help="comma-separated seeds (default: the config seed)")
    p_sw.add_argument("--out", help="summary CSV path (default: <outdir>/sweep.csv)")
    p_sw.set_defaults(fn=_cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="bin a predictions CSV into a reliability diagram")
    p_cal.add_argument("--predictions", required=True, help="CSV with confidence,correct columns")
    p_cal.add_argument("--bins", type=int, default=10)
    p_cal.add_argument("--equal-mass-bins", action="store_true", help="quantile bins instead of equal width")
    p_cal.add_argument("--out", help="output CSV path")
    p_cal.set_defaults(fn=_cmd_calibrate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ContractViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
