#!/usr/bin/env python3
"""Train all four methods on the reference two-moons benchmark and print a
side-by-side summary of their final epochs.

Usage:
    python3 scripts/run_canonical.py [--seed N] [--outdir DIR] [--epochs N]
"""
from __future__ import annotations

import argparse
import os

from salt.harness.config import Method, load_config, override
from salt.harness.experiment import run_experiment

CANONICAL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "canonical_salt.json")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default="runs/canonical")
    ap.add_argument("--epochs", type=int, default=None, help="override the training length")
    args = ap.parse_args()

    canonical = load_config(CANONICAL)
    rows = {}
    for method in (Method.ERM, Method.ADV, Method.VAT, Method.SALT):
        cfg = override(
            canonical, method=method, seed=args.seed, outdir=os.path.join(args.outdir, method.value.lower())
        )
        if args.epochs is not None:
            cfg = override(cfg, epochs=args.epochs)
        rows[method.value] = run_experiment(cfg).final

    print(f"\nseed {args.seed}, final epoch {next(iter(rows.values()))['epoch']}")
    print(f"{'method':<8} {'train_loss':>10} {'val_loss':>10} {'val_acc':>8} {'ece':>7} {'reg':>8}")
    for name, row in rows.items():
        print(
            f"{name:<8} {row['train_loss']:>10.4f} {row['val_loss']:>10.4f} "
            f"{row['val_acc']:>8.4f} {row['ece']:>7.4f} {row['reg_value']:>8.4f}"
        )
    print(f"\nper-run artifacts under {args.outdir}/<method>/")


if __name__ == "__main__":
    main()
