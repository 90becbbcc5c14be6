#!/usr/bin/env python3
"""Sweep the ascent depth and the ball radius on the reference two-moons
benchmark, writing one paired CSV per axis and printing per-value means.

Usage:
    python3 scripts/run_sweeps.py [--seeds N] [--outdir DIR] [--axis {k_steps,epsilon,both}]

Each axis value's seeds train as one stack, one value after another.
"""
from __future__ import annotations

import argparse
import os
from collections import defaultdict

import numpy as np

from salt.harness.config import load_config, override
from salt.harness.sweep import sweep

CANONICAL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "canonical_salt.json")

AXES = {
    "k_steps": [0, 1, 2, 3],
    "epsilon": [0.25, 0.5, 1.0, 2.0],
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5, help="number of paired seeds per value")
    ap.add_argument("--outdir", default="runs/sweeps")
    ap.add_argument("--axis", choices=[*AXES, "both"], default="both")
    args = ap.parse_args()

    axes = list(AXES) if args.axis == "both" else [args.axis]
    seeds = list(range(args.seeds))
    for axis in axes:
        template = override(load_config(CANONICAL), outdir=os.path.join(args.outdir, axis))
        out_path = os.path.join(args.outdir, f"{axis}.csv")
        rows = sweep(template, axis, AXES[axis], seeds, out_path)

        by_value = defaultdict(list)
        for row in rows:
            by_value[row["axis_value"]].append(row["final_val_acc"])
        print(f"\n{axis} sweep ({len(seeds)} seeds per value) -> {out_path}")
        for value, accs in by_value.items():
            print(f"  {axis}={value}: mean val acc {np.mean(accs):.4f} (se {np.std(accs) / np.sqrt(len(accs)):.4f})")


if __name__ == "__main__":
    main()
