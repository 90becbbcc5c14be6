"""Axis sweeps over the adversary config, one training run per (value, seed).

Runs share the seed bank across axis values so columns are paired. The
SALT_THREADS environment variable caps worker threads (default 1); each run
is internally deterministic, and rows are emitted in submission order either
way.
"""
from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from ..errors import ContractViolation
from ..perturb import NormKind
from .config import ExperimentConfig
from .experiment import run_experiment

_AXIS_TYPES = {"k_steps": int, "epsilon": float, "norm": NormKind}
_AXES = tuple(_AXIS_TYPES)
_SWEEP_HEADER = ["axis_value", "seed", "final_train_loss", "final_val_loss", "final_val_acc", "ece"]


def parse_axis_value(axis: str, raw: str):
    if axis not in _AXIS_TYPES:
        raise ContractViolation(f"unknown sweep axis: {axis!r} (expected one of {_AXES})")
    try:
        return _AXIS_TYPES[axis](raw)
    except ValueError:
        raise ContractViolation(f"bad {axis} value: {raw!r}") from None


def _apply(template: ExperimentConfig, axis: str, value, seed: int) -> ExperimentConfig:
    adv = replace(template.adv, **{axis: value})
    tag = value.value if isinstance(value, NormKind) else value
    outdir = os.path.join(template.outdir, f"{axis}={tag}", f"seed={seed}")
    return replace(template, adv=adv, seed=seed, outdir=outdir)


def sweep_threads() -> int:
    raw = os.environ.get("SALT_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ContractViolation(f"SALT_THREADS must be an integer, got {raw!r}") from None
    return max(threads, 1)


def sweep(
    template: ExperimentConfig,
    axis: str,
    values: list,
    seeds: list[int] | None = None,
    out_path: str | None = None,
) -> list[dict]:
    """Train every (value, seed) pair and write one summary row each."""
    if axis not in _AXES:
        raise ContractViolation(f"unknown sweep axis: {axis!r} (expected one of {_AXES})")
    if not values:
        raise ContractViolation("sweep needs at least one axis value")
    if not template.model.is_classification:
        raise ContractViolation("sweep summaries need a classification model (accuracy and ece columns)")
    seeds = list(seeds) if seeds else [template.seed]
    if len(set(values)) != len(values) or len(set(seeds)) != len(seeds):
        # a repeat would rerun into, and overwrite, the same run directory
        raise ContractViolation("sweep values and seeds must each be distinct")
    # every config is built, and so checked, before the first run starts
    jobs = [(v, s, _apply(template, axis, v, s)) for v in values for s in seeds]

    def run_one(job) -> dict:
        value, seed, cfg = job
        final = run_experiment(cfg).final
        return {
            "axis_value": value.value if isinstance(value, NormKind) else value,
            "seed": seed,
            "final_train_loss": final["train_loss"],
            "final_val_loss": final["val_loss"],
            "final_val_acc": final["val_acc"],
            "ece": final["ece"],
        }

    threads = sweep_threads()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run_one, jobs))
    else:
        rows = [run_one(j) for j in jobs]

    if out_path is None:
        out_path = os.path.join(template.outdir, "sweep.csv")
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row["axis_value"],
                    row["seed"],
                    format(row["final_train_loss"], ".17g"),
                    format(row["final_val_loss"], ".17g"),
                    format(row["final_val_acc"], ".17g"),
                    format(row["ece"], ".17g"),
                ]
            )
    return rows
