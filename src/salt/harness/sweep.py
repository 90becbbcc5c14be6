"""Axis sweeps over the adversary config, one training run per (value, seed).

Runs share the seed bank across axis values so columns are paired. Rows go
in order, values outer and seeds inner; each value's seeds train as one
stack (run_experiments), one value after another.
"""
from __future__ import annotations

import csv
import os
from dataclasses import replace

from ..errors import ContractViolation
from ..perturb import NormKind
from .config import ExperimentConfig
from .experiment import run_experiments

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


def sweep(
    template: ExperimentConfig,
    axis: str,
    values: list,
    seeds: list[int] | None,
    out_path: str,
) -> list[dict]:
    """Train every (value, seed) pair and write one summary row each to the
    csv at out_path. seeds None takes the template's seed."""
    if not out_path:
        raise ContractViolation("sweep needs a path for its summary csv")
    if axis not in _AXES:
        raise ContractViolation(f"unknown sweep axis: {axis!r} (expected one of {_AXES})")
    seeds = [template.seed] if seeds is None else list(seeds)
    if not values or not seeds:
        raise ContractViolation("sweep needs at least one axis value and one seed")
    if not template.model.is_classification:
        raise ContractViolation("sweep summaries need a classification model (accuracy and ece columns)")
    if len(set(values)) != len(values) or len(set(seeds)) != len(seeds):
        # a repeat would rerun into, and overwrite, the same run directory
        raise ContractViolation("sweep values and seeds must each be distinct")
    # every config is built, and so checked, before the first run starts
    jobs = [(v, s, _apply(template, axis, v, s)) for v in values for s in seeds]

    records = run_experiments([cfg for _, _, cfg in jobs])
    rows = []
    for (value, seed, _), record in zip(jobs, records):
        final = record.final
        rows.append(
            {
                "axis_value": value.value if isinstance(value, NormKind) else value,
                "seed": seed,
                "final_train_loss": final["train_loss"],
                "final_val_loss": final["val_loss"],
                "final_val_acc": final["val_acc"],
                "ece": final["ece"],
            }
        )

    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_HEADER)
        for row in rows:
            writer.writerow([row["axis_value"], row["seed"], *(format(row[k], ".17g") for k in _SWEEP_HEADER[2:])])
    return rows
