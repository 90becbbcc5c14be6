"""Training loops and per-epoch metric records.

Three independent RNG streams are derived from the master seed by fixed
labels: data order, perturbation inits, and model init. Matched seeds
therefore give every method the same initial weights, the same batch order,
and the same perturbation draws, so method comparisons are paired.

Per-epoch metrics go to metrics.jsonl, one JSON object per line, flushed as
written. Wall-clock timings go to a separate timing.jsonl so rerunning a
config reproduces metrics.jsonl byte for byte.
"""
from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..calibration import bin_predictions, confidence_of, write_reliability_csv
from ..diffmodel import (
    Batch,
    ModelParams,
    _forward,
    grad_params,
    init_params,
    mlp_forward,
    save_checkpoint,
    task_loss,
)
from ..errors import ContractViolation
from ..optim import OptimizerState, optimizer_step
from ..stackelberg import salt_training_step
from ..vat import adv_training_step, vat_training_step
from .config import ExperimentConfig, Method, config_to_dict
from .datasets import gen_blobs, gen_sine_regression, gen_two_moons, load_csv


def substream(master_seed: int, label: str) -> np.random.Generator:
    """Independent generator keyed by (seed, label)."""
    return np.random.default_rng([master_seed, zlib.crc32(label.encode("ascii"))])


def load_dataset(cfg: ExperimentConfig) -> tuple[Batch, Batch]:
    ds = cfg.dataset
    if ds.kind == "two_moons":
        return gen_two_moons(ds.n_train, ds.n_test, ds.noise_std, cfg.seed)
    if ds.kind == "blobs":
        return gen_blobs(ds.n_train, ds.n_test, ds.noise_std, cfg.seed)
    if ds.kind == "sine":
        return gen_sine_regression(ds.n_train, ds.n_test, ds.noise_std, cfg.seed)
    return load_csv(ds.train_path, ds.target), load_csv(ds.test_path, ds.target)


def _evaluate(params: ModelParams, batch: Batch) -> dict:
    """Loss and accuracy or RMSE, plus what the reliability report reads."""
    fwd = mlp_forward(params, batch.inputs)
    loss = task_loss(fwd, batch.targets)
    if fwd.is_classification:
        correct = fwd.logits.argmax(axis=1) == batch.targets
        return {"loss": loss, "acc": float(correct.mean()), "confidence": confidence_of(fwd), "correct": correct}
    return {"loss": loss, "rmse": float(np.sqrt(loss))}


def _check_class_labels(cfg: ExperimentConfig, train: Batch, test: Batch) -> None:
    """Every label of both splits must name one of the head's classes. A CSV
    row's data line is its index + 2, as in load_csv."""
    n_classes = cfg.model.layers[-1]
    for split, data, path in (("train", train, cfg.dataset.train_path), ("test", test, cfg.dataset.test_path)):
        bad = np.flatnonzero((data.targets < 0) | (data.targets >= n_classes))
        if bad.size:
            where = f"{path}:{bad[0] + 2}" if cfg.dataset.kind == "csv" else f"{split} split"
            raise ContractViolation(f"{where}: label {data.targets[bad[0]]} is out of range for {n_classes} classes")


def erm_training_step(
    params: ModelParams, batch: Batch, opt_state: OptimizerState
) -> tuple[ModelParams, OptimizerState, dict]:
    clean = _forward(params, batch.inputs)
    grad = grad_params(params, batch, clean)
    new_params, new_state = optimizer_step(params, opt_state, grad)
    stats = {
        "clean_loss": task_loss(clean, batch.targets),
        "reg_value": 0.0,
        "delta_norm": 0.0,
    }
    return new_params, new_state, stats


@dataclass
class RunRecord:
    """Everything a finished run leaves behind, in memory and on disk."""

    config: ExperimentConfig
    rows: list[dict] = field(default_factory=list)
    step_stats: list[dict] = field(default_factory=list)
    params: ModelParams | None = None
    metrics_path: str | None = None
    checkpoint_path: str | None = None
    reliability_path: str | None = None

    @property
    def final(self) -> dict:
        return self.rows[-1]


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Train per the config and write metrics, timing, checkpoint and
    (for classification) a reliability diagram into cfg.outdir."""
    train, test = load_dataset(cfg)
    is_class = cfg.model.is_classification
    if train.inputs.shape[1] != cfg.model.layers[0]:
        raise ContractViolation(
            f"dataset width {train.inputs.shape[1]} does not match model input width {cfg.model.layers[0]}"
        )
    if is_class != np.issubdtype(train.targets.dtype, np.integer):
        raise ContractViolation("model head does not match the dataset target type")
    if is_class:
        _check_class_labels(cfg, train, test)

    kind = cfg.model.regularizer_kind
    model_rng = substream(cfg.seed, "model-init")
    order_rng = substream(cfg.seed, "data-order")
    perturb_rng = substream(cfg.seed, "perturb-init")

    params = init_params(cfg.model.layers, model_rng)
    opt_state = OptimizerState(
        kind=cfg.optimizer.kind,
        lr=cfg.optimizer.lr,
        betas=cfg.optimizer.betas,
        eps=cfg.optimizer.eps,
    )

    os.makedirs(cfg.outdir, exist_ok=True)
    metrics_path = os.path.join(cfg.outdir, "metrics.jsonl")
    timing_path = os.path.join(cfg.outdir, "timing.jsonl")
    record = RunRecord(config=cfg, metrics_path=metrics_path)
    with open(os.path.join(cfg.outdir, "resolved_config.json"), "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")

    n = train.n
    with open(metrics_path, "w") as metrics_fh, open(timing_path, "w") as timing_fh:
        for epoch in range(1, cfg.epochs + 1):
            t0 = time.perf_counter()
            order = order_rng.permutation(n)
            reg_values = []
            for lo in range(0, n, cfg.batch_size):
                sel = order[lo : lo + cfg.batch_size]
                batch = Batch(train.inputs[sel], train.targets[sel])
                if cfg.method == Method.ERM:
                    params, opt_state, stats = erm_training_step(params, batch, opt_state)
                elif cfg.method == Method.ADV:
                    params, opt_state, stats = adv_training_step(
                        params, batch, cfg.adv, opt_state, perturb_rng
                    )
                elif cfg.method == Method.VAT:
                    params, opt_state, stats = vat_training_step(
                        params, batch, cfg.adv, kind, opt_state, perturb_rng
                    )
                else:
                    params, opt_state, stats = salt_training_step(
                        params, batch, cfg.adv, kind, opt_state, perturb_rng
                    )
                reg_values.append(stats["reg_value"])
                record.step_stats.append(stats)
            tr = _evaluate(params, train)
            te = _evaluate(params, test)
            row: dict = {"epoch": epoch, "train_loss": tr["loss"], "val_loss": te["loss"]}
            if is_class:
                row["train_acc"] = tr["acc"]
                row["val_acc"] = te["acc"]
                report = bin_predictions(te["confidence"], te["correct"])
                row["ece"] = report.ece
            else:
                row["train_rmse"] = tr["rmse"]
                row["val_rmse"] = te["rmse"]
                row["ece"] = None
            row["reg_value"] = float(np.mean(reg_values))
            record.rows.append(row)
            metrics_fh.write(json.dumps(row) + "\n")
            metrics_fh.flush()
            timing_fh.write(json.dumps({"epoch": epoch, "seconds": time.perf_counter() - t0}) + "\n")
            timing_fh.flush()

    record.params = params
    record.checkpoint_path = os.path.join(cfg.outdir, "checkpoint.json")
    save_checkpoint(params, record.checkpoint_path)
    if is_class:
        record.reliability_path = os.path.join(cfg.outdir, "reliability.csv")
        write_reliability_csv(report, record.reliability_path)
    return record
