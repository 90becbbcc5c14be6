"""Training loops and per-epoch metric records.

Three independent RNG streams are derived from the master seed by fixed
labels: data order, perturbation inits, and model init. Matched seeds
therefore give every method the same initial weights, the same batch order,
and the same perturbation draws, so method comparisons are paired.

Per-epoch metrics go to metrics.jsonl, one JSON object per line, flushed as
written. Wall-clock timings go to a separate timing.jsonl so rerunning a
config reproduces metrics.jsonl byte for byte.

Every method trains through the one `stackelberg.training_step`, with the
config's method as its first argument; the loop has no per-method branch.

Runs that differ only in seed train as one stack: every step and every
evaluation runs once for the group on (R, ...) arrays, and each run's
results are bit-identical to training it alone.
"""
from __future__ import annotations

import json
import os
import time
import zlib
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from ..calibration import bin_predictions, confidence_of, equal_width_ece, write_reliability_csv
from ..diffmodel import (
    Array,
    Batch,
    ForwardPass,
    ModelParams,
    _forward,
    _per_member,
    _task_loss,
    init_params,
    save_checkpoint,
)
from ..errors import ContractViolation
from ..optim import OptimizerState
from ..stackelberg import training_step
from .config import ExperimentConfig, config_to_dict
from .datasets import GENERATORS, load_csv


def substream(master_seed: int, label: str) -> np.random.Generator:
    """Independent generator keyed by (seed, label)."""
    return np.random.default_rng([master_seed, zlib.crc32(label.encode("ascii"))])


def load_dataset(cfg: ExperimentConfig) -> tuple[Batch, Batch]:
    ds = cfg.dataset
    if ds.kind in GENERATORS:
        return GENERATORS[ds.kind](ds.n_train, ds.n_test, ds.noise_std, cfg.seed)
    kind = "classification" if cfg.model.is_classification else "regression"
    return load_csv(ds.train_path, kind), load_csv(ds.test_path, kind)


def _evaluate(params: ModelParams, batch: Batch) -> tuple[dict, ForwardPass, Array | None]:
    """Loss and accuracy or RMSE ((R,) arrays for a stack), the pass they
    were read from, and a classification head's correct flags ((R, n) for
    a stack). batch is a split as _checked_dataset checked it, so its inputs
    and targets are not checked again."""
    fwd = _forward(params, batch.inputs)
    loss = _task_loss(fwd, batch.targets)
    if fwd.is_classification:
        correct = fwd.logits.argmax(axis=-1) == batch.targets
        acc = np.add.reduce(correct, axis=-1, dtype=np.float64) / batch.n
        return {"loss": loss, "acc": _per_member(acc)}, fwd, correct
    return {"loss": loss, "rmse": _per_member(np.sqrt(loss))}, fwd, None


def _check_class_labels(cfg: ExperimentConfig, train: Batch, test: Batch) -> None:
    """Every label of both splits must name one of the head's classes. A CSV
    row's data line is its index + 2, as in load_csv."""
    n_classes = cfg.model.layers[-1]
    for split, data, path in (("train", train, cfg.dataset.train_path), ("test", test, cfg.dataset.test_path)):
        bad = np.flatnonzero((data.targets < 0) | (data.targets >= n_classes))
        if bad.size:
            where = f"{path}:{bad[0] + 2}" if cfg.dataset.kind == "csv" else f"{split} split"
            raise ContractViolation(f"{where}: label {data.targets[bad[0]]} is out of range for {n_classes} classes")


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
    return run_experiments([cfg])[0]


def _checked_dataset(cfg: ExperimentConfig) -> tuple[Batch, Batch]:
    """The config's (train, test), each split checked against its model:
    input width, target type and, for a classification head, label range.
    _evaluate reads them without checking again."""
    train, test = load_dataset(cfg)
    is_class = cfg.model.is_classification
    for split in (train, test):
        if split.inputs.shape[1] != cfg.model.layers[0]:
            raise ContractViolation(
                f"dataset width {split.inputs.shape[1]} does not match model input width {cfg.model.layers[0]}"
            )
        if is_class != np.issubdtype(split.targets.dtype, np.integer):
            raise ContractViolation("model head does not match the dataset target type")
    if is_class:
        _check_class_labels(cfg, train, test)
    return train, test


def run_experiments(cfgs: Sequence[ExperimentConfig]) -> list[RunRecord]:
    """run_experiment for every config, records in input order. Configs equal
    except for seed and outdir train together as one stack, each run with its
    own data, init, batch order and perturbation draws; each run's directory
    holds the bytes a lone run writes, except timing.jsonl, which records
    the group's epoch times. Every config's dataset is loaded and checked,
    and the outdirs are checked distinct, before anything is written."""
    outdirs = [os.path.abspath(cfg.outdir) for cfg in cfgs]
    if len(set(outdirs)) != len(outdirs):
        raise ContractViolation("two runs share an outdir and would overwrite each other")
    data = [_checked_dataset(cfg) for cfg in cfgs]
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        key = tuple(getattr(cfg, f.name) for f in fields(cfg) if f.name not in ("seed", "outdir"))
        groups.setdefault(key, []).append(i)
    records: dict[int, RunRecord] = {}
    for members in groups.values():
        records.update(zip(members, _train_group([cfgs[i] for i in members], [data[i] for i in members])))
    return [records[i] for i in range(len(cfgs))]


def _split(value, runs: int) -> list:
    """A step's or an evaluation's result as one value per run: a lone run's
    own value, a stack's rows ((R,) rows as Python scalars), or a scalar the
    group shares, repeated."""
    if runs == 1 or np.ndim(value) == 0:
        return [value] * runs
    return value.tolist() if np.ndim(value) == 1 else list(value)


def _train_group(cfgs: list[ExperimentConfig], data: list[tuple[Batch, Batch]]) -> list[RunRecord]:
    """Train runs that differ only in seed and outdir as one (R, ...) stack.
    A lone run keeps 2-D arrays: a stack of one pays for its extra axis in
    every numpy call, a few percent of each step; it also keeps each step's
    stats dict as returned, where a stack splits it per run. Each epoch
    gathers its shuffled split once and gives every step a slice of it. The
    per-epoch ece is read without the bins; the bins are built once, from
    the last epoch's test pass, for reliability.csv."""
    cfg, runs, solo = cfgs[0], len(cfgs), len(cfgs) == 1
    join = (lambda parts: parts[0]) if solo else np.stack
    is_class = cfg.model.is_classification
    model_rngs = [substream(c.seed, "model-init") for c in cfgs]
    order_rngs = [substream(c.seed, "data-order") for c in cfgs]
    perturb_rngs = [substream(c.seed, "perturb-init") for c in cfgs]
    rngs = perturb_rngs[0] if solo else perturb_rngs
    lead = () if solo else (np.arange(runs)[:, None],)  # picks each run's rows from its own member

    inits = [init_params(cfg.model.layers, rng) for rng in model_rngs]
    params = ModelParams(join([p.values for p in inits]), inits[0].shapes)
    opt_state = OptimizerState(
        kind=cfg.optimizer.kind,
        lr=cfg.optimizer.lr,
        betas=cfg.optimizer.betas,
        eps=cfg.optimizer.eps,
    )
    train = Batch(join([tr.inputs for tr, _ in data]), join([tr.targets for tr, _ in data]))
    test = Batch(join([te.inputs for _, te in data]), join([te.targets for _, te in data]))

    records = []
    for c in cfgs:
        os.makedirs(c.outdir, exist_ok=True)
        records.append(RunRecord(config=c, metrics_path=os.path.join(c.outdir, "metrics.jsonl")))
        with open(os.path.join(c.outdir, "resolved_config.json"), "w") as fh:
            fh.write(json.dumps(config_to_dict(c), indent=2) + "\n")  # one write; dump streams ~100 small ones

    n, steps = train.n, len(range(0, train.n, cfg.batch_size))
    with ExitStack() as files:
        metrics_fhs = [files.enter_context(open(r.metrics_path, "w")) for r in records]
        timing_fhs = [files.enter_context(open(os.path.join(c.outdir, "timing.jsonl"), "w")) for c in cfgs]
        for epoch in range(1, cfg.epochs + 1):
            t0 = time.perf_counter()
            orders = join([rng.permutation(n) for rng in order_rngs])
            inputs, targets = train.inputs[(*lead, orders)], train.targets[(*lead, orders)]
            for lo in range(0, n, cfg.batch_size):
                batch = Batch(inputs[..., lo : lo + cfg.batch_size, :], targets[..., lo : lo + cfg.batch_size])
                params, opt_state, stats = training_step(cfg.method, params, batch, cfg.adv, opt_state, rngs)
                if solo:
                    records[0].step_stats.append(stats)
                else:
                    columns = {key: _split(value, runs) for key, value in stats.items()}
                    for i, record in enumerate(records):
                        record.step_stats.append({key: column[i] for key, column in columns.items()})
            tr = {key: _split(value, runs) for key, value in _evaluate(params, train)[0].items()}
            metrics, fwd, correct = _evaluate(params, test)
            te = {key: _split(value, runs) for key, value in metrics.items()}
            if is_class:  # only the test split's reliability is reported
                confs, corrects = _split(confidence_of(fwd), runs), _split(correct, runs)
                eces = list(map(equal_width_ece, confs, corrects))
            del fwd  # the test split's activations, freed before the next epoch trains
            for i, (record, fh) in enumerate(zip(records, metrics_fhs)):
                row: dict = {"epoch": epoch, "train_loss": tr["loss"][i], "val_loss": te["loss"][i]}
                if is_class:
                    row["train_acc"] = tr["acc"][i]
                    row["val_acc"] = te["acc"][i]
                    row["ece"] = eces[i]
                else:
                    row["train_rmse"] = tr["rmse"][i]
                    row["val_rmse"] = te["rmse"][i]
                    row["ece"] = None
                row["reg_value"] = float(np.mean([s["reg_value"] for s in record.step_stats[-steps:]]))
                record.rows.append(row)
                fh.write(json.dumps(row) + "\n")
                fh.flush()
            seconds = time.perf_counter() - t0
            for fh in timing_fhs:
                fh.write(json.dumps({"epoch": epoch, "seconds": seconds}) + "\n")
                fh.flush()

    for i, (c, record, values) in enumerate(zip(cfgs, records, _split(params.values, runs))):
        record.params = params.replace_values(values)
        record.checkpoint_path = os.path.join(c.outdir, "checkpoint.json")
        save_checkpoint(record.params, record.checkpoint_path)
        if is_class:  # the last epoch's bins, whose ece its row holds
            record.reliability_path = os.path.join(c.outdir, "reliability.csv")
            write_reliability_csv(bin_predictions(confs[i], corrects[i]), record.reliability_path)
    return records
