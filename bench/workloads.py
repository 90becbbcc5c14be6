"""The four benchmark workloads, driven through salt's public entry points.

Each workload is closed-loop: one pass is a whole job (a training run, a
sweep, a verification round), and the next pass starts only when the previous
one returned. Every pass of a workload at a given seed does identical work, so
its outputs must repeat exactly; the runner checks that.

Entry points are called through their modules (``experiment.run_experiment``,
not a local name) so that the tracer's wrappers on those attributes see them.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from salt import gradcheck, stackelberg
from salt.diffmodel import Batch, init_params
from salt.harness import experiment
from salt.harness import sweep as sweeps
from salt.harness.config import Method, load_config, override
from salt.harness.experiment import substream
from salt.optim import OptimizerState
from salt.perturb import sample_init

GRADCHECK_TOL = 1e-4  # the tolerance `salt gradcheck` passes at
# The toy gradcheck suite is the `salt gradcheck` default (master seed 0) at
# every benchmark seed: its instance sizes are random, and over seeds 0-9 the
# time of 20 instances spread 0.27 (IQR/median), more than the timing bounds.
TOY_SUITE_SEED = 0
CANONICAL_CONFIG = os.path.join("configs", "canonical_salt.json")


@dataclass
class PassResult:
    """What one pass did and produced."""

    ops: int  # leader updates, or finite-difference objective evaluations
    steps: int = 0
    epochs: int = 0
    runs: int = 0
    epoch_s: list = field(default_factory=list)
    step_stats: list = field(default_factory=list)
    checks: list = field(default_factory=list)  # (name, ok, detail)
    outputs: str = ""  # digest of everything the pass produced; repeats must match
    quality: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CanonicalPoint:
    """The first SALT step of the canonical config at one seed, as run_experiment builds it."""

    cfg: object
    train: Batch
    test: Batch
    params: object
    opt_state: OptimizerState
    batch: Batch
    delta0: np.ndarray

    def fingerprint(self) -> str:
        h = hashlib.sha1()
        for arr in (self.train.inputs, self.test.inputs, self.params.values, self.batch.inputs, self.delta0):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def canonical_config(root: str, seed: int):
    return override(load_config(os.path.join(root, CANONICAL_CONFIG)), seed=seed)


def canonical_point(root: str, seed: int) -> CanonicalPoint:
    """Config load, dataset generation and init: everything before the first step."""
    cfg = canonical_config(root, seed)
    train, test = experiment.load_dataset(cfg)
    params = init_params(cfg.model.layers, substream(seed, "model-init"))
    opt = cfg.optimizer
    opt_state = OptimizerState(kind=opt.kind, lr=opt.lr, betas=opt.betas, eps=opt.eps)
    sel = substream(seed, "data-order").permutation(train.n)[: cfg.batch_size]
    batch = Batch(train.inputs[sel], train.targets[sel])
    delta0 = sample_init(cfg.adv.sigma, batch.inputs.shape, substream(seed, "perturb-init")).values
    return CanonicalPoint(cfg, train, test, params, opt_state, batch, delta0)


def _finite_rows(rows: list[dict]) -> bool:
    return all(
        isinstance(v, (int, float)) and math.isfinite(v)
        for row in rows
        for v in row.values()
        if v is not None and not isinstance(v, bool)
    )


def _read_run_dir(outdir: str) -> tuple[bytes, list[dict], list[float]]:
    with open(os.path.join(outdir, "metrics.jsonl"), "rb") as fh:
        raw = fh.read()
    rows = [json.loads(line) for line in raw.splitlines()]
    with open(os.path.join(outdir, "timing.jsonl")) as fh:
        epoch_s = [json.loads(line)["seconds"] for line in fh]
    return raw, rows, epoch_s


class TrainingWorkload:
    """One or more run_experiment calls on the canonical config."""

    threads = 1

    def __init__(self, root: str, seed: int, tmp: str, methods: tuple[Method, ...], epochs: int | None):
        base = canonical_config(root, seed)
        if epochs is not None:
            base = override(base, epochs=epochs)
        self.configs = [
            override(base, method=m, outdir=os.path.join(tmp, f"{m.value}-seed{seed}")) for m in methods
        ]

    def run_pass(self) -> PassResult:
        res = PassResult(ops=0)
        digest = hashlib.sha1()
        losses, accs = [], []
        for cfg in self.configs:
            rec = experiment.run_experiment(cfg)
            raw, _, epoch_s = _read_run_dir(cfg.outdir)
            digest.update(raw)
            ok = len(rec.rows) == cfg.epochs and _finite_rows(rec.rows)
            res.checks.append((f"{cfg.method.value} run finite", ok, f"{len(rec.rows)} rows"))
            res.ops += len(rec.step_stats)
            res.steps += len(rec.step_stats)
            res.epochs += len(rec.rows)
            res.runs += 1
            res.epoch_s += epoch_s
            if cfg.method == Method.SALT:
                res.step_stats += rec.step_stats
            losses.append(rec.final["val_loss"])
            accs.append(rec.final["val_acc"])
        res.outputs = digest.hexdigest()
        res.quality = {"val_loss_final": float(np.mean(losses)), "val_acc_final": float(np.mean(accs))}
        return res


class DepthSweepWorkload:
    """sweep() over k_steps 0..3 at two paired seeds, through its thread pool."""

    VALUES = [0, 1, 2, 3]
    threads = 2  # SALT_THREADS for the sweep's pool

    def __init__(self, root: str, seed: int, tmp: str, epochs: int):
        self.seeds = [seed, seed + 1]
        self.template = override(
            canonical_config(root, seed), epochs=epochs, outdir=os.path.join(tmp, f"sweep-seed{seed}")
        )
        self.csv_path = os.path.join(self.template.outdir, "sweep.csv")

    def run_pass(self) -> PassResult:
        previous = os.environ.get("SALT_THREADS")
        os.environ["SALT_THREADS"] = str(self.threads)
        try:
            rows = sweeps.sweep(self.template, "k_steps", self.VALUES, self.seeds, self.csv_path)
        finally:
            if previous is None:
                del os.environ["SALT_THREADS"]
            else:
                os.environ["SALT_THREADS"] = previous
        cfg = self.template
        steps_per_epoch = -(-cfg.dataset.n_train // cfg.batch_size)
        res = PassResult(ops=0)
        digest = hashlib.sha1()
        with open(self.csv_path, "rb") as fh:
            digest.update(fh.read())
        for k in self.VALUES:
            for s in self.seeds:
                outdir = os.path.join(cfg.outdir, f"k_steps={k}", f"seed={s}")
                raw, metric_rows, epoch_s = _read_run_dir(outdir)
                digest.update(raw)
                ok = len(metric_rows) == cfg.epochs and _finite_rows(metric_rows)
                res.checks.append((f"sweep k={k} seed={s} finite", ok, f"{len(metric_rows)} rows"))
                res.epoch_s += epoch_s
                res.epochs += len(metric_rows)
                res.runs += 1
        res.steps = res.ops = res.epochs * steps_per_epoch
        res.outputs = digest.hexdigest()
        res.quality = {
            "val_loss_final": float(np.mean([r["final_val_loss"] for r in rows])),
            "val_acc_final": float(np.mean([r["final_val_acc"] for r in rows])),
        }
        return res


class GradcheckWorkload:
    """Toy end-to-end gradchecks plus one finite-difference hypergradient check
    of the production SALT gradient at the seed's canonical point."""

    threads = 1

    def __init__(self, root: str, seed: int, instances: int):
        self.seed = seed
        self.instances = instances
        self.point = canonical_point(root, seed)

    def run_pass(self) -> PassResult:
        records = gradcheck.run_gradcheck(self.instances, None, TOY_SUITE_SEED)
        res = PassResult(ops=0)
        for r in records:
            ok = math.isfinite(r.rel_err) and r.rel_err <= GRADCHECK_TOL
            res.checks.append((f"gradcheck instance {r.index}", ok, f"rel_err {r.rel_err:.3e}"))
            res.ops += 2 * r.n_params
        p = self.point
        cfg, kind = p.cfg.adv, p.cfg.model.regularizer_kind
        grad = stackelberg.stackelberg_gradient(p.params, p.batch, cfg, kind, substream(self.seed, "perturb-init"))
        fd = gradcheck.hypergradient_fd(p.params, p.batch, cfg, kind, p.delta0)
        res.ops += 2 * p.params.n_params
        total_err = float(np.linalg.norm(fd - grad.total) / np.linalg.norm(fd))
        inter_err = float(
            np.linalg.norm(fd - grad.leader_part - grad.interaction_part)
            / max(np.linalg.norm(grad.interaction_part), 1e-300)
        )
        ok = math.isfinite(total_err) and total_err <= GRADCHECK_TOL
        res.checks.append(("canonical total gradient vs central differences", ok, f"rel_err {total_err:.3e}"))
        res.outputs = repr(([r.rel_err for r in records], [r.resamples for r in records], total_err, inter_err))
        res.quality = {
            "interaction_rel_err": inter_err,
            "canonical_total_rel_err": total_err,
            "gradcheck_max_rel_err": max(r.rel_err for r in records),
            "gradcheck_accept_frac": len(records) / (len(records) + sum(r.resamples for r in records)),
        }
        res.runs = len(records) + 1
        return res


def make_workload(name: str, root: str, seed: int, tmp: str, smoke: bool):
    """Build a workload; smoke shortens it to a few epochs and instances."""
    if name == "salt-canonical":
        return TrainingWorkload(root, seed, tmp, (Method.SALT,), 2 if smoke else None)
    if name == "flat-canonical":
        return TrainingWorkload(root, seed, tmp, (Method.ERM, Method.ADV, Method.VAT), 2 if smoke else None)
    if name == "depth-sweep":
        return DepthSweepWorkload(root, seed, tmp, 2 if smoke else 3)
    if name == "gradcheck":
        return GradcheckWorkload(root, seed, 2 if smoke else 20)
    raise ValueError(f"unknown workload {name!r}")
