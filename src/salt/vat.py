"""Flat-gradient baselines: the constant-perturbation regularizer update and
label-using adversarial training.

Both run an inner ascent like the anticipating variant but treat its endpoint
as a constant when updating the model, so their leader gradient carries no
interaction term.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .diffmodel import (
    Array,
    Batch,
    ForwardPass,
    ModelParams,
    _backward_input,
    _forward,
    _output,
    _task_seed_sum,
    grad_params,
    task_loss,
)
from .optim import OptimizerState, optimizer_step
from .perturb import AdvConfig, ascend, sample_init
from .regularizers import RegularizerKind, clean_pass, reg_grad_delta_sum, reg_grad_params_sum


def _as_rng(rng: np.random.Generator | int) -> np.random.Generator:
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng


def regularizer_ascent(
    params: ModelParams, x: Array, kind: RegularizerKind, clean: ForwardPass
) -> Callable[[Array], Array]:
    """The VAT follower's ascent direction: d(summed regularizer)/d(delta).
    Its steps share the clean pass at x."""
    return lambda delta: reg_grad_delta_sum(params, x, delta, kind, clean)


def task_ascent(params: ModelParams, batch: Batch) -> Callable[[Array], Array]:
    """The Adv follower's ascent direction: d(summed task loss at x + delta)/d(delta)."""

    def grad_delta(delta: Array) -> Array:
        out, acts = _forward(params, batch.inputs + delta)
        return _backward_input(params, acts, _task_seed_sum(params, out, batch.targets))[0]

    return grad_delta


def _follow(
    grad_delta: Callable[[Array], Array], shape: tuple[int, int], cfg: AdvConfig, rng: np.random.Generator | int
) -> tuple[Array, Array]:
    """Gaussian init, then the projected ascent. Returns (init, endpoint)."""
    delta0 = sample_init(cfg.sigma, shape, _as_rng(rng)).values
    deltas, _ = ascend(grad_delta, delta0, cfg)
    return delta0, deltas[-1]


def vat_gradient(
    params: ModelParams, batch: Batch, delta: Array, cfg: AdvConfig, kind: RegularizerKind, clean: ForwardPass
) -> tuple[Array, Array, float]:
    """Task-loss gradient plus alpha times the regularizer's parameter gradient,
    with delta held constant; also the summed regularizer's delta gradient and
    value at delta, from the same perturbed pass. clean is the pass at
    batch.inputs."""
    task = grad_params(params, batch, clean)
    reg, reg_delta, reg_sum = reg_grad_params_sum(params, batch.inputs, delta, kind, clean)
    if cfg.alpha == 0.0:
        return task, reg_delta, reg_sum
    return task + cfg.alpha * (reg / batch.n), reg_delta, reg_sum


def vat_training_step(
    params: ModelParams,
    batch: Batch,
    cfg: AdvConfig,
    kind: RegularizerKind,
    opt_state: OptimizerState,
    rng: np.random.Generator | int,
) -> tuple[ModelParams, OptimizerState, dict]:
    """One flat-gradient update: inner ascent, then a leader step that treats
    the perturbation as data."""
    x = batch.inputs
    clean = clean_pass(params, x, kind)
    delta0, delta_k = _follow(regularizer_ascent(params, x, kind, clean), x.shape, cfg, rng)
    grad, _, reg_sum = vat_gradient(params, batch, delta_k, cfg, kind, clean)
    new_params, new_state = optimizer_step(params, opt_state, grad)
    stats = {
        "clean_loss": task_loss(_output(params, clean.out), batch.targets),
        "reg_value": reg_sum / batch.n,
        "delta_norm": float(np.sqrt((delta_k**2).sum(axis=1)).mean()),
        "delta0_sum": float(delta0.sum()),
    }
    return new_params, new_state, stats


def adv_training_step(
    params: ModelParams,
    batch: Batch,
    cfg: AdvConfig,
    opt_state: OptimizerState,
    rng: np.random.Generator | int,
) -> tuple[ModelParams, OptimizerState, dict]:
    """Adversarial-training update: clean task gradient plus alpha times the
    task gradient at the attacked inputs, delta held constant."""
    x = batch.inputs
    delta0, delta_k = _follow(task_ascent(params, batch), x.shape, cfg, rng)
    attacked = Batch(inputs=x + delta_k, targets=batch.targets)
    clean, hit = _forward(params, x), _forward(params, attacked.inputs)
    grad = grad_params(params, batch, clean) + cfg.alpha * grad_params(params, attacked, hit)
    new_params, new_state = optimizer_step(params, opt_state, grad)
    stats = {
        "clean_loss": task_loss(_output(params, clean.out), batch.targets),
        "reg_value": task_loss(_output(params, hit.out), batch.targets),
        "delta_norm": float(np.sqrt((delta_k**2).sum(axis=1)).mean()),
        "delta0_sum": float(delta0.sum()),
    }
    return new_params, new_state, stats
