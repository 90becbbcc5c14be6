"""Flat-gradient baselines: the constant-perturbation regularizer update and
label-using adversarial training.

The regularizer baseline runs the anticipating variant's follower
(`stackelberg.unroll_forward`) and its leader part (`vat_gradient`), and skips
only the interaction term: the endpoint is treated as a constant when updating
the model. Adversarial training climbs the task loss instead, with the same
ascent, and also holds its endpoint constant. Both steps run a stack of
problems as the anticipating step does: parameters (m, P), a batch
(m, n, d) and one rng per member.
"""
from __future__ import annotations

from typing import Callable, Sequence

from .diffmodel import (
    Array,
    Batch,
    ModelParams,
    _backward_input,
    _forward,
    _task_seed_sum,
    grad_params,
    mlp_forward,
    task_loss,
)
from .optim import OptimizerState, optimizer_step
from .perturb import AdvConfig, Rng, ascend, sample_init
from .regularizers import RegularizerKind
from .stackelberg import make_adv_objective, step_stats, unroll_forward, vat_gradient


def task_ascent(params: ModelParams, batch: Batch) -> Callable[[Array], Array]:
    """The Adv follower's ascent direction: d(summed task loss at x + delta)/d(delta)."""

    def grad_delta(delta: Array) -> Array:
        fwd = _forward(params, batch.inputs + delta)
        return _backward_input(params, fwd.acts, _task_seed_sum(fwd, batch.targets))[0]

    return grad_delta


def vat_training_step(
    params: ModelParams,
    batch: Batch,
    cfg: AdvConfig,
    kind: RegularizerKind,
    opt_state: OptimizerState,
    rng: Rng | Sequence[Rng],
) -> tuple[ModelParams, OptimizerState, dict]:
    """One flat-gradient update: the follower's unroll, then a leader step
    that treats its endpoint as data."""
    x = batch.inputs
    clean = mlp_forward(params, x)
    tape = unroll_forward(params, x, cfg, make_adv_objective(params, x, kind, clean), rng)
    grad, _, reg_sum = vat_gradient(params, batch, tape.deltas[-1], cfg, kind, clean)
    new_params, new_state = optimizer_step(params, opt_state, grad)
    stats = step_stats(batch, clean, reg_sum / batch.n, tape.deltas[0], tape.deltas[-1])
    return new_params, new_state, stats


def adv_training_step(
    params: ModelParams,
    batch: Batch,
    cfg: AdvConfig,
    opt_state: OptimizerState,
    rng: Rng | Sequence[Rng],
) -> tuple[ModelParams, OptimizerState, dict]:
    """Adversarial-training update: clean task gradient plus alpha times the
    task gradient at the attacked inputs, delta held constant."""
    x = batch.inputs
    delta0 = sample_init(cfg.sigma, x.shape, rng).values
    delta_k = ascend(task_ascent(params, batch), delta0, cfg)[0][-1]
    attacked = Batch(inputs=x + delta_k, targets=batch.targets)
    clean, hit = _forward(params, x), _forward(params, attacked.inputs)
    grad = grad_params(params, batch, clean) + cfg.alpha * grad_params(params, attacked, hit)
    new_params, new_state = optimizer_step(params, opt_state, grad)
    return new_params, new_state, step_stats(batch, clean, task_loss(hit, batch.targets), delta0, delta_k)
