"""Microbenchmarks of salt's layer primitives at the canonical shapes.

Inputs come from the canonical point of the run's seed: the 2-32-32-2 network
(1218 parameters), the first batch of 25, a K=2 ascent tape recorded on it,
and the 500-example test set. Each primitive is timed in blocks of at least
_BLOCK_S seconds; the result is the median block's microseconds per call.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from salt.calibration import bin_predictions, confidence_of
from salt.diffmodel import grad_params, mlp_forward
from salt.optim import optimizer_step
from salt.perturb import project_jvp_rows
from salt.regularizers import reg_grad_delta_sum, reg_grad_params_sum
from salt.stackelberg import interaction_adjoint, make_adv_objective, unroll_forward

_BLOCK_S = 0.02
_BLOCKS = 5


def _us_per_call(fn) -> float:
    fn()
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= _BLOCK_S:
            break
        calls *= 2
    blocks = []
    for _ in range(_BLOCKS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        blocks.append((time.perf_counter() - t0) / calls)
    return statistics.median(blocks) * 1e6


def primitives(point, seed: int) -> dict:
    """Name -> zero-argument callable, one per primitive."""
    cfg, kind = point.cfg.adv, point.cfg.model.regularizer_kind
    params, batch, x = point.params, point.batch, point.batch.inputs
    obj = make_adv_objective(params, x, kind)
    tape = unroll_forward(params, x, cfg, obj, seed)
    delta_k = tape.deltas[-1]
    grad = grad_params(params, batch)
    _, opt_state = optimizer_step(params, point.opt_state, grad)  # Adam moments populated
    tangent = np.random.default_rng(seed).standard_normal(x.shape)
    test_out = mlp_forward(params, point.test.inputs)
    confidences = confidence_of(test_out)
    correct = (test_out.logits.argmax(axis=1) == point.test.targets).astype(float)
    return {
        "mlp_forward_b25": lambda: mlp_forward(params, x),
        "mlp_forward_b500": lambda: mlp_forward(params, point.test.inputs),
        "grad_params": lambda: grad_params(params, batch),
        "reg_grad_delta_sum": lambda: reg_grad_delta_sum(params, x, delta_k, kind),
        "reg_grad_params_sum": lambda: reg_grad_params_sum(params, x, delta_k, kind),
        "project_jvp_rows": lambda: project_jvp_rows(
            tape.pre_projections[-1], tangent, cfg.epsilon, cfg.norm, cfg.proj_mode
        ),
        "unroll_forward": lambda: unroll_forward(params, x, cfg, obj, seed),
        "interaction_adjoint": lambda: interaction_adjoint(tape, params, x, obj, cfg),
        "optimizer_step": lambda: optimizer_step(params, opt_state, grad),
        "bin_predictions_n500": lambda: bin_predictions(confidences, correct),
    }


def run_micro(point, seed: int) -> dict:
    """Microseconds per call of every primitive."""
    return {name: _us_per_call(fn) for name, fn in primitives(point, seed).items()}
