"""Hand-recursion oracles for the two optimizers."""
from __future__ import annotations

import numpy as np
import pytest

from salt.diffmodel import init_params
from salt.errors import ContractViolation
from salt.optim import OptimizerState, optimizer_step


def test_sgd_exact_step():
    rng = np.random.default_rng(0)
    params = init_params([2, 3], rng)  # 9 parameters
    grad = np.arange(9, dtype=np.float64)
    state = OptimizerState(kind="SGD", lr=0.1)
    new_params, new_state = optimizer_step(params, state, grad)
    assert np.array_equal(new_params.values, params.values - 0.1 * grad)
    assert new_state is state  # SGD carries no buffers


def test_adam_first_step_is_signed_lr():
    rng = np.random.default_rng(1)
    params = init_params([2, 3], rng)
    grad = rng.normal(size=9)
    lr = 0.01
    state = OptimizerState(kind="Adam", lr=lr, eps=0.0)
    new_params, new_state = optimizer_step(params, state, grad)
    # with bias correction and eps=0, the first update is exactly -lr * sign(grad)
    step = new_params.values - params.values
    assert np.allclose(step, -lr * np.sign(grad), rtol=0, atol=1e-15)
    assert new_state.t == 1


def test_adam_five_step_hand_recursion():
    rng = np.random.default_rng(2)
    params = init_params([2, 3], rng)
    n = params.values.size
    lr, b1, b2, eps = 0.05, 0.9, 0.98, 1e-8
    state = OptimizerState(kind="Adam", lr=lr, betas=(b1, b2), eps=eps)

    theta = params.values.copy()
    m = np.zeros(n)
    v = np.zeros(n)
    cur = params
    for t in range(1, 6):
        grad = rng.normal(size=n)
        cur, state = optimizer_step(cur, state, grad)
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad**2
        theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert np.array_equal(cur.values, theta)
    assert state.t == 5


def test_adam_converges_on_quadratic():
    rng = np.random.default_rng(3)
    params = init_params([2, 3], rng)
    target = rng.normal(size=9)
    state = OptimizerState(kind="Adam", lr=0.1)
    cur = params
    start = float(((cur.values - target) ** 2).sum())
    for _ in range(500):
        cur, state = optimizer_step(cur, state, cur.values - target)
    assert ((cur.values - target) ** 2).sum() < start / 100.0


def test_rejects_mismatched_gradient():
    params = init_params([2, 3], np.random.default_rng(4))
    state = OptimizerState(kind="SGD", lr=0.1)
    with pytest.raises(ContractViolation):
        optimizer_step(params, state, np.zeros(5))


def test_rejects_bad_state():
    with pytest.raises(ContractViolation):
        OptimizerState(kind="RMSProp", lr=0.1)
    with pytest.raises(ContractViolation):
        OptimizerState(kind="Adam", lr=0.0)
    for lr in (float("nan"), float("inf"), True):
        with pytest.raises(ContractViolation, match="learning rate must be positive and finite"):
            OptimizerState(kind="Adam", lr=lr)
    for betas in ((1.0, 0.98), (0.9, -0.1), (float("nan"), 0.98)):
        with pytest.raises(ContractViolation, match=r"betas must lie in \[0, 1\)"):
            OptimizerState(kind="Adam", lr=0.1, betas=betas)
    # a malformed pair is refused as the config refuses it, not by a failed unpack
    for betas in ((0.9,), (0.9, 0.98, 0.5), 0.9, None):
        with pytest.raises(ContractViolation, match=r"betas must be a pair, got"):
            OptimizerState(kind="Adam", lr=0.1, betas=betas)
    # NaN and a negative eps used to fail only at the first step, as non-finite
    # parameters; an infinite one zeroed every update; True stepped with eps 1
    for eps in (float("nan"), -1.0, -1e-300, float("inf"), True):
        with pytest.raises(ContractViolation, match="eps must be non-negative and finite"):
            OptimizerState(kind="Adam", lr=0.1, eps=eps)
    assert OptimizerState(kind="Adam", lr=0.1, betas=(0.0, 0.0), eps=0.0).eps == 0.0


def test_adam_state_keeps_its_settings_across_steps():
    """adam_step builds the next state directly, checks included: every
    setting carries over and only t and the moments move."""
    params = init_params([2, 3], np.random.default_rng(5))
    state = OptimizerState(kind="Adam", lr=0.02, betas=(0.5, 0.75), eps=1e-6)
    for t in (1, 2):
        _, state = optimizer_step(params, state, np.ones(9))
        assert (state.kind, state.lr, state.betas, state.eps, state.t) == ("Adam", 0.02, (0.5, 0.75), 1e-6, t)
        assert state.m.shape == state.v.shape == (9,)
