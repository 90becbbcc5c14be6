"""Flat-gradient baselines: inner ascent behavior and leader gradients."""
from __future__ import annotations

import numpy as np
import pytest

from salt.diffmodel import Batch, grad_params, init_params, mlp_forward, task_loss
from salt.optim import OptimizerState
from salt.perturb import AdvConfig, ascend, sample_init
from salt.regularizers import RegularizerKind, reg_grad_params_sum, reg_value_sum
from salt.stackelberg import make_adv_objective, unroll_forward
from salt.vat import adv_training_step, task_ascent, vat_gradient, vat_training_step

KIND = RegularizerKind.KL_DIVERGENCE


def _setup(seed=0, sizes=(2, 8, 3), n=5):
    rng = np.random.default_rng(seed)
    p = init_params(list(sizes), rng)
    x = rng.normal(size=(n, sizes[0]))
    if sizes[-1] > 1:
        y = rng.integers(0, sizes[-1], n)
    else:
        y = rng.normal(size=n)
    return p, Batch(inputs=x, targets=y)


def _endpoint(p, x, cfg, seed, clean=None):
    """The follower's endpoint, as the VAT step computes it."""
    return unroll_forward(p, x, cfg, make_adv_objective(p, x, KIND, clean), seed).deltas[-1]


def test_k0_returns_projected_init_unchanged_by_model():
    p, batch = _setup()
    cfg = AdvConfig(epsilon=0.5, eta=0.7, sigma=0.1, k_steps=0)
    d = _endpoint(p, batch.inputs, cfg, 42)
    ref = np.random.default_rng(42).standard_normal(batch.inputs.shape) * cfg.sigma
    assert np.array_equal(d, ref)  # K=0: the raw draw, no ascent, no projection


def test_follower_matches_unroll_trajectory():
    """VAT and SALT pair by construction: for the same config and seed both
    steps run the same follower, so their perturbation stats agree bit for bit."""
    from salt.stackelberg import salt_training_step

    state = OptimizerState(kind="Adam", lr=1e-3)
    for sizes, kind in (((2, 8, 3), KIND), ((2, 8, 1), RegularizerKind.SQUARED_DIFFERENCE)):
        p, batch = _setup(seed=3, sizes=sizes)
        for norm in ("L2", "LInf"):
            for k in (0, 1, 4):
                cfg = AdvConfig(epsilon=0.3, eta=0.8, sigma=0.2, k_steps=k, norm=norm)
                _, _, vat_stats = vat_training_step(p, batch, cfg, kind, state, 7)
                _, _, salt_stats = salt_training_step(p, batch, cfg, kind, state, 7)
                for key in ("clean_loss", "delta0_sum", "delta_norm", "reg_value"):
                    assert vat_stats[key] == salt_stats[key]


def test_vat_gradient_matches_sum_of_parts():
    p, batch = _setup(seed=5)
    cfg = AdvConfig(alpha=0.7, epsilon=0.5, eta=0.6, sigma=0.1, k_steps=2)
    x = batch.inputs
    clean = mlp_forward(p, x)
    d = _endpoint(p, x, cfg, 11, clean)
    g = vat_gradient(p, batch, d, cfg, KIND, clean)[0]
    want = grad_params(p, batch) + cfg.alpha * (reg_grad_params_sum(p, x, d, KIND)[0] / batch.n)
    assert np.array_equal(g, want)


def test_vat_gradient_alpha_zero_is_clean_gradient():
    p, batch = _setup(seed=6)
    cfg = AdvConfig(alpha=0.0, epsilon=0.5, eta=0.6, sigma=0.1, k_steps=2)
    d = np.full_like(batch.inputs, 100.0)
    clean = mlp_forward(p, batch.inputs)
    assert np.array_equal(vat_gradient(p, batch, d, cfg, KIND, clean)[0], grad_params(p, batch))


def test_vat_gradient_matches_fd_with_frozen_delta():
    p, batch = _setup(seed=8, sizes=(2, 5, 2), n=3)
    cfg = AdvConfig(alpha=1.3, epsilon=0.5, eta=0.6, sigma=0.1, k_steps=2)
    x = batch.inputs
    clean = mlp_forward(p, x)
    d = _endpoint(p, x, cfg, 2, clean)

    def total(theta):
        q = p.replace_values(theta)
        return task_loss(mlp_forward(q, x), batch.targets) + cfg.alpha * (reg_value_sum(q, x, d, KIND) / batch.n)

    g = vat_gradient(p, batch, d, cfg, KIND, clean)[0]
    h = 1e-6
    fd = np.zeros_like(g)
    for i in range(g.size):
        e = np.zeros_like(p.values)
        e[i] = h
        fd[i] = (total(p.values + e) - total(p.values - e)) / (2 * h)
    assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(fd)


def test_ascent_increases_regularizer():
    # over random draws, K steps of ascent should rarely lose to the raw init
    wins = 0
    trials = 60
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        p = init_params([2, 6, 3], rng, scale=2.0)
        x = rng.normal(size=(4, 2))
        cfg = AdvConfig(epsilon=1.0, eta=0.5, sigma=0.1, k_steps=3)
        d0 = np.random.default_rng(seed + 1000).standard_normal(x.shape) * cfg.sigma
        dk = _endpoint(p, x, cfg, seed + 1000)
        if reg_value_sum(p, x, dk, KIND) >= reg_value_sum(p, x, d0, KIND):
            wins += 1
    assert wins >= 0.95 * trials


def test_task_ascent_increases_task_loss():
    wins = 0
    trials = 40
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        p = init_params([2, 6, 2], rng, scale=2.0)
        x = rng.normal(size=(4, 2))
        y = rng.integers(0, 2, 4)
        batch = Batch(inputs=x, targets=y)
        cfg = AdvConfig(epsilon=1.0, eta=0.5, sigma=0.1, k_steps=3)
        d0 = np.random.default_rng(seed + 500).standard_normal(x.shape) * cfg.sigma
        dk = ascend(task_ascent(p, batch), sample_init(cfg.sigma, x.shape, seed + 500).values, cfg)[0][-1]
        before = task_loss(mlp_forward(p, x + d0), y)
        after = task_loss(mlp_forward(p, x + dk), y)
        if after >= before:
            wins += 1
    assert wins >= 0.95 * trials


def test_training_step_statistics_and_determinism():
    p, batch = _setup(seed=9)
    cfg = AdvConfig(alpha=1.0, epsilon=0.5, eta=0.7, sigma=0.1, k_steps=2)
    state = OptimizerState(kind="Adam", lr=1e-3)
    p1, s1, st1 = vat_training_step(p, batch, cfg, KIND, state, 77)
    p2, s2, st2 = vat_training_step(p, batch, cfg, KIND, state, 77)
    assert np.array_equal(p1.values, p2.values)
    assert st1 == st2
    assert st1["clean_loss"] == pytest.approx(task_loss(mlp_forward(p, batch.inputs), batch.targets))
    assert st1["delta_norm"] > 0
    # delta0_sum records the raw draw, before any ascent
    raw = np.random.default_rng(77).standard_normal(batch.inputs.shape) * cfg.sigma
    assert st1["delta0_sum"] == pytest.approx(raw.sum(), abs=1e-15)


def test_adv_training_step_runs_and_reports_attacked_loss():
    p, batch = _setup(seed=10, sizes=(2, 6, 2))
    cfg = AdvConfig(alpha=1.0, epsilon=0.5, eta=0.7, sigma=0.1, k_steps=2)
    state = OptimizerState(kind="SGD", lr=0.1)
    p1, _, stats = adv_training_step(p, batch, cfg, state, 5)
    assert not np.array_equal(p1.values, p.values)
    assert stats["reg_value"] >= 0.0
    assert stats["delta_norm"] > 0.0
