"""Unrolled inner ascent, curvature (tangent maps and probes), the leader's
full gradient, and the training step of every method, the flat baselines
(VAT and Adv) included.

Quadratic inner objectives (tests/helpers.py) have closed-form trajectories
and exact second derivatives, so every differentiation path here is checked
against hand math or an independently computed oracle.
"""
from __future__ import annotations

import ast
import functools
import inspect
import platform

import numpy as np
import pytest

from helpers import (
    count_c_calls,
    count_minor_faults,
    count_python_calls,
    count_reductions,
    quadratic_objective,
    random_quadratic,
    reg_value,
    shipped_config,
)
from oracles import adv_objectives, attach_fd_second_order, hvp_fd, jacobian_forward_oracle
from salt.diffmodel import Batch, _backward, _task_seed_sum, grad_params, init_params, mlp_forward, task_loss
from salt.errors import ContractViolation
from salt.optim import OptimizerState, optimizer_step
from salt.perturb import AdvConfig, NormKind, ascend, project_jvp_rows, sample_init
from salt.regularizers import RegularizerKind, reg_grad_delta_sum, reg_grad_params_sum
from salt.stackelberg import (
    Method,
    interaction_adjoint,
    make_adv_objective,
    stackelberg_gradient,
    task_ascent,
    training_step,
    unroll_forward,
)

KIND = RegularizerKind.KL_DIVERGENCE
P_CARRIER = [2, 2]  # flat size 2*2 + 2 = 6; a model over the (n, 2) inputs the adjoint takes


def _carrier(rng, p_dim=6):
    params = init_params(P_CARRIER, rng)
    assert params.n_params == p_dim
    return params


def _rel(got, want):
    scale = max(np.linalg.norm(want), 1e-300)
    return float(np.linalg.norm(got - want) / scale)


# ---------- forward unroll ----------


def test_unroll_matches_closed_form_without_clipping():
    rng = np.random.default_rng(0)
    n, d = 2, 3
    a_mat, b_mat, family = random_quadratic(rng, n, d, 6, scale=0.4)
    params = _carrier(rng)
    x = np.zeros((n, d))
    cfg = AdvConfig(epsilon=1e9, eta=0.37, sigma=0.5, k_steps=4)
    tape = unroll_forward(params, x, cfg, family(params.values), rng=123)

    flat = tape.deltas[0].ravel()
    theta = params.values
    drive = b_mat @ theta
    for k in range(1, cfg.k_steps + 1):
        flat = flat + cfg.eta * (a_mat @ flat + drive)
        assert _rel(tape.deltas[k].ravel(), flat) <= 1e-10
        # interior of a huge ball: projection leaves the point bit-unchanged
        assert np.array_equal(tape.deltas[k], tape.pre_projections[k - 1])
    assert tape.k_steps == 4
    assert len(tape.deltas) == 5


def test_unroll_saturates_small_ball():
    rng = np.random.default_rng(1)
    _, _, family = random_quadratic(rng, 3, 2, 6, scale=1.0)
    params = _carrier(rng)
    x = np.zeros((3, 2))
    cfg = AdvConfig(epsilon=0.05, eta=10.0, sigma=1.0, k_steps=3, norm=NormKind.L2)
    tape = unroll_forward(params, x, cfg, family(params.values), rng=5)
    assert np.sqrt((tape.deltas[0] ** 2).sum(axis=1)).max() > cfg.epsilon  # raw draw escapes
    for k in range(1, 4):
        norms = np.sqrt((tape.deltas[k] ** 2).sum(axis=1))
        assert norms.max() <= cfg.epsilon * (1.0 + 1e-12)


def test_unroll_int_seed_reproducible():
    rng = np.random.default_rng(2)
    _, _, family = random_quadratic(rng, 2, 2, 6)
    params = _carrier(rng)
    obj = family(params.values)
    x = np.zeros((2, 2))
    cfg = AdvConfig(epsilon=1.0, eta=0.3, sigma=0.2, k_steps=2)
    t1 = unroll_forward(params, x, cfg, obj, rng=99)
    t2 = unroll_forward(params, x, cfg, obj, rng=np.random.default_rng(99))
    for a, b in zip(t1.deltas, t2.deltas):
        assert np.array_equal(a, b)


# ---------- finite-difference curvature probe ----------


def test_hvp_fd_exact_on_affine_gradients():
    rng = np.random.default_rng(3)
    dim = 7
    raw = rng.normal(size=(dim, dim))
    h_mat = 0.5 * (raw + raw.T)
    c = rng.normal(size=dim)
    point = rng.normal(size=dim)
    v = rng.normal(size=dim)
    got = hvp_fd(lambda z: h_mat @ z + c, point, v)
    assert _rel(got, h_mat @ v) <= 1e-8


def test_hvp_fd_costs_exactly_two_evaluations():
    calls = []

    def grad_fn(z):
        calls.append(z.copy())
        return z**2

    point = np.array([1.0, 2.0, 3.0])
    hvp_fd(grad_fn, point, np.array([1.0, 0.0, -1.0]))
    assert len(calls) == 2
    calls.clear()
    out = hvp_fd(grad_fn, point, np.zeros(3))
    assert np.array_equal(out, np.zeros(3))
    assert len(calls) == 1  # single probe call just to size the zero result


def test_hvp_fd_linear_in_v():
    rng = np.random.default_rng(4)
    h_mat = np.diag(rng.uniform(0.5, 2.0, 5))
    point = rng.normal(size=5)
    v = rng.normal(size=5)
    one = hvp_fd(lambda z: h_mat @ z, point, v)
    two = hvp_fd(lambda z: h_mat @ z, point, 2.0 * v)
    assert _rel(two, 2.0 * one) <= 1e-14


def test_hvp_fd_cubic_oracle():
    point = np.array([0.5, -1.2, 2.0])
    v = np.array([0.3, 1.0, -0.7])
    got = hvp_fd(lambda z: z**3, point, v)
    want = 3.0 * point**2 * v
    assert _rel(got, want) <= 1e-6


def test_hvp_fd_rejects_bad_shapes():
    with pytest.raises(ContractViolation):
        hvp_fd(lambda z: z, np.zeros((2, 2)), np.zeros(4))
    with pytest.raises(ContractViolation):
        hvp_fd(lambda z: z, np.zeros(3), np.zeros(4))


# ---------- interaction term on quadratics ----------


def _quad_setup(seed, n=2, d=2, k_steps=1, epsilon=1e6, eta=0.4, alpha=1.0):
    rng = np.random.default_rng(seed)
    a_mat, b_mat, family = random_quadratic(rng, n, d, 6, scale=0.5)
    params = _carrier(rng)
    obj = family(params.values)
    x = np.zeros((n, d))
    cfg = AdvConfig(alpha=alpha, epsilon=epsilon, eta=eta, sigma=0.5, k_steps=k_steps)
    tape = unroll_forward(params, x, cfg, obj, rng=seed + 10)
    return a_mat, b_mat, obj, params, x, cfg, tape


def test_adjoint_k1_closed_form():
    a_mat, b_mat, obj, params, x, cfg, tape = _quad_setup(seed=6)
    n = x.shape[0]
    got = interaction_adjoint(tape, params, x, obj, cfg)
    v = (a_mat @ tape.deltas[1].ravel() + b_mat @ params.values) / n
    want = cfg.alpha * cfg.eta * (b_mat.T @ v)
    assert _rel(got, want) <= 1e-12


def test_adjoint_zero_when_objective_ignores_params():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(4, 4))
    a_mat = 0.5 * (raw + raw.T)
    params = _carrier(rng)
    obj = quadratic_objective(a_mat, np.zeros((4, 6)))(params.values)
    x = np.zeros((2, 2))
    cfg = AdvConfig(epsilon=1e6, eta=0.3, sigma=0.5, k_steps=3)
    tape = unroll_forward(params, x, cfg, obj, rng=1)
    got = interaction_adjoint(tape, params, x, obj, cfg)
    assert np.array_equal(got, np.zeros(6))


def test_adjoint_scales_linearly_with_alpha():
    out = {}
    for alpha in (1.0, 2.5):
        _, _, obj, params, x, cfg, tape = _quad_setup(seed=8, k_steps=2, alpha=alpha)
        out[alpha] = interaction_adjoint(tape, params, x, obj, cfg)
    assert _rel(out[2.5], 2.5 * out[1.0]) <= 1e-14


def test_adjoint_k0_is_zero():
    _, _, obj, params, x, cfg, tape = _quad_setup(seed=9, k_steps=0)
    got = interaction_adjoint(tape, params, x, obj, cfg)
    assert np.array_equal(got, np.zeros(6))


def test_adjoint_matches_forward_oracle_with_clipping_active():
    # epsilon small enough that rows get clipped, exercising the projection Jacobian
    a_mat, b_mat, obj, params, x, cfg, tape = _quad_setup(
        seed=10, n=3, d=2, k_steps=3, epsilon=0.4, eta=0.8
    )
    clipped = any(
        np.sqrt((pre**2).sum(axis=1)).max() > cfg.epsilon for pre in tape.pre_projections
    )
    assert clipped, "setup failed to trigger the projection"
    n = x.shape[0]
    jac = jacobian_forward_oracle(tape, params, x, cfg, lambda d: (a_mat, b_mat))
    v = obj(tape.deltas[-1])[0].ravel() / n
    want = cfg.alpha * (v @ jac)
    got = interaction_adjoint(tape, params, x, obj, cfg)
    assert _rel(got, want) <= 1e-12


# ---------- the interaction at a follower fixed point ----------


def _saturated_interaction(a_diag, sigma, k_steps):
    """The interaction on a quadratic whose follower starts from sigma * a
    Gaussian draw, with rows saturated on an epsilon = 0.1 sphere by a step
    of eta = 1e6."""
    rng = np.random.default_rng(11)
    params = _carrier(rng)
    obj = quadratic_objective(np.diag(a_diag), rng.normal(size=(4, 6)))(params.values)
    x = np.zeros((2, 2))
    cfg = AdvConfig(alpha=1.0, epsilon=0.1, eta=1e6, sigma=sigma, k_steps=k_steps)
    tape = unroll_forward(params, x, cfg, obj, rng=0)
    return float(np.linalg.norm(interaction_adjoint(tape, params, x, obj, cfg)))


def test_interaction_vanishes_at_a_follower_fixed_point():
    """With A = 0.7 I, delta0 = 0 projects in one step to the rows of B theta
    scaled onto the sphere, where each row's gradient 0.7 delta + B theta is
    parallel to the row: a fixed point. The projection Jacobian removes the
    endpoint gradient's part along the row, so the interaction is zero to
    rounding at every depth (Danskin). Off the fixed point, from a perturbed
    delta0 or under an anisotropic A, it is not, and it shrinks as the
    follower converges with depth."""
    for k_steps in (1, 2, 3):
        assert _saturated_interaction([0.7] * 4, 0.0, k_steps) <= 1e-15
    for a_diag, sigma in (([0.7] * 4, 0.05), ([0.7, 0.2, -0.4, 1.3], 0.0)):
        off = [_saturated_interaction(a_diag, sigma, k_steps) for k_steps in (1, 2, 3)]
        assert off[0] > off[1] > off[2] > 1e-8, (a_diag, sigma, off)


def test_saturated_row_cotangent_norm_is_the_sine_of_its_angle():
    """On an L2 row outside the ball, the projection Jacobian is
    (epsilon/|p|)(I - p^ p^T), so it maps g to a vector of norm
    (epsilon/|p|) |g| sin(g, p): zero for g parallel to p, the whole scaled
    |g| for g orthogonal to it. sqrt(1 - cos^2) loses the sine of a nearly
    parallel pair to cancellation, so those two ends are checked apart from
    the random rows."""
    rng = np.random.default_rng(5)
    epsilon = 0.1
    pre = rng.normal(size=(52, 3)) * 3.0
    g = rng.normal(size=(52, 3))
    g[-2], g[-1] = 2.5 * pre[-2], np.cross(pre[-1], g[-1])
    p_norm, g_norm = np.linalg.norm(pre, axis=1), np.linalg.norm(g, axis=1)
    assert p_norm.min() > epsilon
    got = np.linalg.norm(project_jvp_rows(pre, g, epsilon, NormKind.L2, AdvConfig.proj_mode), axis=1)
    cos = np.einsum("ij,ij->i", pre, g)[:-2] / (p_norm * g_norm)[:-2]
    want = (epsilon / p_norm * g_norm)[:-2] * np.sqrt(1.0 - cos**2)
    assert np.max(np.abs(got[:-2] - want)) <= 1e-15
    assert got[-2] <= 1e-16 and abs(got[-1] - epsilon / p_norm[-1] * g_norm[-1]) <= 1e-16


# ---------- mode equivalence on real models ----------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_adjoint_modes_agree_on_mlp(seed):
    rng = np.random.default_rng(seed)
    params = init_params([2, 4, 3], rng, scale=2.0)
    x = rng.normal(size=(3, 2))
    cfg = AdvConfig(alpha=1.0, epsilon=1.0, eta=0.5, sigma=0.3, k_steps=2)
    obj = make_adv_objective(params, x, KIND)
    tape = unroll_forward(params, x, cfg, obj, rng=seed)
    rich, hess = attach_fd_second_order(adv_objectives(params, x, KIND), params.values)
    rich_tape = unroll_forward(params, x, cfg, rich, rng=seed)

    from_matrices = interaction_adjoint(rich_tape, params, x, rich, cfg)
    jac = jacobian_forward_oracle(tape, params, x, cfg, hess)
    v = obj(tape.deltas[-1])[0].ravel() / x.shape[0]
    oracle = cfg.alpha * (v @ jac)
    assert _rel(from_matrices, oracle) <= 1e-8

    tangent = interaction_adjoint(tape, params, x, obj, cfg)
    assert _rel(tangent, from_matrices) <= 1e-3


def _tangent_fd_errors(params, x, delta, kind, u, steps):
    """Relative errors of the tangent map at delta along u against central
    differences of reg_grad_params_sum's (theta, delta) gradients, per step.
    The map's clean-output seed is backpropagated through the clean pass and
    added to its mixed part."""
    _, tangent = make_adv_objective(params, x, kind)(delta)
    mixed, curv, seed = tangent(u)
    mixed = mixed + _backward(params, mlp_forward(params, x), seed)[0]
    got = np.concatenate([mixed.ravel(), curv.ravel()])
    errs = []
    for h in steps:
        plus = reg_grad_params_sum(params, x, delta + h * u, kind)
        minus = reg_grad_params_sum(params, x, delta - h * u, kind)
        fd = np.concatenate([(plus[i] - minus[i]).ravel() for i in (0, 1)]) / (2.0 * h)
        errs.append(_rel(got, fd))
    return errs


def test_tangent_matches_central_differences():
    """The exact tangent against central differences of the joint gradient:
    the gap shrinks like h^2, so it is the differences' truncation error."""
    from salt.harness.datasets import gen_two_moons

    steps = (1e-3, 1e-4)
    canonical = shipped_config("canonical_salt")
    cfg, kind = canonical.adv, canonical.model.regularizer_kind
    train, _ = gen_two_moons(canonical.dataset.n_train, canonical.dataset.n_test, canonical.dataset.noise_std, 0)
    x = train.inputs[: canonical.batch_size]
    params = init_params(canonical.model.layers, np.random.default_rng(0))
    assert (params.n_params, x.shape[0], cfg.eta, kind) == (1218, 25, 1e6, KIND)
    # the iterate the K = 2 ascent's second step starts from: eta = 1e6 puts most rows on the ball
    prev = unroll_forward(params, x, cfg, make_adv_objective(params, x, kind), rng=0).deltas[1]
    assert np.mean(np.isclose(np.sqrt((prev**2).sum(axis=1)), cfg.epsilon)) > 0.5  # saturated
    u = np.random.default_rng(40).normal(size=x.shape)
    errs = _tangent_fd_errors(params, x, prev, kind, u, steps)
    assert errs[1] <= errs[0] / 50 and errs[1] <= 1e-7, errs

    rng = np.random.default_rng(41)
    head = init_params([2, 16, 16, 1], rng, scale=1.5)
    xs = rng.normal(size=(6, 2))
    errs = _tangent_fd_errors(
        head, xs, 0.3 * rng.normal(size=xs.shape), RegularizerKind.SQUARED_DIFFERENCE, rng.normal(size=xs.shape), steps
    )
    assert errs[1] <= errs[0] / 50 and errs[1] <= 1e-7, errs


@pytest.mark.parametrize("norm", list(NormKind))
@pytest.mark.parametrize("kind", list(RegularizerKind))
def test_adjoint_matches_hessian_oracle(kind, norm):
    """The production adjoint, from the recorded passes' tangent maps, against
    the same sweep over second-derivative matrices built by central
    differences, with the projection active."""
    rng = np.random.default_rng(30)
    params = init_params([2, 6, 1 if kind == RegularizerKind.SQUARED_DIFFERENCE else 3], rng, scale=2.0)
    x = rng.normal(size=(4, 2))
    cfg = AdvConfig(alpha=0.7, epsilon=0.3, eta=0.8, sigma=0.3, k_steps=3, norm=norm)
    obj = make_adv_objective(params, x, kind)
    tape = unroll_forward(params, x, cfg, obj, rng=4)
    clipped = [np.abs(pre).max() > cfg.epsilon for pre in tape.pre_projections]
    assert any(clipped), "setup failed to trigger the projection"
    rich, _ = attach_fd_second_order(adv_objectives(params, x, kind), params.values)
    rich_tape = unroll_forward(params, x, cfg, rich, rng=4)
    assert all(np.array_equal(a, b) for a, b in zip(tape.deltas, rich_tape.deltas))
    want = interaction_adjoint(rich_tape, params, x, rich, cfg)
    assert np.linalg.norm(want) > 0
    got = interaction_adjoint(tape, params, x, obj, cfg)
    assert _rel(got, want) <= 1e-7


@pytest.mark.parametrize("kind", list(RegularizerKind))
def test_adv_objective_is_the_regularizer_at_its_own_params(kind, monkeypatch):
    """obj(delta)'s gradient is reg_grad_delta_sum at the params obj was made
    at, bit for bit. obj builds its clean pass once, when it is made: each
    call runs one forward pass, the perturbed one, and checks its delta."""
    from salt import regularizers, stackelberg

    rng = np.random.default_rng(31)
    params = init_params([2, 5, 1 if kind == RegularizerKind.SQUARED_DIFFERENCE else 3], rng, scale=1.5)
    x = rng.normal(size=(3, 2))
    passes = []
    for module in (regularizers, stackelberg):
        real = module._forward
        monkeypatch.setattr(module, "_forward", lambda p, inputs, _real=real: passes.append(1) or _real(p, inputs))
    obj = make_adv_objective(params, x, kind)
    assert len(passes) == 1
    for _ in range(3):
        delta = rng.normal(size=x.shape) * 0.3
        before = len(passes)
        got = obj(delta)[0]
        assert len(passes) == before + 1
        assert np.array_equal(got, reg_grad_delta_sum(params, x, delta, kind))
    with pytest.raises(ContractViolation, match="delta must match"):
        obj(np.zeros((3, 3)))


def test_forward_oracle_refuses_large_instances():
    rng = np.random.default_rng(12)
    params = init_params([30, 40, 30], rng)
    x = rng.normal(size=(40, 30))
    cfg = AdvConfig(epsilon=1.0, eta=0.1, sigma=0.1, k_steps=1)
    tape = unroll_forward(params, x, cfg, make_adv_objective(params, x, KIND), rng=0)
    _, hess = attach_fd_second_order(adv_objectives(params, x, KIND), params.values)
    with pytest.raises(ContractViolation):
        jacobian_forward_oracle(tape, params, x, cfg, hess)


# ---------- full leader gradient ----------


def _mlp_batch(seed, sizes=(2, 5, 3), n=4):
    rng = np.random.default_rng(seed)
    params = init_params(list(sizes), rng, scale=2.0)
    x = rng.normal(size=(n, sizes[0]))
    y = rng.integers(0, sizes[-1], n)
    return params, Batch(inputs=x, targets=y)


def _sum_of_parts(params, batch, delta, cfg, kind):
    """The flat gradient at a fixed delta from its two public parts: the task
    gradient plus alpha times the regularizer's mean parameter gradient."""
    return grad_params(params, batch) + cfg.alpha * (reg_grad_params_sum(params, batch.inputs, delta, kind)[0] / batch.n)


def _flat_gradient(params, batch, cfg, seed):
    """VAT's follower endpoint for the seed, and the flat gradient there."""
    x = batch.inputs
    delta = unroll_forward(params, x, cfg, make_adv_objective(params, x, KIND), seed).deltas[-1]
    return delta, _sum_of_parts(params, batch, delta, cfg, KIND)


def test_gradient_decomposition_and_leader_part():
    params, batch = _mlp_batch(14)
    cfg = AdvConfig(alpha=0.8, epsilon=1.0, eta=0.5, sigma=0.3, k_steps=2)
    grad = stackelberg_gradient(params, batch, cfg, KIND, rng=7)
    assert np.array_equal(grad.total, grad.leader_part + grad.interaction_part)
    delta, flat = _flat_gradient(params, batch, cfg, 7)
    assert np.array_equal(grad.tape.deltas[-1], delta)
    assert np.array_equal(grad.leader_part, flat)
    assert np.linalg.norm(grad.interaction_part) > 0


def test_gradient_k0_reduces_to_flat_baseline():
    params, batch = _mlp_batch(15)
    cfg = AdvConfig(alpha=1.0, epsilon=1.0, eta=0.5, sigma=0.3, k_steps=0)
    grad = stackelberg_gradient(params, batch, cfg, KIND, rng=3)
    assert np.array_equal(grad.interaction_part, np.zeros(params.n_params))
    assert np.array_equal(grad.total, _flat_gradient(params, batch, cfg, 3)[1])


def test_gradient_alpha0_reduces_to_clean_gradient():
    params, batch = _mlp_batch(16)
    cfg = AdvConfig(alpha=0.0, epsilon=1.0, eta=0.5, sigma=0.3, k_steps=2)
    grad = stackelberg_gradient(params, batch, cfg, KIND, rng=3)
    assert np.array_equal(grad.interaction_part, np.zeros(params.n_params))
    assert np.array_equal(grad.total, grad_params(params, batch))


def test_end_to_end_hypergradient_matches_finite_differences():
    from salt.diffmodel import task_loss

    for seed in range(3):
        params, batch = _mlp_batch(seed + 20, sizes=(2, 4, 3), n=3)
        cfg = AdvConfig(alpha=1.0, epsilon=1.0, eta=0.5, sigma=0.3, k_steps=2)

        def outer(theta):
            cur = params.replace_values(theta)
            obj = make_adv_objective(cur, batch.inputs, KIND)
            tape = unroll_forward(cur, batch.inputs, cfg, obj, rng=seed)
            loss = task_loss(mlp_forward(cur, batch.inputs), batch.targets)
            return loss + cfg.alpha * (reg_value(cur, batch.inputs, tape.deltas[-1], KIND) / batch.n)

        got = stackelberg_gradient(params, batch, cfg, KIND, rng=seed).total
        h = 1e-5
        fd = np.zeros_like(got)
        for i in range(got.size):
            e = np.zeros_like(params.values)
            e[i] = h
            fd[i] = (outer(params.values + e) - outer(params.values - e)) / (2 * h)
        assert _rel(got, fd) <= 1e-4


def test_training_step_deterministic_and_guarded():
    params, batch = _mlp_batch(17)
    cfg = AdvConfig(alpha=1.0, epsilon=1.0, eta=0.5, sigma=0.3, k_steps=2)
    state = OptimizerState(kind="Adam", lr=1e-3)
    p1, _, s1 = training_step(Method.SALT, params, batch, cfg, state, 9)
    p2, _, s2 = training_step(Method.SALT, params, batch, cfg, state, 9)
    assert np.array_equal(p1.values, p2.values)
    assert s1["interaction_ratio"] == s2["interaction_ratio"]
    assert not s1["degenerate_interaction"]

    # sigma = 0 pins the start at the divergence's stationary point: the whole
    # trajectory stays at zero and the interaction is declared degenerate
    flat_cfg = AdvConfig(alpha=1.0, epsilon=1.0, eta=0.5, sigma=0.0, k_steps=2)
    _, _, s3 = training_step(Method.SALT, params, batch, flat_cfg, state, 9)
    assert s3["degenerate_interaction"]
    assert s3["interaction_ratio"] == 0.0

    # a method outside the four is refused, not run as another method
    with pytest.raises(ContractViolation, match=r"method must be one of \['ERM', 'Adv', 'VAT', 'SALT'\], got 'SGDA'"):
        training_step("SGDA", params, batch, cfg, state, 9)


@pytest.mark.parametrize("members", [None, 3])
def test_step_stat_keys_per_method(members):
    """Each method reports its own stat keys, lone and on a stack: the flat
    steps report no interaction stats and no phase timers."""
    cfg, params, batch, rng = _canonical_step_inputs(members)
    state = OptimizerState(kind="Adam", lr=1e-3)
    erm = {"clean_loss", "reg_value", "delta_norm"}
    flat = erm | {"delta0_sum"}
    salt = flat | {"interaction_ratio", "degenerate_interaction", "t_unroll", "t_gradient", "t_update"}
    for method, want in ((Method.ERM, erm), (Method.ADV, flat), (Method.VAT, flat), (Method.SALT, salt)):
        stats = training_step(method, params, batch, cfg.adv, state, rng)[2]
        assert set(stats) == want, (members, method)


# ---------- flat baselines: VAT and Adv ----------


def _flat_setup(seed=0, sizes=(2, 8, 3), n=5):
    rng = np.random.default_rng(seed)
    p = init_params(list(sizes), rng)
    x = rng.normal(size=(n, sizes[0]))
    if sizes[-1] > 1:
        y = rng.integers(0, sizes[-1], n)
    else:
        y = rng.normal(size=n)
    return p, Batch(inputs=x, targets=y)


def _vat_endpoint(p, x, cfg, seed):
    """The follower's endpoint, as the VAT step computes it."""
    return unroll_forward(p, x, cfg, make_adv_objective(p, x, KIND), seed).deltas[-1]


def test_k0_returns_projected_init_unchanged_by_model():
    p, batch = _flat_setup()
    cfg = AdvConfig(epsilon=0.5, eta=0.7, sigma=0.1, k_steps=0)
    d = _vat_endpoint(p, batch.inputs, cfg, 42)
    ref = np.random.default_rng(42).standard_normal(batch.inputs.shape) * cfg.sigma
    assert np.array_equal(d, ref)  # K=0: the raw draw, no ascent, no projection


def test_follower_matches_unroll_trajectory():
    """VAT and SALT pair by construction: for the same config and seed both
    steps run the same follower, so their perturbation stats agree bit for bit."""
    state = OptimizerState(kind="Adam", lr=1e-3)
    for sizes in ((2, 8, 3), (2, 8, 1)):
        p, batch = _flat_setup(seed=3, sizes=sizes)
        for norm in ("L2", "LInf"):
            for k in (0, 1, 4):
                cfg = AdvConfig(epsilon=0.3, eta=0.8, sigma=0.2, k_steps=k, norm=norm)
                _, _, vat_stats = training_step(Method.VAT, p, batch, cfg, state, 7)
                _, _, salt_stats = training_step(Method.SALT, p, batch, cfg, state, 7)
                for key in ("clean_loss", "delta0_sum", "delta_norm", "reg_value"):
                    assert vat_stats[key] == salt_stats[key]


def test_leader_part_matches_sum_of_parts():
    """The leader part at the follower's endpoint, from one stacked clean
    backprop, has the bits of the task gradient plus alpha times the
    regularizer's mean parameter gradient there, on both heads."""
    for sizes, kind in (((2, 8, 3), KIND), ((2, 8, 1), RegularizerKind.SQUARED_DIFFERENCE)):
        p, batch = _flat_setup(seed=5, sizes=sizes)
        cfg = AdvConfig(alpha=0.7, epsilon=0.5, eta=0.6, sigma=0.1, k_steps=2)
        grad = stackelberg_gradient(p, batch, cfg, kind, 11)
        assert np.array_equal(grad.leader_part, _sum_of_parts(p, batch, grad.tape.deltas[-1], cfg, kind)), kind


def test_vat_step_alpha_zero_is_erm_step():
    """With alpha = 0 the regularizer does not reach VAT's update, however
    far its follower climbs: the step has the bits of ERM's."""
    p, batch = _flat_setup(seed=6)
    cfg = AdvConfig(alpha=0.0, epsilon=100.0, eta=50.0, sigma=100.0, k_steps=2)
    state = OptimizerState(kind="Adam", lr=1e-3)
    vat, vat_state, stats = training_step(Method.VAT, p, batch, cfg, state, 3)
    erm, erm_state, _ = training_step(Method.ERM, p, batch, cfg, state, 3)
    assert stats["delta_norm"] > 10.0
    assert np.array_equal(vat.values, erm.values)
    assert np.array_equal(vat_state.m, erm_state.m) and np.array_equal(vat_state.v, erm_state.v)


def test_leader_part_matches_fd_with_frozen_delta():
    p, batch = _flat_setup(seed=8, sizes=(2, 5, 2), n=3)
    cfg = AdvConfig(alpha=1.3, epsilon=0.5, eta=0.6, sigma=0.1, k_steps=2)
    x = batch.inputs
    grad = stackelberg_gradient(p, batch, cfg, KIND, 2)
    d = grad.tape.deltas[-1]

    def total(theta):
        q = p.replace_values(theta)
        return task_loss(mlp_forward(q, x), batch.targets) + cfg.alpha * (reg_value(q, x, d, KIND) / batch.n)

    g = grad.leader_part
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
        dk = _vat_endpoint(p, x, cfg, seed + 1000)
        if reg_value(p, x, dk, KIND) >= reg_value(p, x, d0, KIND):
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
        dk = ascend(task_ascent(p, x, y), sample_init(cfg.sigma, x.shape, seed + 500).values, cfg)[0][-1]
        before = task_loss(mlp_forward(p, x + d0), y)
        after = task_loss(mlp_forward(p, x + dk), y)
        if after >= before:
            wins += 1
    assert wins >= 0.95 * trials


def test_training_step_statistics_and_determinism():
    p, batch = _flat_setup(seed=9)
    cfg = AdvConfig(alpha=1.0, epsilon=0.5, eta=0.7, sigma=0.1, k_steps=2)
    state = OptimizerState(kind="Adam", lr=1e-3)
    p1, s1, st1 = training_step(Method.VAT, p, batch, cfg, state, 77)
    p2, s2, st2 = training_step(Method.VAT, p, batch, cfg, state, 77)
    assert np.array_equal(p1.values, p2.values)
    assert st1 == st2
    assert st1["clean_loss"] == pytest.approx(task_loss(mlp_forward(p, batch.inputs), batch.targets))
    assert st1["delta_norm"] > 0
    # delta0_sum records the raw draw, before any ascent
    raw = np.random.default_rng(77).standard_normal(batch.inputs.shape) * cfg.sigma
    assert st1["delta0_sum"] == pytest.approx(raw.sum(), abs=1e-15)


@pytest.mark.parametrize("width", [1, 3])
def test_every_entry_rejects_a_kind_its_head_does_not_take(width):
    """Each public entry that takes a regularizer kind checks it against the
    one the head takes and names the legal kinds, for the other head's kind
    and an unknown one alike. Unchecked, KL on a width-1 head reads a
    one-class softmax and a regularizer of exactly 0, and an unknown kind
    runs as squared difference or dies inside a backprop."""
    from salt.gradcheck import hypergradient_fd

    cfg = AdvConfig(alpha=1.0, epsilon=0.5, eta=0.7, sigma=0.1, k_steps=2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 2))
    y = rng.normal(size=4) if width == 1 else rng.integers(0, width, 4)
    params, batch = init_params([2, 5, width], rng), Batch(x, y)
    other = RegularizerKind.KL_DIVERGENCE if width == 1 else RegularizerKind.SQUARED_DIFFERENCE
    legal = r"head takes \w+, got .* \(kinds: \['KLDivergence', 'SquaredDifference'\]\)"
    for kind in (other, "bogus"):
        entries = {
            "reg_grad_delta_sum": lambda: reg_grad_delta_sum(params, x, x, kind),
            "reg_grad_params_sum": lambda: reg_grad_params_sum(params, x, x, kind),
            "make_adv_objective": lambda: make_adv_objective(params, x, kind),
            "stackelberg_gradient": lambda: stackelberg_gradient(params, batch, cfg, kind, 0),
            "hypergradient_fd": lambda: hypergradient_fd(params, batch, cfg, kind, x),
        }
        for call in entries.values():
            with pytest.raises(ContractViolation, match=legal):
                call()


# The entries that take a kind, and the checks they make it through.
_KIND_ENTRIES = {
    "reg_grad_delta_sum",
    "reg_grad_params_sum",
    "make_adv_objective",
    "stackelberg_gradient",
    "hypergradient_fd",
}
_KIND_CHECKS = {"_check_kind", "_check_inputs", "_checked"}


def _kind_takers(module) -> set[str]:
    """The defs and lambdas in module's source with a parameter named kind,
    by name; a nested def or a lambda is named with its place."""
    tree = ast.parse(inspect.getsource(module))
    top = {id(node) for node in tree.body}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            if "kind" in {arg.arg for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)}:
                name = getattr(node, "name", "<lambda>")
                found.add(name if id(node) in top else f"{name} (nested, line {node.lineno})")
    return found


def test_kind_stops_at_the_entries_that_take_it():
    """The regularizer's bodies, the steps and the finite-difference objective
    read the head from the pass; only the public entries the benchmark calls
    take a kind, and only to check it against the head."""
    from salt import gradcheck, regularizers, stackelberg

    takers = set().union(*(_kind_takers(m) for m in (regularizers, stackelberg, gradcheck)))
    assert _KIND_ENTRIES <= takers <= _KIND_ENTRIES | _KIND_CHECKS, takers - _KIND_ENTRIES - _KIND_CHECKS


def test_adv_training_step_runs_and_reports_attacked_loss():
    p, batch = _flat_setup(seed=10, sizes=(2, 6, 2))
    cfg = AdvConfig(alpha=1.0, epsilon=0.5, eta=0.7, sigma=0.1, k_steps=2)
    state = OptimizerState(kind="SGD", lr=0.1)
    p1, _, stats = training_step(Method.ADV, p, batch, cfg, state, 5)
    assert not np.array_equal(p1.values, p.values)
    assert stats["reg_value"] >= 0.0
    assert stats["delta_norm"] > 0.0


# ---------- passes per step ----------


def _canonical_step_inputs(members: int | None):
    """The canonical config, its seed-0 parameters and first batch of 25, lone
    or as a stack of that many copies, and the step's rng: one int seed per
    member."""
    from salt.harness.datasets import gen_two_moons

    cfg = shipped_config("canonical_salt")
    train, _ = gen_two_moons(cfg.dataset.n_train, cfg.dataset.n_test, cfg.dataset.noise_std, 0)
    batch = Batch(train.inputs[: cfg.batch_size], train.targets[: cfg.batch_size])
    params = init_params(cfg.model.layers, np.random.default_rng(0))
    if members is None:
        return cfg, params, batch, 0
    params = params.replace_values(np.stack([params.values] * members))
    batch = Batch(np.stack([batch.inputs] * members), np.stack([batch.targets] * members))
    return cfg, params, batch, list(range(members))


def test_step_forward_and_backward_counts(monkeypatch):
    """Passes per leader update at the canonical shape (2-32-32-2, batch 25,
    K = 2), for one problem and for a stack of three, which makes the same
    passes and the same numpy reductions on (3, ...) arrays. Every backward
    pass runs _backward_input; _backward also forms the parameter gradient.
    SALT: 1 clean + K unroll + 1 endpoint forwards; K unroll backwards to the
    inputs, 1 endpoint parameter-gradient backward, per reverse step one
    tangent forward and one tangent backward, and one backward of the clean
    pass that carries every seed on it as a stack: the task seed, the
    regularizer's clean seed and each reverse step's clean-output seed. VAT
    backpropagates its clean pass once the same way. The last figure is the
    numpy reductions per step: a clean pass's one softmax feeds its loss, its
    seed and the regularizer, and each step checks its labels once. SALT's
    degenerate flag (is the endpoint gradient exactly zero) and its two
    norms (the interaction's and the leader part's, for their ratio) are one
    reduction each, lone or stacked; the norms were BLAS dots, and SALT read
    39, until lone and stacked steps took the same norm."""
    import sys

    from salt import diffmodel

    names = ("_forward", "_backward_input", "_backward", "_forward_tangent", "_backward_tangent")
    counts = dict.fromkeys(names, 0)
    salt_modules = [m for name, m in sys.modules.items() if name == "salt" or name.startswith("salt.")]
    for name in names:
        original = getattr(diffmodel, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in salt_modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    for members in (None, 3):
        cfg, params, batch, rng = _canonical_step_inputs(members)
        k = cfg.adv.k_steps
        assert k == 2
        state = OptimizerState(kind="Adam", lr=1e-3)
        assert (1 + k + 1, k + 2) == (4, 4)
        steps = {
            Method.SALT: ((4, 4, 2, k, k), 42),
            Method.VAT: ((k + 2, k + 2, 2, 0, 0), 25),
            Method.ADV: ((k + 2, k + 2, 2, 0, 0), 24),
            Method.ERM: ((1, 1, 1, 0, 0), 9),
        }
        for method, (want, reductions) in steps.items():
            counts.update(dict.fromkeys(names, 0))
            step = functools.partial(training_step, method, params, batch, cfg.adv, state, rng)
            assert count_reductions(step) == reductions, (members, method)
            assert counts == dict(zip(names, want)), (members, method)


def test_step_python_call_counts():
    """Python-level calls per leader update at the canonical shape, lone and
    as a stack of three, on fresh parameters and the canonical Adam with its
    moments filled, as a training step sees them. Reductions call the
    ufunc's reduce, norms take np.linalg.norm's own path without its
    wrappers, a finite float passes require_real without the ABC checks,
    the next parameters and optimizer state skip re-normalising what is
    already normal, and a step checks its inputs once, where it builds its
    clean pass. Before these, the same count read ERM 142, Adv 330, VAT 362
    and SALT 524 lone, and ERM 142, Adv 348, VAT 377 and SALT 591 stacked.

    The count skips operators: a @ b raises no profile event. Every product
    goes through diffmodel._matmul, one counted Python call, and two
    matrices then through ndarray.dot, one counted C call, which is cheaper
    than the @ it replaced. So these figures rose, from ERM 90, Adv 211,
    VAT 229 and SALT 331 lone and 91, 232, 246 and 373 stacked, while the
    step got faster; VAT and SALT also dropped the tape's two copies of
    theta and x. SALT's step then took the head's kind and the clean pass
    it builds for every method, where stackelberg_gradient checked a
    passed kind and read the batch size through Batch.n twice: 428 and 423
    became 426 and 421. Then lone and stacked steps took one norm, a square
    root of one reduction, where a lone step made a ravel and a BLAS dot per
    norm and a stack looped over its members in Python: 426 and 421 became
    423 and 391. Then the follower's objective became a functools.partial of
    the regularizer body, which reads the head from the clean pass, in place
    of a lambda around it that passed the head's kind: one call fewer per
    ascent step, so VAT 278 and 272 became 276 and 270, and SALT 423 and 391
    became 421 and 389. Then SALT's interaction lost its special case for a
    small endpoint gradient: no all or any over the members, no K test, and
    the degenerate flag is one logical_or reduction of the endpoint
    gradient where it was a norm compared with a threshold, so 421 and 389
    became 416 and 384. Measured with numpy 2.4.6 on Python 3.11: another
    version's numpy wrappers may move the figures."""
    want = {
        None: {Method.ERM: 106, Method.ADV: 267, Method.VAT: 276, Method.SALT: 416},
        3: {Method.ERM: 99, Method.ADV: 260, Method.VAT: 270, Method.SALT: 384},
    }
    for members, counts in want.items():
        cfg, params, batch, seeds = _canonical_step_inputs(members)
        opt = cfg.optimizer
        state = OptimizerState(kind=opt.kind, lr=opt.lr, betas=opt.betas, eps=opt.eps)
        _, state = optimizer_step(params, state, np.ones_like(params.values))

        def step(method):
            rng = np.random.default_rng(seeds) if members is None else [np.random.default_rng(s) for s in seeds]
            # a step's parameters arrive with no layer views built
            fresh = params.replace_values(params.values)
            return functools.partial(training_step, method, fresh, batch, cfg.adv, state, rng)

        got = {}
        for method in counts:
            step(method)()  # warm-up: the first call of a path may import or cache
            got[method] = count_python_calls(step(method))
        assert got == counts, members


def test_stacked_step_norms_are_each_lone_steps():
    """A stacked SALT step's interaction ratio and degenerate flag are each
    member's lone step's, bit for bit, at the canonical shape, where the
    parameter norms sum over many pairwise blocks. The middle member has an
    all-zero output layer, so its endpoint gradient is exactly zero: its
    step is degenerate and its ratio 0.0. The norms themselves are checked
    the same way on C-ordered and sliced stacks of entries spanning six
    decades, where a sum in another order would show in the last bits."""
    from salt.stackelberg import _member_norms

    rng = np.random.default_rng(31)
    raw = rng.normal(size=(3, 25, 8)) * 10.0 ** rng.integers(-3, 4, size=(3, 25, 8))
    for stack, axes in ((raw, (-2, -1)), (raw[:, 1::2, ::3], (-2, -1)), (raw.reshape(3, -1), (-1,))):
        got = _member_norms(stack, axes)
        assert [got[i].tobytes() for i in range(3)] == [_member_norms(m, axes).tobytes() for m in stack]
    cfg, params, batch, _ = _canonical_step_inputs(None)
    values = np.stack([params.values, params.values.copy(), 0.7 * params.values])
    values[1, -(32 * 2 + 2) :] = 0.0
    stack = params.replace_values(values)
    stacked_batch = Batch(np.stack([batch.inputs] * 3), np.stack([batch.targets] * 3))
    state = OptimizerState(kind="Adam", lr=1e-3)
    stats = training_step(Method.SALT, stack, stacked_batch, cfg.adv, state, [3, 4, 5])[2]
    assert stats["degenerate_interaction"].tolist() == [False, True, False]
    assert stats["interaction_ratio"][1] == 0.0 and np.all(stats["interaction_ratio"][::2] > 0.0)
    for i, seed in enumerate([3, 4, 5]):
        lone = training_step(Method.SALT, params.replace_values(values[i]), batch, cfg.adv, state, seed)[2]
        assert lone["degenerate_interaction"] == stats["degenerate_interaction"][i], i
        assert np.float64(lone["interaction_ratio"]).tobytes() == stats["interaction_ratio"][i].tobytes(), i


def test_canonical_salt_step_takes_no_lock():
    """The pass and parameter caches fill without a lock: a canonical SALT
    step makes no RLock call (functools.cached_property takes one per first
    read on Python 3.11)."""
    cfg, params, batch, rng = _canonical_step_inputs(None)
    state = OptimizerState(kind="Adam", lr=1e-3)

    def step():
        training_step(Method.SALT, params, batch, cfg.adv, state, rng)

    assert count_c_calls(step, lambda c: "RLock" in getattr(c, "__qualname__", "")) == 0


def test_stacked_gradient_with_a_zero_endpoint_gradient_member_is_each_lone_call():
    """A stack whose middle member has an all-zero output layer, so its
    endpoint gradient is exactly zero: the reverse sweep, linear in that
    gradient, gives that member an interaction of 0.0 with no mask, and
    every member's total, leader and interaction parts have the bits of its
    lone call."""
    params, batch = _mlp_batch(18, sizes=(2, 5, 3), n=4)
    cfg = AdvConfig(alpha=1.0, epsilon=1.0, eta=0.5, sigma=0.3, k_steps=2)
    values = np.stack([params.values, params.values.copy(), 0.5 * params.values])
    values[1, -(5 * 3 + 3) :] = 0.0
    stack = params.replace_values(values)
    stacked_batch = Batch(np.stack([batch.inputs] * 3), np.stack([batch.targets] * 3))
    got = stackelberg_gradient(stack, stacked_batch, cfg, KIND, rng=[7, 8, 9])
    assert got.stats["degenerate_interaction"].tolist() == [False, True, False]
    assert not np.any(got.interaction_part[1])
    for i, seed in enumerate([7, 8, 9]):
        lone = stackelberg_gradient(params.replace_values(values[i]), batch, cfg, KIND, rng=seed)
        assert lone.stats["degenerate_interaction"] == (i == 1)
        for part in ("total", "leader_part", "interaction_part"):
            assert getattr(got, part)[i].tobytes() == getattr(lone, part).tobytes(), (i, part)
        for key, value in lone.stats.items():
            if not key.startswith("t_"):
                assert got.stats[key][i] == value, (i, key)


def test_tiny_endpoint_gradient_keeps_its_interaction():
    """An output layer scaled by 1e-7 leaves an endpoint gradient of norm
    ~1e-15, nonzero: the interaction, linear in it, is ~1e-22 and not
    zeroed. It has the bits of interaction_adjoint on the step's own tape,
    lone and as the middle member of a stack of three, and the step is not
    flagged degenerate."""
    params, batch = _mlp_batch(18, sizes=(2, 5, 3), n=4)
    cfg = AdvConfig(alpha=1.0, epsilon=1.0, eta=0.5, sigma=0.3, k_steps=2)
    values = np.stack([params.values, params.values.copy(), 0.5 * params.values])
    values[1, -(5 * 3 + 3) :] *= 1e-7
    tiny = params.replace_values(values[1])
    lone = stackelberg_gradient(tiny, batch, cfg, KIND, rng=8)
    v = reg_grad_delta_sum(tiny, batch.inputs, lone.tape.deltas[-1], KIND) / batch.n
    assert 0.0 < np.linalg.norm(v) < 1e-14
    assert np.any(lone.interaction_part) and not lone.stats["degenerate_interaction"]
    adjoint = interaction_adjoint(lone.tape, tiny, batch.inputs, make_adv_objective(tiny, batch.inputs, KIND), cfg)
    assert lone.interaction_part.tobytes() == adjoint.tobytes()
    stack = params.replace_values(values)
    stacked_batch = Batch(np.stack([batch.inputs] * 3), np.stack([batch.targets] * 3))
    got = stackelberg_gradient(stack, stacked_batch, cfg, KIND, rng=[7, 8, 9])
    assert got.stats["degenerate_interaction"].tolist() == [False, False, False]
    assert got.interaction_part[1].tobytes() == adjoint.tobytes()


def _per_seed_reference(params, batch, cfg, kind, rng):
    """(leader part, interaction part) with every seed on the clean pass
    backpropagated by its own _backward call: the task seed, the
    regularizer's clean seed (inside reg_grad_params_sum) and each reverse
    step's clean-output seed, added in the order the step adds them."""
    x, n = batch.inputs, batch.n
    clean = mlp_forward(params, x)
    tape = unroll_forward(params, x, cfg, make_adv_objective(params, x, kind), rng)
    reg, reg_delta, _ = reg_grad_params_sum(params, x, tape.deltas[-1], kind)
    task = _backward(params, clean, _task_seed_sum(clean, batch.targets) / n)[0]
    leader = task if cfg.alpha == 0.0 else task + cfg.alpha * (reg / n)
    u = reg_delta / n
    g = np.zeros(leader.shape)
    for k in range(tape.k_steps, 0, -1):
        u = project_jvp_rows(tape.pre_projections[k - 1], u, cfg.epsilon, cfg.norm, cfg.proj_mode)
        d_theta, curv, seed = tape.tangents[k - 1](u)
        g = g + cfg.eta * (d_theta + _backward(params, clean, seed)[0])
        u = u + cfg.eta * curv
    return leader, cfg.alpha * g


def _head_inputs(kind, members):
    """Parameters, a batch of 5 and the follower's rng for the head kind
    needs, lone or as a stack of distinct members with one rng each."""
    width = 1 if kind == RegularizerKind.SQUARED_DIFFERENCE else 3
    rng = np.random.default_rng(50)
    params = init_params([2, 6, 5, width], rng, scale=1.5)
    x = rng.normal(size=(5, 2))
    y = rng.normal(size=5) if width == 1 else rng.integers(0, width, 5)
    if members is None:
        return params, Batch(x, y), 4
    params = params.replace_values(params.values * (1.0 + 0.2 * rng.normal(size=(members, params.n_params))))
    x, y = np.stack([x + 0.1 * i for i in range(members)]), np.stack([y] * members)
    return params, Batch(x, y), [4, 5, 6]


@pytest.mark.parametrize("members", [None, 3])
@pytest.mark.parametrize("kind", list(RegularizerKind))
def test_one_clean_backprop_equals_per_seed_backprops(kind, members):
    """stackelberg_gradient backpropagates every seed on its clean pass in one
    stacked call; its leader and interaction parts have the bits of one
    _backward call per seed, for K = 0..3, alpha = 0 and 0.7, a lone problem
    and a stack of three, on both heads."""
    params, batch, seeds = _head_inputs(kind, members)
    for k_steps in range(4):
        for alpha in (0.7, 0.0):
            cfg = AdvConfig(alpha=alpha, epsilon=1.0, eta=0.5, sigma=0.3, k_steps=k_steps)
            got = stackelberg_gradient(params, batch, cfg, kind, seeds)
            leader, interaction = _per_seed_reference(params, batch, cfg, kind, seeds)
            assert np.array_equal(got.leader_part, leader), (k_steps, alpha)
            assert np.array_equal(got.interaction_part, interaction), (k_steps, alpha)
            assert np.any(interaction) == (alpha > 0.0 and k_steps > 0)


@pytest.mark.parametrize("members", [None, 3])
@pytest.mark.parametrize("kind", list(RegularizerKind))
def test_vat_step_is_optimizer_step_on_leader_part(kind, members):
    """VAT's step makes SALT's calls up to the reverse sweep: its update has
    the bits of optimizer_step on stackelberg_gradient's leader part at the
    same rng, for K = 0..3, alpha = 0 and 0.7, a lone problem and a stack of
    three, on both heads."""
    params, batch, seeds = _head_inputs(kind, members)
    state = OptimizerState(kind="Adam", lr=1e-3)
    for k_steps in range(4):
        for alpha in (0.7, 0.0):
            cfg = AdvConfig(alpha=alpha, epsilon=1.0, eta=0.5, sigma=0.3, k_steps=k_steps)
            got, got_state, _ = training_step(Method.VAT, params, batch, cfg, state, seeds)
            leader = stackelberg_gradient(params, batch, cfg, kind, seeds).leader_part
            want, want_state = optimizer_step(params, state, leader)
            assert np.array_equal(got.values, want.values), (k_steps, alpha)
            assert np.array_equal(got_state.m, want_state.m) and np.array_equal(got_state.v, want_state.v)


def test_one_clean_backprop_with_a_degenerate_member():
    """A stack whose middle member's endpoint gradient is exactly zero: the
    one stacked clean backprop still gives the per-seed bits, and that
    member's interaction is 0.0."""
    params, batch = _mlp_batch(18, sizes=(2, 5, 3), n=4)
    values = np.stack([params.values, params.values.copy(), 0.5 * params.values])
    values[1, -(5 * 3 + 3) :] = 0.0
    stack = params.replace_values(values)
    stacked_batch = Batch(np.stack([batch.inputs] * 3), np.stack([batch.targets] * 3))
    for k_steps in range(1, 4):
        cfg = AdvConfig(alpha=1.0, epsilon=1.0, eta=0.5, sigma=0.3, k_steps=k_steps)
        got = stackelberg_gradient(stack, stacked_batch, cfg, KIND, [7, 8, 9])
        leader, interaction = _per_seed_reference(stack, stacked_batch, cfg, KIND, [7, 8, 9])
        assert got.stats["degenerate_interaction"].tolist() == [False, True, False]
        assert np.array_equal(got.leader_part, leader), k_steps
        assert np.array_equal(got.interaction_part, interaction), k_steps


def test_epoch_evaluation_reduction_count():
    """numpy reductions in one epoch's evaluation at the canonical point: one
    forward per split, whose one softmax gives the loss and the confidences,
    then the test split's reliability report, grouped in one pass, whose
    input checks make one scan. The splits' labels are checked once per run,
    when the dataset is loaded, so no evaluation scans them."""
    from salt.calibration import bin_predictions, confidence_of
    from salt.harness.datasets import gen_two_moons
    from salt.harness.experiment import _evaluate

    cfg = shipped_config("canonical_salt")
    train, test = gen_two_moons(cfg.dataset.n_train, cfg.dataset.n_test, cfg.dataset.noise_std, 0)
    params = init_params(cfg.model.layers, np.random.default_rng(0))

    def evaluate_epoch():
        _evaluate(params, train)
        _, fwd, correct = _evaluate(params, test)
        bin_predictions(confidence_of(fwd), correct)

    assert count_reductions(lambda: _evaluate(params, test)) == 4
    assert count_reductions(evaluate_epoch) == 11


_CANONICAL_STACKS = """
import numpy as np
from salt.diffmodel import Batch, ModelParams, init_params
from salt.gradcheck import total_objective
from salt.harness.config import load_config, override
from salt.harness.experiment import _evaluate, load_dataset, substream
from salt.perturb import sample_init

cfg = load_config("configs/canonical_salt.json")
train, _ = load_dataset(cfg)
params = init_params(cfg.model.layers, substream(0, "model-init"))
sel = substream(0, "data-order").permutation(train.n)[: cfg.batch_size]
batch = Batch(train.inputs[sel], train.targets[sel])
delta0 = sample_init(cfg.adv.sigma, batch.inputs.shape, substream(0, "perturb-init")).values
fd_stack = params.replace_values(np.repeat(params.values[None], 32, axis=0))
inits = [init_params(cfg.model.layers, substream(seed, "model-init")) for seed in range(8)]
runs = ModelParams(np.stack([p.values for p in inits]), inits[0].shapes)
tests = [load_dataset(override(cfg, seed=seed))[1] for seed in range(8)]
test = Batch(np.stack([t.inputs for t in tests]), np.stack([t.targets for t in tests]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="salt sets heap thresholds only under glibc")
@pytest.mark.parametrize(
    "call",
    [
        "total_objective(fd_stack, batch, cfg.adv, delta0)",  # one finite-difference chunk
        "_evaluate(runs, test)",  # a stack of 8 runs on the 500-point test split
    ],
)
def test_stacked_calls_reuse_freed_heap(call):
    """Importing salt keeps freed heap in the process, so a warmed-up stacked
    call takes its arrays from it and faults no page in. With glibc's default
    thresholds these calls took ~790 and ~550 minor faults each."""
    assert count_minor_faults(f"for _ in range(10):\n    {call}", _CANONICAL_STACKS) <= 20
