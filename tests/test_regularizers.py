"""Clean/perturbed divergence values and gradients against oracles."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reg_value
from oracles import kl_divergence, log_softmax, softmax
from salt import regularizers
from salt.diffmodel import ModelParams, _forward, init_params, mlp_forward
from salt.errors import ContractViolation
from salt.regularizers import RegularizerKind, reg_grad_delta_sum, reg_grad_params_sum
from salt.stackelberg import make_adv_objective


def test_kl_known_values():
    assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
        math.log(2.0), abs=1e-15
    )
    assert kl_divergence(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    # p with a zero entry contributes nothing from that entry
    assert kl_divergence(np.array([0.0, 1.0]), np.array([0.25, 0.75])) == pytest.approx(
        -math.log(0.75), abs=1e-15
    )


def test_kl_against_direct_sum():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = rng.integers(2, 6)
        p = rng.dirichlet(np.ones(c))
        q = rng.dirichlet(np.ones(c) * 2) + 1e-9
        q = q / q.sum()
        direct = sum(p[i] * math.log(p[i] / q[i]) for i in range(c) if p[i] > 0)
        assert kl_divergence(p, q) == pytest.approx(direct, rel=1e-12)
        assert kl_divergence(p, q) >= 0.0


def test_kl_rejects_bad_inputs():
    with pytest.raises(ContractViolation):
        kl_divergence(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ContractViolation):
        kl_divergence(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))


def test_kl_value_matches_per_row_oracle():
    rng = np.random.default_rng(2)
    for _ in range(4):
        p = init_params([3, 7, int(rng.integers(2, 5))], rng, scale=1.5)
        x = rng.normal(size=(6, 3))
        delta = 0.5 * rng.normal(size=x.shape)
        clean = softmax(mlp_forward(p, x).logits)
        pert = softmax(mlp_forward(p, x + delta).logits)
        want = sum(kl_divergence(c, q) for c, q in zip(clean, pert))
        assert reg_value(p, x, delta, RegularizerKind.KL_DIVERGENCE) == pytest.approx(want, rel=1e-12)


def test_zero_delta_is_exactly_zero():
    rng = np.random.default_rng(1)
    for sizes, kind in ([2, 8, 3], RegularizerKind.KL_DIVERGENCE), (
        [2, 8, 1],
        RegularizerKind.SQUARED_DIFFERENCE,
    ):
        p = init_params(sizes, rng)
        x = rng.normal(size=(5, 2))
        zero = np.zeros_like(x)
        assert reg_value(p, x, zero, kind) / x.shape[0] == 0.0
        assert np.linalg.norm(reg_grad_delta_sum(p, x, zero, kind) / x.shape[0]) <= 1e-12


def test_squared_difference_closed_form_linear_model():
    # f(x) = w^T x, so reg per example is (w^T delta)^2 and its delta-gradient
    # is -2 (w^T delta) w through the perturbed branch... sign: d/d delta of
    # (f(x) - f(x+delta))^2 = 2 (f(x) - f(x+delta)) * (-w) = 2 (w^T delta) w.
    w = np.array([1.5, -2.0])
    p = ModelParams(values=np.array([w[0], w[1], 0.0]), shapes=((2, 1), (1, 1)))
    x = np.array([[0.3, 0.7], [1.0, -1.0], [0.0, 0.0]])
    delta = np.array([[0.1, 0.2], [-0.4, 0.5], [1.0, 1.0]])
    kind = RegularizerKind.SQUARED_DIFFERENCE
    want = sum(float(w @ d) ** 2 for d in delta)
    assert reg_value(p, x, delta, kind) == pytest.approx(want, rel=1e-14)
    g = reg_grad_delta_sum(p, x, delta, kind)
    want_g = np.stack([2.0 * float(w @ d) * w for d in delta])
    assert np.allclose(g, want_g, atol=1e-13)
    assert reg_value(p, x, delta, kind) / x.shape[0] == pytest.approx(want / 3.0, rel=1e-14)


def test_logit_shift_invariance():
    # adding a constant to every logit leaves softmax, hence the KL, unchanged
    rng = np.random.default_rng(2)
    p = init_params([2, 6, 3], rng)
    x = rng.normal(size=(4, 2))
    delta = rng.normal(size=(4, 2)) * 0.3
    base = reg_value(p, x, delta, RegularizerKind.KL_DIVERGENCE) / x.shape[0]
    # shift the output bias: identical change to clean and perturbed logits
    shifted = p.values.copy()
    shifted[-3:] += 5.0
    new = reg_value(p.replace_values(shifted), x, delta, RegularizerKind.KL_DIVERGENCE) / x.shape[0]
    out_old = softmax(mlp_forward(p, x).logits)
    out_new = softmax(mlp_forward(p.replace_values(shifted), x).logits)
    assert np.allclose(out_old, out_new, atol=1e-12)
    assert new == pytest.approx(base, rel=1e-10)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", list(RegularizerKind))
def test_partials_match_fd(seed, kind):
    rng = np.random.default_rng(seed)
    out_w = 1 if kind == RegularizerKind.SQUARED_DIFFERENCE else int(rng.integers(2, 4))
    sizes = [int(rng.integers(2, 4)), int(rng.integers(3, 7)), out_w]
    p = init_params(sizes, rng, scale=1.5)
    n = int(rng.integers(2, 5))
    x = rng.normal(size=(n, sizes[0]))
    delta = rng.normal(size=(n, sizes[0])) * 0.4

    def val(theta, delta):
        return reg_value(p.replace_values(theta), x, delta, kind) / n

    g_delta = reg_grad_delta_sum(p, x, delta, kind) / n
    g_theta = reg_grad_params_sum(p, x, delta, kind)[0] / n

    h = 1e-6
    fd_delta = np.zeros_like(delta)
    for i in range(n):
        for j in range(sizes[0]):
            e = np.zeros_like(delta)
            e[i, j] = h
            fd_delta[i, j] = (val(p.values, delta + e) - val(p.values, delta - e)) / (2 * h)
    assert np.linalg.norm(g_delta - fd_delta) <= 1e-6 * max(np.linalg.norm(fd_delta), 1e-8)

    fd_theta = np.zeros_like(p.values)
    for i in range(p.n_params):
        e = np.zeros_like(p.values)
        e[i] = h
        fd_theta[i] = (val(p.values + e, delta) - val(p.values - e, delta)) / (2 * h)
    assert np.linalg.norm(g_theta - fd_theta) <= 2e-6 * max(np.linalg.norm(fd_theta), 1e-8)


@pytest.mark.parametrize("kind", list(RegularizerKind))
def test_supplied_clean_pass_is_bit_identical(kind):
    """A shared clean pass changes no bit of any value or gradient, and the
    delta half of the parameter-gradient pass is reg_grad_delta_sum's."""
    rng = np.random.default_rng(20)
    p = init_params([2, 16, 1 if kind == RegularizerKind.SQUARED_DIFFERENCE else 3], rng, scale=1.5)
    x = rng.normal(size=(5, 2))
    clean = _forward(p, x)
    for _ in range(3):
        delta = rng.normal(size=x.shape) * 0.4
        fresh = reg_grad_params_sum(p, x, delta, kind)
        shared = reg_grad_params_sum(p, x, delta, kind, clean)
        assert all(np.array_equal(a, b) for a, b in zip(fresh, shared))
        g_delta = reg_grad_delta_sum(p, x, delta, kind)
        assert np.array_equal(reg_grad_delta_sum(p, x, delta, kind, clean), g_delta)
        assert np.array_equal(fresh[1], g_delta)
        assert reg_value(p, x, delta, kind, clean) == reg_value(p, x, delta, kind) == fresh[2]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_regularizer_nonnegative(seed):
    rng = np.random.default_rng(seed)
    kind = RegularizerKind.KL_DIVERGENCE if seed % 2 == 0 else RegularizerKind.SQUARED_DIFFERENCE
    out_w = 3 if kind == RegularizerKind.KL_DIVERGENCE else 1
    p = init_params([2, 5, out_w], rng, scale=2.0)
    x = rng.normal(size=(3, 2)) * 2.0
    delta = rng.normal(size=(3, 2)) * rng.uniform(0, 2)
    assert reg_value(p, x, delta, kind) / x.shape[0] >= 0.0


def test_head_mismatch_rejected():
    rng = np.random.default_rng(3)
    with pytest.raises(ContractViolation):
        reg_value(init_params([2, 4, 1], rng), np.zeros((2, 2)), np.zeros((2, 2)), RegularizerKind.KL_DIVERGENCE)
    with pytest.raises(ContractViolation):
        reg_value(init_params([2, 4, 3], rng), np.zeros((2, 2)), np.zeros((2, 2)), RegularizerKind.SQUARED_DIFFERENCE)
    with pytest.raises(ContractViolation):
        reg_value(init_params([2, 4, 3], rng), np.zeros((2, 2)), np.zeros((2, 3)), RegularizerKind.KL_DIVERGENCE)


@pytest.mark.parametrize("kind", list(RegularizerKind))
def test_stacked_value_and_delta_gradient_are_each_members(kind):
    """Stacked parameters, and a stacked delta under one parameter vector,
    give each member's unstacked value and delta gradient bit for bit."""
    rng = np.random.default_rng(21)
    p = init_params([2, 16, 1 if kind == RegularizerKind.SQUARED_DIFFERENCE else 3], rng, scale=1.5)
    x = rng.normal(size=(5, 2))
    stack = ModelParams(p.values + 0.2 * rng.normal(size=(4, p.n_params)), p.shapes)
    deltas = rng.normal(size=(4, 5, 2)) * 0.4
    cases = (
        (stack, deltas[0], [(ModelParams(v, p.shapes), deltas[0]) for v in stack.values]),
        (p, deltas, [(p, d) for d in deltas]),
    )
    for params, delta, singles in cases:
        values = reg_value(params, x, delta, kind)
        grads = reg_grad_delta_sum(params, x, delta, kind)
        assert values.shape == (4,) and grads.shape == (4, 5, 2)
        for i, (one, d) in enumerate(singles):
            assert values[i] == reg_value(one, x, d, kind)
            assert np.array_equal(grads[i], reg_grad_delta_sum(one, x, d, kind))
    with pytest.raises(ContractViolation):
        reg_value(p, x, deltas[None], kind)


@pytest.mark.parametrize("kind", list(RegularizerKind))
def test_stacked_inputs_give_each_members_gradients_and_tangents(kind):
    """Stacked parameters with stacked inputs and deltas, one problem per
    member, give each member's value, delta and parameter gradients and
    tangent map bit for bit."""
    rng = np.random.default_rng(22)
    p = init_params([2, 16, 1 if kind == RegularizerKind.SQUARED_DIFFERENCE else 3], rng, scale=1.5)
    stack = ModelParams(p.values + 0.2 * rng.normal(size=(4, p.n_params)), p.shapes)
    x, delta, u = (rng.normal(size=(4, 5, 2)) for _ in range(3))

    def results(params, x, delta, u):
        g_delta, tangent = make_adv_objective(params, x, kind)(delta)
        return [np.asarray(reg_value(params, x, delta, kind)), g_delta, *tangent(u)] + [
            np.asarray(r) for r in reg_grad_params_sum(params, x, delta, kind)
        ]

    stacked = results(stack, x, delta, u)
    assert stacked[0].shape == (4,) and stacked[2].shape == (4, p.n_params)
    for i in range(4):
        lone = results(ModelParams(stack.values[i], p.shapes), x[i], delta[i], u[i])
        for got, want in zip(stacked, lone):
            assert got[i].tobytes() == want.tobytes()


def _kl_rows_from_logits(clean, pert):
    """The KL rows as formed from the perturbed pass's raw output: its
    log-softmax, and that one's exp as q."""
    logp, p = clean.log_probs, clean.probs
    logq = log_softmax(pert.out)
    diff = logp - logq
    terms = np.where(p > regularizers._PROB_FLOOR, p * diff, 0.0)
    return terms.sum(axis=-1), p, np.exp(logq), diff


@pytest.mark.parametrize("n_classes", [2, 3, 4, 5])
def test_kl_reads_the_perturbed_pass_softmax_bit_for_bit(n_classes, monkeypatch):
    """The KL term reads q and log q from the perturbed pass's cached parts.
    Its value, delta and theta gradients and tangent map have the bits of
    the formula over log_softmax(pert.out) and its exp, for logit scales from
    1e-3 to 1e3; so do the values and delta gradients of a stack of four
    parameter vectors."""
    kind = RegularizerKind.KL_DIVERGENCE
    rng = np.random.default_rng(n_classes)
    base = init_params([2, 8, n_classes], rng, scale=1.5)
    x = rng.normal(size=(25, 2))
    last = 8 * n_classes + n_classes  # the output layer's weights and bias

    def outputs(p, stack, delta, u):
        g_delta, tangent = make_adv_objective(p, x, kind)(delta)
        g_theta, _, value = reg_grad_params_sum(p, x, delta, kind)
        stacked = reg_value(stack, x, delta, kind), reg_grad_delta_sum(stack, x, delta, kind)
        return [np.asarray(value), g_delta, g_theta, *tangent(u), *stacked]

    for scale in np.logspace(-3, 3, 7):
        values = base.values.copy()
        values[-last:] *= scale
        p = base.replace_values(values)
        stack = ModelParams(values + 0.1 * rng.normal(size=(4, p.n_params)), p.shapes)
        delta = rng.normal(size=x.shape) * 0.3
        u = rng.normal(size=x.shape)
        got = outputs(p, stack, delta, u)
        with monkeypatch.context() as m:
            m.setattr(regularizers, "_kl_rows", _kl_rows_from_logits)
            want = outputs(p, stack, delta, u)
        assert got[-2].shape == (4,) and got[-1].shape == (4, 25, 2)
        for i, (a, b) in enumerate(zip(got, want)):
            assert np.array_equal(a, b), (scale, i)
