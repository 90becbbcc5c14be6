"""Projection, its Jacobian, Gaussian init, and the projected ascent."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salt.diffmodel import ModelParams, init_params
from salt.errors import ContractViolation
from salt.perturb import (
    AdvConfig,
    NormKind,
    Perturbation,
    ProjMode,
    ascend,
    project_jvp_rows,
    project_rows,
    sample_init,
)
from salt.regularizers import RegularizerKind, reg_grad_delta_sum


def test_project_l2_known_value():
    got = project_rows(np.array([[3.0, 4.0], [0.3, -0.4]]), 1.0, NormKind.L2)
    assert np.allclose(got[0], [0.6, 0.8], atol=1e-15)
    # interior row untouched, bitwise, in a fresh array
    v = np.array([[0.3, -0.4]])
    assert project_rows(v, 1.0, NormKind.L2) is not v
    assert np.array_equal(project_rows(v, 1.0, NormKind.L2), v)
    assert np.array_equal(got[1], v[0])


def test_project_linf_known_value():
    got = project_rows(np.array([[3.0, -0.5, 1.0]]), 1.0, NormKind.LINF)
    assert np.array_equal(got, [[1.0, -0.5, 1.0]])


@pytest.mark.parametrize("norm", list(NormKind))
def test_projection_idempotent_and_bounded(norm):
    rng = np.random.default_rng(0)
    for _ in range(25):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        eps = float(rng.uniform(0.1, 3.0))
        v = rng.normal(size=(n, d)) * rng.uniform(0.01, 10)
        once = project_rows(v, eps, norm)
        twice = project_rows(once, eps, norm)
        assert np.array_equal(once, twice)  # bit-exact
        if norm == NormKind.L2:
            assert np.all(np.sqrt((once**2).sum(axis=1)) <= eps * (1 + 1e-12))
        else:
            assert np.all(np.abs(once) <= eps)


@pytest.mark.parametrize("norm", list(NormKind))
def test_projection_jacobian_matches_fd(norm):
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 40:
        d = int(rng.integers(2, 7))
        eps = 1.0
        v = rng.normal(size=(1, d)) * rng.uniform(0.3, 3.0)
        # keep away from the kink where the derivative does not exist
        if norm == NormKind.L2:
            if abs(np.linalg.norm(v) - eps) < 1e-2:
                continue
        else:
            if np.any(np.abs(np.abs(v) - eps) < 1e-2):
                continue
        u = rng.normal(size=(1, d))
        got = project_jvp_rows(v, u, eps, norm, ProjMode.EXACT_JACOBIAN)
        h = 1e-7
        fd = (project_rows(v + h * u, eps, norm) - project_rows(v - h * u, eps, norm)) / (2 * h)
        assert np.linalg.norm(got - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-9)
        checked += 1


def test_projection_jacobian_symmetric():
    rng = np.random.default_rng(2)
    for norm in NormKind:
        for _ in range(20):
            d = 5
            v = rng.normal(size=(1, d)) * 3.0
            jac = np.concatenate(
                [project_jvp_rows(v, e[None, :], 1.0, norm, ProjMode.EXACT_JACOBIAN) for e in np.eye(d)]
            )
            assert np.allclose(jac, jac.T, atol=1e-14)


def test_sample_init_statistics():
    rng = np.random.default_rng(4)
    sigma = 0.37
    draw = sample_init(sigma, (2000, 50), rng).values
    assert abs(draw.std() - sigma) <= 0.01 * sigma
    assert abs(draw.mean()) <= 3 * sigma / np.sqrt(draw.size)
    assert sample_init(0.0, (5, 3), rng).values.sum() == 0.0


def test_sample_init_int_seed_is_a_fresh_generator():
    for seed in (0, 7, np.int64(2**31 - 1)):
        got = sample_init(0.3, (4, 3), seed).values
        assert np.array_equal(got, sample_init(0.3, (4, 3), np.random.default_rng(seed)).values)


def test_stacked_sample_init_draws_each_member_from_its_own_rng():
    """A stack shape draws member i from the i-th rng, in the order and with
    the bits of a lone draw from it, and advances each rng as that draw does."""
    gens = [np.random.default_rng(s) for s in (3, 4)]
    got = sample_init(0.3, (3, 4, 2), [gens[0], 5, gens[1]]).values
    fresh = [np.random.default_rng(s) for s in (3, 4)]
    want = [sample_init(0.3, (4, 2), g).values for g in (fresh[0], 5, fresh[1])]
    assert got.shape == (3, 4, 2)
    for member, lone in zip(got, want):
        assert member.tobytes() == lone.tobytes()
    assert [g.random() for g in gens] == [g.random() for g in fresh]
    for rng in (np.random.default_rng(0), 0, [0, 1]):
        with pytest.raises(ContractViolation, match="one rng per member"):
            sample_init(0.3, (3, 4, 2), rng)
    for rng in ([np.random.default_rng(0)], [0, 1], (5,)):
        with pytest.raises(ContractViolation, match="a lone draw takes one rng"):
            sample_init(0.3, (4, 2), rng)


def test_ascend_closed_form_linear_regression():
    # f(x) = w^T x: one step moves delta by 2 eta (w^T delta) w, then projects
    w = np.array([2.0, -1.0])
    p = ModelParams(values=np.array([w[0], w[1], 0.0]), shapes=((2, 1), (1, 1)))
    x = np.array([[1.0, 1.0], [0.5, -0.5]])
    delta0 = np.array([[0.1, 0.0], [0.0, 0.2]])
    cfg = AdvConfig(epsilon=10.0, eta=0.05, sigma=0.0, k_steps=1)
    kind = RegularizerKind.SQUARED_DIFFERENCE
    deltas, pres = ascend(lambda d: reg_grad_delta_sum(p, x, d, kind), delta0, cfg)
    want = delta0 + 2 * cfg.eta * (delta0 @ w)[:, None] * w
    assert len(deltas) == 2 and len(pres) == 1
    assert deltas[0] is delta0  # the init is returned as given, never projected
    assert np.allclose(pres[0], want, atol=1e-14)
    assert np.array_equal(deltas[1], pres[0])  # interior: projection is identity


def test_ascend_zero_delta_is_stationary():
    rng = np.random.default_rng(5)
    p = init_params([2, 6, 3], rng)
    x = rng.normal(size=(4, 2))
    cfg = AdvConfig(epsilon=1.0, eta=0.5, sigma=0.0, k_steps=3)
    kind = RegularizerKind.KL_DIVERGENCE
    deltas, _ = ascend(lambda d: reg_grad_delta_sum(p, x, d, kind), np.zeros((4, 2)), cfg)
    assert len(deltas) == 4
    for d in deltas:
        assert np.allclose(d, 0.0, atol=1e-12)


def test_ascend_eta_zero_is_pure_projection():
    rng = np.random.default_rng(6)
    p = init_params([2, 6, 3], rng)
    x = rng.normal(size=(3, 2))
    big = rng.normal(size=(3, 2)) * 5.0
    cfg = AdvConfig(epsilon=0.5, eta=0.0, sigma=0.0, k_steps=1)
    kind = RegularizerKind.KL_DIVERGENCE
    deltas, pres = ascend(lambda d: reg_grad_delta_sum(p, x, d, kind), big, cfg)
    assert np.array_equal(pres[0], big)
    assert np.array_equal(deltas[1], project_rows(big, 0.5, NormKind.L2))
    # zero steps: the init alone, no gradient taken
    deltas, pres = ascend(None, big, AdvConfig(k_steps=0))
    assert len(deltas) == 1 and deltas[0] is big and pres == []


def test_adv_config_validation():
    with pytest.raises(ContractViolation):
        AdvConfig(epsilon=0.0)
    with pytest.raises(ContractViolation):
        AdvConfig(alpha=-1.0)
    with pytest.raises(ContractViolation):
        AdvConfig(k_steps=-1)
    with pytest.raises(ContractViolation):
        AdvConfig(eta=-0.5)
    with pytest.raises(ContractViolation, match="epsilon must be finite"):
        AdvConfig(epsilon=float("nan"))
    with pytest.raises(ContractViolation, match=r"norm must be one of \['L2', 'LInf'\], got 'L3'"):
        AdvConfig(norm="L3")
    for bad in ("X", "StraightThrough"):
        with pytest.raises(ContractViolation, match=rf"proj_mode must be one of \['ExactJacobian'\], got '{bad}'"):
            AdvConfig(proj_mode=bad)
    # the primitives check their own radius, scale, norm, mode and shapes
    v = np.ones((2, 3))
    with pytest.raises(ContractViolation, match="an \\(n, d\\) matrix or a stack"):
        Perturbation(np.ones(3))
    for bad in (float("nan"), float("inf"), float("-inf"), -0.5):
        with pytest.raises(ContractViolation, match="sigma must be"):
            sample_init(bad, (2, 3), 0)
    for bad in (float("nan"), float("inf"), float("-inf"), 0.0):
        with pytest.raises(ContractViolation, match="epsilon must be"):
            project_rows(v, bad, NormKind.L2)
        with pytest.raises(ContractViolation, match="epsilon must be"):
            project_jvp_rows(v, v, bad, NormKind.L2, ProjMode.EXACT_JACOBIAN)
    with pytest.raises(ContractViolation, match="unknown norm"):
        project_rows(v, 1.0, "L3")
    with pytest.raises(ContractViolation, match="unknown norm"):
        project_jvp_rows(v, v, 1.0, "L3", ProjMode.EXACT_JACOBIAN)
    with pytest.raises(ContractViolation, match="tangent must match"):
        project_jvp_rows(v, np.ones((2, 2)), 1.0, NormKind.L2, ProjMode.EXACT_JACOBIAN)
    for bad in ("Bogus", "StraightThrough"):
        with pytest.raises(ContractViolation, match="unknown projection mode"):
            project_jvp_rows(v, v, 1.0, NormKind.L2, bad)
    cfg = AdvConfig(norm="LInf", proj_mode="ExactJacobian")
    assert cfg.norm is NormKind.LINF and cfg.proj_mode is ProjMode.EXACT_JACOBIAN


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(list(NormKind)),
    st.floats(0.05, 5.0),
)
def test_projection_properties_random(seed, norm, eps):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(int(rng.integers(1, 12)), int(rng.integers(1, 9)))) * rng.uniform(0.01, 20)
    once = project_rows(v, eps, norm)
    assert np.array_equal(once, project_rows(once, eps, norm))
    if norm == NormKind.L2:
        assert np.all(np.sqrt((once**2).sum(axis=1)) <= eps * (1 + 1e-12))
        # direction is preserved for clipped rows
        norms = np.sqrt((v**2).sum(axis=1))
        for i in np.nonzero(norms > eps * (1 + 1e-12))[0]:
            cos = v[i] @ once[i] / (norms[i] * np.linalg.norm(once[i]))
            assert cos >= 1 - 1e-12
    else:
        assert np.all(np.abs(once) <= eps)


@pytest.mark.parametrize("norm", list(NormKind))
def test_projection_of_a_stack_is_each_members_projection(norm):
    """A leading stack axis changes no bit of any member's projection or
    projection Jacobian."""
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(7, 25, 3)) * rng.uniform(0.1, 2.0, size=(7, 1, 1))
    tangent = rng.normal(size=stack.shape)
    got = project_rows(stack, 1.0, norm)
    jvp = project_jvp_rows(stack, tangent, 1.0, norm, ProjMode.EXACT_JACOBIAN)
    for i in range(stack.shape[0]):
        assert np.array_equal(got[i], project_rows(stack[i], 1.0, norm))
        assert np.array_equal(jvp[i], project_jvp_rows(stack[i], tangent[i], 1.0, norm, ProjMode.EXACT_JACOBIAN))
    assert not np.array_equal(got, stack)  # some rows were outside the ball


def test_l2_jacobian_on_zero_rows_is_silent_identity():
    values = np.zeros((3, 2))
    values[1] = [3.0, 4.0]
    tangent = np.arange(6.0).reshape(3, 2)
    with np.errstate(all="raise"):
        out = project_jvp_rows(values, tangent, 1.0, NormKind.L2, ProjMode.EXACT_JACOBIAN)
    assert np.array_equal(out[[0, 2]], tangent[[0, 2]])
    assert not np.array_equal(out[1], tangent[1])
