"""The end-to-end gradient verifier: instance sampling, kink filtering, accuracy."""
from __future__ import annotations

import numpy as np
import pytest

from salt.errors import ContractViolation
from salt.gradcheck import (
    _FD_CHUNK,
    _FD_STEP,
    hypergradient_fd,
    kink_margin_ok,
    run_gradcheck,
    sample_instance,
    total_objective,
)
from salt.diffmodel import mlp_forward
from salt.perturb import AdvConfig, ascend
from salt.regularizers import reg_grad_delta_sum
from salt.stackelberg import UnrollTape, make_adv_objective, unroll_forward


def test_records_are_accurate_and_typed():
    records = run_gradcheck(instances=8, master_seed=0)
    assert len(records) == 8
    for i, r in enumerate(records):
        assert r.index == i
        assert r.rel_err <= 1e-4
        assert r.boundary == (i % 3 == 2)
        expected_kind = "SquaredDifference" if i % 4 == 3 else "KLDivergence"
        assert r.kind == expected_kind
        assert r.k_steps in (1, 2, 3)


def test_each_draw_is_unrolled_once(monkeypatch):
    """Sampling screens the tape of the analytic gradient it keeps, so a run
    makes one unroll per draw: one per instance plus one per rejected draw."""
    import salt.stackelberg as stackelberg

    calls = []
    real = stackelberg.unroll_forward
    monkeypatch.setattr(stackelberg, "unroll_forward", lambda *a: calls.append(1) or real(*a))
    records = run_gradcheck(20, None, 0)
    assert len(calls) == len(records) + sum(r.resamples for r in records) == 23


def test_fixed_k_is_respected():
    for r in run_gradcheck(instances=3, k_steps=2, master_seed=1):
        assert r.k_steps == 2


def _replay(params, x, kind, delta0, cfg):
    """The ascent total_objective runs from a frozen init."""
    return ascend(lambda delta: reg_grad_delta_sum(params, x, delta, kind), delta0, cfg)


def test_endpoint_replay_matches_recorded_unroll():
    inst, _ = sample_instance(5, 0)
    obj = make_adv_objective(inst.params, inst.batch.inputs, inst.kind)
    tape = unroll_forward(inst.params, inst.batch.inputs, inst.cfg, obj, inst.delta0_seed)
    assert np.array_equal(tape.deltas[0], inst.delta0)
    deltas, pres = _replay(inst.params, inst.batch.inputs, inst.kind, inst.delta0, inst.cfg)
    assert len(deltas) == len(tape.deltas) and len(pres) == len(tape.pre_projections)
    for got, want in zip(deltas + pres, tape.deltas + tape.pre_projections):
        assert np.array_equal(got, want)


def test_total_objective_alpha0_is_task_loss():
    from salt.diffmodel import task_loss
    from dataclasses import replace

    inst, _ = sample_instance(6, 1)
    cfg = replace(inst.cfg, alpha=0.0)
    got = total_objective(inst.params, inst.batch, cfg, inst.kind, inst.delta0)
    want = task_loss(mlp_forward(inst.params, inst.batch.inputs), inst.batch.targets)
    assert got == want


def test_hypergradient_fd_alpha0_matches_clean_gradient():
    from dataclasses import replace

    from salt.diffmodel import grad_params

    inst, _ = sample_instance(7, 0)
    cfg = replace(inst.cfg, alpha=0.0)
    fd = hypergradient_fd(inst.params, inst.batch, cfg, inst.kind, inst.delta0)
    clean = grad_params(inst.params, inst.batch)
    assert np.linalg.norm(fd - clean) <= 1e-6 * max(np.linalg.norm(clean), 1.0)


def _tape_with_pre(pre):
    return UnrollTape(deltas=(np.zeros_like(pre), pre), pre_projections=(pre,), tangents=())


def test_kink_margin_detects_boundary_grazing():
    cfg = AdvConfig(epsilon=1.0, eta=0.1, sigma=0.1, k_steps=1)
    safe = _tape_with_pre(np.array([[0.5, 0.0], [0.0, 2.0]]))
    assert kink_margin_ok(safe, cfg)
    grazing = _tape_with_pre(np.array([[1.0 + 1e-5, 0.0]]))
    assert not kink_margin_ok(grazing, cfg)
    inside_graze = _tape_with_pre(np.array([[1.0 - 1e-5, 0.0]]))
    assert not kink_margin_ok(inside_graze, cfg)


def test_run_gradcheck_validates_count():
    with pytest.raises(ContractViolation):
        run_gradcheck(instances=0)


def _fd_one_at_a_time(params, batch, cfg, kind, delta0, h=_FD_STEP):
    """hypergradient_fd's central differences, one unstacked parameter vector per call."""
    base = params.values
    grad = np.empty(base.size)
    for j in range(base.size):
        e = np.zeros(base.size)
        e[j] = h
        fp = total_objective(params.replace_values(base + e), batch, cfg, kind, delta0)
        fm = total_objective(params.replace_values(base - e), batch, cfg, kind, delta0)
        grad[j] = (fp - fm) / (2.0 * h)
    return grad


def _canonical_instance():
    from salt.diffmodel import Batch, init_params
    from salt.harness.datasets import gen_two_moons
    from salt.perturb import sample_init

    from helpers import shipped_config

    canonical = shipped_config("canonical_salt")
    train, _ = gen_two_moons(canonical.dataset.n_train, canonical.dataset.n_test, canonical.dataset.noise_std, 0)
    batch = Batch(train.inputs[: canonical.batch_size], train.targets[: canonical.batch_size])
    params = init_params(canonical.model.layers, np.random.default_rng(0))
    delta0 = sample_init(canonical.adv.sigma, batch.inputs.shape, np.random.default_rng(1)).values
    return params, batch, canonical.adv, canonical.model.regularizer_kind, delta0


def _toy_instance(index, norm=None):
    from dataclasses import replace

    inst, _ = sample_instance(0, index)
    cfg = inst.cfg if norm is None else replace(inst.cfg, norm=norm)
    return inst.params, inst.batch, cfg, inst.kind, inst.delta0


@pytest.mark.parametrize(
    "case", ["canonical", "toy-kl", "toy-squared-difference", "toy-l2-boundary", "toy-linf-boundary"]
)
def test_stacked_fd_is_bit_identical_to_one_at_a_time(case):
    """Each stacked chunk member evaluates exactly as its unstacked vector
    would: no tolerance."""
    from salt.perturb import NormKind
    from salt.regularizers import RegularizerKind

    if case == "canonical":
        args = _canonical_instance()
        assert (args[0].n_params, args[1].n, args[2].eta, args[3]) == (1218, 25, 1e6, RegularizerKind.KL_DIVERGENCE)
    else:
        index, norm = {
            "toy-kl": (0, None),
            "toy-squared-difference": (3, None),
            "toy-l2-boundary": (2, None),
            "toy-linf-boundary": (2, NormKind.LINF),
        }[case]
        args = _toy_instance(index, norm)
    params, batch, cfg, kind, delta0 = args
    if case.endswith("boundary"):
        _, pres = _replay(params, batch.inputs, kind, delta0, cfg)
        norms = [np.abs(pre) if cfg.norm == NormKind.LINF else np.sqrt((pre**2).sum(axis=1)) for pre in pres]
        assert max(nrm.max() for nrm in norms) > cfg.epsilon  # the projection acts
    if case == "toy-squared-difference":
        assert kind == RegularizerKind.SQUARED_DIFFERENCE
    assert params.n_params > _FD_CHUNK  # more than one chunk
    assert np.array_equal(hypergradient_fd(*args), _fd_one_at_a_time(*args))


@pytest.mark.parametrize("members", [1, 2])
def test_hypergradient_fd_takes_one_parameter_vector(members):
    """A stack of parameter vectors is refused by name: its central
    differences would perturb every member's entry j at once, and before the
    check a stack of two died on a numpy broadcast."""
    params, batch, cfg, kind, delta0 = _toy_instance(0)
    stack = params.replace_values(np.repeat(params.values[None], members, axis=0))
    with pytest.raises(ContractViolation, match="one parameter vector"):
        hypergradient_fd(stack, batch, cfg, kind, delta0)
