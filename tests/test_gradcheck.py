"""The end-to-end gradient verifier: instance sampling, kink filtering, accuracy."""
from __future__ import annotations

import numpy as np
import pytest

from salt.errors import ContractViolation
from salt.gradcheck import (
    hypergradient_fd,
    kink_margin_ok,
    run_gradcheck,
    sample_instance,
    total_objective,
)
from salt.perturb import AdvConfig, ascend
from salt.regularizers import clean_pass
from salt.stackelberg import UnrollTape, make_adv_objective, unroll_forward
from salt.vat import regularizer_ascent


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


def test_fixed_k_is_respected():
    for r in run_gradcheck(instances=3, k_steps=2, master_seed=1):
        assert r.k_steps == 2


def test_endpoint_replay_matches_recorded_unroll():
    inst, _ = sample_instance(5, 0)
    obj = make_adv_objective(inst.params, inst.batch.inputs, inst.kind)
    tape = unroll_forward(inst.params, inst.batch.inputs, inst.cfg, obj, inst.delta0_seed)
    assert np.array_equal(tape.deltas[0], inst.delta0)
    x = inst.batch.inputs
    grad_delta = regularizer_ascent(inst.params, x, inst.kind, clean_pass(inst.params, x, inst.kind))
    deltas, pres = ascend(grad_delta, inst.delta0, inst.cfg)
    assert len(deltas) == len(tape.deltas) and len(pres) == len(tape.pre_projections)
    for got, want in zip(deltas + pres, tape.deltas + tape.pre_projections):
        assert np.array_equal(got, want)


def test_total_objective_alpha0_is_task_loss():
    from salt.diffmodel import mlp_forward, task_loss
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


def _tape_with_pre(pre, cfg):
    return UnrollTape(
        deltas=(np.zeros_like(pre), pre),
        pre_projections=(pre,),
        tangents=(),
        cfg=cfg,
        seed=None,
        theta_sha1="",
        x_sha1="",
    )


def test_kink_margin_detects_boundary_grazing():
    cfg = AdvConfig(epsilon=1.0, eta=0.1, sigma=0.1, k_steps=1)
    safe = _tape_with_pre(np.array([[0.5, 0.0], [0.0, 2.0]]), cfg)
    assert kink_margin_ok(safe, cfg)
    grazing = _tape_with_pre(np.array([[1.0 + 1e-5, 0.0]]), cfg)
    assert not kink_margin_ok(grazing, cfg)
    inside_graze = _tape_with_pre(np.array([[1.0 - 1e-5, 0.0]]), cfg)
    assert not kink_margin_ok(inside_graze, cfg)


def test_run_gradcheck_validates_count():
    with pytest.raises(ContractViolation):
        run_gradcheck(instances=0)
