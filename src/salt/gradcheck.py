"""End-to-end gradient verification against finite differences.

The check freezes the Gaussian init, re-runs the whole pipeline (ascent,
projection, outer objective) at parameter perturbations theta +- h e_j, and
compares the central-difference hypergradient against the analytic
leader-plus-interaction gradient. Instances whose trajectories pass too close
to a projection kink are rejected and resampled since the objective is not
differentiable there.

The central differences run in chunks: one call of the objective evaluates a
stack of parameter vectors, theta + h e_j and theta - h e_j for a block of j,
through the follower's stacked primitives. Each member's value is
bit-identical to evaluating it alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffmodel import Array, Batch, ModelParams, _forward, _share_lower_layers, _sum_last, init_params, task_loss
from .errors import ContractViolation
from .perturb import AdvConfig, NormKind, ascend
from .regularizers import (
    RegularizerKind,
    _check_kind,
    _checked,
    _grad_delta_tangent,
    _value_seeds,
    head_kind,
)
from .stackelberg import UnrollTape, stackelberg_gradient

# Relative distance from a pre-projection point to the ball boundary below
# which an instance counts as kink-adjacent.
_KINK_MARGIN = 1e-3

# Central-difference step of hypergradient_fd.
_FD_STEP = 1e-5

# Floats per activation array of one stacked objective evaluation in
# hypergradient_fd: a call takes _FD_FLOATS // (2 n widest) parameters, 2x
# that many members, for a batch of n and the widest layer or input. At the
# canonical point (n 25, widest 32) that is 16 parameters, 77 calls and ~2 MB
# of peak memory per call; a toy instance fits in one call.
_FD_FLOATS = 25_600


@dataclass(frozen=True)
class Instance:
    """A sampled verification problem with a frozen perturbation init, and
    the analytic hypergradient of the draw that was accepted."""

    params: ModelParams
    batch: Batch
    cfg: AdvConfig
    kind: RegularizerKind
    delta0_seed: int
    delta0: Array
    analytic: Array


@dataclass(frozen=True)
class GradcheckRecord:
    index: int
    seed: int
    k_steps: int
    n_params: int
    kind: str
    boundary: bool
    resamples: int
    rel_err: float


def total_objective(params: ModelParams, batch: Batch, cfg: AdvConfig, delta0: Array) -> float | Array:
    """Task loss plus alpha times the head's regularizer at the endpoint of
    the ascent re-run from a fixed init under the current parameters. For
    stacked parameters (m, P), an (m,) array of each member's objective. x
    and delta0's shape are checked once per call, where the clean pass is
    built; the iterates take their shape from delta0 and x, so the ascent's
    evaluations and the endpoint's run the regularizers' unchecked bodies."""
    x, delta0, clean = _checked(params, batch.inputs, delta0)
    deltas, _ = ascend(lambda delta: _grad_delta_tangent(params, x, clean, delta)[0], delta0, cfg)
    loss = task_loss(clean, batch.targets)
    return loss + cfg.alpha * (_value_seeds(clean, _forward(params, x + deltas[-1]))[0] / batch.n)


def hypergradient_fd(
    params: ModelParams,
    batch: Batch,
    cfg: AdvConfig,
    kind: RegularizerKind,
    delta0: Array,
) -> Array:
    """Central differences of the total objective over every parameter of
    one problem, in stacked calls sized by _FD_FLOATS. A call's members,
    theta +- h e_j for a block of j, share the base's layers below the first
    one the block perturbs (see _share_lower_layers). The kind and the
    one-problem rule are checked here, once per gradient."""
    _check_kind(params, kind)
    base = params.values
    shapes = (base.shape, np.shape(batch.inputs), np.shape(delta0))
    if [len(s) for s in shapes] != [1, 2, 2]:
        raise ContractViolation(f"hypergradient_fd takes one parameter vector, (n, d) batch and delta0, got {shapes}")
    widest = max(params.input_dim, *(c for _, c in params.shapes))
    per_call = max(1, _FD_FLOATS // (2 * batch.n * widest))
    layer_ends = np.cumsum([r * c for r, c in params.shapes])[1::2]
    grad = np.empty(base.size)
    for j0 in range(0, base.size, per_call):
        js = np.arange(j0, min(j0 + per_call, base.size))
        e = np.zeros((js.size, base.size))
        e[np.arange(js.size), js] = _FD_STEP
        stack = params.replace_values(np.concatenate([base + e, base - e]))
        below = int(np.searchsorted(layer_ends, j0, side="right"))  # layers no member perturbs
        f = total_objective(_share_lower_layers(stack, params, below), batch, cfg, delta0)
        grad[js] = (f[: js.size] - f[js.size :]) / (2.0 * _FD_STEP)
    return grad


def kink_margin_ok(tape: UnrollTape, cfg: AdvConfig) -> bool:
    """True when every pre-projection point keeps a clear relative margin from
    the ball boundary, on both sides."""
    for pre in tape.pre_projections:
        size = np.sqrt(_sum_last(pre**2)) if cfg.norm == NormKind.L2 else np.abs(pre)
        if np.any(np.abs(size - cfg.epsilon) <= _KINK_MARGIN * cfg.epsilon):
            return False
    return True


def sample_instance(master_seed: int, index: int, k_steps: int | None = None) -> tuple[Instance, int]:
    """Draw a small random problem, resampling until the recorded trajectory is
    clear of kinks. Each draw's analytic hypergradient is taken once and its
    tape screened. Returns the instance and how many draws were rejected."""
    resamples = 0
    for attempt in range(64):
        rng = np.random.default_rng([master_seed, index, attempt])
        regression = index % 4 == 3
        d = int(rng.integers(2, 9))
        hidden = int(rng.integers(4, 9))
        n_classes = int(rng.integers(2, 4))
        sizes = [d, hidden, 1 if regression else n_classes]
        if rng.random() < 0.5:
            sizes.insert(2, int(rng.integers(3, 7)))
        params = init_params(sizes, rng, scale=1.8)
        n = int(rng.integers(2, 4))
        x = rng.standard_normal((n, d)) * 1.5
        targets = rng.standard_normal(n) if regression else rng.integers(0, n_classes, size=n)
        kind = head_kind(params.output_dim)
        batch = Batch(x, targets)
        boundary = index % 3 == 2
        sigma = 0.1
        epsilon = 0.6 * sigma * np.sqrt(d) if boundary else 1e3
        cfg = AdvConfig(
            alpha=1.0,
            epsilon=float(epsilon),
            eta=float(rng.uniform(0.3, 1.0)),
            sigma=sigma,
            k_steps=int(k_steps if k_steps is not None else rng.integers(1, 4)),
            norm=NormKind.L2,
        )
        delta0_seed = int(rng.integers(0, 2**31))
        grad = stackelberg_gradient(params, batch, cfg, kind, delta0_seed)
        if kink_margin_ok(grad.tape, cfg):
            return Instance(params, batch, cfg, kind, delta0_seed, grad.tape.deltas[0], grad.total), resamples
        resamples += 1
    raise ContractViolation(f"could not sample a clean instance for index {index}")


def check_instance(master_seed: int, index: int, k_steps: int | None = None) -> GradcheckRecord:
    inst, resamples = sample_instance(master_seed, index, k_steps)
    fd = hypergradient_fd(inst.params, inst.batch, inst.cfg, inst.kind, inst.delta0)
    rel_err = float(np.linalg.norm(fd - inst.analytic) / max(np.linalg.norm(fd), 1e-300))
    return GradcheckRecord(
        index=index,
        seed=master_seed,
        k_steps=inst.cfg.k_steps,
        n_params=inst.params.n_params,
        kind=inst.kind.value,
        boundary=inst.cfg.epsilon < 1.0,
        resamples=resamples,
        rel_err=rel_err,
    )


def run_gradcheck(
    instances: int = 20, k_steps: int | None = None, master_seed: int = 0
) -> list[GradcheckRecord]:
    if instances < 1:
        raise ContractViolation("need at least one instance")
    return [check_instance(master_seed, i, k_steps) for i in range(instances)]
