"""Differentiation through the unrolled inner ascent, and the one training
step of every method.

The outer objective is

    F(theta) = task_loss(theta) + alpha * reg(x, delta_K(theta), theta)

where delta_K is produced by k_steps of projected gradient ascent starting
from a Gaussian draw. Its total derivative splits into a leader part (delta
treated as a constant: `_leader_part`, the flat baseline's whole gradient)
and an interaction part that tracks how the ascent's endpoint moves with theta.

The interaction part is computed by a reverse sweep over the recorded
trajectory. Each sweep step needs two curvature contractions of the inner
objective at the iterate it came from, in theta and in delta. The follower
records, with each ascent step's gradient, the tangent map of that step's
pass, which gives both contractions exactly: a tangent forward and a tangent
backward over the recorded perturbed pass (forward-over-reverse, Pearlmutter
1994), with no probe radius and no further forward pass. The last reverse
step skips the delta contraction, which nothing reads.

Every seed on the clean pass (the task seed, the regularizer's clean seed
and each reverse step's clean-output seed, which the tangent maps return
unpropagated) goes through one stacked backprop. Each row has the bits of
its seed's lone backprop and is added where that backprop was.

`training_step` runs one leader update of any method. The methods differ in
what the follower climbs (nothing for ERM, the task loss for Adv, the
regularizer for VAT and SALT) and in whether the leader differentiates
through the follower (SALT alone); the others hold its endpoint constant.
VAT's step makes SALT's calls up to the reverse sweep: the same unroll, the
same regularizer parts at the endpoint and the same `_leader_part`, with no
further seeds on its clean backprop.

Everything here also runs a stack of m problems at once: parameters (m, P)
and a batch (m, n, d), with one rng per member. Each member's results are
bit-identical to its lone call; the degenerate-endpoint branch becomes a
per-member mask.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .diffmodel import (
    Array,
    Batch,
    ForwardPass,
    ModelParams,
    _backward,
    _backward_input,
    _check_targets,
    _forward,
    _per_member,
    _task_grad,
    _task_loss,
    _task_seed_sum,
    mlp_forward,
)
from .errors import ContractViolation
from .optim import OptimizerState, optimizer_step
from .perturb import AdvConfig, Rng, ascend, project_jvp_rows, sample_init
from .regularizers import (
    RegularizerKind,
    TangentMap,
    _check_delta,
    _check_inputs,
    _grad_delta_tangent,
    _reg_grad_params_parts,
    head_kind,
)

# Below this, the ascent endpoint gradient is considered stuck at a stationary
# point and the interaction part is zeroed instead of amplifying noise.
_DEGENERATE_NORM = 1e-14


# The follower's objective at the leader's current theta, summed over
# examples: obj(delta (n, d)) returns d obj/d delta (n, d) and the TangentMap
# at that point; on a stack, each member's.
Linearize = Callable[[Array], tuple[Array, TangentMap]]


def make_adv_objective(params: ModelParams, x: Array, kind: RegularizerKind) -> Linearize:
    """The production inner objective at params: per-example regularizers,
    summed, whose call at delta returns regularizers._grad_delta_tangent
    there. x and kind are checked here, with the one clean pass every call
    shares; each call checks its delta against x."""
    x = _check_inputs(params, x, kind)
    clean = _forward(params, x)
    return lambda delta: _grad_delta_tangent(params, x, _check_delta(x, delta), kind, clean)


def _step_objective(params: ModelParams, x: Array, kind: RegularizerKind, clean: ForwardPass) -> Linearize:
    """make_adv_objective inside a step, which checked x and kind where it
    built clean and draws every delta at x's shape: its calls check nothing."""
    return lambda delta: _grad_delta_tangent(params, x, delta, kind, clean)


# ---------- forward unroll ----------


@dataclass(frozen=True)
class UnrollTape:
    """Recorded ascent trajectory.

    deltas holds K+1 iterates (deltas[0] is the raw Gaussian draw, never
    projected); pre_projections holds the K pre-projection points at which
    the projection Jacobian acts; tangents[k] is the objective's tangent map
    at deltas[k], recorded with the ascent step taken from there.
    """

    deltas: tuple[Array, ...]
    pre_projections: tuple[Array, ...]
    tangents: tuple[TangentMap, ...]

    @property
    def k_steps(self) -> int:
        return len(self.pre_projections)


def unroll_forward(
    params: ModelParams,
    x: Array,
    cfg: AdvConfig,
    obj: Linearize,
    rng: Rng | Sequence[Rng],
) -> UnrollTape:
    """Run k_steps of projected ascent on obj, recording the trajectory and
    the tangent map of each step's gradient evaluation. A stacked x (m, n, d)
    takes m rngs, one per member's init. params, at which obj was built, is
    not read."""
    x = np.asarray(x, dtype=np.float64)
    tangents: list[TangentMap] = []

    def grad_delta(delta: Array) -> Array:
        grad, tangent = obj(delta)
        tangents.append(tangent)
        return grad

    delta0 = sample_init(cfg.sigma, x.shape, rng).values
    deltas, pres = ascend(grad_delta, delta0, cfg)
    return UnrollTape(deltas=tuple(deltas), pre_projections=tuple(pres), tangents=tuple(tangents))


# ---------- interaction term, reverse sweep ----------


def _clean_backprop(params: ModelParams, clean: ForwardPass, seeds: Sequence[Array | float]) -> Array:
    """Every seed on the clean pass's output backpropagated to the parameters
    in one call: row i of the (len(seeds), ..., P) result has the bits of
    seed i's lone backprop."""
    stack = np.empty((len(seeds), *clean.out.shape))
    for i, seed in enumerate(seeds):
        stack[i] = seed
    return _backward(params, clean, stack, to_inputs=False)[0]


def _reverse_sweep(tape: UnrollTape, cfg: AdvConfig, u: Array) -> tuple[list[Array], list[Array | float]]:
    """Push the endpoint cotangent u back through the tape: at each step, last
    first, through the projection Jacobian at the recorded pre-projection
    point, then through the ascent update's curvature, which the tangent map
    recorded at that step's starting iterate gives. Returns each step's mixed
    contraction without its clean branch, and that branch's clean-output
    seed."""
    mixed: list[Array] = []
    seeds: list[Array | float] = []
    for k in range(tape.k_steps, 0, -1):
        u = project_jvp_rows(tape.pre_projections[k - 1], u, cfg.epsilon, cfg.norm, cfg.proj_mode)
        d_theta, curv, seed = tape.tangents[k - 1](u, curv=k > 1)
        mixed.append(d_theta)
        seeds.append(seed)
        if k > 1:
            u = u + cfg.eta * curv
    return mixed, seeds


def _interaction(mixed: list[Array], clean_parts: Array, cfg: AdvConfig, shape: tuple[int, ...]) -> Array:
    """alpha * eta * the sum of each step's mixed contraction, its clean part
    added back, accumulated in reverse-sweep order."""
    g = np.zeros(shape)
    for d_theta, clean_part in zip(mixed, clean_parts):
        g = g + cfg.eta * (d_theta + clean_part)
    return cfg.alpha * g


def interaction_adjoint(
    tape: UnrollTape,
    params: ModelParams,
    x: Array,
    obj: Linearize,
    cfg: AdvConfig,
) -> Array:
    """alpha * (d reg_mean / d delta_K) @ (d delta_K / d theta), accumulated in reverse.

    Walks the tape backwards from d reg_mean / d delta_K, which obj gives at
    the endpoint (see _reverse_sweep), then backpropagates the steps'
    clean-output seeds through the clean pass at (params, x) in one call.
    The tape must have been recorded at params, x and cfg; nothing checks it.
    """
    if tape.k_steps == 0:
        return cfg.alpha * np.zeros(params.values.shape)
    n = tape.deltas[0].shape[-2]
    mixed, seeds = _reverse_sweep(tape, cfg, obj(tape.deltas[-1])[0] / n)
    clean_parts = _clean_backprop(params, mlp_forward(params, x), seeds)
    return _interaction(mixed, clean_parts, cfg, params.values.shape)


# ---------- the leader part and the full outer gradient ----------


def _leader_part(
    params: ModelParams,
    clean: ForwardPass,
    targets: Array,
    cfg: AdvConfig,
    reg_theta: Array,
    reg_seed: Array,
    more_seeds: Sequence[Array | float] = (),
) -> tuple[Array, Array]:
    """The leader part from the regularizer's perturbed-branch theta gradient
    and clean seed at the endpoint: the task seed, reg_seed and more_seeds go
    through clean in one backprop. Returns the leader part and more_seeds'
    backprops."""
    n = clean.out.shape[-2]
    parts = _clean_backprop(params, clean, [_task_seed_sum(clean, targets) / n, reg_seed, *more_seeds])
    if cfg.alpha == 0.0:
        return parts[0], parts[2:]
    return parts[0] + cfg.alpha * ((reg_theta + parts[1]) / n), parts[2:]


def step_stats(targets: Array, clean: ForwardPass, reg_value: float | Array, delta0: Array, delta_k: Array) -> dict:
    """The stats every adversarial step reports, from its checked targets, its
    clean pass and its follower's init and endpoint: floats, or (m,) arrays
    for a stack."""
    norms = np.sqrt(np.add.reduce(delta_k**2, axis=-1))
    return {
        "clean_loss": _task_loss(clean, targets),
        "reg_value": reg_value,
        "delta_norm": _per_member(np.add.reduce(norms, axis=-1) / norms.shape[-1]),
        "delta0_sum": _per_member(np.add.reduce(delta0, axis=(-2, -1))),
    }


def _member_norms(a: Array, axes: tuple[int, ...]) -> Array:
    """The L2 norm of a lone array, or of each member of a stack, over the
    member's axes: one pairwise sum of squares per member. On a C-ordered
    stack, as a step makes them, each member's norm has its lone bits."""
    return np.sqrt(np.add.reduce(a**2, axis=axes))


@dataclass(frozen=True)
class StackelbergGrad:
    """total = leader_part + interaction_part, all (P,) or (m, P); the tape of the
    follower's ascent the interaction was taken through; and the step's stats
    (losses, perturbation size, interaction/leader ratio, phase timings)."""

    total: Array
    leader_part: Array
    interaction_part: Array
    tape: UnrollTape
    stats: dict


def stackelberg_gradient(
    params: ModelParams,
    batch: Batch,
    cfg: AdvConfig,
    kind: RegularizerKind,
    rng: Rng | Sequence[Rng],
) -> StackelbergGrad:
    """The leader's full gradient at batch: unroll the follower, take the flat
    gradient at its endpoint, and add the interaction term, with every seed on
    the clean pass in one backprop. A member whose endpoint gradient is
    degenerate gets an interaction of exactly 0.0. x, kind and the targets are
    checked once, with the clean pass; kind must be the one the head takes."""
    x = _check_inputs(params, batch.inputs, kind)
    clean = _forward(params, x)
    return _salt_gradient(params, x, clean, _check_targets(clean, batch.targets), cfg, rng)


def _salt_gradient(
    params: ModelParams, x: Array, clean: ForwardPass, targets: Array, cfg: AdvConfig, rng: Rng | Sequence[Rng]
) -> StackelbergGrad:
    """stackelberg_gradient for checked inputs and targets and the clean pass
    at x, with the regularizer the head takes. Its timers start after the
    clean pass."""
    t0 = time.perf_counter()
    n, kind = x.shape[-2], head_kind(params.output_dim)
    tape = unroll_forward(params, x, cfg, _step_objective(params, x, kind, clean), rng)
    t1 = time.perf_counter()
    delta_k = tape.deltas[-1]
    reg_theta, reg_delta, reg_sum, reg_seed = _reg_grad_params_parts(params, x, delta_k, kind, clean)
    v = reg_delta / n
    degenerate = _member_norms(v, (-2, -1)) < _DEGENERATE_NORM
    # Python's all and any over the members, not numpy reductions
    sweep = not (cfg.alpha == 0.0 or tape.k_steps == 0 or all(degenerate.flat))
    mixed, seeds = _reverse_sweep(tape, cfg, v) if sweep else ([], [])
    leader, clean_parts = _leader_part(params, clean, targets, cfg, reg_theta, reg_seed, seeds)
    if sweep:
        interaction = _interaction(mixed, clean_parts, cfg, leader.shape)
        if any(degenerate.flat):  # some members of a stack
            interaction = np.where(degenerate[:, None], 0.0, interaction)
    else:
        interaction = np.zeros(leader.shape)
    t2 = time.perf_counter()
    ratio = _member_norms(interaction, (-1,)) / np.maximum(_member_norms(leader, (-1,)), 1e-300)
    stats = {
        **step_stats(targets, clean, reg_sum / n, tape.deltas[0], delta_k),
        "interaction_ratio": _per_member(ratio),
        "degenerate_interaction": _per_member(degenerate),
        "t_unroll": t1 - t0,
        "t_gradient": t2 - t1,
    }
    return StackelbergGrad(leader + interaction, leader, interaction, tape, stats)


class Method(str, Enum):
    ERM = "ERM"
    ADV = "Adv"
    VAT = "VAT"
    SALT = "SALT"


def task_ascent(params: ModelParams, x: Array, targets: Array) -> Callable[[Array], Array]:
    """The Adv follower's ascent direction: d(summed task loss at x + delta)/d(delta),
    for targets checked as diffmodel._check_targets gives them."""

    def grad_delta(delta: Array) -> Array:
        fwd = _forward(params, x + delta)
        return _backward_input(params, fwd, _task_seed_sum(fwd, targets))[0]

    return grad_delta


def training_step(
    method: Method,
    params: ModelParams,
    batch: Batch,
    cfg: AdvConfig,
    opt_state: OptimizerState,
    rng: Rng | Sequence[Rng],
) -> tuple[ModelParams, OptimizerState, dict]:
    """One leader update of method; on a stack, one update per member.

    SALT takes the full Stackelberg gradient. VAT runs the same follower and
    takes only the leader part, its endpoint held constant. Adv climbs the
    task loss from the same draw and adds alpha times the task gradient at
    its endpoint. ERM takes the clean task gradient. The regularizer is the
    one the head takes (regularizers.head_kind); rng goes unused where the
    method has no follower. Each step checks its batch once, where it builds
    its clean pass; the follower's evaluations do not check again."""
    x = batch.inputs
    clean = mlp_forward(params, x)
    targets = _check_targets(clean, batch.targets)
    if method == Method.SALT:
        grad = _salt_gradient(params, x, clean, targets, cfg, rng)
        t2 = time.perf_counter()
        new_params, new_state = optimizer_step(params, opt_state, grad.total)
        return new_params, new_state, {**grad.stats, "t_update": time.perf_counter() - t2}
    if method == Method.ERM:
        grad = _task_grad(params, clean, targets)
        stats = {"clean_loss": _task_loss(clean, targets), "reg_value": 0.0, "delta_norm": 0.0}
    elif method == Method.VAT:
        kind = head_kind(params.output_dim)
        tape = unroll_forward(params, x, cfg, _step_objective(params, x, kind, clean), rng)
        delta_k = tape.deltas[-1]
        reg_theta, _, reg_sum, reg_seed = _reg_grad_params_parts(params, x, delta_k, kind, clean, to_inputs=False)
        grad = _leader_part(params, clean, targets, cfg, reg_theta, reg_seed)[0]
        stats = step_stats(targets, clean, reg_sum / batch.n, tape.deltas[0], delta_k)
    elif method == Method.ADV:
        delta0 = sample_init(cfg.sigma, x.shape, rng).values
        delta_k = ascend(task_ascent(params, x, targets), delta0, cfg)[0][-1]
        hit = _forward(params, x + delta_k)
        grad = _task_grad(params, clean, targets) + cfg.alpha * _task_grad(params, hit, targets)
        stats = step_stats(targets, clean, _task_loss(hit, targets), delta0, delta_k)
    else:
        raise ContractViolation(f"method must be one of {[m.value for m in Method]}, got {method!r}")
    new_params, new_state = optimizer_step(params, opt_state, grad)
    return new_params, new_state, stats
