"""Differentiation through the unrolled inner ascent.

The outer objective is

    F(theta) = task_loss(theta) + alpha * reg(x, delta_K(theta), theta)

where delta_K is produced by k_steps of projected gradient ascent starting
from a Gaussian draw. Its total derivative splits into a leader part (delta
treated as a constant, shared with the flat baseline) and an interaction part
that tracks how the ascent's endpoint moves with theta.

The interaction part is computed by a reverse sweep over the recorded
trajectory. Each sweep step needs two curvature contractions of the inner
objective at the iterate it came from, in theta and in delta. The follower
records, with each ascent step's gradient, the tangent map of that step's
pass, which gives both contractions exactly: on the production objective a
tangent forward and a tangent backward over the recorded perturbed pass
(forward-over-reverse, Pearlmutter 1994), with no probe radius and no further
forward pass; on test oracles, products with their second-derivative
matrices. A direct forward-mode recursion that materializes the full endpoint
Jacobian is kept alongside as a cross-check for small instances, and hvp_fd
as an independent finite-difference probe.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .diffmodel import Array, Batch, ForwardPass, ModelParams, _output, task_loss
from .errors import ContractViolation
from .optim import OptimizerState, optimizer_step
from .perturb import AdvConfig, NormKind, ProjMode, ascend, project_jvp_rows, sample_init
from .regularizers import RegularizerKind, TangentMap, clean_pass, reg_grad_delta_tangent
from .vat import vat_gradient

# Below this, the ascent endpoint gradient is considered stuck at a stationary
# point and the interaction part is zeroed instead of amplifying noise.
_DEGENERATE_NORM = 1e-14

_ORACLE_SIZE_LIMIT = 1_000_000

# hvp_fd's probe radius, relative to 1 + ||point||_inf.
_FD_RADIUS_SCALE = 1e-4


@dataclass(frozen=True)
class InnerObjective:
    """Scalar objective the follower ascends, summed over examples.

    linearize(delta, theta), with delta an (n, d) matrix and theta the flat
    parameter vector, returns d obj/d delta (n, d) and the TangentMap at that
    point. The optional second-derivative matrices serve the forward-mode
    oracle: hess_delta_delta is (D, D) and hess_delta_theta (D, P) with
    D = n * d, indexed [i, j] = d2 obj / d delta_i d theta_j for the mixed one.
    """

    linearize: Callable[[Array, Array], tuple[Array, TangentMap]]
    hess_delta_delta: Callable[[Array, Array], Array] | None = None
    hess_delta_theta: Callable[[Array, Array], Array] | None = None

    def grad_delta(self, delta: Array, theta: Array) -> Array:
        return self.linearize(delta, theta)[0]


def make_adv_objective(
    params: ModelParams,
    x: Array,
    kind: RegularizerKind,
    clean: ForwardPass | None = None,
) -> InnerObjective:
    """The production inner objective: per-example regularizers, summed.
    At params' own theta (params.values itself) every call shares one clean
    pass, computed here when not given; any other theta, such as an oracle's
    finite difference, gets its own."""
    x = np.asarray(x, dtype=np.float64)
    clean = clean_pass(params, x, kind) if clean is None else clean

    def linearize(delta: Array, theta: Array) -> tuple[Array, TangentMap]:
        if theta is params.values:
            return reg_grad_delta_tangent(params, x, delta, kind, clean)
        return reg_grad_delta_tangent(ModelParams(values=theta, shapes=params.shapes), x, delta, kind)

    return InnerObjective(linearize=linearize)


def attach_fd_second_order(obj: InnerObjective, h: float = 1e-6) -> InnerObjective:
    """Equip an objective with full second-derivative matrices built by
    central differences of its delta gradient, and take its tangent maps from
    them. Results are memoized on the evaluation point so forward and reverse
    mode consume identical matrices."""
    cache: dict[tuple, Array] = {}

    def hdd(delta: Array, theta: Array) -> Array:
        key = ("dd", delta.tobytes(), theta.tobytes())
        if key not in cache:
            n, d = delta.shape
            flat = delta.ravel()
            cols = []
            for i in range(flat.size):
                e = np.zeros(flat.size)
                e[i] = h
                gp = obj.grad_delta((flat + e).reshape(n, d), theta).ravel()
                gm = obj.grad_delta((flat - e).reshape(n, d), theta).ravel()
                cols.append((gp - gm) / (2.0 * h))
            cache[key] = np.stack(cols, axis=1)
        return cache[key]

    def hdt(delta: Array, theta: Array) -> Array:
        key = ("dt", delta.tobytes(), theta.tobytes())
        if key not in cache:
            cols = []
            for j in range(theta.size):
                e = np.zeros(theta.size)
                e[j] = h
                gp = obj.grad_delta(delta, theta + e).ravel()
                gm = obj.grad_delta(delta, theta - e).ravel()
                cols.append((gp - gm) / (2.0 * h))
            cache[key] = np.stack(cols, axis=1)
        return cache[key]

    def linearize(delta: Array, theta: Array) -> tuple[Array, TangentMap]:
        return obj.grad_delta(delta, theta), lambda u: (
            hdt(delta, theta).T @ u.ravel(),
            (hdd(delta, theta).T @ u.ravel()).reshape(u.shape),
        )

    return replace(obj, linearize=linearize, hess_delta_delta=hdd, hess_delta_theta=hdt)


# ---------- forward unroll ----------


@dataclass(frozen=True)
class UnrollTape:
    """Recorded ascent trajectory.

    deltas holds K+1 iterates (deltas[0] is the raw Gaussian draw, never
    projected); pre_projections holds the K pre-projection points at which
    the projection Jacobian acts; tangents[k] is the objective's tangent map
    at deltas[k], recorded with the ascent step taken from there.
    Fingerprints tie the tape to the exact parameters and inputs it was
    recorded under.
    """

    deltas: tuple[Array, ...]
    pre_projections: tuple[Array, ...]
    tangents: tuple[TangentMap, ...]
    cfg: AdvConfig
    seed: int | None
    theta_sha1: str
    x_sha1: str

    @property
    def k_steps(self) -> int:
        return len(self.pre_projections)


def _sha1(arr: Array) -> str:
    return hashlib.sha1(np.ascontiguousarray(arr).tobytes()).hexdigest()


def unroll_forward(
    params: ModelParams,
    x: Array,
    cfg: AdvConfig,
    obj: InnerObjective,
    rng: np.random.Generator | int,
) -> UnrollTape:
    """Run k_steps of projected ascent on obj, recording the trajectory and
    the tangent map of each step's gradient evaluation."""
    x = np.asarray(x, dtype=np.float64)
    seed: int | None = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.default_rng(seed)
    theta = params.values
    tangents: list[TangentMap] = []

    def grad_delta(delta: Array) -> Array:
        grad, tangent = obj.linearize(delta, theta)
        tangents.append(tangent)
        return grad

    delta0 = sample_init(cfg.sigma, x.shape, rng).values
    deltas, pres = ascend(grad_delta, delta0, cfg)
    return UnrollTape(
        deltas=tuple(deltas),
        pre_projections=tuple(pres),
        tangents=tuple(tangents),
        cfg=cfg,
        seed=seed,
        theta_sha1=_sha1(theta),
        x_sha1=_sha1(x),
    )


def _check_tape(tape: UnrollTape, params: ModelParams, x: Array, cfg: AdvConfig) -> None:
    if tape.cfg != cfg:
        raise ContractViolation("tape was recorded under a different adversary config")
    if tape.theta_sha1 != _sha1(params.values):
        raise ContractViolation("tape was recorded under different parameters")
    if tape.x_sha1 != _sha1(np.asarray(x, dtype=np.float64)):
        raise ContractViolation("tape was recorded under different inputs")


# ---------- finite-difference curvature probe (independent oracle) ----------


def hvp_fd(grad_fn: Callable[[Array], Array], point: Array, v: Array) -> Array:
    """Directional derivative of grad_fn at point along v, by central differences.

    The probe radius is 1e-4 * (1 + ||point||_inf) and the direction is
    normalized, so the cost is exactly two gradient evaluations regardless of
    ||v||. Returns the zero vector (sized by one probe call) when v = 0.
    """
    point = np.asarray(point, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if point.ndim != 1 or v.shape != point.shape:
        raise ContractViolation("point and v must be matching flat vectors")
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        return np.zeros_like(np.asarray(grad_fn(point), dtype=np.float64))
    r = _FD_RADIUS_SCALE * (1.0 + (float(np.abs(point).max()) if point.size else 0.0))
    vhat = v / vnorm
    gp = np.asarray(grad_fn(point + r * vhat), dtype=np.float64)
    gm = np.asarray(grad_fn(point - r * vhat), dtype=np.float64)
    return (gp - gm) * (vnorm / (2.0 * r))


# ---------- interaction term, reverse sweep ----------


def interaction_adjoint(
    tape: UnrollTape,
    params: ModelParams,
    x: Array,
    obj: InnerObjective,
    cfg: AdvConfig,
    cotangent: Array | None = None,
) -> Array:
    """alpha * (d reg_mean / d delta_K) @ (d delta_K / d theta), accumulated in reverse.

    Walks the tape backwards, pushing the endpoint cotangent through the
    projection Jacobian at each recorded pre-projection point, then through
    the ascent update's curvature, which the tangent map recorded at that
    step's starting iterate gives. cotangent is d reg_mean / d delta_K,
    computed from obj when not given.
    """
    _check_tape(tape, params, x, cfg)
    g = np.zeros(params.n_params)
    if tape.k_steps == 0:
        return cfg.alpha * g
    n = tape.deltas[0].shape[0]
    u = obj.grad_delta(tape.deltas[-1], params.values) / n if cotangent is None else cotangent
    for k in range(tape.k_steps, 0, -1):
        u = project_jvp_rows(tape.pre_projections[k - 1], u, cfg.epsilon, cfg.norm, cfg.proj_mode)
        mixed, curv = tape.tangents[k - 1](u)
        g = g + cfg.eta * mixed
        u = u + cfg.eta * curv
    return cfg.alpha * g


# ---------- forward-mode oracle ----------


def jacobian_forward_oracle(
    tape: UnrollTape,
    params: ModelParams,
    x: Array,
    obj: InnerObjective,
    cfg: AdvConfig,
    h: float = 1e-6,
) -> Array:
    """Materialize d delta_K / d theta as a (D, P) matrix by the forward recursion.

    Small instances only; refuses when D * P exceeds 10^6. Uses the
    objective's second-derivative matrices when present, otherwise builds
    them by central differences with step h.
    """
    _check_tape(tape, params, x, cfg)
    n, d = tape.deltas[0].shape
    big_d = n * d
    p_dim = params.n_params
    if big_d * p_dim > _ORACLE_SIZE_LIMIT:
        raise ContractViolation(
            f"forward oracle refused: {big_d} x {p_dim} Jacobian exceeds the size guard"
        )
    work = obj
    if work.hess_delta_delta is None or work.hess_delta_theta is None:
        work = attach_fd_second_order(obj, h)
    theta = params.values
    jac = np.zeros((big_d, p_dim))
    for k in range(1, tape.k_steps + 1):
        prev = tape.deltas[k - 1]
        hdd = work.hess_delta_delta(prev, theta)
        hdt = work.hess_delta_theta(prev, theta)
        pre_jac = jac + cfg.eta * (hdd @ jac + hdt)
        jac = _project_jacobian_matrix(tape.pre_projections[k - 1], pre_jac, cfg)
    return jac


def _project_jacobian_matrix(pre: Array, jac: Array, cfg: AdvConfig) -> Array:
    """Left-multiply the stacked (D, P) Jacobian by the projection Jacobian at pre."""
    if cfg.proj_mode == ProjMode.STRAIGHT_THROUGH:
        return jac.copy()
    n, d = pre.shape
    blocks = jac.reshape(n, d, -1)
    out = blocks.copy()
    if cfg.norm == NormKind.L2:
        norms = np.sqrt((pre**2).sum(axis=1))
        for i in np.nonzero(norms > cfg.epsilon * (1.0 + 1e-12))[0]:
            s = pre[i]
            nrm = norms[i]
            radial = s @ blocks[i] / nrm**2
            out[i] = (cfg.epsilon / nrm) * (blocks[i] - s[:, None] * radial[None, :])
    else:
        out = blocks * (np.abs(pre) <= cfg.epsilon)[:, :, None]
    return out.reshape(jac.shape)


# ---------- the full outer gradient ----------


@dataclass(frozen=True)
class StackelbergGrad:
    """total = leader_part + interaction_part, all (P,); the tape of the
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
    rng: np.random.Generator | int,
) -> StackelbergGrad:
    """The leader's full gradient at batch: unroll the follower, take the flat
    gradient at its endpoint, and add the interaction term."""
    x = batch.inputs
    t0 = time.perf_counter()
    clean = clean_pass(params, x, kind)
    obj = make_adv_objective(params, x, kind, clean)
    tape = unroll_forward(params, x, cfg, obj, rng)
    t1 = time.perf_counter()
    delta_k = tape.deltas[-1]
    leader, reg_delta, reg_sum = vat_gradient(params, batch, delta_k, cfg, kind, clean)
    v = reg_delta / batch.n
    degenerate = float(np.linalg.norm(v)) < _DEGENERATE_NORM
    if cfg.alpha == 0.0 or tape.k_steps == 0 or degenerate:
        interaction = np.zeros(params.n_params)
    else:
        interaction = interaction_adjoint(tape, params, x, obj, cfg, cotangent=v)
    t2 = time.perf_counter()
    stats = {
        "clean_loss": task_loss(_output(params, clean.out), batch.targets),
        "reg_value": reg_sum / batch.n,
        "delta_norm": float(np.sqrt((delta_k**2).sum(axis=1)).mean()),
        "delta0_sum": float(tape.deltas[0].sum()),
        "interaction_ratio": float(np.linalg.norm(interaction)) / max(float(np.linalg.norm(leader)), 1e-300),
        "degenerate_interaction": degenerate,
        "t_unroll": t1 - t0,
        "t_gradient": t2 - t1,
    }
    return StackelbergGrad(leader + interaction, leader, interaction, tape, stats)


def salt_training_step(
    params: ModelParams,
    batch: Batch,
    cfg: AdvConfig,
    kind: RegularizerKind,
    opt_state: OptimizerState,
    rng: np.random.Generator | int,
) -> tuple[ModelParams, OptimizerState, dict]:
    """One leader update using the full Stackelberg gradient."""
    grad = stackelberg_gradient(params, batch, cfg, kind, rng)
    t2 = time.perf_counter()
    new_params, new_state = optimizer_step(params, opt_state, grad.total)
    return new_params, new_state, {**grad.stats, "t_update": time.perf_counter() - t2}
