"""Smoothness regularizers comparing clean and perturbed predictions.

KL form for classification heads, squared-difference form for regression
heads. Parameter gradients flow through both the clean and the perturbed
branch.

Every primitive also takes a leading run axis: stacked parameters (m, P),
inputs (m, n, d) or a delta (m, n, d), and then returns one result per
member, bit-identical to evaluating each member alone.
"""
from __future__ import annotations

from enum import Enum
from typing import Callable

import numpy as np

from .diffmodel import (
    Array,
    ForwardPass,
    ModelParams,
    _backward,
    _backward_input,
    _backward_tangent,
    _check_inputs as _check_shape,
    _forward,
    _forward_tangent,
    _per_member,
)
from .errors import ContractViolation

# Probabilities at or below this are treated as an exact zero in p*log(p/q).
_PROB_FLOOR = 1e-300

# u (n, d) -> (mixed (P,), curv (n, d)): the derivatives along the delta
# direction u of d obj/d theta and d obj/d delta at one point; on a stack,
# u (m, n, d) -> ((m, P), (m, n, d)).
TangentMap = Callable[[Array], tuple[Array, Array]]


class RegularizerKind(str, Enum):
    KL_DIVERGENCE = "KLDivergence"
    SQUARED_DIFFERENCE = "SquaredDifference"


def _check_inputs(params: ModelParams, x: Array, kind: RegularizerKind) -> Array:
    x = _check_shape(params, x)
    if kind == RegularizerKind.KL_DIVERGENCE and params.output_dim == 1:
        raise ContractViolation("KL regularizer needs a classification head")
    if kind == RegularizerKind.SQUARED_DIFFERENCE and params.output_dim != 1:
        raise ContractViolation("squared-difference regularizer needs a regression head")
    return x


def _kl_rows(clean: ForwardPass, pert: ForwardPass) -> tuple[Array, Array, Array, Array]:
    """Per-example KL plus the pieces needed for its gradients, from the
    log-softmax and softmax each pass keeps, so a shared clean pass computes
    its own once."""
    p = clean.probs
    diff = clean.log_probs - pert.log_probs
    terms = np.where(p > _PROB_FLOOR, p * diff, 0.0)
    return terms.sum(axis=-1), p, pert.probs, diff


# Summed (per-example, unscaled) primitives; divide by n for the batch mean.
# Each takes an optional clean pass: x and theta are fixed through a training
# step, so a step computes mlp_forward once and hands it to every evaluation.


def _evaluate(
    params: ModelParams, x: Array, delta: Array, kind: RegularizerKind, clean: ForwardPass | None
) -> tuple[ForwardPass, ForwardPass, float | Array, Array, Array, Callable[[Array], tuple[Array, Array]]]:
    """Both passes, the summed regularizer, its seeds on the perturbed and the
    clean output, and the map from a tangent of the perturbed output to the
    tangents of those two seeds. x and delta may carry a leading stack axis."""
    x = _check_inputs(params, x, kind)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim > 3 or delta.shape[-2:] != x.shape[-2:]:
        raise ContractViolation("delta must match the (n, d) shape of the inputs, with an optional stack axis")
    clean = _forward(params, x) if clean is None else clean
    pert = _forward(params, x + delta)
    if kind == RegularizerKind.KL_DIVERGENCE:
        kl, p, q, diff = _kl_rows(clean, pert)

        def seed_tangents(t: Array) -> tuple[Array, Array]:
            # softmax Jacobians: d(q - p) = q (t - <q, t>), d(p (diff - kl)) = -p (t - <p, t>)
            return q * (t - (q * t).sum(axis=-1, keepdims=True)), p * ((p * t).sum(axis=-1, keepdims=True) - t)

        return clean, pert, _per_member(kl.sum(axis=-1)), q - p, p * (diff - kl[..., None]), seed_tangents
    resid = clean.out[..., 0] - pert.out[..., 0]
    seeds = (-2.0 * resid)[..., None], (2.0 * resid)[..., None]
    return clean, pert, _per_member((resid**2).sum(axis=-1)), *seeds, lambda t: (2.0 * t, -2.0 * t)


def reg_value_sum(
    params: ModelParams, x: Array, delta: Array, kind: RegularizerKind, clean: ForwardPass | None = None
) -> float | Array:
    return _evaluate(params, x, delta, kind, clean)[2]


def reg_grad_delta_tangent(
    params: ModelParams, x: Array, delta: Array, kind: RegularizerKind, clean: ForwardPass | None = None
) -> tuple[Array, TangentMap]:
    """What one perturbed pass at delta yields to the follower: d(sum of
    per-example regularizers)/d(delta), and the exact tangent map of that
    pass. The map takes a direction u (n, d) and returns the derivatives
    along u of d(same)/d(theta), through both branches, and of d(same)/d(delta):
    the mixed and the delta-delta Hessian-vector products, by one tangent
    forward and one tangent backward over the recorded pass."""
    clean, pert, _, seed, _, seed_tangents = _evaluate(params, x, delta, kind, clean)
    gdelta, seeds = _backward_input(params, pert.acts, seed)

    def tangent(u: Array) -> tuple[Array, Array]:
        t_out, t_acts, t_outs = _forward_tangent(params, pert.acts, u)
        t_pert, t_clean = seed_tangents(t_out)
        d_theta, d_delta = _backward_tangent(params, pert.acts, seeds, t_acts, t_outs, t_pert)
        return d_theta + _backward(params, clean.acts, t_clean)[0], d_delta

    return gdelta, tangent


def reg_grad_delta_sum(
    params: ModelParams, x: Array, delta: Array, kind: RegularizerKind, clean: ForwardPass | None = None
) -> Array:
    """d(sum of per-example regularizers)/d(delta); row i touches only example i."""
    return reg_grad_delta_tangent(params, x, delta, kind, clean)[0]


def reg_grad_params_sum(
    params: ModelParams, x: Array, delta: Array, kind: RegularizerKind, clean: ForwardPass | None = None
) -> tuple[Array, Array, float | Array]:
    """What one perturbed pass at delta yields to the leader: d(sum of
    per-example regularizers)/d(theta) with delta held fixed, d(same)/d(delta),
    and the sum."""
    clean, pert, value, seed_pert, seed_clean, _ = _evaluate(params, x, delta, kind, clean)
    gtheta, gdelta = _backward(params, pert.acts, seed_pert)
    return gtheta + _backward(params, clean.acts, seed_clean)[0], gdelta, value
