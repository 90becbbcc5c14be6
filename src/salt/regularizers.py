"""Smoothness regularizers comparing clean and perturbed predictions.

KL form for classification heads, squared-difference form for regression
heads. Parameter gradients flow through both the clean and the perturbed
branch.

Every primitive also takes a leading run axis: stacked parameters (m, P),
inputs (m, n, d) or a delta (m, n, d), and then returns one result per
member, bit-identical to evaluating each member alone.

The follower's evaluations (`_grad_delta_tangent`) leave the clean branch
as a seed on the clean pass's output: their tangent maps return it instead
of backpropagating it, so the leader can backpropagate every seed on its
clean pass in one stacked call. They also skip the value and the clean seed
of the regularizer itself, which only the leader reads.
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

# (u (n, d), curv=True) -> (mixed (P,), curv (n, d), seed (n, C)): the
# derivatives along the delta direction u of d obj/d theta and d obj/d delta
# at one point. mixed leaves out the clean branch: seed, a seed on the output
# of the clean pass at theta, completes it once backpropagated through that
# pass (an objective without a clean branch returns 0.0). With curv=False the
# delta part is skipped and returned as None. On a stack, u (m, n, d) ->
# ((m, P), (m, n, d), (m, n, C)).
TangentMap = Callable[..., tuple[Array, Array | None, Array | float]]


class RegularizerKind(str, Enum):
    KL_DIVERGENCE = "KLDivergence"
    SQUARED_DIFFERENCE = "SquaredDifference"


def head_kind(output_dim: int) -> RegularizerKind:
    """KL for a classification head, squared difference for a width-1 head."""
    return RegularizerKind.KL_DIVERGENCE if output_dim > 1 else RegularizerKind.SQUARED_DIFFERENCE


def _check_kind(params: ModelParams, kind: RegularizerKind) -> None:
    want = head_kind(params.output_dim)
    if kind != want:
        kinds = [k.value for k in RegularizerKind]
        raise ContractViolation(f"a width-{params.output_dim} head takes {want.value}, got {kind!r} (kinds: {kinds})")


def _check_inputs(params: ModelParams, x: Array, kind: RegularizerKind) -> Array:
    x = _check_shape(params, x)
    _check_kind(params, kind)
    return x


def _kl_rows(clean: ForwardPass, pert: ForwardPass) -> tuple[Array, Array, Array, Array]:
    """Per-example KL plus the pieces needed for its gradients, from the
    log-softmax and softmax each pass keeps, so a shared clean pass computes
    its own once."""
    p = clean.probs
    diff = clean.log_probs - pert.log_probs
    terms = np.where(p > _PROB_FLOOR, p * diff, 0.0)
    return np.add.reduce(terms, axis=-1), p, pert.probs, diff


# Summed (per-example, unscaled) primitives; divide by n for the batch mean.
# Each public entry checks its inputs in _checked, which builds the clean pass
# at (theta, x), and runs an unchecked body. A training step calls the bodies
# directly: it checks x and kind once, where it builds the one clean pass its
# evaluations share, and draws every delta it evaluates at x's shape.


def _check_delta(x: Array, delta: Array) -> Array:
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim > 3 or delta.shape[-2:] != x.shape[-2:]:
        raise ContractViolation("delta must match the (n, d) shape of the inputs, with an optional stack axis")
    return delta


def _checked(params: ModelParams, x: Array, delta: Array, kind: RegularizerKind) -> tuple[Array, Array, ForwardPass]:
    """x and delta checked against params and kind (both may carry a leading
    stack axis), and the clean pass at x."""
    x = _check_inputs(params, x, kind)
    return x, _check_delta(x, delta), _forward(params, x)


def _value_seeds(clean: ForwardPass, pert: ForwardPass, kind: RegularizerKind) -> tuple[float | Array, Array, Array]:
    """The summed regularizer and its seeds on the perturbed and the clean output."""
    if kind == RegularizerKind.KL_DIVERGENCE:
        kl, p, q, diff = _kl_rows(clean, pert)
        return _per_member(np.add.reduce(kl, axis=-1)), q - p, p * (diff - kl[..., None])
    resid = clean.out[..., 0] - pert.out[..., 0]
    return _per_member(np.add.reduce(resid**2, axis=-1)), (-2.0 * resid)[..., None], (2.0 * resid)[..., None]


def _seed_tangents(
    clean: ForwardPass, pert: ForwardPass, kind: RegularizerKind
) -> tuple[Array, Callable[[Array], tuple[Array, Array]]]:
    """The seed on the perturbed output, as _value_seeds gives it, and the map
    from a tangent of the perturbed output to the tangents of the seeds on the
    perturbed and the clean output."""
    if kind == RegularizerKind.KL_DIVERGENCE:
        p, q = clean.probs, pert.probs

        def seed_tangents(t: Array) -> tuple[Array, Array]:
            # softmax Jacobians: d(q - p) = q (t - <q, t>), d(p (diff - kl)) = -p (t - <p, t>)
            dq = np.add.reduce(q * t, axis=-1, keepdims=True)
            dp = np.add.reduce(p * t, axis=-1, keepdims=True)
            return q * (t - dq), p * (dp - t)

        return q - p, seed_tangents
    resid = clean.out[..., 0] - pert.out[..., 0]
    return (-2.0 * resid)[..., None], lambda t: (2.0 * t, -2.0 * t)


def _grad_delta_tangent(
    params: ModelParams, x: Array, delta: Array, kind: RegularizerKind, clean: ForwardPass
) -> tuple[Array, TangentMap]:
    """What one perturbed pass at delta yields to the follower, for checked
    inputs and their clean pass: d(sum of per-example regularizers)/d(delta),
    and the exact tangent map of that pass (see TangentMap). The map takes a
    direction u (n, d) and returns the derivatives along u of d(same)/d(theta),
    with the clean branch left as its seed, and of d(same)/d(delta): the mixed
    and the delta-delta Hessian-vector products, by one tangent forward and
    one tangent backward over the recorded pass."""
    pert = _forward(params, x + delta)
    seed, seed_tangents = _seed_tangents(clean, pert, kind)
    gdelta, seeds = _backward_input(params, pert, seed)

    def tangent(u: Array, curv: bool = True) -> tuple[Array, Array | None, Array]:
        t_out, t_acts, t_outs = _forward_tangent(params, pert, u)
        t_pert, t_clean = seed_tangents(t_out)
        d_theta, d_delta = _backward_tangent(params, pert, seeds, t_acts, t_outs, t_pert, curv)
        return d_theta, d_delta, t_clean

    return gdelta, tangent


def reg_grad_delta_sum(params: ModelParams, x: Array, delta: Array, kind: RegularizerKind) -> Array:
    """d(sum of per-example regularizers)/d(delta); row i touches only example i."""
    x, delta, clean = _checked(params, x, delta, kind)
    return _grad_delta_tangent(params, x, delta, kind, clean)[0]


def _reg_grad_params_parts(
    params: ModelParams, x: Array, delta: Array, kind: RegularizerKind, clean: ForwardPass, to_inputs: bool = True
) -> tuple[Array, Array | None, float | Array, Array]:
    """reg_grad_params_sum on checked inputs and a given clean pass, with the
    clean branch left as its seed: (the perturbed branch's theta gradient, the
    delta gradient or, with to_inputs False, None, the sum, the seed on the
    clean output)."""
    pert = _forward(params, x + delta)
    value, seed_pert, seed_clean = _value_seeds(clean, pert, kind)
    gtheta, gdelta = _backward(params, pert, seed_pert, to_inputs)
    return gtheta, gdelta, value, seed_clean


def reg_grad_params_sum(
    params: ModelParams, x: Array, delta: Array, kind: RegularizerKind
) -> tuple[Array, Array, float | Array]:
    """What one perturbed pass at delta yields to the leader: d(sum of
    per-example regularizers)/d(theta) with delta held fixed, d(same)/d(delta),
    and the sum."""
    x, delta, clean = _checked(params, x, delta, kind)
    gtheta, gdelta, value, seed_clean = _reg_grad_params_parts(params, x, delta, kind, clean)
    return gtheta + _backward(params, clean, seed_clean, to_inputs=False)[0], gdelta, value
