"""Small dense networks with hand-written forward and backward passes.

Everything downstream (regularizers, the unrolled inner ascent, gradient
checks) differentiates through this model twice, so the activation has to be
smooth. Hidden layers use tanh; the output layer is linear. A network whose
last layer has width 1 is treated as a regression head returning scalars,
anything wider is a classification head returning logits.

Parameters live in a single flat float64 vector plus shape metadata, which
keeps optimizer state, finite differencing and checkpointing trivial.

Every pass, gradient and loss also takes a leading run axis: a stack of m
parameter vectors (m, P), inputs (m, n, d) with targets (m, n), or both,
and then returns one result per member. Every member's result is
bit-identical to running that member alone: the stacked ops are the same
IEEE ops, batched by np.matmul and by reductions over a member's own axes.
A single problem's 2-D call runs the same code with no run axis, and a
stack of seeds (k, ..., C) on one pass backpropagates in one call. Every
product goes through _matmul, which takes ndarray.dot for two matrices and
@ for a stack: the same BLAS call either way. A sum or max over a 2-wide last
axis (classes, perturbation rows) is one elementwise op, _sum_last or _max_last,
with the reduce's bits: the sum adds 0.0, as the reduce gives +0.0 for
-0.0 + -0.0 where a bare add gives -0.0. Other widths call the reduce.

The backward and tangent passes read tanh' (1 - a^2) from the ForwardPass,
which computes it on first use: a pass that is only evaluated never pays
for it, one that is backpropagated and differentiated computes it once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation, require_int

Array = np.ndarray


class _memo:
    """functools.cached_property without its lock (on Python 3.11 its first
    read takes an RLock): the first read stores the value in the instance
    __dict__, where later reads find it before this non-data descriptor."""

    def __init__(self, fn: Callable) -> None:
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class ModelParams:
    """Flat parameter vector with (rows, cols) shape metadata.

    shapes lists weight and bias shapes, integers >= 1, in layer order:
    (d_in, d_1), (1, d_1), (d_1, d_2), (1, d_2), ...
    values concatenates the row-major entries in the same order. values may
    also be an (m, P) stack of such vectors, one per row.
    """

    values: Array
    shapes: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        shapes = _checked_shapes(self.shapes)
        object.__setattr__(self, "values", _checked_values(values, sum(r * c for r, c in shapes)))
        object.__setattr__(self, "shapes", shapes)

    @property
    def n_params(self) -> int:
        return int(self.values.shape[-1])

    @property
    def input_dim(self) -> int:
        return self.shapes[0][0]

    @property
    def output_dim(self) -> int:
        return self.shapes[-1][1]

    def replace_values(self, values: Array) -> "ModelParams":
        """These shapes with new values, which are checked as __post_init__
        checks them; the shapes, already normalised, are not walked again."""
        values = _checked_values(np.asarray(values, dtype=np.float64), self.values.shape[-1])
        new = object.__new__(ModelParams)
        object.__setattr__(new, "values", values)
        object.__setattr__(new, "shapes", self.shapes)
        return new

    @_memo
    def layers(self) -> tuple[tuple[Array, Array], ...]:
        """(W, b) pairs in layer order: views into values, built on first use.
        A stack of m vectors gives (m, r, c) views."""
        lead = self.values.shape[:-1]
        mats: list[Array] = []
        off = 0
        for r, c in self.shapes:
            mats.append(self.values[..., off : off + r * c].reshape(*lead, r, c))
            off += r * c
        return tuple(zip(mats[0::2], mats[1::2]))


def _share_lower_layers(stack: ModelParams, lone: ModelParams, below: int) -> ModelParams:
    """stack, whose members all equal lone in their first `below` layers,
    holding those as lone's 2-D (W, b): a pass at an input all members share
    computes them, and their tanh', once, with each member's lone bits."""
    stack.__dict__["layers"] = lone.layers[:below] + stack.layers[below:]
    return stack


def _checked_shapes(shapes) -> tuple[tuple[int, int], ...]:
    """shapes as int pairs, refused unless they take ModelParams' layout."""
    try:  # require_int's ContractViolation is a ValueError; a float, bool or size below 1 is refused
        pairs = tuple((r, c) for r, c in shapes)
        for size in sum(pairs, ()):
            require_int("a size", size, 1)
        widths = [c for _, c in pairs[0::2]]
        if not pairs or pairs[1::2] != tuple((1, c) for c in widths) or [r for r, _ in pairs[2::2]] != widths[:-1]:
            raise ValueError("each layer must be a weight (r, c), r the width below, then its bias (1, c)")
    except (TypeError, ValueError) as err:
        raise ContractViolation(f"shapes must be (rows, cols) pairs, got {shapes}: {err}") from None
    return tuple((int(r), int(c)) for r, c in pairs)


def _checked_values(values: Array, expected: int) -> Array:
    """values, a float64 array, checked as a flat vector or a stack of them,
    expected entries each, all finite."""
    if values.ndim not in (1, 2):
        raise ContractViolation("parameter values must be a flat vector or a stack of them")
    if values.shape[-1] != expected:
        raise ContractViolation(f"parameter vector has {values.shape[-1]} entries, shapes require {expected}")
    if not np.logical_and.reduce(np.isfinite(values), axis=None):
        raise ContractViolation("parameter vector contains non-finite entries")
    return values


@dataclass(frozen=True)
class Batch:
    """Inputs (n, d) with integer labels or float targets (n,); or a stack of
    m such batches, inputs (m, n, d) with targets (m, n)."""

    inputs: Array
    targets: Array

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        if inputs.ndim not in (2, 3) or inputs.shape[-2] < 1:
            raise ContractViolation("batch inputs must be a non-empty (n, d) matrix, or a stack of them")
        if targets.shape != inputs.shape[:-1]:
            raise ContractViolation("targets must be a vector matching the batch size, one per member")

    @property
    def n(self) -> int:
        return self.inputs.shape[-2]


def init_params(sizes: Sequence[int], rng: np.random.Generator, scale: float = 1.0) -> ModelParams:
    """Glorot-normal weights (scaled), zero biases."""
    if len(sizes) < 2:
        raise ContractViolation("need at least an input and an output layer size")
    shapes: list[tuple[int, int]] = []
    chunks: list[Array] = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        std = scale * np.sqrt(2.0 / (fan_in + fan_out))
        w = rng.standard_normal((fan_in, fan_out)) * std
        b = np.zeros((1, fan_out))
        shapes += [(fan_in, fan_out), (1, fan_out)]
        chunks += [w.ravel(), b.ravel()]
    return ModelParams(values=np.concatenate(chunks), shapes=tuple(shapes))


def _flatten_grads(grads: Sequence[Array]) -> Array:
    """Per-layer (..., r, c) gradients as one (..., P) vector per member."""
    shape = grads[0].shape[:-2] + (-1,)
    return np.concatenate([g.reshape(shape) for g in grads], -1)


# ---------- forward / backward engine ----------


def _matmul(a: Array, b: Array) -> Array:
    """a @ b. Two matrices go through ndarray.dot, which makes the same BLAS
    call as the matmul gufunc, with the same bits, without the gufunc's
    per-call cost; a stacked operand keeps @, whose broadcasting dot does
    not have."""
    return a.dot(b) if a.ndim == 2 and b.ndim == 2 else a @ b


def _sum_last(a: Array, keepdims: bool = False) -> Array:
    """np.add.reduce(a, axis=-1, keepdims=keepdims), bit for bit; see the module docstring."""
    s = (a[..., 0] + a[..., 1]) + 0.0 if a.shape[-1] == 2 else np.add.reduce(a, axis=-1)
    return s[..., None] if keepdims else s


def _max_last(a: Array) -> Array:
    """np.maximum.reduce(a, axis=-1, keepdims=True), bit for bit; see the module docstring."""
    m = np.maximum(a[..., 0], a[..., 1]) if a.shape[-1] == 2 else np.maximum.reduce(a, axis=-1)
    return m[..., None]


# repr=False: tracers key calls by repr, and printing the arrays outlasts the pass.
@dataclass(frozen=True, eq=False, repr=False)
class ForwardPass:
    """Raw output matrix and activations; acts[l] is the input to layer l.
    A width-1 output holds a regression head's scalars, a wider one logits.
    The softmax parts of the output, its log-softmax and that one's exp are
    computed on first use and kept, so the task loss, its gradient seed, the
    regularizers and the confidences of one pass share one softmax. tanh'
    of the hidden layers is kept the same way for the backward passes."""

    out: Array
    acts: list[Array]

    @property
    def is_classification(self) -> bool:
        return self.out.shape[-1] > 1

    @property
    def logits(self) -> Array:
        return self.out

    @property
    def scalars(self) -> Array:
        return self.out[..., 0]

    @_memo
    def softmax_parts(self) -> tuple[Array, Array, Array]:
        """(s, e, S): shifted logits out - max, e = exp(s) and the row sums
        of e (keepdims). The top entry of each row of e is exp(0) = 1."""
        s = self.out - _max_last(self.out)
        e = np.exp(s)
        return s, e, _sum_last(e, keepdims=True)

    @_memo
    def tanh_grads(self) -> list[Array]:
        """tanh' at each hidden layer's output: entry l is 1 - acts[l + 1]^2."""
        return [1.0 - a**2 for a in self.acts[1:]]

    @_memo
    def log_probs(self) -> Array:
        s, _, total = self.softmax_parts
        return s - np.log(total)

    @_memo
    def probs(self) -> Array:
        return np.exp(self.log_probs)


def _forward(params: ModelParams, inputs: Array) -> ForwardPass:
    """inputs (n, d), or (m, n, d); with stacked parameters or inputs the
    hidden activations and the output carry the leading stack axis."""
    layers = params.layers
    a = inputs
    acts = [a]
    for i, (w, b) in enumerate(layers):
        # one buffer per layer: the bias add and tanh write into the matmul's
        # result, the same IEEE ops as a @ w + b and np.tanh without two
        # fresh arrays, which on a 500-row pass cost more than the arithmetic
        a = _matmul(a, w)
        a += b
        if i < len(layers) - 1:
            np.tanh(a, out=a)
            acts.append(a)
    return ForwardPass(a, acts)


def _backward_input(
    params: ModelParams, fwd: ForwardPass, dout: Array, to_inputs: bool = True
) -> tuple[Array | None, list[Array]]:
    """Backprop a seed on the raw output of fwd to the inputs. Returns (grad
    wrt inputs, seeds), where seeds[l] is the gradient wrt layer l's output
    before its activation. With to_inputs False the pass stops at seeds[0]
    and the input gradient is None. Stacked seeds or parameters give stacked
    results."""
    layers = params.layers
    seeds: list[Array] = [dout] * len(layers)
    g = dout
    for i in range(len(layers) - 1, 0, -1):
        seeds[i] = g
        g = _matmul(g, layers[i][0].mT) * fwd.tanh_grads[i - 1]
    seeds[0] = g
    return (_matmul(g, layers[0][0].mT) if to_inputs else None), seeds


def _backward(
    params: ModelParams, fwd: ForwardPass, dout: Array, to_inputs: bool = True
) -> tuple[Array, Array | None]:
    """Backprop a seed on the raw output of fwd. Returns (grad wrt values,
    grad wrt inputs, None with to_inputs False); a stacked seed (..., n, C)
    gives (..., P) parameter gradients."""
    g, seeds = _backward_input(params, fwd, dout, to_inputs)
    grads = [m for a, s in zip(fwd.acts, seeds) for m in (_matmul(a.mT, s), np.add.reduce(s, axis=-2, keepdims=True))]
    return _flatten_grads(grads), g


def _forward_tangent(params: ModelParams, fwd: ForwardPass, u: Array) -> tuple[Array, list[Array], list[Array]]:
    """Tangent of the forward pass fwd along the input direction u (weights
    fixed). Returns (tangent of the raw output, tangents of each layer's
    input, tangents of each layer's output before its activation)."""
    layers = params.layers
    t_acts = [u]
    t_outs: list[Array] = []
    t = u
    for i, (w, _) in enumerate(layers):
        t = _matmul(t, w)
        t_outs.append(t)
        if i < len(layers) - 1:
            t = t * fwd.tanh_grads[i]
            t_acts.append(t)
    return t, t_acts, t_outs


def _backward_tangent(
    params: ModelParams,
    fwd: ForwardPass,
    seeds: list[Array],
    t_acts: list[Array],
    t_outs: list[Array],
    t_dout: Array,
    to_inputs: bool = True,
) -> tuple[Array, Array | None]:
    """Tangent of a backward pass (_backward_input's seeds over fwd) when the
    activations move by t_acts/t_outs (from _forward_tangent) and the output
    seed by t_dout. Returns the tangents of (grad wrt values, grad wrt inputs):
    with t_dout the seed's derivative along u, these are the second
    derivatives of the backpropagated scalar along u. With to_inputs False
    the input part is None and its last matmul is skipped. Stacks as
    _backward."""
    layers, acts = params.layers, fwd.acts
    grads: list[Array] = [t_dout] * (2 * len(layers))
    t = t_dout
    for i in range(len(layers) - 1, -1, -1):
        grads[2 * i] = _matmul(t_acts[i].mT, seeds[i]) + _matmul(acts[i].mT, t)
        grads[2 * i + 1] = np.add.reduce(t, axis=-2, keepdims=True)
        if i > 0:
            # seeds[i-1] = (seeds[i] @ W.T) * (1 - a^2) with a = tanh(z) and
            # d(1 - a^2) = -2 a (1 - a^2) dz
            t = _matmul(t, layers[i][0].mT) * fwd.tanh_grads[i - 1] - 2.0 * seeds[i - 1] * acts[i] * t_outs[i - 1]
    return _flatten_grads(grads), (_matmul(t, layers[0][0].mT) if to_inputs else None)


def _check_inputs(params: ModelParams, inputs: Array) -> Array:
    """inputs as a float (n, d) matrix, or an (m, n, d) stack, whose width
    matches the first layer."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim not in (2, 3):
        raise ContractViolation("inputs must be an (n, d) matrix or a stack of them")
    if inputs.shape[-1] != params.input_dim:
        raise ContractViolation(
            f"input width {inputs.shape[-1]} does not match first layer width {params.input_dim}"
        )
    return inputs


def mlp_forward(params: ModelParams, inputs: Array) -> ForwardPass:
    """Run the network. Raises on an input-width mismatch."""
    return _forward(params, _check_inputs(params, inputs))


# ---------- probability and loss helpers ----------


def _check_labels(targets: Array, n_classes: int) -> Array:
    labels = np.asarray(targets)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractViolation("classification targets must be integer labels")
    if labels.size:
        lo, hi = np.minimum.reduce(labels, axis=None), np.maximum.reduce(labels, axis=None)
        if lo < 0 or hi >= n_classes:
            raise ContractViolation(f"label out of range for {n_classes} classes: [{lo}, {hi}]")
    return labels


def _per_member(value: Array) -> float | bool | Array:
    """A per-member numpy result: a Python scalar for one problem, an (m,)
    array for a stack."""
    return value.item() if value.ndim == 0 else value


def _label_index(labels: Array) -> tuple:
    """Index of each example's label entry in a (..., n, C) array: labels (n,)
    pick from every member, a stack (m, n) from its own member."""
    rows = np.arange(labels.shape[-1])
    if labels.ndim == 1:
        return (..., rows, labels)
    return (np.arange(labels.shape[0])[:, None], rows, labels)


def _check_targets(fwd: ForwardPass, targets: Array) -> Array:
    """targets as fwd's head reads them, one per example: integer labels in
    range for a classification head, floats for a regression head. A step
    checks its batch's targets once and hands them to _task_loss,
    _task_seed_sum and _task_grad, which do not check again."""
    if fwd.is_classification:
        targets = _check_labels(targets, fwd.out.shape[-1])
    else:
        targets = np.asarray(targets, dtype=np.float64)
    if targets.shape[-1:] != fwd.out.shape[-2:-1]:
        raise ContractViolation("targets do not match batch size")
    return targets


def _task_loss(fwd: ForwardPass, targets: Array) -> float | Array:
    n = fwd.out.shape[-2]
    if fwd.is_classification:
        picked = fwd.log_probs[_label_index(targets)]
        # a stack's pick comes out column-major; the mean must run over contiguous rows
        return _per_member(-(np.add.reduce(np.ascontiguousarray(picked), axis=-1) / n))
    return _per_member(np.add.reduce((fwd.scalars - targets) ** 2, axis=-1) / n)


def task_loss(fwd: ForwardPass, targets: Array) -> float | Array:
    """Batch-mean cross entropy (classification) or squared error (regression);
    one per member for a stacked pass."""
    return _task_loss(fwd, _check_targets(fwd, targets))


def _task_seed_sum(fwd: ForwardPass, targets: Array) -> Array:
    """d(sum of per-example task losses)/d(raw output), for checked targets.
    Divided by the batch size it seeds the batch-mean loss."""
    if not fwd.is_classification:
        return (2.0 * (fwd.scalars - targets))[..., None]
    _, e, total = fwd.softmax_parts
    seed = e / total  # the softmax of fwd.out
    seed[_label_index(targets)] -= 1.0
    return seed


def _task_grad(params: ModelParams, fwd: ForwardPass, targets: Array) -> Array:
    seed = _task_seed_sum(fwd, targets) / fwd.out.shape[-2]
    return _backward(params, fwd, seed, to_inputs=False)[0]


def grad_params(params: ModelParams, batch: Batch) -> Array:
    """Gradient of the batch-mean task loss with respect to the flat
    parameters."""
    fwd = mlp_forward(params, batch.inputs)
    return _task_grad(params, fwd, _check_targets(fwd, batch.targets))


# ---------- checkpoints ----------


def save_checkpoint(params: ModelParams, path: str) -> None:
    """JSON checkpoint: {"shapes": [[r, c], ...], "values": [...]} in flat order."""
    payload = {
        "shapes": [[r, c] for r, c in params.shapes],
        "values": params.values.tolist(),  # Python floats, as float(v) would give
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload) + "\n")  # dumps runs the C encoder, dump the pure-Python one


def load_checkpoint(path: str) -> ModelParams:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "shapes" not in payload or "values" not in payload:
        raise ContractViolation("checkpoint must contain 'shapes' and 'values'")
    try:
        shapes = _checked_shapes(payload["shapes"])
    except ContractViolation as err:
        raise ContractViolation(f"checkpoint {err}") from None
    try:
        values = np.asarray(payload["values"], dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise ContractViolation(f"checkpoint values must be numbers: {err}") from None
    return ModelParams(values=values, shapes=shapes)
