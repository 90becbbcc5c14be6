"""Forward/backward engine checks against loop oracles and finite differences."""
from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from salt.diffmodel import (
    Batch,
    ForwardPass,
    ModelParams,
    _max_last,
    _sum_last,
    _task_seed_sum,
    grad_params,
    init_params,
    load_checkpoint,
    mlp_forward,
    save_checkpoint,
    task_loss,
)
from salt.errors import ContractViolation

from oracles import log_softmax, softmax


def forward_oracle(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Per-example, per-unit loops; no matrix ops shared with the implementation."""
    layers = params.layers
    out = np.zeros((x.shape[0], layers[-1][0].shape[1]))
    for i in range(x.shape[0]):
        a = [float(v) for v in x[i]]
        for li, (w, b) in enumerate(layers):
            z = []
            for j in range(w.shape[1]):
                s = b[0, j]
                for k in range(w.shape[0]):
                    s += a[k] * w[k, j]
                z.append(s)
            a = [math.tanh(v) for v in z] if li < len(layers) - 1 else z
        out[i] = a
    return out


def fd_grad(fn, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (fn(theta + e) - fn(theta - e)) / (2.0 * h)
    return g


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for sizes in ([2, 3, 2], [4, 5, 3, 1], [3, 4, 4, 4, 2]):
        p = init_params(sizes, rng)
        x = rng.normal(size=(6, sizes[0]))
        out = mlp_forward(p, x)
        raw = out.logits if out.is_classification else out.scalars[:, None]
        assert np.allclose(raw, forward_oracle(p, x), atol=1e-12)


def test_head_kind_follows_output_width():
    rng = np.random.default_rng(1)
    assert mlp_forward(init_params([2, 4, 3], rng), np.zeros((1, 2))).is_classification
    reg = mlp_forward(init_params([2, 4, 1], rng), np.zeros((1, 2)))
    assert not reg.is_classification
    assert reg.scalars.shape == (1,)


def test_softmax_known_values():
    """A pass's cached softmax, as e / S and as probs, against hand values."""
    fwd = ForwardPass(np.array([[1.0, 2.0, 3.0]]), [])
    s = fwd.probs
    z = math.exp(1) + math.exp(2) + math.exp(3)
    assert np.allclose(s, [[math.exp(1) / z, math.exp(2) / z, math.exp(3) / z]], atol=1e-15)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-15)
    _, e, total = fwd.softmax_parts
    assert np.allclose(e / total, s, atol=1e-15)
    # shift invariance and overflow safety
    big = ForwardPass(np.array([[1000.0, 1001.0]]), []).probs
    assert np.allclose(big, ForwardPass(np.array([[0.0, 1.0]]), []).probs, atol=1e-15)
    assert np.allclose(fwd.log_probs, np.log(s), atol=1e-15)


def test_task_loss_closed_forms():
    # single linear layer, identity-like weights: logits are the inputs
    p = ModelParams(values=np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), shapes=((2, 2), (1, 2)))
    x = np.array([[2.0, 0.0]])
    loss = task_loss(mlp_forward(p, x), np.array([0]))
    assert abs(loss - math.log(1 + math.exp(-2.0))) < 1e-12
    # regression mean squared error
    pr = ModelParams(values=np.array([1.0, 1.0, 0.0]), shapes=((2, 1), (1, 1)))
    out = mlp_forward(pr, np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert abs(task_loss(out, np.array([1.0, 1.0])) - (2.0**2 + 1.0**2) / 2) < 1e-12


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("width", [1, 3])
def test_task_loss_reads_cached_log_probs_bit_for_bit(width, stacked):
    """task_loss takes the log-softmax a pass keeps: the loss has the same bits
    whether or not log_probs was read first, and the bits of the loss
    computed from the raw output alone."""
    from salt.diffmodel import _forward

    rng = np.random.default_rng(11)
    p = init_params([2, 5, width], rng, scale=1.5)
    if stacked:
        p = ModelParams(p.values + 0.3 * rng.normal(size=(4, p.n_params)), p.shapes)
    x = rng.normal(size=(7, 2))
    y = rng.normal(size=7) if width == 1 else rng.integers(0, width, size=7)
    fresh = task_loss(_forward(p, x), y)
    read_first = _forward(p, x)
    assert read_first.log_probs.shape == read_first.out.shape
    cached = task_loss(read_first, y)
    out = read_first.out
    if width == 1:
        want = ((out[..., 0] - y) ** 2).mean(axis=-1)
    else:
        want = -np.ascontiguousarray(log_softmax(out)[..., np.arange(7), y]).mean(axis=-1)
    assert np.shape(cached) == ((4,) if stacked else ())
    assert np.array_equal(fresh, cached) and np.array_equal(cached, want)


@pytest.mark.parametrize("n_classes", [2, 3, 5])
def test_task_seed_is_softmax_minus_one_hot_bit_for_bit(n_classes):
    """The classification seed is e / S from the pass's cached softmax parts:
    the bits of softmax(out) less the one-hot labels, whether or not
    log_probs was read first, and forming it leaves the cached parts intact."""
    rng = np.random.default_rng(n_classes)
    for scale in np.logspace(-3, 3, 7):
        out = rng.normal(size=(25, n_classes)) * scale
        out[:3, 1] = out[:3, 0]
        y = rng.integers(0, n_classes, size=25)
        e = np.exp(out - out.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        assert np.array_equal(want, softmax(out))
        want[np.arange(25), y] -= 1.0
        fresh, read_first = ForwardPass(out, []), ForwardPass(out, [])
        log_probs = read_first.log_probs.copy()
        assert np.array_equal(_task_seed_sum(fresh, y), want), scale
        assert np.array_equal(_task_seed_sum(read_first, y), want), scale
        assert np.array_equal(read_first.log_probs, log_probs)
        assert np.array_equal(fresh.softmax_parts[1], e)


@pytest.mark.parametrize("seed", range(20))
def test_grad_params_matches_fd(seed):
    rng = np.random.default_rng(seed)
    sizes = [3, 5, 2] if seed % 2 == 0 else [2, 4, 1]
    p = init_params(sizes, rng)
    x = rng.normal(size=(4, sizes[0]))
    y = rng.integers(0, sizes[-1], 4) if sizes[-1] > 1 else rng.normal(size=4)
    batch = Batch(inputs=x, targets=y)
    g = grad_params(p, batch)
    ref = fd_grad(lambda t: task_loss(mlp_forward(p.replace_values(t), x), y), p.values)
    assert np.linalg.norm(g - ref) <= 1e-6 * max(np.linalg.norm(ref), 1e-12)


@pytest.mark.parametrize("objective", ["task_loss", "kl_divergence", "squared_difference"])
def test_grad_input_matches_fd(objective):
    """The input gradient each flat follower climbs: Adv's summed task loss,
    VAT's summed regularizer."""
    from helpers import reg_value
    from salt.regularizers import RegularizerKind
    from salt.stackelberg import make_adv_objective, task_ascent

    rng = np.random.default_rng(7)
    sizes = [3, 6, 1] if objective == "squared_difference" else [3, 6, 3]
    p = init_params(sizes, rng)
    x = rng.normal(size=(5, 3))
    if objective == "task_loss":
        targets = rng.integers(0, 3, 5)
        grad_delta = task_ascent(p, x, targets)

        def val(delta):
            return task_loss(mlp_forward(p, x + delta), targets) * x.shape[0]

    else:
        kind = (
            RegularizerKind.KL_DIVERGENCE
            if objective == "kl_divergence"
            else RegularizerKind.SQUARED_DIFFERENCE
        )
        obj = make_adv_objective(p, x, kind)

        def grad_delta(delta):
            return obj(delta)[0]

        def val(delta):
            return reg_value(p, x, delta, kind)

    delta = np.full_like(x, 0.1)
    g = grad_delta(delta)
    h = 1e-6
    ref = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            e = np.zeros_like(x)
            e[i, j] = h
            ref[i, j] = (val(delta + e) - val(delta - e)) / (2 * h)
    assert np.linalg.norm(g - ref) <= 1e-6 * max(np.linalg.norm(ref), 1e-10)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    p = init_params([2, 5, 3], rng)
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.shapes == p.shapes
    assert np.array_equal(q.values, p.values)


def test_contract_violations(tmp_path):
    rng = np.random.default_rng(4)
    p = init_params([2, 4, 3], rng)
    with pytest.raises(ContractViolation):
        mlp_forward(p, np.zeros((2, 5)))
    with pytest.raises(ContractViolation, match="input width 5 does not match first layer width 2"):
        grad_params(p, Batch(np.zeros((3, 5)), np.zeros(3, int)))  # was numpy's "shapes not aligned"
    with pytest.raises(ContractViolation, match="inputs must be an"):
        mlp_forward(p, np.zeros(2))  # a vector, not a matrix of rows
    with pytest.raises(ContractViolation, match="batch inputs must be"):
        Batch(np.zeros(3), np.zeros(3))
    with pytest.raises(ContractViolation, match="at least an input and an output"):
        init_params([2], rng)
    with pytest.raises(ContractViolation):
        ModelParams(values=np.zeros(5), shapes=((2, 2), (1, 2)))
    with pytest.raises(ContractViolation):
        ModelParams(values=np.array([np.nan] * 6), shapes=((2, 2), (1, 2)))
    with pytest.raises(ContractViolation):
        task_loss(mlp_forward(p, np.zeros((2, 2))), np.array([0, 3]))  # label out of range
    with pytest.raises(ContractViolation):
        task_loss(mlp_forward(p, np.zeros((2, 2))), np.array([0.5, 0.1]))  # non-integer labels
    with pytest.raises(ContractViolation, match="must be integer labels"):
        task_loss(mlp_forward(p, np.zeros((2, 2))), np.array([0.0, 1.0]))  # whole numbers, but floats
    with pytest.raises(ContractViolation, match="do not match batch size"):
        task_loss(mlp_forward(p, np.zeros((2, 2))), np.array([0, 1, 1]))
    head1 = init_params([2, 4, 1], rng)
    with pytest.raises(ContractViolation, match="do not match batch size"):
        task_loss(mlp_forward(head1, np.zeros((2, 2))), np.zeros(3))
    path = tmp_path / "ckpt.json"
    path.write_text('{"shapes": [[2, 4]]}')
    with pytest.raises(ContractViolation, match="must contain 'shapes' and 'values'"):
        load_checkpoint(str(path))
    # malformed shapes are refused, not left to a failed unpack or int()
    for shapes in ("5", "[[2]]", "[[2, 4, 1]]", '[["a", 4]]', "[null]"):
        path.write_text(f'{{"shapes": {shapes}, "values": [0.0]}}')
        with pytest.raises(ContractViolation, match=r"checkpoint shapes must be \(rows, cols\) pairs, got"):
            load_checkpoint(str(path))
    # a size that is not a positive integer is refused, not truncated by int(): [[2.7, 1], [1, 1]]
    # loaded as ((2, 1), (1, 1)) and [[true, 1], [1, 1]] as ((1, 1), (1, 1))
    sizes = {"2.7": "must be an integer, got 2.7", "true": "must be an integer, got True", "0": "must be >= 1, got 0"}
    for size, why in sizes.items():
        path.write_text(f'{{"shapes": [[{size}, 1], [1, 1]], "values": [1, 2, 3]}}')
        with pytest.raises(ContractViolation, match=rf"\(rows, cols\) pairs, got .*: .*{why}"):
            load_checkpoint(str(path))
    # one layout rule, built directly and loaded alike: a size that is not an integer, a weight with no
    # bias (built a model with no layers), a bias not under its weight, a weight not on the layer below
    bad_layouts = {
        ((2.7, 1), (1, 1)): "a size must be an integer, got 2.7",
        ((True, 1), (1, 1)): "a size must be an integer, got True",
        ((2, 3),): "each layer must be a weight",
        ((2, 3), (1, 4)): "each layer must be a weight",
        ((2, 3), (1, 3), (5, 2), (1, 2)): "each layer must be a weight",
        (): "each layer must be a weight",
    }
    for shapes, why in bad_layouts.items():
        n = sum(int(r) * int(c) for r, c in shapes)
        with pytest.raises(ContractViolation, match=rf"^shapes must be \(rows, cols\) pairs, got .*: {why}"):
            ModelParams(values=np.zeros(n), shapes=shapes)
        path.write_text(json.dumps({"shapes": shapes, "values": [0.0] * n}))
        with pytest.raises(ContractViolation, match=rf"^checkpoint shapes must be \(rows, cols\) pairs, got .*: {why}"):
            load_checkpoint(str(path))
    for values in ('"x"', '[1, "a", 3]', '{"a": 1}'):
        path.write_text(f'{{"shapes": [[2, 1], [1, 1]], "values": {values}}}')
        with pytest.raises(ContractViolation, match="checkpoint values must be numbers"):
            load_checkpoint(str(path))


def test_replace_values_checks_values_as_the_constructor_does():
    """replace_values skips re-normalising the shapes, not the value checks:
    a wrong size, a wrong rank or a non-finite entry is still rejected, lone
    or stacked, and the result equals the constructor's."""
    p = init_params([2, 4, 3], np.random.default_rng(9))
    for bad in (np.zeros(p.n_params - 1), np.zeros((2, 3, p.n_params)), np.zeros(()), np.zeros((2, p.n_params + 1))):
        with pytest.raises(ContractViolation) as fresh:
            ModelParams(bad, p.shapes)
        with pytest.raises(ContractViolation) as replaced:
            p.replace_values(bad)
        assert str(replaced.value) == str(fresh.value)
    for bad in (np.nan, np.inf, -np.inf):
        for values in (p.values.copy(), np.stack([p.values] * 3)):
            values[..., -1] = bad
            with pytest.raises(ContractViolation, match="non-finite"):
                p.replace_values(values)
    as_list = p.replace_values(list(range(p.n_params)))  # ints, as a list
    want = ModelParams(np.arange(p.n_params), p.shapes)
    assert as_list.values.dtype == np.float64 and np.array_equal(as_list.values, want.values)
    assert as_list.shapes is p.shapes and as_list.shapes == want.shapes
    assert [w.shape for w, _ in as_list.layers] == [w.shape for w, _ in want.layers]


def test_stacked_params_validate_every_member():
    rng = np.random.default_rng(8)
    p = init_params([2, 4, 3], rng)
    stack = np.stack([p.values, 2.0 * p.values, -p.values])
    sp = ModelParams(stack, p.shapes)
    assert sp.n_params == p.n_params
    assert [w.shape for w, _ in sp.layers] == [(3, 2, 4), (3, 4, 3)]
    assert [b.shape for _, b in sp.layers] == [(3, 1, 4), (3, 1, 3)]
    assert np.shares_memory(sp.layers[0][0], stack)
    for bad in (np.nan, np.inf):
        broken = stack.copy()
        broken[1, 5] = bad  # one member non-finite, the others fine
        with pytest.raises(ContractViolation):
            ModelParams(broken, p.shapes)
    with pytest.raises(ContractViolation):
        ModelParams(stack[:, :-1], p.shapes)
    with pytest.raises(ContractViolation):
        ModelParams(stack[None], p.shapes)


@pytest.mark.parametrize("width", [1, 3])
def test_stacked_forward_and_loss_are_each_members(width):
    """Stacked parameters, alone or with stacked inputs and targets, give
    member by member the bits of the unstacked forward pass, task loss,
    backward pass, parameter gradient and tangent backward pass."""
    from salt.diffmodel import _backward, _backward_input, _backward_tangent, _forward, _forward_tangent

    rng = np.random.default_rng(9)
    p = init_params([2, 5, 4, width], rng, scale=1.5)
    stack = p.values + 0.3 * rng.normal(size=(6, p.n_params))
    sp = ModelParams(stack, p.shapes)
    xs = rng.normal(size=(6, 7, 2))
    ys = rng.normal(size=(6, 7)) if width == 1 else rng.integers(0, width, size=(6, 7))
    seed_out, u = rng.normal(size=(6, 7, width)), rng.normal(size=(6, 7, 2))
    t_seed = rng.normal(size=(6, 7, width))

    def results(params, x, y, i):
        fwd = _forward(params, x)
        dout, t_dout = seed_out[i], t_seed[i]
        _, seeds = _backward_input(params, fwd, dout)
        t_out, t_acts, t_outs = _forward_tangent(params, fwd, u[i])
        return [
            *fwd.acts[1:],
            fwd.out,
            np.asarray(task_loss(fwd, y)),
            *_backward(params, fwd, dout),
            grad_params(params, Batch(x, y)),
            t_out,
            *_backward_tangent(params, fwd, seeds, t_acts, t_outs, t_dout),
        ]

    for x, y in ((xs[0], ys[0]), (xs, ys)):
        fwd = _forward(sp, x)
        _, seeds = _backward_input(sp, fwd, seed_out)
        t_out, t_acts, t_outs = _forward_tangent(sp, fwd, u)
        stacked = [
            *fwd.acts[1:],
            fwd.out,
            task_loss(fwd, y),
            *_backward(sp, fwd, seed_out),
            grad_params(sp, Batch(x, y)),
            t_out,
            *_backward_tangent(sp, fwd, seeds, t_acts, t_outs, t_seed),
        ]
        assert task_loss(fwd, y).shape == (6,)
        for i in range(6):
            one = results(ModelParams(stack[i], p.shapes), x if x.ndim == 2 else x[i], y if y.ndim == 1 else y[i], i)
            for got, want in zip(stacked, one):
                assert got[i].tobytes() == want.tobytes()
    with pytest.raises(ContractViolation):
        Batch(xs, ys[:, :-1])  # one target short in every member


def test_forward_only_passes_never_fill_tanh_grads(monkeypatch):
    """tanh' is computed on a pass's first backward or tangent, and never by a
    pass that is only evaluated: mlp_forward's pass, and in
    gradcheck.total_objective the clean pass and the final value pass, while
    each of the K ascent steps' passes fills it once, for its backward.
    Filling it for every pass up front made gradcheck 20.6% slower."""
    from salt import diffmodel, gradcheck, regularizers
    from salt.gradcheck import sample_instance, total_objective

    rng = np.random.default_rng(3)
    p = init_params([2, 5, 4, 3], rng)
    fwd = mlp_forward(p, rng.normal(size=(6, 2)))
    task_loss(fwd, rng.integers(0, 3, 6))
    assert "tanh_grads" not in fwd.__dict__

    inst, _ = sample_instance(0, 0)
    passes = []
    original = diffmodel._forward

    def recorded(params, inputs):
        passes.append(original(params, inputs))
        return passes[-1]

    for module in (diffmodel, regularizers, gradcheck):
        monkeypatch.setattr(module, "_forward", recorded)
    total_objective(inst.params, inst.batch, inst.cfg, inst.delta0)
    filled = ["tanh_grads" in fwd.__dict__ for fwd in passes]
    assert filled == [False] + [True] * inst.cfg.k_steps + [False]


def test_matmul_has_the_bits_of_the_operator(monkeypatch):
    """_matmul takes ndarray.dot for two matrices and @ otherwise. Every pass
    gives the bits it gives with @ at every product: lone and stacked
    parameters and inputs, classification and width-1 regression heads, a
    (k, n, C) seed stack on one pass, and the transposed operands of the
    backward and tangent passes."""
    from salt import diffmodel
    from salt.diffmodel import _backward, _backward_input, _backward_tangent, _forward, _forward_tangent

    def passes():
        rng = np.random.default_rng(17)
        results = []
        for sizes in ([2, 32, 32, 2], [3, 7, 5, 1]):
            p = init_params(sizes, rng)
            x = rng.normal(size=(25, sizes[0]))
            sp = p.replace_values(p.values + 0.1 * rng.normal(size=(3, p.n_params)))
            for params, inputs in ((p, x), (sp, x), (p, np.stack([x, -x])), (sp, rng.normal(size=(3, 25, sizes[0])))):
                fwd = _forward(params, inputs)
                seed = rng.normal(size=fwd.out.shape)
                u = rng.normal(size=inputs.shape)
                _, seeds = _backward_input(params, fwd, seed)
                t_out, t_acts, t_outs = _forward_tangent(params, fwd, u)
                results += [fwd.out, *_backward(params, fwd, seed), t_out]
                results += _backward_tangent(params, fwd, seeds, t_acts, t_outs, rng.normal(size=t_out.shape))
                results.append(_backward(params, fwd, rng.normal(size=(4, *fwd.out.shape)), to_inputs=False)[0])
        return results

    got = passes()
    operands = []

    def operator(a, b):
        operands.append((a.ndim, b.ndim, a.flags.c_contiguous and b.flags.c_contiguous))
        return a @ b

    monkeypatch.setattr(diffmodel, "_matmul", operator)
    want = passes()
    assert [r.tobytes() for r in got] == [r.tobytes() for r in want]
    # both sides of the selection ran, the dot side also on transposed operands
    assert {(2, 2, True), (2, 2, False), (2, 3, False), (3, 2, True), (3, 3, False)} <= set(operands)


def test_last_axis_sum_and_max_are_the_reduce_bit_for_bit():
    """_sum_last and _max_last give the bits of np.add.reduce and
    np.maximum.reduce over the last axis, for every pair of signed zeros,
    +-1, +-inf, NaN and the smallest subnormal, and at widths 1 and 3 for
    every tuple of them: lone and stacked, C- and Fortran-ordered, and as
    transposed views. A 2-wide axis makes no reduce, any other width falls
    back to it. The 2-wide sum needs its + 0.0: a bare add gives
    -0.0 + -0.0 = -0.0, where the reduce gives +0.0. The sum also keeps a
    NaN's sign and payload as the reduce does. The max is not compared on
    such NaNs: np.maximum.reduce returns numpy's default NaN for a C-ordered
    operand and the payload for a Fortran-ordered one, so its bits there
    depend on the layout; np.maximum keeps the payload."""
    from helpers import count_reductions

    special = (-0.0, 0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324)
    for width in (1, 2, 3):
        rows = np.array(list(itertools.product(special, repeat=width)))
        stack = np.stack([rows, rows[::-1], np.roll(rows, 1, axis=-1)])
        for a in (rows, stack):
            for layout in (a, np.asfortranarray(a), np.ascontiguousarray(a.T).T):
                with np.errstate(invalid="ignore"):
                    for keepdims in (False, True):
                        got, want = _sum_last(layout, keepdims), np.add.reduce(layout, axis=-1, keepdims=keepdims)
                        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (width, keepdims)
                    got, want = _max_last(layout), np.maximum.reduce(layout, axis=-1, keepdims=True)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), width
                    reductions = count_reductions(lambda: (_sum_last(layout), _sum_last(layout, True), _max_last(layout)))
                assert reductions == (0 if width == 2 else 3), width
    nans = np.array([0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64).view(np.float64)
    pairs = np.array(list(itertools.product([*special, *nans], repeat=2)))
    for layout in (pairs, np.asfortranarray(pairs), np.stack([pairs, pairs[::-1]])):
        for keepdims in (False, True):
            with np.errstate(invalid="ignore"):
                got, want = _sum_last(layout, keepdims), np.add.reduce(layout, axis=-1, keepdims=keepdims)
            assert got.tobytes() == want.tobytes(), keepdims
