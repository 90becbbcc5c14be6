"""The benchmark's view of the package: every name bench/*.py imports from
salt still exists, every call it makes to a salt callable still binds, and
every attribute or key it reads from salt's results without a call resolves.

bench/test_smoke.py runs the benchmark itself but lies outside the default
test paths, so a refactor that renames or deletes a function the benchmark
imports, or drops a parameter the benchmark passes, would otherwise pass the
default run.
"""
from __future__ import annotations

import ast
import glob
import importlib
import inspect
import os

import numpy as np

from helpers import ROOT
from salt.diffmodel import Batch, init_params
from salt.harness.config import ModelSpec
from salt.optim import OptimizerState
from salt.perturb import AdvConfig, project_jvp_rows, sample_init
from salt.stackelberg import Method, stackelberg_gradient, training_step


def _parse(path: str) -> ast.Module:
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _salt_imports(path: str) -> list[tuple[str, str | None, str]]:
    """(module, name, local name) for each `from salt... import name [as
    local]` in the file, and (module, None, local name) for each `import
    salt... [as local]`, at any depth of the file. `import salt.x` binds
    salt, `import salt.x as y` binds salt.x to y."""
    found: list[tuple[str, str | None, str]] = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "salt":
            found += [(node.module, alias.name, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None, a.asname or "salt") for a in node.names if a.name.split(".")[0] == "salt"]
    return found


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(mod, name):
        return True
    try:  # a submodule, such as `from salt.harness import sweep`
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_bench_imports_from_salt_resolve():
    """Each `from salt... import name` and `import salt...` in bench/*.py,
    module-level or inside a function, names something the package has.
    Calls are checked by test_bench_calls_to_salt_bind and reads such as
    `cfg.proj_mode` or `.values` by test_bench_attribute_reads_resolve, and
    the function names bench/tracing.py lists as strings by
    test_traced_names_blinded_by_src_are_only_the_known_ones."""
    paths = sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))
    assert paths
    imports = {(os.path.basename(p), module, name) for p in paths for module, name, _ in _salt_imports(p)}
    assert imports, "bench/ imports nothing from salt"
    broken = [(file, module, name) for file, module, name in sorted(imports, key=str) if not _resolves(module, name)]
    assert not broken, broken


def _salt_names(path: str) -> dict[str, object]:
    """The function, class or module each local name of the file's salt
    imports refers to, for each import that resolves."""
    names: dict[str, object] = {}
    for module, name, local in _salt_imports(path):
        if not _resolves(module, name):
            continue
        if name is None:
            names[local] = importlib.import_module("salt" if local == "salt" else module)
        else:  # a submodule name is an attribute once _resolves has imported it
            names[local] = getattr(importlib.import_module(module), name)
    return names


def _resolve(expr: ast.expr, names: dict[str, object]) -> tuple[bool, object]:
    """(whether expr reaches into salt, what it names there, None if the
    attribute is missing) for a name bound by a salt import or an attribute
    chain through salt modules."""
    if isinstance(expr, ast.Name):
        return expr.id in names, names.get(expr.id)
    if isinstance(expr, ast.Attribute):
        inside, base = _resolve(expr.value, names)
        if inside and inspect.ismodule(base):
            return True, getattr(base, expr.attr, None)
    return False, None


def _salt_calls(path: str) -> list[tuple[int, str, object, ast.Call]]:
    """(line, callee as written, the salt object it names, the call) for each
    call in the file to a name imported from salt or to an attribute of an
    imported salt module, at any depth of the file."""
    names = _salt_names(path)
    calls = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Call):
            inside, target = _resolve(node.func, names)
            if inside:
                calls.append((node.lineno, ast.unparse(node.func), target, node))
    return calls


def _binds(target: object, call: ast.Call) -> bool:
    """Whether target's signature takes the call's positional count and
    keyword names. An unpacked *args or **kwargs binds whatever it holds."""
    if not callable(target):
        return False
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    try:
        inspect.signature(target).bind(*call.args, **{k.arg: None for k in call.keywords})
    except TypeError:
        return False
    return True


def test_bench_calls_to_salt_bind():
    """Each call in bench/*.py to a salt callable, imported directly or
    reached as `module.attr` through an imported salt module, names
    something that exists and binds its positional count and keyword names,
    so dropping or renaming a parameter the benchmark passes fails here."""
    paths = sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))
    calls = [(os.path.basename(p), *call) for p in paths for call in _salt_calls(p)]
    callees = {callee for _, _, callee, _, _ in calls}
    assert {"grad_params", "interaction_adjoint", "experiment.run_experiment", "stackelberg.stackelberg_gradient"} <= callees
    broken = [(file, line, callee) for file, line, callee, target, call in calls if not _binds(target, call)]
    assert not broken, broken


def test_bench_attribute_reads_resolve():
    """What bench/*.py reads from salt without a call, which the call check
    cannot see: AdvConfig().proj_mode, which project_jvp_rows takes,
    sample_init(...).values, ModelSpec.regularizer_kind, the three parts of a
    StackelbergGrad, a tape's deltas and pre_projections, and the phase
    timers and degenerate flag of a SALT step's stats."""
    cfg, spec = AdvConfig(), ModelSpec()
    rng = np.random.default_rng(0)
    params = init_params(list(spec.layers), rng)
    batch = Batch(rng.normal(size=(4, 2)), rng.integers(0, 2, 4))
    grad = stackelberg_gradient(params, batch, cfg, spec.regularizer_kind, 0)
    assert all(part.shape == (params.n_params,) for part in (grad.total, grad.leader_part, grad.interaction_part))
    tape = grad.tape
    assert len(tape.deltas) == cfg.k_steps + 1 and len(tape.pre_projections) == cfg.k_steps
    delta0 = sample_init(cfg.sigma, batch.inputs.shape, 0).values
    jvp = project_jvp_rows(tape.pre_projections[-1], delta0, cfg.epsilon, cfg.norm, cfg.proj_mode)
    assert jvp.shape == delta0.shape
    stats = training_step(Method.SALT, params, batch, cfg, OptimizerState(kind="Adam", lr=1e-3), 0)[2]
    assert {"t_unroll", "t_gradient", "t_update", "degenerate_interaction"} <= set(stats)


def _tracing_names() -> dict[str, object]:
    """TRACED, STEP_FUNCTIONS and KEYED_FUNCTIONS as bench/tracing.py assigns
    them, read by the AST: a dict of module to names, and two sets of labels."""
    found = {}
    for node in _parse(os.path.join(ROOT, "bench", "tracing.py")).body:
        name = node.targets[0].id if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) else None
        if name in ("TRACED", "STEP_FUNCTIONS", "KEYED_FUNCTIONS"):
            value = node.value.args[0] if isinstance(node.value, ast.Call) else node.value  # frozenset({...})
            found[name] = ast.literal_eval(value)
    return found


def _traceable(label: str) -> bool:
    """Whether the tracer finds a callable to wrap at label, salt.module.name:
    the module imports and binds the name to one."""
    module, name = label.rsplit(".", 1)
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    return callable(getattr(mod, name, None))


def test_traced_names_blinded_by_src_are_only_the_known_ones():
    """bench/tracing.py skips a traced name that src/ no longer defines, so a
    refactor can blind the trace without failing a check. This ratchet pins
    the names blinded today: a src/ change that blinds one more fails here,
    and the benchmark change that fixes the names empties the lists."""
    lists = _tracing_names()
    labels = {
        "TRACED": {f"{module}.{name}" for module, names in lists["TRACED"].items() for name in names},
        "STEP_FUNCTIONS": {f"salt.{label}" for label in lists["STEP_FUNCTIONS"]},
        "KEYED_FUNCTIONS": {f"salt.{label}" for label in lists["KEYED_FUNCTIONS"]},
    }
    blinded = {key: {label for label in found if not _traceable(label)} for key, found in labels.items()}
    assert blinded == {
        "TRACED": {
            "salt.regularizers.reg_value_sum",
            "salt.stackelberg.hvp_fd",
            "salt.stackelberg.salt_training_step",
            "salt.vat.vat_gradient",
            "salt.vat.vat_training_step",
            "salt.vat.adv_training_step",
            "salt.harness.experiment.erm_training_step",
        },
        "STEP_FUNCTIONS": {
            "salt.stackelberg.salt_training_step",
            "salt.vat.vat_training_step",
            "salt.vat.adv_training_step",
            "salt.harness.experiment.erm_training_step",
        },
        "KEYED_FUNCTIONS": set(),
    }
