"""Shared test fixtures: the shipped configs, and quadratic inner objectives
with known derivatives."""
from __future__ import annotations

import csv
import gc
import os
import subprocess
import sys
import textwrap
from typing import Callable

import numpy as np

from salt.diffmodel import Batch
from salt.harness.config import ExperimentConfig, load_config
from salt.regularizers import reg_grad_params_sum
from salt.stackelberg import Linearize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(ROOT, "configs")


def shipped_config(name: str) -> ExperimentConfig:
    """A config from configs/, e.g. shipped_config("canonical_salt")."""
    return load_config(os.path.join(CONFIG_DIR, f"{name}.json"))


def reg_value(params, x, delta, kind, clean=None):
    """The summed regularizer at delta, as reg_grad_params_sum returns it
    beside its gradients."""
    return reg_grad_params_sum(params, x, delta, kind, clean)[2]


def _count_profile_events(fn, accept: Callable[[str, object], bool]) -> int:
    """Number of sys.setprofile events (event, arg) that accept takes while
    fn() runs. A count, not a timing, so it repeats exactly: the garbage
    collector is emptied first and paused while fn runs, so that no other
    code's garbage (say, a generator it finalizes) is counted."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if accept(event, arg):
            count += 1

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return count


def count_c_calls(fn, match: Callable[[object], bool]) -> int:
    """Number of calls of C functions or methods that match(callable) accepts
    while fn() runs, counted from sys.setprofile's c_call events."""
    return _count_profile_events(fn, lambda event, arg: event == "c_call" and match(arg))


def count_python_calls(fn) -> int:
    """Number of Python-level calls while fn() runs: sys.setprofile's call
    events (Python functions, generator resumptions included) plus its c_call
    events (C functions and methods). numpy's own Python wrappers count, so
    the figure belongs to one numpy and one Python version. Operators
    (a @ b, a + b) raise no event, so the figure skips them: a step's cost
    is its calls and its products, and ndarray.dot counts where @, which
    costs more, does not."""
    return _count_profile_events(fn, lambda event, arg: event in ("call", "c_call"))


def count_reductions(fn) -> int:
    """Number of numpy reductions fn() makes: calls of a ufunc's reduce
    method, which ndarray.sum, max, mean, all and the np.* reductions all
    reach."""
    return count_c_calls(
        fn, lambda c: c.__name__ == "reduce" and isinstance(getattr(c, "__self__", None), np.ufunc)
    )


def count_minor_faults(code: str, setup: str = "") -> int:
    """Minor page faults (getrusage's ru_minflt) taken by one run of code
    after setup and one warm-up run, in a fresh interpreter started from the
    repository root with PYTHONPATH=src. A fresh process, because glibc's
    dynamic mmap threshold moves with the allocation history of the process
    that runs the code."""
    script = "\n".join(
        (
            "import resource",
            textwrap.dedent(setup),
            "def run():",
            textwrap.indent(textwrap.dedent(code), "    "),
            "run()",
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "run()",
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
        )
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT, env=env, check=True
    )
    return int(proc.stdout)


def save_csv(batch: Batch, path: str) -> None:
    """Feature columns then a target column, floats at 17 significant digits."""
    d = batch.inputs.shape[1]
    is_class = np.issubdtype(batch.targets.dtype, np.integer)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(d)] + ["target"])
        for i in range(batch.n):
            row = [format(v, ".17g") for v in batch.inputs[i]]
            row.append(str(int(batch.targets[i])) if is_class else format(batch.targets[i], ".17g"))
            writer.writerow(row)


def quadratic_objective(a_mat: np.ndarray, b_mat: np.ndarray) -> Callable[[np.ndarray], Linearize]:
    """theta -> g(., theta), with
    g(delta, theta) = 0.5 * flat(delta)^T A flat(delta) + theta^T B^T flat(delta).

    A is (D, D) symmetric, B is (D, P). Gradients and Hessians are exact:
    d g / d delta = A flat(delta) + B theta, d g / d theta = B^T flat(delta),
    d2 g / d delta^2 = A, and the mixed matrix [i, j] = B[i, j], so the
    tangent map along u is (B^T flat(u), A flat(u), 0.0) everywhere: the
    objective has no clean branch, so its clean-output seed is 0.0.
    """
    a_mat = np.asarray(a_mat, dtype=np.float64)
    b_mat = np.asarray(b_mat, dtype=np.float64)
    if not np.allclose(a_mat, a_mat.T):
        raise ValueError("A must be symmetric")

    def _grad_delta(delta: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return (a_mat @ delta.ravel() + b_mat @ theta).reshape(delta.shape)

    def _tangent(u: np.ndarray, curv: bool = True) -> tuple[np.ndarray, np.ndarray, float]:
        return b_mat.T @ u.ravel(), (a_mat @ u.ravel()).reshape(u.shape), 0.0

    return lambda theta: lambda delta: (_grad_delta(delta, theta), _tangent)


def random_quadratic(
    rng: np.random.Generator, n: int, d: int, p: int, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], Linearize]]:
    """Random symmetric A and dense B, returned with the objective as a
    function of theta."""
    big_d = n * d
    raw = rng.normal(size=(big_d, big_d)) * scale
    a_mat = 0.5 * (raw + raw.T)
    b_mat = rng.normal(size=(big_d, p)) * scale
    return a_mat, b_mat, quadratic_objective(a_mat, b_mat)
