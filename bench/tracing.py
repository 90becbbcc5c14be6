"""Span and count tracing of the salt package, installed from outside it.

The tracer replaces functions at the module attributes where callers look
them up: every ``salt`` module attribute bound to a traced function object is
swapped for one wrapper, so ``salt.stackelberg.reg_grad_delta_sum`` (resolved
at call time by the closures of ``make_adv_objective``) and
``salt.regularizers.reg_grad_delta_sum`` both record. Each wrapper call
records a span (name, start, end, parent, self time) and counts the call
against the training step it runs inside, if any. Self time is the span's
duration minus the time covered by its child spans on the same thread.

Spans are kept per thread, so the sweep's worker threads record without a
lock. ``uninstall`` puts every original function back.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

# Traced functions per module. A name a module does not define is skipped, so
# a refactor that moves or deletes one degrades the trace instead of breaking it.
TRACED = {
    "salt.diffmodel": ("_forward", "_backward", "mlp_forward", "grad_params"),
    "salt.regularizers": ("reg_value_sum", "reg_grad_delta_sum", "reg_grad_params_sum"),
    "salt.perturb": ("sample_init", "project_rows", "project_jvp_rows"),
    "salt.stackelberg": ("unroll_forward", "interaction_adjoint", "hvp_fd", "salt_training_step"),
    "salt.vat": ("vat_gradient", "vat_training_step", "adv_training_step"),
    "salt.optim": ("optimizer_step",),
    "salt.calibration": ("bin_predictions",),
    "salt.harness.experiment": ("load_dataset", "run_experiment", "erm_training_step", "_evaluate"),
    "salt.harness.sweep": ("sweep",),
    "salt.gradcheck": ("hypergradient_fd", "total_objective"),
}

# One leader update each; calls made inside them are counted per step.
STEP_FUNCTIONS = frozenset(
    {
        "stackelberg.salt_training_step",
        "vat.vat_training_step",
        "vat.adv_training_step",
        "harness.experiment.erm_training_step",
    }
)

# Calls to these are keyed on their arguments so that a repeat of an earlier
# call inside the same step (identical inputs, identical result) is counted.
KEYED_FUNCTIONS = frozenset(
    {
        "diffmodel._forward",
        "diffmodel.grad_params",
        "regularizers.reg_grad_delta_sum",
        "regularizers.reg_grad_params_sum",
    }
)


def _digest(arg) -> object:
    """Hashable stand-in for one argument: array bytes, dataclass arrays, or repr."""
    if isinstance(arg, np.ndarray):
        return (arg.shape, hash(np.ascontiguousarray(arg).tobytes()))
    values = getattr(arg, "values", None)
    if isinstance(values, np.ndarray):  # ModelParams
        return _digest(values)
    inputs = getattr(arg, "inputs", None)
    if isinstance(inputs, np.ndarray):  # Batch
        return (_digest(inputs), _digest(arg.targets))
    return repr(arg)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the same thread's span list
    self_time: float


@dataclass
class StepRecord:
    """Calls made inside one leader update."""

    name: str
    counts: Counter
    self_time: dict  # seconds, exclusive of child spans
    total_time: dict  # seconds, inclusive
    repeats: Counter  # keyed calls whose arguments repeated an earlier call


@dataclass
class _ThreadState:
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)  # [span index, child time]
    step: StepRecord | None = None
    seen: set = field(default_factory=set)
    steps: list = field(default_factory=list)


class Tracer:
    """Installs wrappers on the salt package and collects their spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.pass_counts: list[Counter] = []  # calls per function, one entry per pass_scope

    # ---------- install / uninstall ----------

    def install(self) -> None:
        self.missing = []
        wrappers: dict[int, object] = {}
        salt_modules = [m for n, m in sorted(sys.modules.items()) if n == "salt" or n.startswith("salt.")]
        for mod_name, fn_names in TRACED.items():
            home = sys.modules.get(mod_name)
            for fn_name in fn_names:
                fn = getattr(home, fn_name, None)
                if not callable(fn):
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                label = f"{mod_name[len('salt.'):]}.{fn_name}"
                wrappers[id(fn)] = self._wrap(fn, label)
        for module in salt_modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def pass_scope(self):
        """Trace one pass and record how many calls each function got in it."""
        before = self.call_counts()
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
        self.pass_counts.append(self.call_counts() - before)

    # ---------- recording ----------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def _wrap(self, fn, label: str):
        is_step = label in STEP_FUNCTIONS
        keyed = label in KEYED_FUNCTIONS
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            step = st.step
            if step is not None:
                step.counts[label] += 1
                if keyed:
                    t_key = perf()
                    key = (label, tuple(_digest(a) for a in args), tuple(sorted((k, _digest(v)) for k, v in kwargs.items())))
                    if key in st.seen:
                        step.repeats[label] += 1
                    else:
                        st.seen.add(key)
                    if st.stack:  # hashing is tracer work: keep it out of the caller's self time
                        st.stack[-1][1] += perf() - t_key
            if is_step:
                st.step = StepRecord(label, Counter(), defaultdict(float), defaultdict(float), Counter())
                st.seen = set()
            parent = st.stack[-1][0] if st.stack else None
            frame = [len(st.spans), 0.0]
            st.spans.append(None)
            st.stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                st.stack.pop()
                duration = end - start
                self_time = duration - frame[1]
                st.spans[frame[0]] = Span(label, start, end, parent, self_time)
                if st.stack:
                    st.stack[-1][1] += duration
                if is_step:
                    st.steps.append(st.step)
                    st.step = step
                elif st.step is not None:
                    st.step.self_time[label] += self_time
                    st.step.total_time[label] += duration

        return traced

    # ---------- results ----------

    def spans(self) -> list[Span]:
        return [s for st in self._threads for s in st.spans if s is not None]

    def steps(self) -> list[StepRecord]:
        return [r for st in self._threads for r in st.steps]

    def call_counts(self) -> Counter:
        return Counter(s.name for s in self.spans())

    def summary(self) -> dict:
        """Per function: calls, inclusive seconds and self seconds over all spans."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s in self.spans():
            row = out[s.name]
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += s.self_time
        return dict(out)
