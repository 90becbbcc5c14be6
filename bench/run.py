"""Benchmark of the salt trainer: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload salt-canonical --seed 0 --seconds 25 --trace 0

Workloads: salt-canonical, flat-canonical, depth-sweep, gradcheck (see
bench/workloads.py and BENCHMARK.json for why each exists). The program is
imported from ./src and configs/canonical_salt.json is read as shipped.

A run times set-up in fresh interpreters, then repeats the workload's pass
(closed loop) until --seconds have elapsed, checks every output, and prints
the environment, one ``metric <name> <value> <unit>`` line per metric, and
finally one JSON object with the keys correct, attempted, failed and metrics.

Pass times in the result line are scaled to a nominal host speed by a
reference kernel sampled during the run (bench/hostspeed.py), because the
speed of a shared VM drifts by up to ~1.7x. The depth sweep, which runs two
threads, is scaled by two-thread bursts of that kernel timed between its passes.
Set-up, which is mostly process start and imports, does not track the kernel
and reports raw times. Raw times and the host factor are printed.

--trace 0 reports the end-to-end metrics, measured with no tracing.
--trace 1 runs one untraced pass, then traced passes for --seconds, then the
layer microbenchmarks, and reports the per-layer metrics, including the
tracing overhead. Per-layer metrics read 0 on a workload that does not
exercise that layer.

Exit status: 0 when every check passed, 1 when one failed (the result line is
still printed), 2 when the program or its config cannot be found (no result
line).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import numpy as np
from hostspeed import HostSampler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

WORKLOAD_NAMES = ("salt-canonical", "flat-canonical", "depth-sweep", "gradcheck")


def _fail_early(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Put ./src first on the path and make sure salt really comes from there."""
    if not os.path.isfile(os.path.join(SRC, "salt", "__init__.py")):
        _fail_early(f"no salt package under {SRC}")
    sys.path.insert(0, SRC)
    import salt

    if not os.path.abspath(salt.__file__).startswith(SRC + os.sep):
        _fail_early(f"salt imported from {salt.__file__}, not from {SRC}")


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, 0 for an empty list."""
    if not values:
        return 0.0
    return float(np.quantile(values, q))


# ---------- environment and set-up ----------


def environment() -> dict:
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = f"{cfg['Build Dependencies']['blas']['name']} {cfg['Build Dependencies']['blas']['version']}"
    except (TypeError, KeyError):
        pass
    env = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SALT_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        **env,
    }


def time_setup(seed: int, host: HostSampler) -> tuple[list[float], str]:
    """Wall times of fresh interpreters importing salt and building the
    canonical point (config, dataset, init, first batch). One warm-up run is
    discarded so byte-compilation is not counted."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--seed", str(seed)]
    samples, prints = [], set()
    for i in range(SETUP_REPEATS + 1):
        spent, t0 = host.spent, time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - t0 - (host.spent - spent)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        prints.add(proc.stdout.strip())
        if i > 0:
            samples.append(elapsed)
    fingerprint = prints.pop() if len(prints) == 1 else "inconsistent:" + ",".join(sorted(prints))
    return samples, fingerprint


# ---------- the measured loop ----------


def run_passes(workload, seconds: float, host: HostSampler, tracer=None) -> tuple[list, list[float], list[tuple]]:
    """Closed loop: passes back to back until `seconds` have elapsed (at least one).
    Pass times exclude the host sampler's own time; a threaded workload has
    the host timed in a burst before each pass and after the last. Stops at
    the first pass that raises and reports it as a failed check."""
    threaded = workload.threads > 1
    results, walls, errors = [], [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        try:
            with tracer.pass_scope() if tracer else contextlib.nullcontext():
                with host.paused() if threaded else contextlib.nullcontext():
                    if threaded:
                        host.burst(workload.threads)
                    spent, t0 = host.spent, time.perf_counter()
                    res = workload.run_pass()
                    walls.append(time.perf_counter() - t0 - (host.spent - spent))
        except Exception as exc:  # the benchmark reports the failure instead of dying
            errors.append(("pass raised", False, f"{type(exc).__name__}: {exc}"))
            break
        results.append(res)
    if threaded:
        with host.paused():
            host.burst(workload.threads)
    return results, walls, errors


def repeat_checks(results: list, label: str) -> list[tuple]:
    outputs = {r.outputs for r in results}
    return [(f"{label} passes reproduce their outputs", len(outputs) <= 1, f"{len(results)} passes")]


# ---------- end-to-end metrics ----------

def end_to_end(results: list, walls: list[float], setup_s: float, factor: float) -> dict:
    """Pass times scaled to the nominal host speed by `factor` (see hostspeed.py).
    Every pass of a run does the same work, so the mean pass is the run's figure.
    setup_s is the median raw probe time."""
    ops = sum(r.ops for r in results)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.fmean(walls) * factor if walls else 0.0, "s"),
        "ops_per_s": (ops / (sum(walls) * factor) if walls else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def detail_metrics(name: str, results: list, walls: list[float]) -> list[tuple[str, float, str]]:
    """The workload-specific metrics printed alongside the end-to-end ones,
    as measured on this host (not scaled to the nominal speed)."""
    if not results:
        return []
    out = []
    total_wall = sum(walls)
    if name == "gradcheck":
        instances = sum(r.runs for r in results)
        out.append(("gradcheck_instances_per_s", instances / total_wall, "1/s"))
    else:
        epoch_ms = [s * 1e3 for r in results for s in r.epoch_s]
        out += [
            ("train_steps_per_s", sum(r.steps for r in results) / total_wall, "1/s"),
            ("epoch_ms_p50", _quantile(epoch_ms, 0.5), "ms"),
            ("epoch_ms_p95", _quantile(epoch_ms, 0.95), "ms"),
            ("epoch_samples", float(len(epoch_ms)), "count"),
        ]
    units = {"val_acc_final": "ratio", "gradcheck_accept_frac": "ratio"}
    out += [(k, v, units.get(k, "loss" if k.startswith("val_loss") else "rel")) for k, v in results[0].quality.items()]
    return out


# ---------- per-layer metrics ----------


def per_layer(tracer, traced: list, untraced, overhead: float, micro: dict, factor: float) -> dict:
    """Per-layer metrics of a traced run. Times are multiplied by `factor`, the
    run's host factor, so they compare across runs like the end-to-end ones."""
    summary = tracer.summary()
    steps = tracer.steps()
    n_steps = len(steps)
    epochs = sum(r.epochs for r in traced)
    passes = len(traced)
    m: dict[str, tuple[float, str]] = {}

    def calls_per_step(label: str) -> float:
        return sum(s.counts[label] for s in steps) / n_steps if n_steps else 0.0

    def self_ms_per_step(label: str) -> float:
        return 1e3 * sum(s.self_time[label] for s in steps) / n_steps if n_steps else 0.0

    def total_ms_per_step(label: str) -> float:
        return 1e3 * sum(s.total_time[label] for s in steps) / n_steps if n_steps else 0.0

    def stat(label: str, key: str) -> float:
        return summary.get(label, {}).get(key, 0.0)

    def put(name: str, value: float, unit: str) -> None:
        m[name] = (float(value) * (factor if unit in ("ms", "s", "us") else 1.0), unit)

    # stackelberg
    for fn in ("interaction_adjoint", "hvp_fd", "unroll_forward"):
        put(f"stackelberg.{fn}.calls_per_step", calls_per_step(f"stackelberg.{fn}"), "count")
        put(f"stackelberg.{fn}.self_ms_per_step", self_ms_per_step(f"stackelberg.{fn}"), "ms")
    run_s = stat("harness.experiment.run_experiment", "total_s")
    put(
        "stackelberg.interaction_share",
        stat("stackelberg.interaction_adjoint", "total_s") / run_s if run_s else 0.0,
        "ratio",
    )
    put("stackelberg.leader_ms_per_step", total_ms_per_step("vat.vat_gradient"), "ms")
    salt_steps = untraced.step_stats
    for phase in ("t_unroll", "t_gradient", "t_update"):
        put(f"stackelberg.{phase}_ms", 1e3 * _quantile([s[phase] for s in salt_steps], 0.5), "ms")
    put(
        "stackelberg.degenerate_frac",
        sum(bool(s["degenerate_interaction"]) for s in salt_steps) / len(salt_steps) if salt_steps else 0.0,
        "ratio",
    )

    # regularizers and diffmodel gradient evaluations
    evals = ("regularizers.reg_grad_delta_sum", "regularizers.reg_grad_params_sum", "diffmodel.grad_params")
    put("regularizers.grad_evals_per_step", sum(calls_per_step(f) for f in evals), "count")
    for fn in evals:
        put(f"{fn}.calls_per_step", calls_per_step(fn), "count")
        put(f"{fn}.self_ms_per_step", self_ms_per_step(fn), "ms")
    eval_calls = sum(s.counts[f] for s in steps for f in evals)
    put(
        "regularizers.duplicate_eval_frac",
        sum(s.repeats[f] for s in steps for f in evals) / eval_calls if eval_calls else 0.0,
        "ratio",
    )
    for fn in ("mlp_forward", "_forward", "_backward"):
        put(f"diffmodel.{fn}.calls_per_step", calls_per_step(f"diffmodel.{fn}"), "count")
    fwd_calls = sum(s.counts["diffmodel._forward"] for s in steps)
    put(
        "diffmodel.duplicate_forward_frac",
        sum(s.repeats["diffmodel._forward"] for s in steps) / fwd_calls if fwd_calls else 0.0,
        "ratio",
    )

    # perturb, vat, optim
    for fn in ("project_rows", "project_jvp_rows"):
        put(f"perturb.{fn}.self_ms_per_step", self_ms_per_step(f"perturb.{fn}"), "ms")
    for fn in ("vat_training_step", "adv_training_step"):
        calls = stat(f"vat.{fn}", "calls")
        put(f"vat.{fn}.self_ms_per_call", 1e3 * stat(f"vat.{fn}", "self_s") / calls if calls else 0.0, "ms")
    put("optim.optimizer_step.self_ms_per_step", self_ms_per_step("optim.optimizer_step"), "ms")

    # calibration and the experiment loop, per epoch
    def per_epoch_ms(label: str, key: str) -> float:
        return 1e3 * stat(label, key) / epochs if epochs else 0.0

    put("calibration.bin_predictions.self_ms_per_epoch", per_epoch_ms("calibration.bin_predictions", "self_s"), "ms")
    put("harness.experiment.eval_ms_per_epoch", per_epoch_ms("harness.experiment._evaluate", "total_s"), "ms")
    put("harness.experiment.self_ms_per_epoch", per_epoch_ms("harness.experiment.run_experiment", "self_s"), "ms")
    epoch_ms = [s * 1e3 for s in untraced.epoch_s]
    put("harness.experiment.epoch_ms_p50", _quantile(epoch_ms, 0.5), "ms")
    put("harness.experiment.epoch_ms_p95", _quantile(epoch_ms, 0.95), "ms")
    put("harness.experiment.val_loss_final", untraced.quality.get("val_loss_final", 0.0), "loss")
    put("harness.experiment.val_acc_final", untraced.quality.get("val_acc_final", 0.0), "ratio")

    # sweep pool: runs started inside each sweep span, on any thread
    spans = tracer.spans()
    sweeps = [s for s in spans if s.name == "harness.sweep.sweep"]
    runs = [s for s in spans if s.name == "harness.experiment.run_experiment"]
    run_walls, waits, sweep_wall = [], [], 0.0
    for sw in sweeps:
        inside = [r for r in runs if sw.start <= r.start and r.end <= sw.end]
        run_walls += [r.end - r.start for r in inside]
        waits += [r.start - sw.start for r in inside]
        sweep_wall += sw.end - sw.start
    put("harness.sweep.run_s_p50", _quantile(run_walls, 0.5), "s")
    put("harness.sweep.queue_wait_s", statistics.fmean(waits) if waits else 0.0, "s")
    put("harness.sweep.concurrency", sum(run_walls) / sweep_wall if sweep_wall else 0.0, "ratio")

    # gradcheck
    put("gradcheck.total_objective.calls_per_pass", stat("gradcheck.total_objective", "calls") / passes, "count")
    put("gradcheck.hypergradient_fd.self_s_per_pass", stat("gradcheck.hypergradient_fd", "self_s") / passes, "s")
    quality = {
        "accept_frac": ("gradcheck_accept_frac", "ratio"),
        "max_rel_err": ("gradcheck_max_rel_err", "rel"),
        "interaction_rel_err": ("interaction_rel_err", "rel"),
        "canonical_total_rel_err": ("canonical_total_rel_err", "rel"),
    }
    for name, (key, unit) in quality.items():
        put(f"gradcheck.{name}", untraced.quality.get(key, 0.0), unit)

    # tracing overhead and microbenchmarks
    put("trace.overhead_ratio", overhead, "ratio")
    for name, us in micro.items():
        put(f"micro.{name}.us_per_call", us, "us")
    return m


def print_step_counts(steps: list) -> None:
    """Mean calls per leader update, for each kind of step."""
    by_kind: dict[str, list] = {}
    for s in steps:
        by_kind.setdefault(s.name, []).append(s.counts)
    for kind, counts in sorted(by_kind.items()):
        total = sum(counts, Counter())
        mean = {k: v / len(counts) for k, v in sorted(total.items())}
        print(f"counts {kind} steps={len(counts)} {json.dumps(mean)}")


def call_count_checks(pass_counts: list) -> list[tuple]:
    """Call counts must repeat exactly from one traced pass to the next."""
    if len(pass_counts) < 2:
        return []
    differ = sorted({k for c in pass_counts[1:] for k in set(c) | set(pass_counts[0]) if c[k] != pass_counts[0][k]})
    return [("traced passes make identical call counts", not differ, ", ".join(differ) or f"{len(pass_counts)} passes")]


# ---------- main ----------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="shorten every workload to a few epochs and instances")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "configs", "canonical_salt.json")):
        _fail_early("configs/canonical_salt.json is missing")
    _import_program()
    from workloads import canonical_point, make_workload

    if args.setup_probe:
        print(canonical_point(ROOT, args.seed).fingerprint())
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    checks: list[tuple] = []
    with HostSampler() as host, tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        try:
            setup_walls, fingerprint = time_setup(args.seed, host)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            setup_walls, fingerprint = [], str(exc)
        setup_samples = len(host.samples)
        expected = canonical_point(ROOT, args.seed).fingerprint()
        checks.append(("set-up probes build the canonical point", fingerprint == expected, fingerprint[:200]))

        workload = make_workload(args.workload, ROOT, args.seed, tmp, args.smoke)
        traced, walls = [], []
        if args.trace:
            from micro import run_micro
            from tracing import Tracer

            base, base_walls, errors = run_passes(workload, 0.0, host)
            tracer = Tracer()
            if base and not errors:
                traced, walls, errors = run_passes(workload, args.seconds, host, tracer)
            results = base + traced
            if tracer.missing:
                print("trace missing " + " ".join(tracer.missing))
            if traced:
                micro = run_micro(canonical_point(ROOT, args.seed), args.seed)
        else:
            results, walls, errors = run_passes(workload, args.seconds, host)
        checks += errors
    factor = host.factor(first=setup_samples) if workload.threads == 1 else host.burst_factor()
    setup_factor = host.factor(last=setup_samples)
    print(f"setup raw_s {json.dumps([round(s, 4) for s in setup_walls])} host factor {setup_factor!r}")
    print(f"passes raw_s {json.dumps([round(w, 4) for w in walls])} host factor {factor!r}")
    for r in results:
        checks += r.checks
    checks += repeat_checks(results, args.workload)

    if traced:
        untraced = base[0]
        for t in traced:
            same = (t.steps, t.epochs, t.runs, t.ops) == (untraced.steps, untraced.epochs, untraced.runs, untraced.ops)
            checks.append(("traced pass matches untraced counts", same, f"{t.steps} steps, {t.ops} ops"))
        checks += call_count_checks(tracer.pass_counts)
        overhead = statistics.fmean(walls) / base_walls[0]
        metrics = per_layer(tracer, traced, untraced, overhead, micro, factor)
        print_step_counts(tracer.steps())
    else:
        setup_s = statistics.median(setup_walls) if setup_walls else 0.0
        metrics = end_to_end(results, walls, setup_s, factor)
        for name, value, unit in detail_metrics(args.workload, results, walls):
            print(f"metric {name} {value!r} {unit}")

    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        if not ok:
            print(f"check FAILED: {name}: {detail}")
    print(f"checks {len(checks) - len(failed)}/{len(checks)} passed; failed_frac {len(failed) / len(checks)!r}")
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    correct = not failed and finite and bool(results)
    result = {
        "correct": correct,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
