"""Host-speed reference, so timings taken on a shared machine compare across runs.

On a shared 2-core VM the speed of the whole guest changes with the load of
other tenants: identical training runs measured there alternate between two
speeds about 1.7x apart, switching anywhere from sub-second to minutes apart,
so a whole benchmark run can land mostly in either. While a run measures, a
timer signal interrupts it every _INTERVAL_S and times a short fixed kernel;
the mean of those samples tracks the slowdown the program saw, and the time
spent in them is taken back out of every measured interval. Scaling by the
mean sample leaves what the program itself changed. (For a one-thread
workload, timing a longer kernel only between passes did worse: a few point
samples miss the switches.) A workload that runs Python threads is not
sampled inside its passes (see `paused`); it runs the kernel in as many
threads at once before each pass instead (see `burst`).

The kernel is a 2-32-32-2 tanh MLP forward and backward pass at batch 25
written here in plain numpy, the same mix of small matrix products and
per-call interpreter overhead as salt's training step. It imports nothing
from salt, so a change to the program never changes the reference.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import threading
import time

import numpy as np

# Timings are reported as if one kernel sample took this long.
NOMINAL_SAMPLE_S = 0.0007
# ... and as if a two-thread burst took this long per kernel call: on a 2-core
# x86_64 VM a two-thread burst ran about 2.4x the one-thread sample time.
NOMINAL_BURST_S = 0.0017
_ITERATIONS = 20
_INTERVAL_S = 0.1
_BURST = 20
_BURST_SETTLE_S = 0.02


def _kernel(x, w1, w2, w3) -> float:
    acc = 0.0
    for _ in range(_ITERATIONS):
        h1 = np.tanh(x @ w1)
        h2 = np.tanh(h1 @ w2)
        out = h2 @ w3
        g = out - out.mean(axis=0)
        g2 = (g @ w3.T) * (1.0 - h2**2)
        g1 = (g2 @ w2.T) * (1.0 - h1**2)
        acc += float(g1[0, 0]) + float((h1.T @ g2).sum())
    return acc


class HostSampler:
    """Samples the host speed from a SIGALRM handler while the block runs.

    `spent` is the total time taken by samples, to subtract from measured
    intervals; `factor()` turns seconds measured during the block into
    seconds at the nominal speed. Main thread only, like every signal handler.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._arrays = tuple(rng.standard_normal(s) for s in ((25, 2), (2, 32), (32, 32), (32, 2)))
        self.samples: list[float] = []
        self.bursts: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _kernel(*self._arrays)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "HostSampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, _INTERVAL_S, _INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    @contextlib.contextmanager
    def paused(self):
        """No samples inside the block: a sample taken while other Python
        threads run would time their contention for the interpreter lock
        (about 10x slower on the depth sweep), not the host. Samples right
        after such a block are no better (BLAS threads still spin), so a
        threaded workload is scaled by `burst` samples instead."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, _INTERVAL_S, _INTERVAL_S)

    def burst(self, threads: int) -> None:
        """Run the kernel _BURST times in each of `threads` Python threads at
        once and keep the wall time per kernel call. Called between the passes
        of a threaded workload, with the timer paused and after a short sleep
        so the pass's threads have gone idle. Threads contending for the
        interpreter lock slow down with the host far more than one thread
        does, so only a burst with the workload's own thread count tracks it:
        over runs of the depth sweep, scaling by one-thread samples spread
        about 0.15 (IQR/median) and by two-thread bursts about 0.03."""
        time.sleep(_BURST_SETTLE_S)

        def work() -> None:
            for _ in range(_BURST):
                _kernel(*self._arrays)

        workers = [threading.Thread(target=work) for _ in range(threads)]
        t0 = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        self.bursts.append((time.perf_counter() - t0) / (_BURST * threads))

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Scale for seconds measured while samples[first:last] were taken."""
        return NOMINAL_SAMPLE_S / statistics.fmean(self.samples[first:last])

    def burst_factor(self) -> float:
        """Scale for seconds measured between the bursts."""
        return NOMINAL_BURST_S / statistics.fmean(self.bursts)
