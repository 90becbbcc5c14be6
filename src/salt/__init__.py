"""Adversarial regularization as a leader/follower game: an adversary
perturbs the inputs by projected gradient ascent on a divergence between
clean and perturbed predictions, and the leader's gradient either treats
the perturbation as a constant (flat) or differentiates through the ascent
(anticipating). Import each name from the module that defines it: importing
salt itself only sets the heap thresholds below, before any submodule loads.
"""

import ctypes
import sys

# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep freed heap in this process. glibc's defaults serve arrays above
    a dynamic threshold with fresh mmaps and trim freed heap back to the
    kernel, so each stacked call faults its arrays in again (hundreds of
    minor faults per finite-difference chunk). Fixed thresholds of 32 MiB
    (mmap, glibc's 64-bit ceiling) and 64 MiB (trim) let the heap be
    reused. Other libcs are left alone: their mallopt, if any, numbers its
    parameters differently."""
    if sys.platform != "linux":
        return
    libc = ctypes.CDLL(None)
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap()
