"""Adversarial regularization as a leader/follower game.

The leader updates model parameters against an adversary that perturbs the
inputs by a few steps of projected gradient ascent on a divergence between
clean and perturbed predictions. The leader's gradient either treats the
perturbation as a constant (the flat baseline) or differentiates through the
unrolled ascent (the anticipating variant).
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

from .diffmodel import (
    Batch,
    ForwardPass,
    ModelParams,
    grad_params,
    init_params,
    load_checkpoint,
    mlp_forward,
    save_checkpoint,
    task_loss,
)
from .errors import ContractViolation
from .perturb import AdvConfig, NormKind, Perturbation, ProjMode, ascend, sample_init
from .regularizers import RegularizerKind
from .stackelberg import (
    Method,
    StackelbergGrad,
    UnrollTape,
    interaction_adjoint,
    make_adv_objective,
    stackelberg_gradient,
    training_step,
    unroll_forward,
)
from .calibration import CalibrationReport, bin_predictions, confidence_of

__version__ = "0.1.0"

__all__ = [
    "AdvConfig",
    "Batch",
    "CalibrationReport",
    "ContractViolation",
    "ForwardPass",
    "Method",
    "ModelParams",
    "NormKind",
    "Perturbation",
    "ProjMode",
    "RegularizerKind",
    "StackelbergGrad",
    "UnrollTape",
    "ascend",
    "bin_predictions",
    "confidence_of",
    "grad_params",
    "init_params",
    "interaction_adjoint",
    "load_checkpoint",
    "make_adv_objective",
    "mlp_forward",
    "sample_init",
    "save_checkpoint",
    "stackelberg_gradient",
    "task_loss",
    "training_step",
    "unroll_forward",
]
