"""Adversarial regularization as a leader/follower game.

The leader updates model parameters against an adversary that perturbs the
inputs by a few steps of projected gradient ascent on a divergence between
clean and perturbed predictions. The leader's gradient either treats the
perturbation as a constant (the flat baseline) or differentiates through the
unrolled ascent (the anticipating variant).
"""

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
    StackelbergGrad,
    UnrollTape,
    interaction_adjoint,
    make_adv_objective,
    salt_training_step,
    stackelberg_gradient,
    unroll_forward,
    vat_gradient,
)
from .vat import vat_training_step
from .calibration import CalibrationReport, bin_predictions, confidence_of

__version__ = "0.1.0"

__all__ = [
    "AdvConfig",
    "Batch",
    "CalibrationReport",
    "ContractViolation",
    "ForwardPass",
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
    "salt_training_step",
    "sample_init",
    "save_checkpoint",
    "stackelberg_gradient",
    "task_loss",
    "unroll_forward",
    "vat_gradient",
    "vat_training_step",
]
