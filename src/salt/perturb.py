"""Perturbation lifecycle: Gaussian init, norm-ball projection, projected ascent.

Each example carries its own perturbation row, constrained independently
(per-example norm ball). The projection is exact, and so is the Jacobian
that differentiation through the ascent applies.

Every method's follower runs the same ascent (`ascend`); they differ only in
the gradient they climb and in whether the leader differentiates through it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, Sequence

import numpy as np

from .diffmodel import Array
from .errors import ContractViolation, require_int, require_real, require_str

# Norms within this relative slack of epsilon count as already projected, so
# re-projecting a projected vector is a bit-exact no-op.
_PROJ_SLACK = 1e-12


class NormKind(str, Enum):
    L2 = "L2"
    LINF = "LInf"


# The exact projection Jacobian is the one mode: AdvConfig.proj_mode is a
# class constant, not a setting. Both stay while bench/micro.py reads it.
class ProjMode(str, Enum):
    EXACT_JACOBIAN = "ExactJacobian"


@dataclass(frozen=True)
class AdvConfig:
    """Knobs for the inner maximization.

    alpha weights the regularizer in the outer objective, epsilon is the
    per-example ball radius, eta the ascent step size, sigma the init scale,
    k_steps the number of ascent steps.
    """

    alpha: float = 1.0
    epsilon: float = 1.0
    eta: float = 1e-3
    sigma: float = 1e-4
    k_steps: int = 2
    norm: NormKind = NormKind.L2
    proj_mode: ClassVar[ProjMode] = ProjMode.EXACT_JACOBIAN

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("sigma", self.sigma), ("eta", self.eta)):
            if require_real(name, value) < 0:
                raise ContractViolation(f"{name} must be non-negative, got {value!r}")
        if require_real("epsilon", self.epsilon) <= 0:
            raise ContractViolation(f"epsilon must be positive, got {self.epsilon!r}")
        require_int("k_steps", self.k_steps, 0)
        require_str("norm", self.norm, tuple(member.value for member in NormKind))
        object.__setattr__(self, "norm", NormKind(self.norm))


@dataclass(frozen=True)
class Perturbation:
    """Perturbation rows (n, d), or a stack of them (m, n, d)."""

    values: Array

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim not in (2, 3):
            raise ContractViolation("perturbation values must be an (n, d) matrix or a stack of them")


Rng = np.random.Generator | int


def _generator(rng: Rng) -> np.random.Generator:
    return np.random.default_rng(int(rng)) if isinstance(rng, (int, np.integer)) else rng


def sample_init(sigma: float, shape: tuple[int, ...], rng: Rng | Sequence[Rng]) -> Perturbation:
    """i.i.d. N(0, sigma^2) entries, not yet projected. An int rng seeds a
    fresh generator. A stack shape (m, n, d) takes a sequence of m rngs and
    draws member i's (n, d) from the i-th, as a lone draw from it would."""
    if require_real("sigma", sigma) < 0:
        raise ContractViolation(f"sigma must be non-negative, got {sigma!r}")
    lone = isinstance(rng, (int, np.integer, np.random.Generator))
    if len(shape) == 3:
        if lone or len(rng) != shape[0]:
            raise ContractViolation("a stacked draw takes one rng per member")
        return Perturbation(values=np.stack([_generator(g).standard_normal(shape[1:]) for g in rng]) * sigma)
    if not lone:
        raise ContractViolation("a lone draw takes one rng")
    return Perturbation(values=_generator(rng).standard_normal(shape) * sigma)


# ---------- projection ----------


def project_rows(values: Array, epsilon: float, norm: NormKind) -> Array:
    """Project each row (last axis) onto the epsilon ball; values may be (n, d)
    or an (m, n, d) stack. Idempotent bit-exactly."""
    if require_real("epsilon", epsilon) <= 0:
        raise ContractViolation(f"epsilon must be positive, got {epsilon!r}")
    if norm == NormKind.L2:
        norms = np.sqrt(np.add.reduce(values**2, axis=-1))
        scale = np.where(norms > epsilon * (1.0 + _PROJ_SLACK), epsilon / np.maximum(norms, 1e-300), 1.0)
        return values * scale[..., None]
    if norm == NormKind.LINF:
        return np.clip(values, -epsilon, epsilon)
    raise ContractViolation(f"unknown norm: {norm!r}")


def project_jvp_rows(
    values: Array, tangent: Array, epsilon: float, norm: NormKind, mode: ProjMode
) -> Array:
    """Apply the projection Jacobian at each row of values to the matching tangent row.

    The Jacobian is symmetric for both norms, so this serves as both the
    forward (JVP) and transposed (VJP) map. At the measure-zero kink where a
    row sits exactly on the boundary, the interior branch is used.
    """
    if tangent.shape != values.shape:
        raise ContractViolation("tangent must match the perturbation shape")
    if require_real("epsilon", epsilon) <= 0:
        raise ContractViolation(f"epsilon must be positive, got {epsilon!r}")
    if mode != ProjMode.EXACT_JACOBIAN:
        raise ContractViolation(f"unknown projection mode: {mode!r}")
    if norm == NormKind.L2:
        norms = np.sqrt(np.add.reduce(values**2, axis=-1, keepdims=True))
        active = norms > epsilon * (1.0 + _PROJ_SLACK)
        nrm = np.where(active, norms, 1.0)  # inactive rows: any finite norm; their result is discarded
        radial = np.add.reduce(values * tangent, axis=-1, keepdims=True) / nrm**2
        return np.where(active, (epsilon / nrm) * (tangent - values * radial), tangent)
    if norm == NormKind.LINF:
        return np.where(np.abs(values) > epsilon, 0.0, tangent)
    raise ContractViolation(f"unknown norm: {norm!r}")


# ---------- projected ascent ----------


def ascend(
    grad_delta: Callable[[Array], Array], delta0: Array, cfg: AdvConfig
) -> tuple[list[Array], list[Array]]:
    """k_steps of projected gradient ascent from delta0 on the objective whose
    delta gradient is grad_delta.

    Returns the K+1 iterates (delta0 first, as given, never projected) and
    the K pre-projection points, at which the projection Jacobian acts when
    the ascent is differentiated. grad_delta may return a stack (m, n, d) for
    an (n, d) delta0; the iterates after the first are then stacks too.
    """
    cur = delta0
    deltas = [cur]
    pres: list[Array] = []
    for _ in range(cfg.k_steps):
        pre = cur + cfg.eta * grad_delta(cur)
        cur = project_rows(pre, cfg.epsilon, cfg.norm)
        pres.append(pre)
        deltas.append(cur)
    return deltas, pres
