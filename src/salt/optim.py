"""Pure-functional SGD and Adam over the flat parameter vector."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffmodel import Array, ModelParams
from .errors import ContractViolation


@dataclass(frozen=True)
class OptimizerState:
    kind: str  # "SGD" | "Adam"
    lr: float
    betas: tuple[float, float] = (0.9, 0.98)
    eps: float = 1e-8
    t: int = 0
    m: Array | None = None
    v: Array | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("SGD", "Adam"):
            raise ContractViolation(f"unknown optimizer kind: {self.kind!r}")
        # plain comparisons: adam_step rebuilds the state on every step
        if isinstance(self.lr, bool) or not 0 < self.lr < math.inf:
            raise ContractViolation(f"learning rate must be positive and finite, got {self.lr!r}")
        try:
            b1, b2 = self.betas
        except (TypeError, ValueError):
            raise ContractViolation(f"betas must be a pair, got {self.betas!r}") from None
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise ContractViolation(f"betas must lie in [0, 1), got {self.betas!r}")
        if isinstance(self.eps, bool) or not 0 <= self.eps < math.inf:
            raise ContractViolation(f"eps must be non-negative and finite, got {self.eps!r}")


def sgd_step(params: ModelParams, state: OptimizerState, grad: Array) -> tuple[ModelParams, OptimizerState]:
    return params.replace_values(params.values - state.lr * grad), state


def adam_step(params: ModelParams, state: OptimizerState, grad: Array) -> tuple[ModelParams, OptimizerState]:
    b1, b2 = state.betas
    m = state.m if state.m is not None else np.zeros_like(params.values)
    v = state.v if state.v is not None else np.zeros_like(params.values)
    t = state.t + 1
    m = b1 * m + (1.0 - b1) * grad
    v = b2 * v + (1.0 - b2) * grad**2
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    new_values = params.values - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params.replace_values(new_values), OptimizerState(state.kind, state.lr, state.betas, state.eps, t, m, v)


def optimizer_step(params: ModelParams, state: OptimizerState, grad: Array) -> tuple[ModelParams, OptimizerState]:
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.values.shape:
        raise ContractViolation("gradient does not match the parameter vector")
    if state.kind == "SGD":
        return sgd_step(params, state, grad)
    return adam_step(params, state, grad)
