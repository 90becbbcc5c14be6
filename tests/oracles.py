"""Verification oracles, independent of the package's own derivatives.

- attach_fd_second_order: an inner objective's second-derivative matrices by
  central differences of its delta gradient, with tangent maps taken from them.
- adv_objectives: the production inner objective as a function of theta, the
  family attach_fd_second_order differentiates in theta.
- jacobian_forward_oracle: d delta_K / d theta as a dense matrix, by the
  forward recursion over such matrices.
- hvp_fd: a two-evaluation central-difference Hessian-vector probe.
- kl_divergence: KL(p || q) for two probability vectors.
- softmax, log_softmax: the softmax of a logit matrix written out, the
  reference for the parts a forward pass keeps.
- bin_predictions_masked: the reliability report by one boolean mask per bin,
  the reference for calibration.bin_predictions's single grouping pass.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from salt.calibration import BinStats, CalibrationReport, _validate
from salt.diffmodel import ModelParams
from salt.errors import ContractViolation
from salt.perturb import AdvConfig, NormKind
from salt.regularizers import RegularizerKind
from salt.stackelberg import Linearize, UnrollTape, make_adv_objective

# theta (P,) -> the inner objective at theta
Family = Callable[[np.ndarray], Linearize]
# delta (n, d) -> (hdd (D, D), hdt (D, P)) at one theta, D = n * d
Hess = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

_FD_STEP = 1e-6  # attach_fd_second_order's central-difference step
_ORACLE_SIZE_LIMIT = 1_000_000  # largest D * P Jacobian the forward oracle builds
_FD_RADIUS_SCALE = 1e-4  # hvp_fd's probe radius, relative to 1 + ||point||_inf


def _fd_jacobian(grad: Callable[[np.ndarray], np.ndarray], base: np.ndarray) -> np.ndarray:
    """Central-difference columns of the flat map grad around base."""
    cols = []
    for i in range(base.size):
        e = np.zeros(base.size)
        e[i] = _FD_STEP
        cols.append((grad(base + e) - grad(base - e)) / (2.0 * _FD_STEP))
    return np.stack(cols, axis=1)


def adv_objectives(params: ModelParams, x: np.ndarray, kind: RegularizerKind) -> Family:
    """theta -> make_adv_objective at theta, with its own clean pass."""
    return lambda theta: make_adv_objective(params.replace_values(theta), x, kind)


def attach_fd_second_order(family: Family, theta: np.ndarray) -> tuple[Linearize, Hess]:
    """(family(theta) with tangent maps that are products with the matrices,
    hess). hess(delta) -> (hdd, hdt) at theta, memoized on delta, so forward
    and reverse mode consume identical matrices. hdt holds the whole mixed
    derivative, clean branch included, so the maps' clean-output seed is 0.0."""
    obj = family(theta)
    cache = {}

    def hess(delta):
        key = delta.tobytes()
        if key not in cache:
            cache[key] = (
                _fd_jacobian(lambda z: obj(z.reshape(delta.shape))[0].ravel(), delta.ravel()),
                _fd_jacobian(lambda t: family(t)(delta)[0].ravel(), theta),
            )
        return cache[key]

    def linearize(delta):
        def tangent(u, curv=True):
            hdd, hdt = hess(delta)
            return hdt.T @ u.ravel(), (hdd.T @ u.ravel()).reshape(u.shape), 0.0

        return obj(delta)[0], tangent

    return linearize, hess


def jacobian_forward_oracle(
    tape: UnrollTape, params: ModelParams, x: np.ndarray, cfg: AdvConfig, hess: Hess
) -> np.ndarray:
    """d delta_K / d theta as a (D, P) matrix: J <- Pi'(J + eta (Hdd J + Hdt))
    over the tape's steps, with the matrices from hess at params, which
    must be where the tape was recorded."""
    n, d = tape.deltas[0].shape
    if n * d * params.n_params > _ORACLE_SIZE_LIMIT:
        raise ContractViolation(f"forward oracle refused: {n * d} x {params.n_params} Jacobian")
    jac = np.zeros((n * d, params.n_params))
    for prev, pre in zip(tape.deltas, tape.pre_projections):
        hdd, hdt = hess(prev)
        jac = _project_jacobian(pre, jac + cfg.eta * (hdd @ jac + hdt), cfg)
    return jac


def _project_jacobian(pre: np.ndarray, jac: np.ndarray, cfg: AdvConfig) -> np.ndarray:
    """Left-multiply the (D, P) Jacobian by the projection Jacobian at pre."""
    blocks = jac.reshape(*pre.shape, -1)
    if cfg.norm == NormKind.LINF:
        return (blocks * (np.abs(pre) <= cfg.epsilon)[:, :, None]).reshape(jac.shape)
    out = blocks.copy()
    norms = np.sqrt((pre**2).sum(axis=1))
    for i in np.nonzero(norms > cfg.epsilon * (1.0 + 1e-12))[0]:
        radial = pre[i] @ blocks[i] / norms[i] ** 2
        out[i] = (cfg.epsilon / norms[i]) * (blocks[i] - pre[i][:, None] * radial[None, :])
    return out.reshape(jac.shape)


def hvp_fd(grad_fn: Callable[[np.ndarray], np.ndarray], point: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Derivative of grad_fn at point along v by central differences: two
    evaluations along v / ||v|| at radius 1e-4 (1 + ||point||_inf), or one to
    size the zero result when v = 0."""
    point = np.asarray(point, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if point.ndim != 1 or v.shape != point.shape:
        raise ContractViolation("point and v must be matching flat vectors")
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        return np.zeros_like(grad_fn(point))
    r = _FD_RADIUS_SCALE * (1.0 + float(np.abs(point).max()))
    vhat = v / vnorm
    return (grad_fn(point + r * vhat) - grad_fn(point - r * vhat)) * (vnorm / (2.0 * r))


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) for two probability vectors; q must be strictly positive."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ContractViolation("p and q must be probability vectors of equal length")
    if np.any(q <= 0.0):
        raise ContractViolation("q must have strictly positive entries")
    pos = p > 0.0
    return float((p[pos] * (np.log(p[pos]) - np.log(q[pos]))).sum())


def softmax(logits: np.ndarray) -> np.ndarray:
    """exp(z - max) over its row sum, along the last axis."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """(z - max) less the log of exp(z - max)'s row sum, along the last axis."""
    s = logits - logits.max(axis=-1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def bin_predictions_masked(
    confidences: np.ndarray, correct: np.ndarray, m_bins: int = 10, equal_mass: bool = False
) -> CalibrationReport:
    """calibration.bin_predictions as a masked loop: each bin's mean
    confidence and accuracy are means over confidences[idx == m]."""
    if m_bins < 1:
        raise ContractViolation("need at least one bin")
    confidences, flags = _validate(confidences, correct)
    n = confidences.size
    if equal_mass:
        edges = np.quantile(confidences, np.linspace(0.0, 1.0, m_bins + 1))
        edges[0] = 0.0
        edges[-1] = 1.0
        idx = np.searchsorted(edges[1:-1], confidences, side="left")
    else:
        edges = np.linspace(0.0, 1.0, m_bins + 1)
        idx = np.clip(np.ceil(confidences * m_bins).astype(np.int64) - 1, 0, m_bins - 1)
    bins: list[BinStats] = []
    ece = 0.0
    for m in range(m_bins):
        mask = idx == m
        count = int(mask.sum())
        mean_conf = acc = gap = 0.0
        if count:
            mean_conf = float(confidences[mask].mean())
            acc = float(flags[mask].mean())
            gap = abs(acc - mean_conf)
        bins.append(BinStats(float(edges[m]), float(edges[m + 1]), count, mean_conf, acc, gap))
        ece += (count / n) * gap
    return CalibrationReport(bins=tuple(bins), ece=ece, n=n)
