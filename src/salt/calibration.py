"""Expected calibration error and reliability-diagram export.

Predictions are summarized by their top-class confidence. Bins partition
(0, 1] into M equal-width intervals ((m-1)/M, m/M]; a confidence of exactly 0
is assigned to the first bin by convention. Each bin contributes
|accuracy - mean confidence| weighted by its share of the data. An
equal-mass binning (quantile edges) is available as an alternative view.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .diffmodel import Array, ForwardPass
from .errors import ContractViolation, require_int

_CSV_HEADER = ["bin_lower", "bin_upper", "count", "mean_confidence", "accuracy", "calib_error"]


@dataclass(frozen=True)
class BinStats:
    lower: float
    upper: float
    count: int
    mean_confidence: float
    accuracy: float
    calib_error: float


@dataclass(frozen=True)
class CalibrationReport:
    bins: tuple[BinStats, ...]
    ece: float
    n: int


def confidence_of(fwd: ForwardPass) -> Array:
    """Top-class softmax probability per example. Classification heads only.
    The top entry of the pass's exp(out - max) is exp(0) = 1, so this is
    1 / S, bit for bit softmax(out).max(axis=1)."""
    if not fwd.is_classification:
        raise ContractViolation("confidence is only defined for classification outputs")
    return 1.0 / fwd.softmax_parts[2][..., 0]


def _validate(confidences: Array, correct: Array) -> tuple[Array, Array]:
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct)
    if confidences.ndim != 1 or confidences.size == 0:
        raise ContractViolation("confidences must be a non-empty vector")
    if correct.shape != confidences.shape:
        raise ContractViolation("correct flags must match the confidences")
    flags = correct.astype(np.float64)
    in_range = (confidences >= 0.0) & (confidences <= 1.0)
    # one scan over both checks; which one failed is sorted out only on failure
    if not np.all(in_range & ((flags == 0.0) | (flags == 1.0))):
        if not np.all(in_range):
            raise ContractViolation("confidences must lie in [0, 1]")
        raise ContractViolation("correct flags must be 0/1")
    return confidences, flags


def bin_predictions(
    confidences: Array,
    correct: Array,
    m_bins: int = 10,
    equal_mass: bool = False,
) -> CalibrationReport:
    """Aggregate per-bin accuracy and confidence; ece is the count-weighted sum
    of the per-bin gaps, accumulated in bin order."""
    require_int("m_bins", m_bins, 1)
    confidences, flags = _validate(confidences, correct)
    n = confidences.size
    if equal_mass:
        edges = np.quantile(confidences, np.linspace(0.0, 1.0, m_bins + 1))
        edges[0] = 0.0
        edges[-1] = 1.0
        # right-closed bins over the quantile edges
        idx = np.searchsorted(edges[1:-1], confidences, side="left")
    else:
        edges = np.linspace(0.0, 1.0, m_bins + 1)
        idx = np.ceil(confidences * m_bins).astype(np.int64) - 1
        idx = np.clip(idx, 0, m_bins - 1)
    # One grouping pass: a stable sort keeps each bin's confidences in input
    # order, so summing its contiguous slice matches confidences[idx == m].sum()
    # bit for bit. The flags are 0/1, so bincount sums them exactly.
    counts = np.bincount(idx, minlength=m_bins)
    hits = np.bincount(idx, weights=flags, minlength=m_bins)
    grouped = confidences[np.argsort(idx, kind="stable")]
    bins: list[BinStats] = []
    ece = 0.0
    lo = 0
    for m in range(m_bins):
        count = int(counts[m])
        if count == 0:
            mean_conf = 0.0
            acc = 0.0
            gap = 0.0
        else:
            mean_conf = float(grouped[lo : lo + count].sum()) / count
            acc = float(hits[m]) / count
            gap = abs(acc - mean_conf)
            lo += count
        bins.append(
            BinStats(
                lower=float(edges[m]),
                upper=float(edges[m + 1]),
                count=count,
                mean_confidence=mean_conf,
                accuracy=acc,
                calib_error=gap,
            )
        )
        ece += (count / n) * gap
    return CalibrationReport(bins=tuple(bins), ece=ece, n=n)


def write_reliability_csv(report: CalibrationReport, path: str) -> None:
    """One row per bin; floats at 17 significant digits so the file
    recombines to the reported ece exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for b in report.bins:
            writer.writerow(
                [
                    format(b.lower, ".17g"),
                    format(b.upper, ".17g"),
                    b.count,
                    format(b.mean_confidence, ".17g"),
                    format(b.accuracy, ".17g"),
                    format(b.calib_error, ".17g"),
                ]
            )


def read_predictions_csv(path: str) -> tuple[Array, Array]:
    """Read a predictions file with 'confidence' and 'correct' columns."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"confidence", "correct"} <= set(reader.fieldnames):
            raise ContractViolation("predictions CSV needs 'confidence' and 'correct' columns")
        conf: list[float] = []
        corr: list[float] = []
        for i, row in enumerate(reader, start=2):
            try:
                conf.append(float(row["confidence"]))
                corr.append(float(row["correct"]))
            except (TypeError, ValueError) as exc:
                raise ContractViolation(f"bad predictions row at line {i}: {row}") from exc
    if not conf:
        raise ContractViolation("predictions CSV is empty")
    return np.asarray(conf), np.asarray(corr)
