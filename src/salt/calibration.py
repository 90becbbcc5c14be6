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


def _equal_width_index(confidences: Array, m_bins: int) -> Array:
    """Each confidence's bin among m_bins equal-width bins ((m-1)/M, m/M],
    with 0 in the first."""
    return np.clip(np.ceil(confidences * m_bins).astype(np.int64) - 1, 0, m_bins - 1)


def _bin_gaps(
    confidences: Array, flags: Array, idx: Array, m_bins: int
) -> tuple[list[tuple[int, float, float, float]], float]:
    """Each bin's (count, mean confidence, accuracy, |accuracy - mean
    confidence|), all zero for an empty bin, and the ece: the count-weighted
    sum of the gaps, accumulated in bin order. One grouping pass: a stable
    sort keeps each bin's confidences in input order, so summing its
    contiguous slice matches confidences[idx == m].sum() bit for bit. The
    flags are 0/1 (bool or float), so bincount sums them exactly."""
    n = confidences.size
    counts = np.bincount(idx, minlength=m_bins).tolist()
    hits = np.bincount(idx, weights=flags, minlength=m_bins).tolist()
    grouped = confidences[np.argsort(idx, kind="stable")]
    rows: list[tuple[int, float, float, float]] = []
    ece = 0.0
    lo = 0
    for count, hit in zip(counts, hits):
        if count == 0:  # adds 0.0 to a non-negative ece, which leaves it as it is
            rows.append((0, 0.0, 0.0, 0.0))
            continue
        mean_conf = float(np.add.reduce(grouped[lo : lo + count])) / count
        acc = hit / count
        gap = abs(acc - mean_conf)
        lo += count
        rows.append((count, mean_conf, acc, gap))
        ece += (count / n) * gap
    return rows, ece


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
    if equal_mass:
        edges = np.quantile(confidences, np.linspace(0.0, 1.0, m_bins + 1))
        edges[0] = 0.0
        edges[-1] = 1.0
        # right-closed bins over the quantile edges
        idx = np.searchsorted(edges[1:-1], confidences, side="left")
    else:
        edges = np.linspace(0.0, 1.0, m_bins + 1)
        idx = _equal_width_index(confidences, m_bins)
    rows, ece = _bin_gaps(confidences, flags, idx, m_bins)
    bins = tuple(BinStats(float(edges[m]), float(edges[m + 1]), *row) for m, row in enumerate(rows))
    return CalibrationReport(bins=bins, ece=ece, n=confidences.size)


def equal_width_ece(confidences: Array, correct: Array, m_bins: int = 10) -> float:
    """bin_predictions(confidences, correct, m_bins).ece, bit for bit, without
    its checks, its bins or their edges: for confidences in [0, 1] and 0/1
    (or bool) flags of matching shape, such as a training run's test pass
    gives every epoch."""
    return _bin_gaps(confidences, correct, _equal_width_index(confidences, m_bins), m_bins)[1]


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
