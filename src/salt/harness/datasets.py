"""Synthetic desk-scale datasets and CSV loading.

Generators return (train, test) Batch pairs drawn from one seeded stream, so
a fixed seed pins both splits.
"""
from __future__ import annotations

import csv
import math

import numpy as np

from ..diffmodel import Array, Batch
from ..errors import ContractViolation, require_int, require_real


def check_split(n_train: int, n_test: int, noise_std: float) -> None:
    """Raise unless both split sizes are integers >= 1 and noise_std is a
    finite, non-negative real; the config and every generator check here."""
    require_int("n_train", n_train, 1)
    require_int("n_test", n_test, 1)
    if require_real("noise_std", noise_std) < 0:
        raise ContractViolation(f"noise_std must be non-negative, got {noise_std!r}")


def _moon_points(n: int, noise_std: float, rng: np.random.Generator) -> tuple[Array, Array]:
    # class 0 on the upper unit arc, class 1 on a shifted lower arc
    n0 = n // 2
    n1 = n - n0
    t0 = rng.uniform(0.0, np.pi, size=n0)
    t1 = rng.uniform(0.0, np.pi, size=n1)
    pts0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    pts1 = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    x = np.concatenate([pts0, pts1], axis=0)
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    if noise_std > 0:
        x = x + rng.standard_normal(x.shape) * noise_std
    return x, y


def gen_two_moons(n_train: int, n_test: int, noise_std: float, seed: int) -> tuple[Batch, Batch]:
    """Two interleaved arcs; balanced classes; noise_std = 0 puts points exactly
    on the arcs."""
    check_split(n_train, n_test, noise_std)
    rng = np.random.default_rng(seed)
    xtr, ytr = _moon_points(n_train, noise_std, rng)
    xte, yte = _moon_points(n_test, noise_std, rng)
    return Batch(xtr, ytr), Batch(xte, yte)


_BLOB_CENTERS = np.array([[0.0, 2.0], [2.0, -1.0], [-2.0, -1.0]])


def gen_blobs(n_train: int, n_test: int, noise_std: float, seed: int) -> tuple[Batch, Batch]:
    """Three Gaussian blobs, balanced as evenly as n allows."""
    check_split(n_train, n_test, noise_std)
    rng = np.random.default_rng(seed)

    def split(n: int) -> Batch:
        counts = [n // 3 + (1 if r < n % 3 else 0) for r in range(3)]
        xs, ys = [], []
        for c, cnt in enumerate(counts):
            xs.append(_BLOB_CENTERS[c] + rng.standard_normal((cnt, 2)) * noise_std)
            ys.append(np.full(cnt, c, dtype=np.int64))
        return Batch(np.concatenate(xs), np.concatenate(ys))

    return split(n_train), split(n_test)


def gen_sine_regression(n_train: int, n_test: int, noise_std: float, seed: int) -> tuple[Batch, Batch]:
    """y = sin(2 pi x) + noise on x in [-1, 1]."""
    check_split(n_train, n_test, noise_std)
    rng = np.random.default_rng(seed)

    def split(n: int) -> Batch:
        x = rng.uniform(-1.0, 1.0, size=(n, 1))
        y = np.sin(2.0 * np.pi * x[:, 0]) + rng.standard_normal(n) * noise_std
        return Batch(x, y)

    return split(n_train), split(n_test)


# The generated dataset kinds; kind "csv" reads train_path and test_path.
GENERATORS = {"two_moons": gen_two_moons, "blobs": gen_blobs, "sine": gen_sine_regression}
DATASET_KINDS = (*GENERATORS, "csv")


def load_csv(path: str, kind: str) -> Batch:
    """Last column is the target: integer class labels for kind
    "classification", real targets for kind "regression"."""
    if kind not in ("classification", "regression"):
        raise ContractViolation(f"unknown target kind: {kind!r}")
    classify = kind == "classification"
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ContractViolation(f"{path}: empty file") from None
        width = len(header)
        if width < 2:
            raise ContractViolation(f"{path}: need at least one feature column and a target")
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ContractViolation(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ContractViolation(f"{path}:{lineno}: non-numeric value ({exc})") from None
            if not all(map(math.isfinite, values)):
                raise ContractViolation(f"{path}:{lineno}: non-finite value")
            label = values[-1]
            if classify and not label.is_integer():
                raise ContractViolation(f"{path}:{lineno}: label {row[-1]} is not an integer")
            if classify and not -(2.0**63) <= label < 2.0**63:
                raise ContractViolation(f"{path}:{lineno}: label {label:g} is beyond the int64 range")
            rows.append(values)
    if not rows:
        raise ContractViolation(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    x, target = data[:, :-1], data[:, -1]
    return Batch(x, target.astype(np.int64) if classify else target)
