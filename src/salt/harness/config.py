"""Experiment configuration: JSON in, validated dataclasses out.

Unknown keys are rejected at every nesting level so a typo fails loudly
before any compute starts.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

from ..errors import ContractViolation, require_int, require_real, require_str
from ..perturb import AdvConfig
from ..regularizers import RegularizerKind, head_kind
from ..stackelberg import Method
from .datasets import DATASET_KINDS, check_split


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "two_moons"  # one of datasets.DATASET_KINDS
    n_train: int = 100
    n_test: int = 500
    noise_std: float = 0.1
    train_path: str | None = None
    test_path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in DATASET_KINDS:
            raise ContractViolation(f"unknown dataset kind: {self.kind!r}")
        for name, path in (("train_path", self.train_path), ("test_path", self.test_path)):
            if path is not None:
                require_str(name, path)
        if self.kind == "csv" and (self.train_path is None or self.test_path is None):
            raise ContractViolation("csv dataset needs train_path and test_path")
        if self.kind != "csv" and (self.train_path is not None or self.test_path is not None):
            raise ContractViolation(f"train_path and test_path are read only for kind 'csv', not {self.kind!r}")
        check_split(self.n_train, self.n_test, self.noise_std)


@dataclass(frozen=True)
class ModelSpec:
    layers: tuple[int, ...] = (2, 32, 32, 2)

    def __post_init__(self) -> None:
        for width in self.layers:
            require_int("layer width", width, 1)
        layers = tuple(int(v) for v in self.layers)
        object.__setattr__(self, "layers", layers)
        if len(layers) < 2:
            raise ContractViolation("model layers must be at least [d_in, d_out]")

    @property
    def is_classification(self) -> bool:
        return self.layers[-1] > 1

    @property
    def regularizer_kind(self) -> RegularizerKind:
        return head_kind(self.layers[-1])


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "Adam"
    lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.98)
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in ("SGD", "Adam"):
            raise ContractViolation(f"unknown optimizer kind: {self.kind!r}")
        if require_real("lr", self.lr) <= 0:
            raise ContractViolation(f"lr must be positive, got {self.lr!r}")
        if require_real("eps", self.eps) <= 0:
            raise ContractViolation(f"eps must be positive, got {self.eps!r}")
        if not isinstance(self.betas, (list, tuple)) or len(self.betas) != 2:
            raise ContractViolation(f"betas must be a pair, got {self.betas!r}")
        betas = tuple(require_real("each of betas", b) for b in self.betas)
        if not all(0.0 <= b < 1.0 for b in betas):
            raise ContractViolation(f"betas must lie in [0, 1), got {list(betas)}")
        object.__setattr__(self, "betas", betas)


@dataclass(frozen=True)
class ExperimentConfig:
    method: Method = Method.SALT
    seed: int = 0
    epochs: int = 200
    batch_size: int = 25
    outdir: str = "runs/out"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    adv: AdvConfig = field(default_factory=AdvConfig)

    def __post_init__(self) -> None:
        require_str("method", self.method, tuple(m.value for m in Method))
        object.__setattr__(self, "method", Method(self.method))
        require_int("seed", self.seed, 0)
        require_int("epochs", self.epochs, 1)
        require_int("batch_size", self.batch_size, 1)
        require_str("outdir", self.outdir)


def _take(section: str, raw: dict, cls: type) -> dict:
    if not isinstance(raw, dict):
        raise ContractViolation(f"{section} must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ContractViolation(f"unknown {section} keys: {sorted(unknown)}")
    return dict(raw)


def _build(section: str, cls: type, kwargs: dict):
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:  # a failed check, or a value of the wrong type such as "layers": 5
        raise ContractViolation(f"bad {section} value: {exc}") from None


_SECTIONS = {"dataset": DatasetSpec, "model": ModelSpec, "optimizer": OptimizerSpec, "adv": AdvConfig}


def config_from_dict(raw: dict) -> ExperimentConfig:
    kwargs = _take("config", raw, ExperimentConfig)
    for section, cls in _SECTIONS.items():
        if section in kwargs:
            kwargs[section] = _build(section, cls, _take(section, kwargs[section], cls))
    return _build("config", ExperimentConfig, kwargs)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ContractViolation(f"{path} is not valid JSON: {exc}") from None
    return config_from_dict(raw)


# Nested plain dict of every field. The enums subclass str and the tuples
# become JSON lists, so json.dump of it is the resolved-config format.
config_to_dict = asdict


def override(cfg: ExperimentConfig, **kw) -> ExperimentConfig:
    """Shallow field replacement, e.g. override(cfg, seed=3)."""
    return replace(cfg, **kw)

