"""Datasets, config plumbing, the training loop, and axis sweeps."""
from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from helpers import CONFIG_DIR, save_csv, shipped_config
from salt.diffmodel import load_checkpoint
from salt.errors import ContractViolation
from salt.harness.config import (
    AdvConfig,
    DatasetSpec,
    ExperimentConfig,
    Method,
    ModelSpec,
    OptimizerSpec,
    config_from_dict,
    config_to_dict,
    load_config,
    override,
)
from salt.harness.datasets import (
    gen_blobs,
    gen_sine_regression,
    gen_two_moons,
    load_csv,
)
from salt.harness.experiment import run_experiment, run_experiments, substream
from salt.harness.sweep import parse_axis_value, sweep
from salt.perturb import NormKind

# ---------- datasets ----------


def test_two_moons_geometry_and_balance():
    train, test = gen_two_moons(101, 50, noise_std=0.0, seed=3)
    assert train.n == 101 and test.n == 50
    y = train.targets
    assert (y == 0).sum() == 50 and (y == 1).sum() == 51
    upper = train.inputs[y == 0]
    lower = train.inputs[y == 1]
    assert np.allclose(np.sqrt((upper**2).sum(axis=1)), 1.0, atol=1e-12)
    shifted = lower - np.array([1.0, 0.5])
    assert np.allclose(np.sqrt((shifted**2).sum(axis=1)), 1.0, atol=1e-12)
    assert upper[:, 1].min() >= 0.0  # upper arc
    assert lower[:, 1].max() <= 0.5  # lower arc


def test_two_moons_seeded_and_noise_validated():
    a = gen_two_moons(40, 20, 0.1, seed=9)
    b = gen_two_moons(40, 20, 0.1, seed=9)
    assert np.array_equal(a[0].inputs, b[0].inputs)
    assert np.array_equal(a[1].inputs, b[1].inputs)
    c = gen_two_moons(40, 20, 0.1, seed=10)
    assert not np.array_equal(a[0].inputs, c[0].inputs)
    with pytest.raises(ContractViolation):
        gen_two_moons(0, 10, 0.1, 0)
    with pytest.raises(ContractViolation):
        gen_two_moons(10, 10, -0.1, 0)


_BAD_SPLITS = (
    ((0, 10, 0.1), "n_train must be >= 1, got 0"),
    ((10, 0, 0.1), "n_test must be >= 1, got 0"),
    ((10.5, 10, 0.1), "n_train must be an integer, got 10.5"),
    ((True, 10, 0.1), "n_train must be an integer, got True"),
    ((10, "5", 0.1), "n_test must be an integer, got '5'"),
    ((10, 10, -0.1), "noise_std must be non-negative, got -0.1"),
    ((10, 10, float("nan")), "noise_std must be finite, got nan"),
    ((10, 10, float("inf")), "noise_std must be finite, got inf"),
    ((10, 10, float("-inf")), "noise_std must be finite, got -inf"),
    ((10, 10, True), "noise_std must be a real number, got True"),
    ((10, 10, "0.1"), "noise_std must be a real number, got '0.1'"),
)


@pytest.mark.parametrize("kind, gen", [("two_moons", gen_two_moons), ("blobs", gen_blobs), ("sine", gen_sine_regression)])
@pytest.mark.parametrize("split, message", _BAD_SPLITS)
def test_generators_check_splits_as_the_config_does(kind, gen, split, message):
    with pytest.raises(ContractViolation) as called:
        gen(*split, seed=0)
    assert str(called.value) == message
    n_train, n_test, noise_std = split
    with pytest.raises(ContractViolation) as configured:
        config_from_dict({"dataset": {"kind": kind, "n_train": n_train, "n_test": n_test, "noise_std": noise_std}})
    assert str(configured.value) == f"bad dataset value: {message}"


def test_blobs_centers_and_counts():
    train, _ = gen_blobs(32, 3, noise_std=0.0, seed=1)
    counts = [(train.targets == c).sum() for c in range(3)]
    assert counts == [11, 11, 10]
    for c, center in enumerate([[0.0, 2.0], [2.0, -1.0], [-2.0, -1.0]]):
        pts = train.inputs[train.targets == c]
        assert np.allclose(pts, np.asarray(center)[None, :])


def test_sine_regression_exact_at_zero_noise():
    train, test = gen_sine_regression(30, 10, noise_std=0.0, seed=2)
    assert train.inputs.shape == (30, 1)
    assert np.all(np.abs(train.inputs) <= 1.0)
    assert np.allclose(train.targets, np.sin(2 * np.pi * train.inputs[:, 0]))
    assert not np.issubdtype(test.targets.dtype, np.integer)


def test_csv_roundtrip_classification(tmp_path):
    train, _ = gen_two_moons(25, 5, 0.15, seed=4)
    path = str(tmp_path / "train.csv")
    save_csv(train, path)
    back = load_csv(path, "classification")
    assert np.array_equal(back.inputs, train.inputs)  # .17g is lossless for doubles
    assert np.array_equal(back.targets, train.targets)
    assert np.issubdtype(back.targets.dtype, np.integer)


def test_csv_roundtrip_regression(tmp_path):
    train, _ = gen_sine_regression(25, 5, 0.1, seed=5)
    path = str(tmp_path / "train.csv")
    save_csv(train, path)
    back = load_csv(path, "regression")
    assert np.array_equal(back.inputs, train.inputs)
    assert np.array_equal(back.targets, train.targets)
    assert back.targets.dtype == np.float64


def test_csv_target_kinds(tmp_path):
    """The caller's kind, not the column's values, decides how the target
    column is read; a classification file names its first non-integer label."""
    path = str(tmp_path / "d.csv")
    with open(path, "w") as fh:
        fh.write("x0,target\n0.5,1\n0.25,0\n")
    assert load_csv(path, "classification").targets.tolist() == [1, 0]
    assert np.issubdtype(load_csv(path, "classification").targets.dtype, np.integer)
    assert load_csv(path, "regression").targets.dtype == np.float64  # integer-valued, read as reals
    with open(path, "w") as fh:
        fh.write("x0,target\n0.5,1\n0.5,0.25\n0.5,1.5\n")
    assert load_csv(path, "regression").targets.tolist() == [1.0, 0.25, 1.5]
    with pytest.raises(ContractViolation, match=r"d\.csv:3: label 0\.25 is not an integer"):
        load_csv(path, "classification")
    for kind in ("auto", "boolean"):
        with pytest.raises(ContractViolation, match="unknown target kind"):
            load_csv(path, kind)


def test_csv_errors_name_the_line(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("x0,x1,target\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(ContractViolation, match=r"bad\.csv:3"):
        load_csv(path, "classification")
    with open(path, "w") as fh:
        fh.write("x0,x1,target\n1.0,two,0\n")
    with pytest.raises(ContractViolation, match=r"bad\.csv:2"):
        load_csv(path, "classification")
    with open(path, "w") as fh:
        fh.write("x0,x1,target\n")
    with pytest.raises(ContractViolation, match="no data rows"):
        load_csv(path, "classification")
    with open(path, "w") as fh:
        fh.write("")
    with pytest.raises(ContractViolation, match="empty"):
        load_csv(path, "classification")
    with open(path, "w") as fh:
        fh.write("target\n1\n")
    with pytest.raises(ContractViolation, match="at least one feature"):
        load_csv(path, "classification")


@pytest.mark.parametrize("row", ["nan,2.0,0", "1.0,inf,0", "1.0,2.0,-inf", "1.0,2.0,NaN"])
def test_csv_rejects_non_finite_values(tmp_path, row):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write(f"x0,x1,target\n1.0,2.0,0\n{row}\n")
    for kind in ("classification", "regression"):
        with pytest.raises(ContractViolation, match=r"bad\.csv:3: non-finite value"):
            load_csv(path, kind)


def test_csv_rejects_labels_beyond_int64(tmp_path):
    path = str(tmp_path / "big.csv")
    with open(path, "w") as fh:
        fh.write("x0,x1,target\n1.0,2.0,0\n1.0,2.0,1\n3.0,4.0,1e20\n")
    with pytest.raises(ContractViolation, match=r"big\.csv:4: label 1e\+20 is beyond the int64 range"):
        load_csv(path, "classification")
    assert load_csv(path, "regression").targets[2] == 1e20


# ---------- config ----------


def test_config_defaults_and_roundtrip():
    cfg = config_from_dict({})
    assert cfg.method == Method.SALT
    assert cfg.model.layers == (2, 32, 32, 2)
    assert cfg.adv.k_steps == 2
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_shipped_configs_match_resolved_format():
    # resolved_config.json is json.dumps(config_to_dict(cfg), indent=2) plus a newline;
    # the shipped configs are written in that format, so they pin it.
    paths = sorted(os.path.join(CONFIG_DIR, n) for n in os.listdir(CONFIG_DIR) if n.endswith(".json"))
    assert len(paths) == 4
    for path in paths:
        with open(path) as fh:
            shipped = fh.read()
        assert shipped == json.dumps(config_to_dict(load_config(path)), indent=2) + "\n", path


def test_canonical_configs_differ_only_in_method_and_outdir():
    salt = config_to_dict(shipped_config("canonical_salt"))
    for name, method in (("canonical_erm", "ERM"), ("canonical_vat", "VAT")):
        other = config_to_dict(shipped_config(name))
        assert other["method"] == method
        assert {k: v for k, v in other.items() if k not in ("method", "outdir")} == {
            k: v for k, v in salt.items() if k not in ("method", "outdir")
        }, name


def test_config_rejects_unknown_keys():
    with pytest.raises(ContractViolation, match="unknown config keys.*verbose"):
        config_from_dict({"verbose": True})
    with pytest.raises(ContractViolation, match="unknown dataset keys.*size"):
        config_from_dict({"dataset": {"size": 5}})
    with pytest.raises(ContractViolation, match="unknown adv keys"):
        config_from_dict({"adv": {"alpha": 1.0, "steps": 3}})
    with pytest.raises(ContractViolation, match="unknown optimizer keys"):
        config_from_dict({"optimizer": {"momentum": 0.9}})
    with pytest.raises(ContractViolation, match="unknown model keys"):
        config_from_dict({"model": {"depth": 3}})
    # the model head decides how a dataset's targets are read; no second setting
    with pytest.raises(ContractViolation, match=r"unknown dataset keys: \['target'\]"):
        config_from_dict({"dataset": {"kind": "csv", "train_path": "a.csv", "test_path": "b.csv", "target": "auto"}})


def test_config_validates_values():
    with pytest.raises(ContractViolation, match="SGDA"):
        config_from_dict({"method": "SGDA"})
    with pytest.raises(ContractViolation, match="bad adv value.*L3"):
        config_from_dict({"adv": {"norm": "L3"}})
    with pytest.raises(ContractViolation, match="bad adv value"):
        config_from_dict({"adv": {"alpha": "big"}})
    with pytest.raises(ContractViolation, match="bad model value"):
        config_from_dict({"model": {"layers": [2, "x", 2]}})
    with pytest.raises(ContractViolation):
        config_from_dict({"epochs": 0})
    with pytest.raises(ContractViolation):
        config_from_dict({"dataset": {"kind": "mnist"}})
    with pytest.raises(ContractViolation):
        config_from_dict({"dataset": {"kind": "csv"}})  # csv needs paths
    with pytest.raises(ContractViolation):
        config_from_dict({"optimizer": {"kind": "RMSProp"}})
    # integer fields take integers only, not floats, strings or bools
    for raw, named in (
        ({"model": {"layers": [2, 3.5, 2]}}, "bad model value: layer width must be an integer, got 3.5"),
        ({"model": {"layers": [2, True, 2]}}, "bad model value: layer width must be an integer, got True"),
        ({"epochs": 1.5}, "bad config value: epochs must be an integer"),
        ({"epochs": True}, "bad config value: epochs must be an integer"),
        ({"batch_size": 2.5}, "bad config value: batch_size must be an integer"),
        ({"seed": "a"}, "bad config value: seed must be an integer"),
        ({"seed": -1}, "bad config value: seed must be >= 0"),
        ({"adv": {"k_steps": 1.5}}, "bad adv value: k_steps must be an integer"),
        ({"adv": {"k_steps": False}}, "bad adv value: k_steps must be an integer"),
        ({"dataset": {"n_train": 10.5}}, "bad dataset value: n_train must be an integer"),
        ({"dataset": {"n_test": 0}}, "bad dataset value: n_test must be >= 1"),
        ({"dataset": {"kind": "blobs", "noise_std": -0.1}}, "bad dataset value: noise_std must be non-negative"),
        ({"dataset": {"kind": "sine", "noise_std": -0.1}}, "bad dataset value: noise_std must be non-negative"),
        # optimizer: lr and eps positive finite reals, betas a pair in [0, 1)
        ({"optimizer": {"lr": True}}, "bad optimizer value: lr must be a real number, got True"),
        ({"optimizer": {"lr": "0.1"}}, "bad optimizer value: lr must be a real number"),
        ({"optimizer": {"lr": 0}}, "bad optimizer value: lr must be positive, got 0"),
        ({"optimizer": {"lr": float("inf")}}, "bad optimizer value: lr must be finite"),
        ({"optimizer": {"eps": -1}}, "bad optimizer value: eps must be positive, got -1"),
        ({"optimizer": {"eps": 0.0}}, "bad optimizer value: eps must be positive"),
        ({"optimizer": {"betas": [0.9, 0.98, 0.5]}}, "bad optimizer value: betas must be a pair"),
        ({"optimizer": {"betas": 0.9}}, "bad optimizer value: betas must be a pair"),
        ({"optimizer": {"betas": [0.9, 1.5]}}, "bad optimizer value: betas must lie in [0, 1), got [0.9, 1.5]"),
        ({"optimizer": {"betas": [-0.1, 0.9]}}, "bad optimizer value: betas must lie in [0, 1)"),
        ({"optimizer": {"betas": [False, 0.9]}}, "bad optimizer value: each of betas must be a real number"),
        ({"optimizer": {"betas": [0.9, float("nan")]}}, "bad optimizer value: each of betas must be finite"),
        # adversary and dataset reals: finite and not bools, as the optimizer's
        ({"adv": {"epsilon": float("nan")}}, "bad adv value: epsilon must be finite, got nan"),
        ({"adv": {"epsilon": -1}}, "bad adv value: epsilon must be positive, got -1"),
        ({"adv": {"eta": float("inf")}}, "bad adv value: eta must be finite, got inf"),
        ({"adv": {"sigma": float("-inf")}}, "bad adv value: sigma must be finite, got -inf"),
        ({"adv": {"alpha": float("nan")}}, "bad adv value: alpha must be finite, got nan"),
        ({"adv": {"alpha": True}}, "bad adv value: alpha must be a real number, got True"),
        ({"adv": {"alpha": -0.5}}, "bad adv value: alpha must be non-negative, got -0.5"),
        ({"adv": {"eta": "0.1"}}, "bad adv value: eta must be a real number, got '0.1'"),
        # the exact projection Jacobian is not a setting, whatever the value
        ({"adv": {"proj_mode": "ExactJacobian"}}, "unknown adv keys: ['proj_mode']"),
        ({"adv": {"proj_mode": "StraightThrough"}}, "unknown adv keys: ['proj_mode']"),
        ({"dataset": {"noise_std": float("nan")}}, "bad dataset value: noise_std must be finite, got nan"),
        ({"dataset": {"noise_std": False}}, "bad dataset value: noise_std must be a real number, got False"),
        # string fields: outdir a non-empty string, the paths a string or null
        ({"outdir": 5}, "bad config value: outdir must be a non-empty string, got 5"),
        ({"outdir": ""}, "bad config value: outdir must be a non-empty string, got ''"),
        ({"outdir": None}, "bad config value: outdir must be a non-empty string, got None"),
        ({"dataset": {"train_path": ["a"]}}, "bad dataset value: train_path must be a non-empty string, got ['a']"),
        (
            {"dataset": {"kind": "csv", "train_path": 3, "test_path": 3}},
            "bad dataset value: train_path must be a non-empty string, got 3",
        ),
        (
            {"dataset": {"kind": "csv", "train_path": "a.csv", "test_path": {}}},
            "bad dataset value: test_path must be a non-empty string, got {}",
        ),
        ({"dataset": {"kind": "csv", "train_path": "a.csv"}}, "bad dataset value: csv dataset needs train_path and test_path"),
        # sections: a JSON object each; a model has at least an input and an output width
        ({"dataset": "two_moons"}, "dataset must be a JSON object"),
        ({"model": {"layers": [2]}}, "bad model value: model layers must be at least [d_in, d_out]"),
        # the method: one of the four, named as in a config file
        ({"method": "SGDA"}, "bad config value: method must be one of ['ERM', 'Adv', 'VAT', 'SALT'], got 'SGDA'"),
    ):
        with pytest.raises(ContractViolation) as exc:
            config_from_dict(raw)
        assert str(exc.value).startswith(named), raw
    # built directly, not only through config_from_dict
    with pytest.raises(ContractViolation, match=r"method must be one of \['ERM', 'Adv', 'VAT', 'SALT'\], got 'SGDA'"):
        ExperimentConfig(method="SGDA")
    # checked, not converted: an integer stays an integer in the resolved config
    cfg = config_from_dict({"adv": {"alpha": 1, "epsilon": 2}, "dataset": {"noise_std": 0}})
    assert [type(v) for v in (cfg.adv.alpha, cfg.adv.epsilon, cfg.dataset.noise_std)] == [int, int, int]


def test_load_config_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ContractViolation, match="not valid JSON"):
        load_config(str(path))
    path.write_text(json.dumps({"seed": 5, "method": "VAT"}))
    cfg = load_config(str(path))
    assert cfg.seed == 5 and cfg.method == Method.VAT


def test_override_replaces_fields():
    cfg = config_from_dict({})
    assert override(cfg, seed=9).seed == 9
    assert override(cfg, seed=9).model == cfg.model


# ---------- substreams ----------


def test_substreams_are_independent_and_stable():
    a = substream(7, "model-init").standard_normal(4)
    b = substream(7, "model-init").standard_normal(4)
    c = substream(7, "data-order").standard_normal(4)
    d = substream(8, "model-init").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------- training loop ----------


def _tiny(method, seed=0, **adv_kw):
    base = dict(alpha=1.0, epsilon=1.0, eta=0.5, sigma=0.1, k_steps=1)
    base.update(adv_kw)
    adv = AdvConfig(**base)
    return ExperimentConfig(
        method=method,
        seed=seed,
        epochs=2,
        batch_size=20,
        outdir="unused",
        dataset=DatasetSpec(kind="two_moons", n_train=40, n_test=30, noise_std=0.1),
        model=ModelSpec(layers=(2, 8, 2)),
        optimizer=OptimizerSpec(kind="Adam", lr=1e-3),
        adv=adv,
    )


def test_erm_fits_blobs_and_writes_artifacts(tmp_path):
    cfg = ExperimentConfig(
        method=Method.ERM,
        seed=1,
        epochs=30,
        batch_size=20,
        outdir=str(tmp_path / "run"),
        dataset=DatasetSpec(kind="blobs", n_train=60, n_test=30, noise_std=0.3),
        model=ModelSpec(layers=(2, 16, 3)),
    )
    rec = run_experiment(cfg)
    assert rec.final["train_acc"] >= 0.95
    assert rec.final["val_acc"] >= 0.9
    with open(rec.metrics_path) as fh:
        lines = fh.readlines()
    assert len(lines) == 30
    first = json.loads(lines[0])
    assert set(first) == {"epoch", "train_loss", "val_loss", "train_acc", "val_acc", "ece", "reg_value"}
    assert json.loads(lines[-1]) == rec.final
    params = load_checkpoint(rec.checkpoint_path)
    assert np.array_equal(params.values, rec.params.values)
    # reliability.csv is the last epoch's ece report: its rows recombine to that ece exactly
    with open(rec.reliability_path, newline="") as fh:
        bins = list(csv.DictReader(fh))
    total = sum(int(b["count"]) for b in bins)
    assert total == cfg.dataset.n_test
    assert sum(int(b["count"]) / total * float(b["calib_error"]) for b in bins) == json.loads(lines[-1])["ece"]
    with open(os.path.join(cfg.outdir, "resolved_config.json")) as fh:
        assert config_from_dict(json.load(fh)) == cfg
    assert os.path.exists(os.path.join(cfg.outdir, "timing.jsonl"))


def test_regression_rows_have_rmse_and_no_reliability(tmp_path):
    cfg = ExperimentConfig(
        method=Method.ERM,
        seed=0,
        epochs=2,
        batch_size=10,
        outdir=str(tmp_path / "run"),
        dataset=DatasetSpec(kind="sine", n_train=20, n_test=10, noise_std=0.05),
        model=ModelSpec(layers=(1, 8, 1)),
    )
    rec = run_experiment(cfg)
    assert {"train_rmse", "val_rmse"} <= set(rec.final)
    assert rec.final["ece"] is None
    assert rec.reliability_path is None


def test_methods_share_perturbation_draws(tmp_path):
    sums = {}
    for method in (Method.VAT, Method.SALT, Method.ADV):
        cfg = override(_tiny(method), outdir=str(tmp_path / method.value))
        rec = run_experiment(cfg)
        sums[method] = [s["delta0_sum"] for s in rec.step_stats]
    assert sums[Method.VAT] == sums[Method.SALT] == sums[Method.ADV]


def test_salt_alpha0_matches_erm_trajectory(tmp_path):
    erm = run_experiment(override(_tiny(Method.ERM), outdir=str(tmp_path / "erm")))
    salt = run_experiment(
        override(
            _tiny(Method.SALT, alpha=0.0),
            outdir=str(tmp_path / "salt"),
        )
    )
    assert np.array_equal(erm.params.values, salt.params.values)
    for a, b in zip(erm.rows, salt.rows):
        assert a["train_loss"] == b["train_loss"]
        assert a["val_loss"] == b["val_loss"]


def test_metrics_file_is_reproducible(tmp_path):
    rec1 = run_experiment(override(_tiny(Method.SALT), outdir=str(tmp_path / "a")))
    rec2 = run_experiment(override(_tiny(Method.SALT), outdir=str(tmp_path / "b")))
    with open(rec1.metrics_path, "rb") as fh:
        bytes1 = fh.read()
    with open(rec2.metrics_path, "rb") as fh:
        bytes2 = fh.read()
    assert bytes1 == bytes2


# sha256 of (metrics.jsonl, checkpoint.json) after 3 epochs at seed 0 of each
# shipped config and method, taken with numpy 2.4.6 (OpenBLAS 0.3.31) on x86-64.
# The SALT pins date from the exact (tangent-map) curvature in the adjoint.
_PINNED_ARTIFACTS = {
    ("canonical_salt", "ERM"): (
        "f4793b7df72cc08573556fd7a544862ec57a1c26bcd70fae73de03443703230f",
        "2e3e0493a8b120843e8a42e7e14f29ab5da4eb0c3d762cd503f1c13dc695ee42",
    ),
    ("canonical_salt", "Adv"): (
        "7d41ed7f431296a8a3063d93502b1f89595537cfa09dfcb8608d72bc4479ff17",
        "4a9396a1d0dd02a7bc7399ebd177a86c22d8bf3ff444c418184de6c54e8c9b13",
    ),
    ("canonical_salt", "VAT"): (
        "edff47b81e2f9ee1ef12690cf865c8aee75d9af3e60d92b541ddb822d2da8cf5",
        "9d93d0e07528a0960ed03de6d27cf663597e6c70bc8deea1cf45d18aeb01e940",
    ),
    ("canonical_salt", "SALT"): (
        "8a11d6819923ca77995d11624d29d79928c73ff6dd535c1011d994bbf5d2d9c0",
        "1dbcbb2009eb23571d2c7bf430f707261a8ebd0ce06dd23e95c27b4a5a346004",
    ),
    ("sine_regression", "SALT"): (
        "dcc9f252da0ab1854569a7eff703b198e821082b0cf2ec903da2f5bbfe169852",
        "c2ed096d1a1c0cf0ea240abdd609e030bfe03f831005ee98740906e3b07a187c",
    ),
}


@pytest.mark.parametrize("name,method", list(_PINNED_ARTIFACTS))
def test_artifacts_match_pinned_hashes(name, method, tmp_path):
    cfg = override(shipped_config(name), method=Method(method), seed=0, epochs=3, outdir=str(tmp_path))
    run_experiment(cfg)
    got = tuple(
        hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ("metrics.jsonl", "checkpoint.json")
    )
    assert got == _PINNED_ARTIFACTS[(name, method)], (
        f"{name} {method}: the 3-epoch metrics.jsonl/checkpoint.json changed. A refactor must keep "
        "them byte for byte. A deliberate numerics change, such as a new curvature in the adjoint, "
        "updates these pins and records the change in CHANGES.md."
    )


_RUN_FILES = ("resolved_config.json", "metrics.jsonl", "checkpoint.json", "reliability.csv")


def _run_files(outdir) -> dict:
    """The bytes of every artifact a run leaves, except the wall-clock timings."""
    return {f: (outdir / f).read_bytes() for f in _RUN_FILES if (outdir / f).exists()}


def _untimed(step_stats: list[dict]) -> list[dict]:
    return [{k: v for k, v in stats.items() if not k.startswith("t_")} for stats in step_stats]


@pytest.mark.parametrize("name", ["canonical_salt", "sine_regression"])
@pytest.mark.parametrize("method", list(Method))
def test_grouped_runs_equal_lone_runs(name, method, tmp_path):
    """Seeds 0, 1 and 2 trained as one stack leave, run by run, the bytes,
    rows and step stats (timers aside) of each seed trained alone into the
    same directory; each run's timing.jsonl holds the group's epoch times."""
    base = override(shipped_config(name), method=method, epochs=3)
    cfgs = [override(base, seed=s, outdir=str(tmp_path / f"seed={s}")) for s in (0, 1, 2)]
    lone = []
    for cfg in cfgs:
        record = run_experiment(cfg)
        lone.append((_run_files(tmp_path / f"seed={cfg.seed}"), record))
    grouped = run_experiments(cfgs)
    assert [r.config for r in grouped] == cfgs
    for (files, alone), record in zip(lone, grouped):
        outdir = tmp_path / f"seed={record.config.seed}"
        assert _run_files(outdir) == files
        assert len(files) == (4 if base.model.is_classification else 3)
        assert record.rows == alone.rows
        assert repr(_untimed(record.step_stats)) == repr(_untimed(alone.step_stats))
        assert record.params.values.tobytes() == alone.params.values.tobytes()
    timings = {(tmp_path / f"seed={s}" / "timing.jsonl").read_text() for s in (0, 1, 2)}
    assert len(timings) == 1
    assert [json.loads(line)["epoch"] for line in timings.pop().splitlines()] == [1, 2, 3]


def test_run_experiments_groups_by_everything_but_seed_and_outdir(tmp_path):
    """Records come back in input order whatever the grouping, and a config
    that differs in anything but seed and outdir trains in its own group."""
    cfgs = [
        override(_tiny(Method.SALT, seed=s), outdir=str(tmp_path / f"{m.value}-{s}"), method=m)
        for s, m in ((0, Method.SALT), (1, Method.VAT), (1, Method.SALT), (0, Method.VAT))
    ]
    records = run_experiments(cfgs)
    assert [r.config for r in records] == cfgs
    for cfg, record in zip(cfgs, records):
        assert record.rows == run_experiment(override(cfg, outdir=str(tmp_path / "alone"))).rows


def test_run_experiments_rejects_a_shared_outdir(tmp_path):
    outdir = tmp_path / "run"
    cfgs = [override(_tiny(Method.ERM, seed=s), outdir=str(outdir)) for s in (0, 1)]
    with pytest.raises(ContractViolation, match="outdir"):
        run_experiments(cfgs)
    relative = [override(cfgs[0], outdir=str(tmp_path / "a" / ".." / "run")), cfgs[1]]
    with pytest.raises(ContractViolation, match="outdir"):
        run_experiments(relative)
    assert not outdir.exists()


def test_run_rejects_mismatched_model(tmp_path):
    cfg = override(_tiny(Method.ERM), model=ModelSpec(layers=(3, 4, 2)), outdir=str(tmp_path / "x"))
    with pytest.raises(ContractViolation, match="width"):
        run_experiment(cfg)
    cfg = override(_tiny(Method.ERM), model=ModelSpec(layers=(2, 4, 1)), outdir=str(tmp_path / "y"))
    with pytest.raises(ContractViolation, match="head"):
        run_experiment(cfg)


def test_run_checks_the_test_split_against_the_model(tmp_path):
    """The test split is checked as the train split is, before anything is
    written: evaluation reads both splits without checking them again."""
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,1\n")
    test.write_text("x0,x1,x2,target\n0.1,0.2,0.3,0\n0.3,0.4,0.5,1\n")
    cfg = override(
        _tiny(Method.ERM),
        dataset=DatasetSpec(kind="csv", train_path=str(train), test_path=str(test)),
        outdir=str(tmp_path / "run"),
    )
    with pytest.raises(ContractViolation, match="dataset width 3 does not match model input width 2"):
        run_experiment(cfg)
    assert not (tmp_path / "run").exists()


def test_regression_head_trains_on_integer_valued_csv_targets(tmp_path):
    """A width-1 head reads a CSV's last column as real targets, whether or
    not they happen to be whole numbers."""
    records = []
    for written in (int, float):  # targets "2" or "2.0"
        path = tmp_path / f"{written.__name__}.csv"
        path.write_text("x0,x1,target\n" + "".join(f"{0.1 * i},{0.2 - 0.05 * i},{written(i % 3)}\n" for i in range(8)))
        dataset = DatasetSpec(kind="csv", train_path=str(path), test_path=str(path))
        cfg = override(
            _tiny(Method.SALT), dataset=dataset, model=ModelSpec(layers=(2, 4, 1)), outdir=str(tmp_path / path.stem)
        )
        records.append(run_experiment(cfg))
    assert "val_rmse" in records[0].final and records[0].final["ece"] is None
    assert records[0].rows == records[1].rows


def test_run_rejects_labels_outside_the_head(tmp_path):
    """Labels are checked against the head width before anything is written,
    for every config of a batch of runs; for a CSV the error names the file
    and the line."""
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,1\n")
    test.write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,1\n0.5,0.6,2\n")
    csv_data = DatasetSpec(kind="csv", train_path=str(train), test_path=str(test))
    (tmp_path / "frac").mkdir()
    frac_test = tmp_path / "frac" / "test.csv"
    frac_test.write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,0.5\n0.5,0.6,1\n")
    frac_data = DatasetSpec(kind="csv", train_path=str(train), test_path=str(frac_test))
    blobs = DatasetSpec(kind="blobs", n_train=30, n_test=30)
    good = override(_tiny(Method.ERM), outdir=str(tmp_path / "good"))
    for dataset, named in (
        (csv_data, rf"{test}:4: label 2 is out of range for 2 classes"),
        (frac_data, rf"{frac_test}:3: label 0.5 is not an integer"),
        (blobs, "train split: label 2 is out of range for 2 classes"),
    ):
        cfg = override(_tiny(Method.ERM), dataset=dataset, outdir=str(tmp_path / "run"))
        for call in (lambda: run_experiment(cfg), lambda: run_experiments([good, cfg])):
            with pytest.raises(ContractViolation) as exc:
                call()
            assert str(exc.value) == named
            assert not (tmp_path / "run").exists() and not (tmp_path / "good").exists()


# ---------- sweeps ----------


def test_parse_axis_value():
    assert parse_axis_value("k_steps", "3") == 3
    assert parse_axis_value("epsilon", "0.5") == 0.5
    assert parse_axis_value("norm", "LInf") == NormKind.LINF
    with pytest.raises(ContractViolation):
        parse_axis_value("sigma", "0.1")
    for axis, raw in (("k_steps", "two"), ("epsilon", "wide"), ("norm", "L3")):
        with pytest.raises(ContractViolation, match=f"bad {axis} value: '{raw}'"):
            parse_axis_value(axis, raw)


def _sweep_template(tmp_path):
    return override(_tiny(Method.SALT), epochs=1, outdir=str(tmp_path / "sw"))


def test_sweep_rows_schema_and_pairing(tmp_path):
    template = _sweep_template(tmp_path)
    out_path = str(tmp_path / "sweep.csv")
    rows = sweep(template, "k_steps", [0, 1], seeds=[0, 1], out_path=out_path)
    assert [(r["axis_value"], r["seed"]) for r in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with open(out_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == ["axis_value", "seed", "final_train_loss", "final_val_loss", "final_val_acc", "ece"]
    assert len(body) == 4
    for parsed, row in zip(body, rows):
        assert float(parsed[2]) == row["final_train_loss"]
        assert float(parsed[5]) == row["ece"]
    # per-run artifacts land in nested outdirs
    assert os.path.exists(os.path.join(template.outdir, "k_steps=0", "seed=1", "metrics.jsonl"))


def test_sweep_norm_axis_uses_enum_values(tmp_path):
    template = _sweep_template(tmp_path)
    rows = sweep(
        template,
        "norm",
        [NormKind.L2, NormKind.LINF],
        seeds=[0],
        out_path=str(tmp_path / "norm.csv"),
    )
    assert [r["axis_value"] for r in rows] == ["L2", "LInf"]


def test_sweep_rows_are_independent_runs(tmp_path):
    """Each row is the final of a lone run_experiment of its (value, seed), and
    the sweep's run directory holds that run's bytes."""
    template = _sweep_template(tmp_path)
    rows = sweep(template, "k_steps", [0, 2], seeds=[0, 1], out_path=str(tmp_path / "sweep.csv"))
    assert [(r["axis_value"], r["seed"]) for r in rows] == [(0, 0), (0, 1), (2, 0), (2, 1)]
    for row in rows:
        k, seed = row["axis_value"], row["seed"]
        alone = override(
            template,
            adv=override(template.adv, k_steps=k),
            seed=seed,
            outdir=str(tmp_path / "alone" / f"{k}-{seed}"),
        )
        final = run_experiment(alone).final
        assert row == {
            "axis_value": k,
            "seed": seed,
            "final_train_loss": final["train_loss"],
            "final_val_loss": final["val_loss"],
            "final_val_acc": final["val_acc"],
            "ece": final["ece"],
        }
        swept = os.path.join(template.outdir, f"k_steps={k}", f"seed={seed}")
        for name in ("metrics.jsonl", "checkpoint.json"):
            with open(os.path.join(swept, name), "rb") as a, open(os.path.join(alone.outdir, name), "rb") as b:
                assert a.read() == b.read(), (k, seed, name)


def test_sweep_rejects_bad_requests(tmp_path):
    template = _sweep_template(tmp_path)
    with pytest.raises(ContractViolation):
        sweep(template, "sigma", [0.1], out_path=str(tmp_path / "x.csv"))
    with pytest.raises(ContractViolation):
        sweep(template, "k_steps", [], out_path=str(tmp_path / "x.csv"))
    with pytest.raises(ContractViolation, match="one seed"):
        sweep(template, "k_steps", [1], seeds=[], out_path=str(tmp_path / "x.csv"))
    regression = override(
        template,
        model=ModelSpec(layers=(1, 4, 1)),
        dataset=DatasetSpec(kind="sine", n_train=10, n_test=5, noise_std=0.1),
    )
    with pytest.raises(ContractViolation, match="classification"):
        sweep(regression, "k_steps", [1], out_path=str(tmp_path / "x.csv"))


def test_sweep_rejects_repeated_values_and_seeds(tmp_path):
    template = _sweep_template(tmp_path)
    out_path = str(tmp_path / "x.csv")
    epsilons = [parse_axis_value("epsilon", v) for v in ("1", "1.0")]
    for axis, values, seeds in (("k_steps", [1, 1], [3]), ("epsilon", epsilons, [3]), ("k_steps", [1], [3, 3])):
        with pytest.raises(ContractViolation, match="distinct"):
            sweep(template, axis, values, seeds=seeds, out_path=out_path)
    assert not os.path.exists(template.outdir) and not os.path.exists(out_path)  # rejected before any run
