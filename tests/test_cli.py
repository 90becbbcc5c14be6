"""End-to-end command-line checks via subprocess."""
from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "salt", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def tiny_config(tmp_path, **extra):
    cfg = {
        "method": "SALT",
        "seed": 0,
        "epochs": 2,
        "batch_size": 20,
        "outdir": str(tmp_path / "run"),
        "dataset": {"kind": "two_moons", "n_train": 40, "n_test": 30, "noise_std": 0.1},
        "model": {"layers": [2, 8, 2]},
        "adv": {"alpha": 1.0, "epsilon": 1.0, "eta": 0.5, "sigma": 0.1, "k_steps": 1},
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_runs_and_reports(tmp_path):
    cfg = tiny_config(tmp_path)
    proc = run_cli("train", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[0])
    assert final["epoch"] == 2
    assert "val_acc" in final
    assert lines[1].startswith("metrics: ")
    assert os.path.exists(lines[1].split(": ", 1)[1])
    assert lines[2].startswith("checkpoint: ")


def test_train_outdir_override(tmp_path):
    cfg = tiny_config(tmp_path)
    other = tmp_path / "elsewhere"
    proc = run_cli("train", "--config", str(cfg), "--outdir", str(other))
    assert proc.returncode == 0, proc.stderr
    assert (other / "metrics.jsonl").exists()


def test_train_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"verbose": True}))
    proc = run_cli("train", "--config", str(path))
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "verbose" in proc.stderr


def test_train_rejects_bad_values(tmp_path):
    for name in ("train.csv", "test.csv"):
        (tmp_path / name).write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,1\n")
    csv_paths = {"kind": "csv", "train_path": str(tmp_path / "train.csv"), "test_path": str(tmp_path / "test.csv")}
    for extra, named in (
        ({"adv": {"norm": "L3"}}, "L3"),
        ({"method": "SGDA"}, "SGDA"),
        ({"model": {"layers": [2, 3.5, 2]}}, "bad model value: layer width must be an integer, got 3.5"),
        ({"epochs": 1.5}, "bad config value: epochs must be an integer, got 1.5"),
        ({"batch_size": 2.5}, "bad config value: batch_size must be an integer"),
        ({"adv": {"k_steps": 1.5}}, "bad adv value: k_steps must be an integer"),
        ({"seed": "a"}, "bad config value: seed must be an integer"),
        ({"dataset": {"kind": "two_moons", "n_train": 10.5}}, "bad dataset value: n_train must be an integer"),
        ({"dataset": {"kind": "blobs", "noise_std": -0.1}}, "bad dataset value: noise_std must be non-negative"),
        ({"optimizer": {"betas": [0.9, 0.98, 0.5]}}, "bad optimizer value: betas must be a pair"),
        ({"optimizer": {"betas": [0.9, 1.5]}}, "bad optimizer value: betas must lie in [0, 1)"),
        ({"optimizer": {"eps": -1}}, "bad optimizer value: eps must be positive"),
        ({"optimizer": {"lr": True}}, "bad optimizer value: lr must be a real number"),
        # adversary and dataset reals: finite and not bools (json reads NaN and Infinity)
        ({"adv": {"epsilon": float("nan")}}, "bad adv value: epsilon must be finite, got nan"),
        ({"adv": {"eta": float("inf")}}, "bad adv value: eta must be finite, got inf"),
        ({"adv": {"alpha": float("nan")}}, "bad adv value: alpha must be finite, got nan"),
        ({"adv": {"sigma": float("inf")}}, "bad adv value: sigma must be finite, got inf"),
        ({"adv": {"alpha": True}}, "bad adv value: alpha must be a real number, got True"),
        ({"dataset": {"kind": "two_moons", "noise_std": float("nan")}}, "bad dataset value: noise_std must be finite"),
        # string fields, checked before any file is opened or written
        ({"outdir": 5}, "bad config value: outdir must be a non-empty string, got 5"),
        ({"dataset": {"train_path": ["a"]}}, "bad dataset value: train_path must be a non-empty string, got ['a']"),
        (
            {"dataset": {"kind": "csv", "train_path": 3, "test_path": 3}},
            "bad dataset value: train_path must be a non-empty string, got 3",
        ),
        (
            {"dataset": {"train_path": "x.csv", "test_path": "y.csv"}},
            "bad dataset value: train_path and test_path are read only for kind 'csv', not 'two_moons'",
        ),
        # the exact projection Jacobian is not a setting
        ({"adv": {"proj_mode": "ExactJacobian"}}, "unknown adv keys: ['proj_mode']"),
        # the model head decides how targets are read; there is no dataset setting for it
        ({"dataset": {"kind": "two_moons", "target": "auto"}}, "unknown dataset keys: ['target']"),
        ({"dataset": {**csv_paths, "target": "regression"}}, "unknown dataset keys: ['target']"),
    ):
        proc = run_cli("train", "--config", str(tiny_config(tmp_path, **extra)), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and named in proc.stderr
        assert "Traceback" not in proc.stderr
        # rejected before resolved_config.json, or any run directory, is written
        assert sorted(os.listdir(tmp_path)) == ["config.json", "test.csv", "train.csv"]


def test_train_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    proc = run_cli("train", "--config", str(path))
    assert proc.returncode == 2
    assert "not valid JSON" in proc.stderr


def test_train_is_deterministic(tmp_path):
    cfg = tiny_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli("train", "--config", str(cfg), "--outdir", str(a)).returncode == 0
    assert run_cli("train", "--config", str(cfg), "--outdir", str(b)).returncode == 0
    assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()


def test_gradcheck_passes_and_prints_per_instance(tmp_path):
    proc = run_cli("gradcheck", "--instances", "3", "--seed", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 4
    for i, line in enumerate(lines[:3]):
        assert line.startswith(f"instance {i:02d} ")
        assert "rel_err=" in line
    assert lines[-1].startswith("gradcheck: max rel_err")
    assert lines[-1].endswith("PASS")


def test_gradcheck_fixed_k(tmp_path):
    proc = run_cli("gradcheck", "--instances", "2", "--k", "1", "--seed", "3")
    assert proc.returncode == 0
    for line in proc.stdout.strip().splitlines()[:2]:
        assert "k=1" in line


def test_sweep_writes_summary(tmp_path):
    cfg = tiny_config(tmp_path, epochs=1)
    out = tmp_path / "sweep.csv"
    proc = run_cli(
        "sweep",
        "--config",
        str(cfg),
        "--axis",
        "k_steps",
        "--values",
        "0,1",
        "--seeds",
        "0,1",
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "4 rows" in proc.stdout
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["axis_value", "seed", "final_train_loss", "final_val_loss", "final_val_acc", "ece"]
    assert len(rows) == 5


def test_sweep_rejects_unknown_axis(tmp_path):
    cfg = tiny_config(tmp_path)
    proc = run_cli("sweep", "--config", str(cfg), "--axis", "sigma", "--values", "0.1")
    assert proc.returncode == 2  # argparse choices reject it
    assert "sigma" in proc.stderr


def test_sweep_rejects_bad_values_and_seeds(tmp_path):
    cfg = tiny_config(tmp_path, epochs=1)
    for axis, values, seeds, named in (("norm", "L3", "0", "L3"), ("k_steps", "0", "a", "'a'")):
        proc = run_cli("sweep", "--config", str(cfg), "--axis", axis, "--values", values, "--seeds", seeds)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and named in proc.stderr
        assert "Traceback" not in proc.stderr


def test_sweep_rejects_repeated_values_and_seeds(tmp_path):
    cfg = tiny_config(tmp_path, epochs=1)
    for axis, values, seeds in (("k_steps", "1,1", "3"), ("epsilon", "1,1.0", "3"), ("k_steps", "1", "3,3")):
        proc = run_cli("sweep", "--config", str(cfg), "--axis", axis, "--values", values, "--seeds", seeds)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "distinct" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not (tmp_path / "run").exists()


def test_sweep_checks_every_value_before_any_run(tmp_path):
    """A bad value anywhere in the list stops the sweep before its first run:
    no run directory, no summary, nothing on stdout, and the error names the
    value."""
    cfg = tiny_config(tmp_path, epochs=1)
    for values, named in (("1.0,-1", "must be positive, got -1.0"), ("1.0,nan", "must be finite, got nan")):
        proc = run_cli("sweep", "--config", str(cfg), "--axis", "epsilon", "--values", values, "--seeds", "0,1")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and named in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert not (tmp_path / "run").exists()


def test_empty_paths_and_seed_lists_are_errors(tmp_path):
    """An empty --outdir or --out, or a --seeds that names no seed, is refused
    before any run trains or any file is written, where a fallback to the
    config's outdir or seed could overwrite another run."""
    cfg = tiny_config(tmp_path, epochs=1)
    preds = tmp_path / "preds.csv"
    preds.write_text("confidence,correct\n0.9,1\n")
    sweep = ("sweep", "--config", str(cfg), "--axis", "k_steps", "--values", "0")
    for args, named in (
        (("train", "--config", str(cfg), "--outdir", ""), "--outdir must be a non-empty path"),
        ((*sweep, "--out", ""), "--out must be a non-empty path"),
        ((*sweep, "--seeds", ""), "sweep needs at least one axis value and one seed"),
        ((*sweep, "--seeds", ","), "sweep needs at least one axis value and one seed"),
        (("calibrate", "--predictions", str(preds), "--out", ""), "--out must be a non-empty path"),
    ):
        proc = run_cli(*args, cwd=tmp_path)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stderr.startswith("error: ") and named in proc.stderr, (args, proc.stderr)
        assert "Traceback" not in proc.stderr and proc.stdout == "", args
        assert sorted(os.listdir(tmp_path)) == ["config.json", "preds.csv"], args


def test_train_rejects_non_finite_csv(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("x0,x1,target\n0.1,0.2,0\nnan,0.4,1\n0.5,0.6,0\n0.7,0.8,1\n")
    test = tmp_path / "test.csv"
    test.write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,1\n")
    dataset = {"kind": "csv", "train_path": str(train), "test_path": str(test)}
    proc = run_cli("train", "--config", str(tiny_config(tmp_path, dataset=dataset)))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: ") and f"{train}:3: non-finite value" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_train_rejects_labels_beyond_int64(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,1e20\n0.5,0.6,0\n0.7,0.8,1\n")
    test = tmp_path / "test.csv"
    test.write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,1\n")
    dataset = {"kind": "csv", "train_path": str(train), "test_path": str(test)}
    proc = run_cli("train", "--config", str(tiny_config(tmp_path, dataset=dataset)))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: ") and f"{train}:3: label 1e+20 is beyond the int64 range" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_train_rejects_labels_outside_the_head(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,-1\n0.5,0.6,0\n0.7,0.8,1\n")
    test = tmp_path / "test.csv"
    test.write_text("x0,x1,target\n0.1,0.2,0\n0.3,0.4,1\n")
    dataset = {"kind": "csv", "train_path": str(train), "test_path": str(test)}
    proc = run_cli("train", "--config", str(tiny_config(tmp_path, dataset=dataset)))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr == f"error: {train}:3: label -1 is out of range for 2 classes\n"
    assert proc.stdout == "" and not (tmp_path / "run").exists()


def test_calibrate_reports_and_writes(tmp_path):
    preds = tmp_path / "preds.csv"
    preds.write_text("confidence,correct\n0.75,1\n0.75,0\n0.95,1\n0.95,1\n")
    out = tmp_path / "rel.csv"
    proc = run_cli("calibrate", "--predictions", str(preds), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n=4 ece=0.15")
    assert out.exists()
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert sum(int(r["count"]) for r in rows) == 4


def test_calibrate_equal_mass(tmp_path):
    preds = tmp_path / "preds.csv"
    lines = ["confidence,correct"] + [f"0.{50 + i},{i % 2}" for i in range(40)]
    preds.write_text("\n".join(lines) + "\n")
    out = tmp_path / "rel.csv"
    proc = run_cli(
        "calibrate", "--predictions", str(preds), "--out", str(out), "--bins", "4", "--equal-mass-bins"
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        counts = [int(r["count"]) for r in csv.DictReader(fh)]
    assert sum(counts) == 40
    assert len(counts) == 4


def test_calibrate_bad_file(tmp_path):
    preds = tmp_path / "preds.csv"
    preds.write_text("conf,correct\n0.9,1\n")
    proc = run_cli("calibrate", "--predictions", str(preds))
    assert proc.returncode == 2
    assert "confidence" in proc.stderr


def test_calibrate_rejects_nan_confidence(tmp_path):
    preds = tmp_path / "preds.csv"
    preds.write_text("confidence,correct\n0.9,1\nnan,0\n0.4,0\n")
    proc = run_cli("calibrate", "--predictions", str(preds))
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.startswith("error: ") and "[0, 1]" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_missing_input_files_are_errors(tmp_path):
    missing = str(tmp_path / "nope")
    for args in (("train", "--config", missing + ".json"), ("calibrate", "--predictions", missing + ".csv")):
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and args[2] in proc.stderr
        assert "Traceback" not in proc.stderr


def test_unreadable_input_paths_are_errors(tmp_path):
    """A directory where a file is expected exits 2 with the OS error, not a traceback."""
    for args in (("train", "--config", str(tmp_path)), ("calibrate", "--predictions", str(tmp_path))):
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "Is a directory" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_no_subcommand_is_an_error():
    proc = run_cli()
    assert proc.returncode == 2
    assert "train" in proc.stderr
