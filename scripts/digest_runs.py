#!/usr/bin/env python3
"""Print the sha256 of every artifact under the given run directories.

One line per file, `<sha256>  <path>`, with paths relative to the current
directory and sorted, so two trees compare with `diff`. Arguments may also be
single files, such as a saved `salt gradcheck` stdout. timing.jsonl is
skipped: it holds wall-clock times, which differ on every run.

With --produce OUTDIR, first run the reference producers with this tree's
`src/` into the new directory OUTDIR, saving each stdout there, then list
OUTDIR with paths relative to it:
- scripts/run_canonical.py: 200 epochs of all four methods on the canonical
  config, into canonical/<method>/;
- salt train --config configs/sine_regression.json, into sine/;
- salt gradcheck --instances 20 --seed 0;
- salt sweep --config configs/canonical_salt.json --axis k_steps
  --values 0,1,2,3 --seeds 0,1, into runs/canonical-salt/ (the config's
  outdir): the sweep CSV and the eight runs' directories;
- salt sweep --config configs/canonical_vat.json --axis epsilon
  --values 0.5,1 --seeds 0,1,2, into runs/canonical-vat/: a flat method's
  seeds trained as stacks of three;
- salt train on CSV data, into csv/: the seed-0 two_moons (100/500) and sine
  (100/200) splits written to CSV at 17 significant digits, and two configs
  with canonical SALT settings and 20 epochs that read them, one with a
  classification head (csv/moons.json) and one with a regression head
  (csv/sine.json); neither sets how the target column is read.
It also writes canonical_fd.sha256: the sha256 of the float64 bytes of
gradcheck.hypergradient_fd at the seed-0 canonical point (the first SALT
step of configs/canonical_salt.json as the runner builds it), so that a
change to the finite differences is checked byte for byte.
Run it once per tree and diff the two listings to show byte identity.

Usage:
    python3 scripts/digest_runs.py DIR_OR_FILE [DIR_OR_FILE ...]
    python3 scripts/digest_runs.py --produce OUTDIR
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys

SKIPPED = {"timing.jsonl"}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRODUCERS = (
    ("canonical.stdout", [os.path.join(ROOT, "scripts", "run_canonical.py"), "--outdir", "canonical"]),
    (
        "sine.stdout",
        ["-m", "salt", "train", "--config", os.path.join(ROOT, "configs", "sine_regression.json"), "--outdir", "sine"],
    ),
    ("gradcheck.stdout", ["-m", "salt", "gradcheck", "--instances", "20", "--seed", "0"]),
    (
        "sweep.stdout",
        ["-m", "salt", "sweep", "--config", os.path.join(ROOT, "configs", "canonical_salt.json")]
        + ["--axis", "k_steps", "--values", "0,1,2,3", "--seeds", "0,1"],
    ),
    (
        "sweep_vat.stdout",
        ["-m", "salt", "sweep", "--config", os.path.join(ROOT, "configs", "canonical_vat.json")]
        + ["--axis", "epsilon", "--values", "0.5,1", "--seeds", "0,1,2"],
    ),
    ("csv_moons.stdout", ["-m", "salt", "train", "--config", os.path.join("csv", "moons.json")]),
    ("csv_sine.stdout", ["-m", "salt", "train", "--config", os.path.join("csv", "sine.json")]),
)
# name -> (generator, n_test, model layers) of the CSV producers' data
CSV_DATA = {"moons": ("gen_two_moons", 500, [2, 32, 32, 2]), "sine": ("gen_sine_regression", 200, [1, 32, 32, 1])}


def artifact_paths(roots: list[str]) -> list[str]:
    paths = []
    for root in roots:
        if os.path.isfile(root):
            paths.append(root)
            continue
        if not os.path.isdir(root):
            raise SystemExit(f"digest_runs: no such file or directory: {root}")
        for dirpath, _, names in os.walk(root):
            paths += [os.path.join(dirpath, n) for n in names if n not in SKIPPED]
    return sorted(os.path.relpath(p) for p in paths)


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_csv(batch, path: str) -> None:
    """Feature columns then a target column: floats at 17 significant digits,
    class labels as integers."""
    is_class = batch.targets.dtype.kind in "iu"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(batch.inputs.shape[1])] + ["target"])
        for x, y in zip(batch.inputs, batch.targets):
            writer.writerow([format(v, ".17g") for v in x] + [str(int(y)) if is_class else format(y, ".17g")])


def write_csv_inputs(outdir: str, src: str) -> None:
    """The CSV producers' data and configs, under outdir/csv, from src's
    generators and configs/canonical_salt.json."""
    sys.path.insert(0, src)
    from salt.harness import datasets

    with open(os.path.join(ROOT, "configs", "canonical_salt.json")) as fh:
        canonical = json.load(fh)
    os.makedirs(os.path.join(outdir, "csv"))
    for name, (gen, n_test, layers) in CSV_DATA.items():
        train, test = getattr(datasets, gen)(100, n_test, 0.1, 0)
        paths = {split: os.path.join("csv", f"{name}_{split}.csv") for split in ("train", "test")}
        write_csv(train, os.path.join(outdir, paths["train"]))
        write_csv(test, os.path.join(outdir, paths["test"]))
        cfg = dict(
            canonical,
            epochs=20,
            outdir=os.path.join("csv", name),
            dataset={"kind": "csv", "train_path": paths["train"], "test_path": paths["test"]},
            model={"layers": layers},
        )
        with open(os.path.join(outdir, "csv", f"{name}.json"), "w") as fh:
            json.dump(cfg, fh, indent=2)
            fh.write("\n")


def write_canonical_fd(outdir: str, src: str) -> None:
    """outdir/canonical_fd.sha256: the sha256 of src's hypergradient_fd at
    the seed-0 canonical point, with the batch, init and delta0 draws of
    the config's first SALT step."""
    sys.path.insert(0, src)
    from salt.diffmodel import Batch, init_params
    from salt.gradcheck import hypergradient_fd
    from salt.harness import experiment
    from salt.harness.config import load_config
    from salt.perturb import sample_init

    cfg = load_config(os.path.join(ROOT, "configs", "canonical_salt.json"))
    train, _ = experiment.load_dataset(cfg)
    sel = experiment.substream(cfg.seed, "data-order").permutation(train.n)[: cfg.batch_size]
    batch = Batch(train.inputs[sel], train.targets[sel])
    params = init_params(cfg.model.layers, experiment.substream(cfg.seed, "model-init"))
    delta0 = sample_init(cfg.adv.sigma, batch.inputs.shape, experiment.substream(cfg.seed, "perturb-init")).values
    fd = hypergradient_fd(params, batch, cfg.adv, cfg.model.regularizer_kind, delta0)
    with open(os.path.join(outdir, "canonical_fd.sha256"), "w") as fh:
        fh.write(f"{hashlib.sha256(fd.tobytes()).hexdigest()}  hypergradient_fd at the seed-0 canonical point\n")


def produce(outdir: str) -> None:
    """Run PRODUCERS inside outdir, which must be new or empty."""
    os.makedirs(outdir, exist_ok=True)
    if os.listdir(outdir):
        raise SystemExit(f"digest_runs: {outdir} is not empty")
    src = os.path.join(ROOT, "src")
    write_csv_inputs(outdir, src)
    write_canonical_fd(outdir, src)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, args in PRODUCERS:
        with open(os.path.join(outdir, name), "w") as fh:
            code = subprocess.run([sys.executable, *args], cwd=outdir, env=env, stdout=fh).returncode
        if code != 0:
            raise SystemExit(f"digest_runs: {' '.join(args)} exited {code}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="*", metavar="DIR_OR_FILE")
    ap.add_argument("--produce", metavar="OUTDIR", help="run the reference producers into OUTDIR, then list it")
    args = ap.parse_args()
    if bool(args.produce) == bool(args.roots):
        ap.error("give either DIR_OR_FILE arguments or --produce OUTDIR")
    roots = args.roots
    if args.produce:
        produce(args.produce)
        os.chdir(args.produce)
        roots = [os.curdir]
    for path in artifact_paths(roots):
        print(f"{sha256_of(path)}  {path}")


if __name__ == "__main__":
    main()
