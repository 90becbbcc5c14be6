#!/usr/bin/env python3
"""Print the sha256 of every artifact under the given run directories.

One line per file, `<sha256>  <path>`, with paths relative to the current
directory and sorted, so two trees compare with `diff`. Arguments may also be
single files, such as a saved `salt gradcheck` stdout. timing.jsonl is
skipped: it holds wall-clock times, which differ on every run.

Usage:
    python3 scripts/digest_runs.py DIR_OR_FILE [DIR_OR_FILE ...]
"""
from __future__ import annotations

import argparse
import hashlib
import os

SKIPPED = {"timing.jsonl"}


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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="+", metavar="DIR_OR_FILE")
    args = ap.parse_args()
    for path in artifact_paths(args.roots):
        print(f"{sha256_of(path)}  {path}")


if __name__ == "__main__":
    main()
