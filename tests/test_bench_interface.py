"""The benchmark's view of the package: every name bench/*.py imports from
salt still exists.

bench/test_smoke.py runs the benchmark itself but lies outside the default
test paths, so a refactor that renames or deletes a function the benchmark
imports would otherwise pass the default run.
"""
from __future__ import annotations

import ast
import glob
import importlib
import os

from helpers import ROOT


def _salt_imports(path: str) -> list[tuple[str, str | None]]:
    """(module, name) for each `from salt... import name` in the file, and
    (module, None) for each `import salt...`, at any depth of the file."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "salt":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "salt"]
    return found


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(mod, name):
        return True
    try:  # a submodule, such as `from salt.harness import sweep`
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_bench_imports_from_salt_resolve():
    """Each `from salt... import name` and `import salt...` in bench/*.py,
    module-level or inside a function, names something the package has.
    Attribute uses are not covered: neither `module.function` through an
    imported module nor fields such as `cfg.proj_mode` or `.values`; nor
    the function names bench/tracing.py lists as strings, which it skips
    when they are missing."""
    paths = sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))
    assert paths
    imports = {(os.path.basename(p), module, name) for p in paths for module, name in _salt_imports(p)}
    assert imports, "bench/ imports nothing from salt"
    broken = [(file, module, name) for file, module, name in sorted(imports, key=str) if not _resolves(module, name)]
    assert not broken, broken
