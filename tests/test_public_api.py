"""No salt module exports what only tests call: each public function or
class of every module is used by the package itself, the benchmark or a
script, except the few named in EXCEPTIONS, each with its reason.
"""
from __future__ import annotations

import ast
import glob
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import salt
from helpers import ROOT

# Every module of the package; salt.__main__ runs the CLI when imported.
MODULES = sorted(
    m.name for m in pkgutil.walk_packages(salt.__path__, "salt.") if not m.ispkg and m.name != "salt.__main__"
)

# Public callables with no user outside the tests, kept on purpose.
EXCEPTIONS = {
    # the reader of the checkpoint.json every training run writes: the
    # artifact's format is public, so its loader is too
    "salt.diffmodel": {"load_checkpoint"},
}


def _public_callables(module: str) -> set[str]:
    """The public functions and classes the module defines, not imports."""
    mod = importlib.import_module(module)
    return {
        name
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module
    }


def _user_paths() -> list[str]:
    """src/, bench/ and scripts/. The package's __init__.py files count like
    any module: they re-export nothing (test_root_reexports_nothing), so no
    name is used there only to be passed on."""
    src = glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
    rest = glob.glob(os.path.join(ROOT, "bench", "*.py")) + glob.glob(os.path.join(ROOT, "scripts", "*.py"))
    return sorted(src + rest)


def _references(node: ast.AST, enclosing: frozenset[str] = frozenset()) -> set[str]:
    """Names used as a bare name or an attribute anywhere under node, found
    by the AST, so a name inside a string does not count. A use inside the
    def or class of the same name, such as a recursive call, does not count."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    found = set()
    if isinstance(node, ast.Name) and node.id not in enclosing:
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        found |= _references(child, enclosing)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_every_public_callable_has_a_user_outside_the_tests(module):
    used: set[str] = set()
    for path in _user_paths():
        with open(path) as fh:
            used |= _references(ast.parse(fh.read(), path))
    public = _public_callables(module)
    assert public, module
    kept = EXCEPTIONS.get(module, set())
    assert kept <= public - used, f"stale exceptions: {sorted(kept - (public - used))}"
    unused = sorted(public - used - kept)
    assert not unused, unused


def test_every_module_is_checked():
    assert {"salt.diffmodel", "salt.errors", "salt.harness.cli", "salt.stackelberg"} <= set(MODULES)
    assert set(EXCEPTIONS) <= set(MODULES)


def test_root_reexports_nothing():
    """The package root binds no public name but modules (its submodules, and
    the ctypes and sys its heap setting uses), so each name has one import
    path, its defining module's; and a fresh `import salt` loads no salt
    submodule and not numpy, only setting the heap thresholds."""
    reexported = sorted(name for name, obj in vars(salt).items() if not name.startswith("_") and not inspect.ismodule(obj))
    assert not reexported, reexported
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    script = "import sys, salt; print(sorted(m for m in sys.modules if m == 'numpy' or m.split('.')[0] == 'salt'))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT, env=env, check=True)
    assert proc.stdout.strip() == "['salt']", proc.stdout
