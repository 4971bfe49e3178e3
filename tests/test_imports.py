"""Every module of the package must import on its own: a fresh
interpreter per module catches import cycles that an already-populated
`sys.modules` would hide."""

import ast
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import vmguard

SRC = str(pathlib.Path(vmguard.__file__).resolve().parents[1])
MODULES = ["vmguard"] + sorted(
    m.name for m in pkgutil.walk_packages(vmguard.__path__, "vmguard."))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _loaded(module, candidates):
    """Those of `candidates` that importing `module` first loads."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; "
         f"print([m for m in {candidates!r} if m in sys.modules])"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_the_reference_interpreter_imports_no_engine():
    # C1 compares the engines with `ir.interp`, so it must not run their code
    assert _loaded("vmguard.ir.interp", [
        "vmguard.threaded", "vmguard.runtime", "vmguard.bundle",
        "vmguard.risa"]) == "[]"


def test_only_the_factories_cache_compiles_source():
    # every generated function in the package comes from `arith.Factories`
    package = pathlib.Path(vmguard.__file__).parent
    compiling = sorted(str(path.relative_to(package))
                       for path in package.rglob("*.py")
                       if "exec(" in path.read_text())
    assert compiling == ["arith.py"]


def test_only_the_run_harness_sets_the_recursion_limit():
    # every executor ends its run in `ir.interp.run_entry`, which raises
    # the limit for the run and restores it
    package = pathlib.Path(vmguard.__file__).parent
    setting = sorted(f"{path.relative_to(package)}:{fn.name}"
                     for path in package.rglob("*.py")
                     for fn in ast.walk(ast.parse(path.read_text()))
                     if isinstance(fn, ast.FunctionDef)
                     and "setrecursionlimit(" in ast.unparse(fn))
    assert setting == ["ir/interp.py:run_entry"]


def test_only_arith_writes_a_factory():
    # every generated block and handler is wrapped by `arith.factory_source`
    package = pathlib.Path(vmguard.__file__).parent
    writing = sorted(str(path.relative_to(package))
                     for path in package.rglob("*.py")
                     if "def factory(" in path.read_text())
    assert writing == ["arith.py"]


def test_the_bundle_format_imports_no_engine():
    # `verify` lives with the optimized engine's load check, so the
    # container format needs neither engine
    assert _loaded("vmguard.bundle",
                   ["vmguard.threaded", "vmguard.runtime"]) == "[]"
