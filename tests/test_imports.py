"""Every module of the package must import on its own: a fresh
interpreter per module catches import cycles that an already-populated
`sys.modules` would hide."""

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


def test_the_reference_interpreter_imports_no_engine():
    # C1 compares the engines with `ir.interp`, so it must not run their code
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    engines = ["vmguard.threaded", "vmguard.runtime", "vmguard.bundle",
               "vmguard.risa"]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, vmguard.ir.interp; "
         f"print([m for m in {engines!r} if m in sys.modules])"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_only_the_factories_cache_compiles_source():
    # every generated function in the package comes from `arith.Factories`
    package = pathlib.Path(vmguard.__file__).parent
    compiling = sorted(str(path.relative_to(package))
                       for path in package.rglob("*.py")
                       if "exec(" in path.read_text())
    assert compiling == ["arith.py"]


def test_only_arith_writes_a_factory():
    # every generated block and handler is wrapped by `arith.factory_source`
    package = pathlib.Path(vmguard.__file__).parent
    writing = sorted(str(path.relative_to(package))
                     for path in package.rglob("*.py")
                     if "def factory(" in path.read_text())
    assert writing == ["arith.py"]
