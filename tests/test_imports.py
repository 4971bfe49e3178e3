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
