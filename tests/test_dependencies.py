"""The package has no runtime dependencies (``dependencies = []``).

Every import in ``src/bmwade`` is either relative to the package or a module
of the standard library, so the package runs on a bare interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import bmwade

PACKAGE_DIR = Path(bmwade.__file__).resolve().parent


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_import_is_relative_or_standard_library():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) >= 8
    outside = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, name in _imported_modules(tree):
            top = name.split(".")[0]
            if top != "bmwade" and top not in sys.stdlib_module_names:
                outside.append(f"{path.name}:{lineno}: {name}")
    assert outside == []


def test_lkrep_loads_only_what_it_uses():
    # the package root re-exports nothing, and DynkinType needs no dataclasses
    # (which would pull in inspect), so importing the T recursion loads neither
    # the checks nor the word rewriting
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, bmwade.lkrep; print(*sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert "bmwade.lkrep" in loaded
    assert loaded.isdisjoint({"dataclasses", "bmwade.verify", "bmwade.wordalg"})
