"""The package has no runtime dependencies (``dependencies = []``), no
member that only the tests call, and a coefficient-ring interface that no
ring restates.

Every import in ``src/bmwade`` is either relative to the package or a module
of the standard library, so the package runs on a bare interpreter.  Every
function and method in ``src/bmwade`` is named somewhere in the package or
in ``benchmarks/``; reference code that only the tests use lives in the tests.
"""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import bmwade
from bmwade.lkrep import CharacterSpecialization, LawrenceKrammer
from bmwade.rootsys import build_type

PACKAGE_DIR = Path(bmwade.__file__).resolve().parent
BENCHMARK_DIR = PACKAGE_DIR.parents[1] / "benchmarks"

# members that nothing in the package or the benchmarks names yet, each with
# the reason it stays
UNCALLED_ALLOWED: dict[str, str] = {}


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


def _loaded_by(module):
    """The modules a bare interpreter (no site) holds after importing module."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys, {module}; print(*sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    return set(proc.stdout.split())


def test_lkrep_loads_only_what_it_uses():
    # the package root re-exports nothing, and DynkinType needs no dataclasses
    # (which would pull in inspect), so importing the T recursion loads neither
    # the checks nor the word rewriting
    loaded = _loaded_by("bmwade.lkrep")
    assert "bmwade.lkrep" in loaded
    assert loaded.isdisjoint({"dataclasses", "bmwade.verify", "bmwade.wordalg"})


def test_cli_loads_neither_dataclasses_nor_inspect():
    # CheckResult is a namedtuple and SuiteReport a plain class, so no command
    # pays for dataclasses and the inspect module it imports
    loaded = _loaded_by("bmwade.cli")
    assert {"bmwade.cli", "bmwade.verify"} <= loaded
    assert loaded.isdisjoint({"dataclasses", "inspect"})


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                yield first.value


def test_every_member_is_named_by_the_program():
    # a Name, an Attribute or a string constant (the tracer patches members
    # by name) in the package or the benchmarks counts as a use
    sources = sorted(PACKAGE_DIR.glob("*.py")) + sorted(BENCHMARK_DIR.glob("*.py"))
    assert len(sources) >= 15
    named, defined = set(), []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = set(map(id, _docstrings(tree)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and id(node) not in docstrings:
                named.add(node.value)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and path.parent == PACKAGE_DIR \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
    uncalled = [f"{where}: {name}" for name, where in defined
                if name not in named and name not in UNCALLED_ALLOWED]
    assert uncalled == []
    # an allowed member that gained a caller, or went, leaves the list
    stale = [name for name in UNCALLED_ALLOWED
             if name in named or name not in {n for n, _ in defined}]
    assert stale == []


def test_rings_state_only_their_interface_and_keep_one_memo():
    # zero, linv, x, l_over_m, z_inv and h_elem are derived by LKRepresentation
    # from a ring's unit, z, l and m, and no ring states them again
    own = {
        LawrenceKrammer: {"__init__", "z", "unit", "h_oracle", "t_closed_form"},
        CharacterSpecialization: {"__init__", "z", "unit", "t_char", "t_coeff", "t_closed_form"},
    }
    for ring, members in own.items():
        assert {n for n in vars(ring) if n == "__init__" or not n.startswith("__")} == members
    rs = build_type("A2")
    for rep in (LawrenceKrammer(rs), CharacterSpecialization(rs, Fraction(5, 7), Fraction(3, 2))):
        for i in rs.nodes:
            rep.sigma_inv(i)
            rep.tau(i)
        memos = [name for name, value in vars(rep).items() if isinstance(value, dict)]
        assert len(memos) == 1, memos
