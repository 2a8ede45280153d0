"""Rules every module of the package keeps.

`python -O` strips `assert` statements, so a cross-check written as one
vanishes under -O; the package raises instead.  The package promises exact
arithmetic, so it imports no complex floating-point math.
"""
import ast
from pathlib import Path

import pytest

import orbicurve

SOURCES = sorted(Path(orbicurve.__file__).parent.glob("*.py"))


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_cmath_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "cmath" not in {name.split(".")[0] for name in _imported_modules(tree)}, path.name


def test_rules_see_every_module():
    assert {p.name for p in SOURCES} >= {"curves.py", "bundles.py", "cohomology.py", "cli.py", "suites.py"}
