"""Rules every module of the package keeps.

`python -O` strips `assert` statements, so a cross-check written as one
vanishes under -O; the package raises instead.  The package promises exact
arithmetic, so it imports no complex floating-point math.  No module imports
`linalg`, the dense Fraction row reduction the tests compare against, so the
only elimination kernel on a library path is the chain oracle's.  The oracles
that the suites replay against the fast path stay independent of it: `oracles`
names none of the fast path's kernels, and only `suites` imports `oracles`.
`suites` writes its bundle grid once: only `_bundle_grid` constructs an
`EqLineBundle`, and the replays build their chain bundles on its bundles; and
it keeps no cache from one call to the next, so a fault reaches every call.
A component computes its modular inverses once, when it is built, so
`bundles` and `cohomology` take no three-argument `pow`.  The pairing blocks are turned into cells in `wps`
alone: no other module names `pairing_blocks` or `_partner`.  The operators
of `series` are compared on their stored cells: no module reads the dense
expansion `LOperator.matrix_at`, which only tests use.  The library is a
function of its arguments: no module reads the process environment.  The one
text the package turns into code is the input schema, in `cli._compile`: no
other function names `exec`, `eval` or `compile`.  A phase has one type,
`PhasedScalar`: no module names a `Phase` class or `from_phase`.
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


# The fast-path kernels each oracle is checked against.
FAST_PATH = {
    "chain_step", "piece_ends", "CHAIN_START", "h_chain",  # cohomology
    "pairing_blocks", "pairing_rows", "pairing_gram", "comparison_sides",  # wps
    "_age_data", "age_at", "acts_trivially_at",  # bundles
}


def _names(tree: ast.AST):
    """Every identifier the code binds, reads or imports (not strings or comments)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_oracles_name_no_fast_path_kernel():
    path = Path(orbicurve.__file__).parent / "oracles.py"
    used = FAST_PATH & set(_names(ast.parse(path.read_text(), filename=str(path))))
    assert used == set(), f"oracles.py uses fast-path names {sorted(used)}"


def test_only_wps_names_the_pairing_blocks():
    # the rule that turns blocks into cells is written once, in `wps`; the
    # other modules read the pairings as rows or as a Gram matrix
    naming = {
        p.name
        for p in SOURCES
        if {"_partner", "pairing_blocks"} & set(_names(ast.parse(p.read_text(), filename=str(p))))
    }
    assert naming == {"wps.py"}


NOT_SUITES = [p for p in SOURCES if p.name not in ("suites.py", "oracles.py")]


def _import_names(path: Path) -> set:
    tree = ast.parse(path.read_text(), filename=str(path))
    return {name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)) for name in _names(n)}


@pytest.mark.parametrize("path", NOT_SUITES, ids=lambda p: p.name)
def test_only_suites_imports_oracles(path):
    assert "oracles" not in _import_names(path), path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_linalg_import(path):
    assert "linalg" not in _import_names(path), path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_second_phase_type(path):
    # a root of unity e^{i*pi*r} is a `PhasedScalar.root`, and a sign exponent
    # a Fraction mod 2: no module defines or names a separate phase class
    names = set(_names(ast.parse(path.read_text(), filename=str(path))))
    assert {"Phase", "from_phase"} & names == set(), path.name


def _scopes_naming(tree: ast.AST, name: str) -> set:
    """The innermost functions (None at module level) whose code names `name`."""
    scopes = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and name in node.name.split("."))
        ):
            scopes.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return scopes


def test_suites_build_bundles_only_in_the_grid_and_the_replays():
    path = Path(orbicurve.__file__).parent / "suites.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _scopes_naming(tree, "EqLineBundle") == {"_bundle_grid"}


def test_suites_keep_no_cache_between_calls():
    # every chain sweep builds its tables and memos inside the call, so a
    # fault or a patch reaches the next call whatever ran before
    path = Path(orbicurve.__file__).parent / "suites.py"
    names = set(_names(ast.parse(path.read_text(), filename=str(path))))
    assert names & {"lru_cache", "cache", "__getattr__"} == set()


@pytest.mark.parametrize("name", ["bundles.py", "cohomology.py"])
def test_counts_take_no_modular_inverse(name):
    path = Path(orbicurve.__file__).parent / name
    calls = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "pow"
        and len(node.args) == 3
    ]
    assert calls == [], f"{name}: three-argument pow at lines {calls}"


def test_no_module_reads_the_dense_operator_expansion():
    readers = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "matrix_at") or (
                isinstance(node, ast.Name) and node.id == "matrix_at"
            ):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    names = set(_names(ast.parse(path.read_text(), filename=str(path))))
    assert names & {"environ", "environb", "getenv", "getenvb"} == set(), path.name


def test_only_the_schema_compiler_runs_generated_code():
    # by the outermost definition around each use, so the helpers nested in
    # `_compile` count as `_compile`; `re.compile` counts as well
    users = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in {"exec", "eval", "compile"}:
                    users.add((path.name, getattr(top, "name", None)))
    assert users == {("cli.py", "_compile")}


def test_rules_see_every_module():
    assert {p.name for p in SOURCES} >= {
        "curves.py", "bundles.py", "cohomology.py", "cli.py", "suites.py", "oracles.py"
    }
