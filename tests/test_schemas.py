"""The shipped JSON schemas: the compiled input predicate against jsonschema,
and every command's --json report against report-v1."""
import copy
import gc
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import weakref

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicurve import cli

ACCEPTS, VALIDATOR = cli._input_predicate(), cli._input_validator()

# ---------------------------------------------------------------------------
# Documents that input-v1 accepts, and mutations of them.
# ---------------------------------------------------------------------------

ints = st.integers(-(2**70), 2**70)
positive = st.integers(1, 2**70)
natural = st.integers(0, 2**70)
rationals = st.integers() | st.builds(
    lambda n, d: str(n) if d is None else f"{n}/{d}", st.integers(), st.none() | st.integers(0, 99)
)
chain_items = st.fixed_dictionaries({"c": positive, "d": positive}, optional={"degree": rationals}) | (
    st.fixed_dictionaries(
        {"a": positive, "b": positive}, optional={"l1": positive, "l2": positive, "degree": rationals}
    )
)
pieces = st.fixed_dictionaries({"d": ints}, optional={"k1": ints, "k2": ints})
entries = st.fixed_dictionaries(
    {
        "beta": st.fixed_dictionaries({"degrees": st.lists(rationals, min_size=1, max_size=3)}),
        "psi_power": natural,
        "row": natural,
        "col": natural,
        "value": rationals,
    },
    optional={"sectors": st.lists(rationals, min_size=2, max_size=2)},
)
documents = st.fixed_dictionaries(
    {},
    optional={
        "chain": st.lists(chain_items, min_size=1, max_size=4),
        "bundle": st.lists(st.lists(pieces, min_size=1, max_size=4), max_size=3),
        "twist": st.fixed_dictionaries(
            {"point": st.sampled_from(["x1", "x2"]), "sign": st.sampled_from([1, -1])}
        ),
        "wps": st.fixed_dictionaries(
            {"weights": st.lists(positive, min_size=2, max_size=4)},
            optional={"bundle": st.lists(positive, max_size=3)},
        ),
        "table": st.fixed_dictionaries({"entries": st.lists(entries, max_size=3)}, optional={"dim": natural}),
    },
)

# bools, integral and other floats, integers past 2**63, rational strings the
# pattern does and does not take, and chain items valid under both or neither
# branch of the chain item's oneOf
ODD_VALUES = [
    True, False, None, 0, 1, -1, 2.0, 1.0, -1.0, 0.5, float("nan"), 1e300,
    2**63, 2**64 + 1, -(2**63) - 1, "1/0", "-3", " 1", "1\n", "3/2", "1/-2", "",
    "x1", "x3", [], {}, [1], [[]], {"d": 1}, {"c": 1, "d": 1, "a": 1, "b": 1}, 5,
]
# schema text with quotes, backslashes and newlines: one string would end a
# string literal and call print() if it were pasted into source as it is, and
# one is not an identifier
HOSTILE = ["'", '"', "\\", "\n", "a'b\"c\\d\ne", "') or print('x') or ('", "\"\"\"'''", "x y"]
# drawn values are copied: a later mutation may edit them in place
values = (st.sampled_from(ODD_VALUES) | st.integers() | st.floats() | st.text(max_size=3)).map(copy.deepcopy)
keys = st.sampled_from(
    ["chain", "bundle", "twist", "wps", "table", "c", "d", "a", "b", "l1", "l2", "degree", "k1", "k2",
     "point", "sign", "weights", "entries", "dim", "beta", "degrees", "sectors", "psi_power", "row",
     "col", "value", "x"]
)


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _nodes(v, path + (i,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _mutate(data, doc):
    """Replace, delete, add or repeat up to three values anywhere in doc."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path, node = data.draw(st.sampled_from(list(_nodes(doc))))
        action = data.draw(st.sampled_from(["replace", "delete", "add", "repeat", "clear"]))
        if action == "replace":
            if not path:
                doc = data.draw(values)
                continue
            _at(doc, path[:-1])[path[-1]] = data.draw(values)
        elif action == "delete" and path:
            del _at(doc, path[:-1])[path[-1]]
        elif action == "add" and isinstance(node, dict):
            node[data.draw(keys)] = data.draw(values)
        elif action == "add" and isinstance(node, list):
            node.append(data.draw(values))
        elif action == "repeat" and isinstance(node, list) and node:
            node.append(copy.deepcopy(node[-1]))
        elif action == "clear" and isinstance(node, (dict, list)):
            node.clear()
    return doc


@settings(max_examples=300, deadline=None)
@given(documents)
def test_generated_documents_are_accepted(doc):
    assert VALIDATOR.is_valid(doc)
    assert ACCEPTS(doc)


@settings(max_examples=400, deadline=None)
@given(documents, st.data())
def test_compiled_predicate_agrees_with_jsonschema(doc, data):
    doc = _mutate(data, doc)
    assert ACCEPTS(doc) == VALIDATOR.is_valid(doc), doc


@pytest.mark.parametrize(
    "doc, valid",
    [
        ({"chain": [{"c": True, "d": 1}]}, False),
        ({"chain": [{"a": 1, "b": 1, "l1": 2.0}]}, False),
        ({"bundle": [[{"d": 2.0}]]}, False),
        ({"bundle": [[{"d": 2**64 + 1, "k1": -(2**63) - 1}]]}, True),
        ({"wps": {"weights": [2**63, 1]}}, True),
        ({"chain": [{"a": 1, "b": 1, "degree": "1/0"}]}, True),
        ({"chain": [{"a": 1, "b": 1, "degree": "-3"}]}, True),
        ({"chain": [{"a": 1, "b": 1, "degree": " 1"}]}, False),
        # "$" also matches before a final newline, and Fraction strips it
        ({"chain": [{"a": 1, "b": 1, "degree": "1\n"}]}, True),
        ({"chain": [{"a": 1, "b": 1, "degree": 1.5}]}, False),
        ({"twist": {"point": "x1", "sign": True}}, False),
        ({"twist": {"point": "x1", "sign": -1.0}}, True),
        ({"chain": [5]}, False),
        ({"chain": [{}]}, False),
        ({"chain": [{"c": 1, "d": 1, "a": 1, "b": 1}]}, False),
        ({"chain": []}, False),
        ({"table": {"entries": [{"beta": {"degrees": [1]}, "sectors": [0, 0, 0], "psi_power": 0,
                                 "row": 0, "col": 0, "value": 1}]}}, False),
        ([], False),
    ],
)
def test_predicate_on_edge_documents(doc, valid):
    assert VALIDATOR.is_valid(doc) is valid
    assert ACCEPTS(doc) is valid


@pytest.mark.parametrize(
    "schema",
    [
        {"required": ["a"]},
        {"properties": {"a": {"minimum": 1}}},
        {"additionalProperties": False, "properties": {"a": {}}},
        {"minimum": 1},
        {"items": {"type": "string"}, "minItems": 1, "maxItems": 2},
        {"pattern": "^a"},
        {"enum": [1, "a"]},
        {"oneOf": [{"minimum": 0}, {"minimum": 1}]},
        {"oneOf": [{"type": "string"}, {"$ref": "#/$defs/x"}], "$defs": {"x": {"type": "array"}}},
        # schema text that is not a plain word enters the generated source as a literal
        {"properties": {k: {"minimum": 1} for k in HOSTILE}, "required": HOSTILE[:2], "additionalProperties": False},
        {"properties": {HOSTILE[-1]: {"enum": HOSTILE}}},
        {"enum": HOSTILE + [1]},
        {"items": {"pattern": "^['\"]|'''|\\\\"}},
    ],
)
def test_each_keyword_applies_as_in_jsonschema(schema):
    # input-v1 hides some of these semantics behind a sibling "type": a chain
    # item of the wrong type fails "type" whatever its "required" says
    accepts, validator = cli._compile(schema), jsonschema.Draft202012Validator(schema)
    hostile = HOSTILE + [{k: v for k in HOSTILE[:n]} for n in (2, len(HOSTILE)) for v in (0, 1, "x")]
    hostile += [{HOSTILE[-1]: v} for v in HOSTILE] + [HOSTILE, ["'''", "a"], ["a\\b"]]
    for value in ODD_VALUES + [{"a": 0}, {"a": 1, "b": 1}, ["a", "b", "c"], ["b"], "ab"] + hostile:
        assert accepts(value) == validator.is_valid(value), value


@pytest.mark.parametrize(
    "schema",
    [
        {"maximum": 3},
        {"type": ["object", "null"]},
        {"type": "number"},
        {"additionalProperties": {"type": "integer"}},
        {"items": {"anyOf": [{"type": "integer"}]}},
        {"$ref": "other.json#/$defs/x"},
        {"enum": [[1]]},
        {"properties": {"x": True}},
    ],
)
def test_compiler_rejects_unsupported_keywords(schema):
    with pytest.raises(ValueError, match="unsupported"):
        cli._compile(schema)


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------

CHAIN_DOC = {"chain": [{"c": 1, "d": 2}, {"a": 2, "b": 1}], "bundle": [[{"d": 4}, {"d": 2}], [{"d": 2}, {"d": 0}]]}
TABLE_DOC = {
    "wps": {"weights": [1, 1], "bundle": [2]},
    "table": {
        "dim": 1,
        "entries": [{"beta": {"degrees": [1, 1]}, "sectors": [0, 0], "psi_power": 0, "row": 0, "col": 0, "value": "3"}],
    },
}


def _floats(node):
    if isinstance(node, float):
        return [node]
    items = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    return [x for item in items for x in _floats(item)]


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "{chain}"],
        ["cohomology", "{twisted}"],
        ["convexity", "{chain}"],
        ["rank", "--beta-detE", "1/2", "--g1", "0", "--g2", "1/2"],
        ["sign", "--beta-detE", "1/3", "--g1", "1/3", "--g2", "1/2"],
        ["wps", "sectors", "--weights", "1,1,2,2", "--bundle", "1"],
        ["wps", "pairing", "--weights", "1,2,3"],
        ["wps", "verify", "--weights", "1,1,2,2", "--bundle", "1"],
        ["series-verify", "{table}"],
        pytest.param(["verify", "--suite", "qsd-operator", "--trials", "2"], id="verify-qsd-operator"),
        ["verify", "--suite", "thm-weak-convexity", "--max-a", "2", "--max-l", "2", "--max-d", "1", "--max-len", "2"],
    ],
    ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("{")),
)
def test_reports_follow_the_report_schema(tmp_path, capsys, argv):
    files = {}
    for name, doc in [("chain", CHAIN_DOC), ("twisted", dict(CHAIN_DOC, twist={"point": "x2", "sign": -1})),
                      ("table", TABLE_DOC)]:
        files["{" + name + "}"] = path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
    code = cli.main(["--json"] + [str(files.get(a, a)) for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    jsonschema.Draft202012Validator(cli.load_schema("report-v1.json")).validate(report)
    assert report["command"] == argv[0]
    # exact values are strings or integers, never floats
    assert _floats(report) == []


def test_schema_validator_is_freed_with_its_module():
    # a process that imports the package afresh, as perfbench does for each
    # pass, must get the memory of the old copy back
    spec = importlib.util.find_spec("orbicurve.cli")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.raises(module.InputError, match="schema violation at /chain/0: "):
        module.validate_document({"chain": [{"c": 1.0, "d": 1}]})
    validator = weakref.ref(module._input_validator())
    del module
    gc.collect()
    assert validator() is None


def test_valid_documents_do_not_import_jsonschema(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(CHAIN_DOC))
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    script = (
        "import sys; from orbicurve import cli; "
        f"code = cli.main(['--json', 'cohomology', {str(path)!r}]); "
        "print(code, 'jsonschema' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])),
    )
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr
