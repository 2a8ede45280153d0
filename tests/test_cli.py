"""Command-line front end: parsing, reports, determinism, exit codes."""
import inspect
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from orbicurve import cli, cohomology, convexity, curves, suites


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_doc(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_valid_chain_bundle_document():
    doc = {"chain": [{"c": 4, "d": 6}], "bundle": [[{"k1": 0, "k2": 0, "d": 2}]]}
    cli.validate_document(doc)
    chain = cli.parse_chain(doc)
    split = cli.parse_split_bundle(doc, chain)
    assert len(chain.components) == 1 and split.rank == 1
    assert chain.components[0].l1 == 2


def test_parse_rejects_gcd_violation():
    doc = {"chain": [{"a": 2, "b": 4}]}
    cli.validate_document(doc)  # schema-valid, semantically wrong
    with pytest.raises(cli.InputError, match=r"gcd\(a,b\)=2"):
        cli.parse_chain(doc)


def test_parse_builds_each_distinct_component_once(monkeypatch):
    # the same component written three ways, and P(1,1) presented by its orders
    doc = {"chain": [{"a": 1, "b": 1}, {"c": 1, "d": 1}, {"a": 1, "b": 1, "l1": 1, "l2": 1}, {"c": 1, "d": 1},
                     {"a": 1, "b": 1, "l2": 1}]}
    cli.validate_document(doc)
    built = []
    checks = curves.TwistedComponent.__post_init__
    monkeypatch.setattr(curves.TwistedComponent, "__post_init__", lambda self: built.append(self) or checks(self))
    chain = cli.parse_chain(doc)
    assert len(built) == 2  # one for (a, b, l1, l2) = (1, 1, 1, 1), one for (c, d) = (1, 1)
    assert chain.components == (curves.TwistedComponent(1, 1),) * 5
    assert chain.components[0] is chain.components[2] is chain.components[4]
    assert chain.components[1] is chain.components[3]


@pytest.mark.parametrize(
    "chain, message",
    [
        ([{"a": 1, "b": 1}, {"a": 2, "b": 4}, {"a": 2, "b": 4}, {"a": 3, "b": 6}], "chain[1]: gcd(a,b)=2 != 1"),
        ([{"a": 1, "b": 1}] * 3 + [{"a": 1, "b": 1, "l1": 2, "l2": 2}], "chain[3]: gcd(l1,l2)=2 != 1"),
    ],
)
def test_parse_reports_the_first_invalid_entry_by_its_index(chain, message):
    doc = {"chain": chain}
    cli.validate_document(doc)
    with pytest.raises(cli.InputError, match=f"^{re.escape(message)}$"):
        cli.parse_chain(doc)


@pytest.mark.parametrize("degrees", [(None, None), ("3/2", None), (None, 2)])
def test_missing_degree_round_trips_as_one(degrees):
    doc = {"chain": [dict({"a": 1, "b": 1}, **({} if d is None else {"degree": d})) for d in degrees]}
    chain = cli.parse_chain(doc)
    assert chain.degree_tags == tuple(Fraction(1 if d is None else d) for d in degrees)
    if degrees == (None, None):  # one shared default tag, not a fresh 1 per component
        assert chain.degree_tags[0] is chain.degree_tags[1]
    out = cli.serialize_document(chain)
    assert [item["degree"] for item in out["chain"]] == ["1" if d is None else str(d) for d in degrees]
    assert cli.parse_chain(out) == chain


def test_schema_violation_reports_pointer():
    with pytest.raises(cli.InputError, match="schema violation at /chain/0"):
        cli.validate_document({"chain": [{"c": 0, "d": 6}]})


def test_wps_document():
    doc = {"wps": {"weights": [1, 1, 2, 2], "bundle": [1]}}
    cli.validate_document(doc)
    model = cli.parse_wps(doc)
    assert model.weights == (1, 1, 2, 2) and model.bundle_degrees == (1,)


def test_roundtrip_canonical_document():
    doc = {
        "chain": [{"a": 2, "b": 3, "l1": 2, "l2": 1, "degree": "1"}],
        "bundle": [[{"k1": 1, "k2": 0, "d": 4}]],
    }
    chain = cli.parse_chain(doc)
    split = cli.parse_split_bundle(doc, chain)
    out = cli.serialize_document(chain, split)
    assert out == doc
    # and parsing the serialized form is a fixed point
    chain2 = cli.parse_chain(out)
    split2 = cli.parse_split_bundle(out, chain2)
    assert cli.serialize_document(chain2, split2) == out


def test_cohomology_command(tmp_path, capsys):
    path = write_doc(
        tmp_path, {"chain": [{"c": 1, "d": 2}], "bundle": [[{"k1": 0, "k2": 0, "d": 3}]]}
    )
    code, out, _ = run_cli(capsys, "--json", "cohomology", path)
    assert code == 0
    report = json.loads(out)
    assert report["results"] == {"h0": 2, "h1": 0, "euler_char": "2"}


def test_cohomology_command_multisummand_with_twist(tmp_path, capsys):
    doc = {
        "chain": [{"c": 1, "d": 1}],
        "bundle": [[{"d": 2}], [{"d": -1}]],
        "twist": {"point": "x2", "sign": -1},
    }
    code, out, _ = run_cli(capsys, "--json", "cohomology", write_doc(tmp_path, doc))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["summands"][0] == {"h0": 2, "h1": 0, "euler_char": "2"}
    assert results["summands"][1] == {"h0": 0, "h1": 1, "euler_char": "-1"}


@pytest.mark.parametrize(
    "doc",
    [
        {"chain": [{"c": 1, "d": 1}] * 2, "bundle": [[{"d": 10**18}, {"d": -(10**18)}]]},
        {"chain": [{"c": 10**18 + 3, "d": 10**18 + 3}], "bundle": [[{"d": 10**18 + 3}]]},
    ],
    ids=["degree-1e18", "isotropy-1e18"],
)
def test_cohomology_cost_is_bounded_by_input_size(tmp_path, doc):
    # cost follows the size of the numbers, not their magnitude: no count
    # walks the degree and no presentation factors the isotropy orders
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "orbicurve.cli", "--json", "cohomology", write_doc(tmp_path, doc)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results["h0"] - results["h1"] == Fraction(results["euler_char"])


def test_convexity_command(tmp_path, capsys):
    doc = {"chain": [{"c": 1, "d": 1}], "bundle": [[{"d": 1}], [{"d": 0}]]}
    code, out, _ = run_cli(capsys, "--json", "convexity", write_doc(tmp_path, doc))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["weakly_semipositive"] and results["weakly_convex"]
    assert results["weakly_concave_dual"] and results["witnesses"] == []


def test_input_error_exit_code(tmp_path, capsys):
    path = write_doc(tmp_path, {"chain": [{"a": 2, "b": 4}]})
    code, _, err = run_cli(capsys, "--json", "cohomology", path)
    assert code == 2 and "gcd(a,b)=2" in err


def _expected_sign(beta: str, g1: str, g2: str) -> dict:
    """The `sign` results from Fractions: the rank formula beta - age(g1) +
    age(dual g2), the shorter weight list padded with zeros, taken mod 2."""
    w1, w2 = ([Fraction(w) for w in g.split(",")] if g else [] for g in (g1, g2))
    rank = max(len(w1), len(w2))
    w1, w2 = w1 + [Fraction(0)] * (rank - len(w1)), w2 + [Fraction(0)] * (rank - len(w2))
    value = Fraction(beta) - sum(w1) + sum(1 - w for w in w2 if w)
    out = {"exponent": str(value % 2), "sign": (-1) ** value.numerator if value.denominator == 1 else None}
    if value.denominator != 1:
        out["realizable"] = False
    return out


def test_sign_command(capsys):
    # (beta, g1, g2, results): integer, odd and negative degrees, unrealizable
    # inputs, and weight lists of unequal length padded with zeros
    grid = [
        ("2", "1/3", "2/3", {"exponent": "0", "sign": 1}),
        ("3", "1/2", "1/2", {"exponent": "1", "sign": -1}),
        ("-3/2", "0", "1/2", {"exponent": "1", "sign": -1}),
        ("-3/2", "1/2", "0", {"exponent": "0", "sign": 1}),
        ("1/3", "1/2", "1/2", {"exponent": "1/3", "sign": None, "realizable": False}),
        ("-3/2", "", "", {"exponent": "1/2", "sign": None, "realizable": False}),
        ("1/2", "", "1/2", {"exponent": "1", "sign": -1}),
        ("1", "1/4,1/4", "1/2", {"exponent": "1", "sign": -1}),
        ("0", "1/3,2/3", "1/3", {"exponent": "5/3", "sign": None, "realizable": False}),
    ]
    for beta, g1, g2, shown in grid:
        code, out, err = run_cli(capsys, "--json", "sign", f"--beta-detE={beta}", "--g1", g1, "--g2", g2)
        assert code == 0 and err == ""
        assert json.loads(out)["results"] == _expected_sign(beta, g1, g2) == shown, (beta, g1, g2)


def test_rank_command(capsys):
    code, out, _ = run_cli(capsys, "--json", "rank", "--beta-detE", "1/2", "--g1", "0", "--g2", "1/2")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["rank"] == "1" and results["is_integer"]


def test_wps_sectors_command(capsys):
    code, out, _ = run_cli(capsys, "--json", "wps", "sectors", "--weights", "1,1,2,2", "--bundle", "1")
    assert code == 0
    sectors = json.loads(out)["results"]["sectors"]
    assert [s["f"] for s in sectors] == ["0", "1/2"]
    assert sectors[1]["age"] == "1/2"


def test_wps_verify_cost_follows_the_blocks(capsys):
    # 3201^2 entries: about 0.3 s on the sector blocks, minutes and gigabytes
    # on a dense Gram matrix
    code, out, _ = run_cli(capsys, "--json", "wps", "verify", "--weights", "1,3200", "--bundle", "1")
    results = json.loads(out)["results"]
    assert code == 0 and results["ok"] and results["pairing_checks"] == 3201**2


def test_wps_verify_command_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--json", "wps", "verify", "--weights", "1,1,2,2", "--bundle", "1")
    code2, out2, _ = run_cli(capsys, "--json", "wps", "verify", "--weights", "1,1,2,2", "--bundle", "1")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports


WPS_GOLDEN = {
    ("pairing", "1,1,2,2", "1"): '{"command":"wps","results":{"basis":["H^0@0","H^1@0","H^2@0","H^3@0","H^0@1/2","H^1@1/2"],"cr_pairing":[["0","0","0","1/4","0","0"],["0","0","1/4","0","0","0"],["0","1/4","0","0","0","0"],["1/4","0","0","0","0","0"],["0","0","0","0","0","1/4"],["0","0","0","0","1/4","0"]],"model":"P(1,1,2,2)/O(1)"}}',
    ("verify", "1,1,2,2", "1"): '{"command":"wps","results":{"iso_sectors":[{"ambient_pairing_rank":3,"f":"0","image_dim":3,"kernel_stable":true},{"ambient_pairing_rank":2,"f":"1/2","image_dim":2,"kernel_stable":true}],"model":"P(1,1,2,2)/O(1)","ok":true,"pairing_checks":36,"pairing_failures":[]}}',
    ("pairing", "1,2,3", None): '{"command":"wps","results":{"basis":["H^0@0","H^1@0","H^2@0","H^0@1/3","H^0@1/2","H^0@2/3"],"cr_pairing":[["0","0","1/6","0","0","0"],["0","1/6","0","0","0","0"],["1/6","0","0","0","0","0"],["0","0","0","0","0","1/3"],["0","0","0","0","1/2","0"],["0","0","0","1/3","0","0"]],"model":"P(1,2,3)"}}',
    ("verify", "1,2,3", None): '{"command":"wps","results":{"iso_sectors":[{"ambient_pairing_rank":3,"f":"0","image_dim":3,"kernel_stable":true},{"ambient_pairing_rank":1,"f":"1/3","image_dim":1,"kernel_stable":true},{"ambient_pairing_rank":1,"f":"1/2","image_dim":1,"kernel_stable":true},{"ambient_pairing_rank":1,"f":"2/3","image_dim":1,"kernel_stable":true}],"model":"P(1,2,3)","ok":true,"pairing_checks":36,"pairing_failures":[]}}',
}


@pytest.mark.parametrize("key", list(WPS_GOLDEN), ids=lambda k: f"{k[0]}-P({k[1]})")
def test_wps_pairing_and_verify_golden_output(capsys, key):
    # reports recorded from the elementwise pairing implementation, byte for byte
    command, weights, bundle = key
    argv = ["--json", "wps", command, "--weights", weights] + (["--bundle", bundle] if bundle else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == WPS_GOLDEN[key] + "\n"


# P(1,2,3)/O(1): phases of order 3, 4, 6 and 8 from the ages and the det degrees
SERIES_TABLE_DOC = {
    "wps": {"weights": [1, 2, 3], "bundle": [1]},
    "table": {
        "dim": 5,
        "entries": [
            {"beta": {"degrees": [1, "-5/4"]}, "sectors": [0, "1/3"], "psi_power": 0, "row": 0, "col": 2, "value": "-7/4"},
            {"beta": {"degrees": [1, "-5/4"]}, "sectors": ["1/2", "2/3"], "psi_power": 1, "row": 3, "col": 4, "value": "4/3"},
            {"beta": {"degrees": [2, "-4/3"]}, "sectors": ["1/3", "1/3"], "psi_power": 0, "row": 2, "col": 2, "value": 2},
            {"beta": {"degrees": [2, "-4/3"]}, "sectors": ["2/3", "1/2"], "psi_power": 2, "row": 4, "col": 3, "value": "-2"},
            {"beta": {"degrees": [2, "1/2"]}, "sectors": [0, 0], "psi_power": 1, "row": 1, "col": 0, "value": "9/2"},
            {"beta": {"degrees": [2, "1/2"]}, "sectors": ["1/2", 0], "psi_power": 0, "row": 3, "col": 1, "value": "3/5"},
        ],
    },
}

SERIES_GOLDEN = {
    "4": '{"command":"series-verify","results":{"coefficient_checks":150,"first_violation":null,"model":"P(1,2,3)/O(1)","ok":true,"state_dim":5}}',
    "1": '{"command":"series-verify","results":{"coefficient_checks":50,"first_violation":null,"model":"P(1,2,3)/O(1)","ok":true,"state_dim":5}}',
}


@pytest.mark.parametrize("order", list(SERIES_GOLDEN))
def test_series_verify_golden_output(tmp_path, capsys, order):
    # reports recorded from the group-ring PhasedScalar, byte for byte
    code, out, _ = run_cli(capsys, "--json", "--order", order, "series-verify", write_doc(tmp_path, SERIES_TABLE_DOC))
    assert code == 0
    assert out == SERIES_GOLDEN[order] + "\n"


# The classes of SERIES_TABLE_DOC and two more, each class and sector written
# several ways ("2/2" is 1, 4/3 is the sector 1/3), with two pairs of entries
# that cancel: entries 0 and 2, and entries 8 and 9.
REPEATING_TABLE_DOC = {
    "wps": {"weights": [1, 2, 3], "bundle": [1]},
    "table": {
        "dim": 5,
        "entries": [
            {"beta": {"degrees": [1, "-5/4"]}, "sectors": [0, "1/3"], "psi_power": 0, "row": 0, "col": 2, "value": "-7/4"},
            {"beta": {"degrees": ["1", "-5/4"]}, "sectors": ["1/2", "2/3"], "psi_power": 1, "row": 3, "col": 4, "value": "4/3"},
            {"beta": {"degrees": ["2/2", "-10/8"]}, "sectors": [0, "1/3"], "psi_power": 0, "row": 0, "col": 2, "value": "7/4"},
            {"beta": {"degrees": [2, "-4/3"]}, "sectors": ["1/3", "1/3"], "psi_power": 0, "row": 2, "col": 2, "value": 2},
            {"beta": {"degrees": [2, "-4/3"]}, "sectors": ["4/3", "1/3"], "psi_power": 0, "row": 2, "col": 2, "value": "2"},
            {"beta": {"degrees": [2, "-4/3"]}, "sectors": ["2/3", "1/2"], "psi_power": 2, "row": 4, "col": 3, "value": "-2"},
            {"beta": {"degrees": [3, "-4/3"]}, "sectors": ["2/3", "1/2"], "psi_power": 1, "row": 4, "col": 3, "value": "-2"},
            {"beta": {"degrees": [2, "1/2"]}, "sectors": [0, 0], "psi_power": 1, "row": 1, "col": 0, "value": "9/2"},
            {"beta": {"degrees": ["2", "1/2"]}, "sectors": ["1/2", 0], "psi_power": 0, "row": 3, "col": 1, "value": "3/5"},
            {"beta": {"degrees": [2, "2/4"]}, "sectors": ["1/2", "0"], "psi_power": 0, "row": 3, "col": 1, "value": "-3/5"},
            {"beta": {"degrees": [5, "1/2"]}, "psi_power": 0, "row": 1, "col": 1, "value": "3/5"},
        ],
    },
}


@pytest.mark.parametrize("order, checks", [("1", 25), ("2", 100), ("3", 125), ("5", 150)])
def test_series_verify_golden_output_on_repeated_classes_and_sectors(tmp_path, capsys, order, checks):
    # recorded byte for byte from a parser that built each entry's class and scalars afresh
    got = run_cli(capsys, "--json", "--order", order, "series-verify", write_doc(tmp_path, REPEATING_TABLE_DOC))
    report = f'"coefficient_checks":{checks},"first_violation":null,"model":"P(1,2,3)/O(1)","ok":true,"state_dim":5'
    assert got == (0, '{"command":"series-verify","results":{' + report + "}}\n", "")


@pytest.mark.parametrize(
    "degrees, message",
    [
        (["-1", 0], "ordering degree must be non-negative: (Fraction(-1, 1), Fraction(0, 1))"),
        ([0, "1/2"], "ordering degree 0 forces the zero class: (Fraction(0, 1), Fraction(1, 2))"),
    ],
)
def test_series_verify_refuses_an_invalid_class_among_shared_ones(tmp_path, capsys, degrees, message):
    doc = json.loads(json.dumps(REPEATING_TABLE_DOC))
    doc["table"]["entries"][4]["beta"]["degrees"] = degrees
    assert run_cli(capsys, "--json", "series-verify", write_doc(tmp_path, doc)) == (2, "", f"input error: {message}\n")


def test_parse_table_builds_each_class_and_scalar_once_per_document():
    cli.validate_document(REPEATING_TABLE_DOC)
    entries = cli.parse_table(REPEATING_TABLE_DOC, 5).entries
    betas = [e.beta for e in entries]
    # one object per class, however its degrees are written
    assert len(set(map(id, betas))) == len(set(betas)) == 5
    assert all(beta is next(b for b in betas if b == beta) for beta in betas)
    # one Fraction per distinct scalar: the value "-2" of entries 5 and 6, the sector "1/3" of entries 0 and 2
    assert entries[5].value is entries[6].value and entries[0].sectors[1] is entries[2].sectors[1]
    # a second call shares nothing with the first
    assert all(e.beta == again.beta and e.beta is not again.beta
               for e, again in zip(entries, cli.parse_table(REPEATING_TABLE_DOC, 5).entries))


@pytest.mark.parametrize("where", ["degrees", "value"])
def test_parse_table_refuses_a_bool_after_an_equal_int(where):
    # True == 1, so a scalar shared by value alone would let it through
    entries = [
        {"beta": {"degrees": [1, 1]}, "psi_power": 0, "row": 0, "col": 0, "value": 1},
        {"beta": {"degrees": [1, 1]}, "psi_power": 0, "row": 0, "col": 0, "value": 1},
    ]
    if where == "degrees":
        entries[1]["beta"]["degrees"] = [True, 1]
    else:
        entries[1]["value"] = True
    with pytest.raises(cli.InputError, match="^expected an exact rational, got True$"):
        cli.parse_table({"table": {"entries": entries}}, 1)


CHAIN_DOC = {"chain": [{"c": 1, "d": 1}], "bundle": [[{"d": 1}], [{"d": 0}]]}
WPS_DOC = {"wps": {"weights": [1, 1, 2, 2], "bundle": [1]}}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["cohomology"], CHAIN_DOC),
        (["convexity"], CHAIN_DOC),
        (["wps", "sectors"], WPS_DOC),
        (["wps", "pairing"], WPS_DOC),
        (["wps", "verify"], WPS_DOC),
        (["series-verify"], SERIES_TABLE_DOC),
    ],
    ids=["cohomology", "convexity", "wps-sectors", "wps-pairing", "wps-verify", "series-verify"],
)
def test_piped_document_reads_as_the_file(tmp_path, capsys, monkeypatch, argv, doc):
    from_file = run_cli(capsys, "--json", *argv, write_doc(tmp_path, doc))
    monkeypatch.setattr(cli.sys, "stdin", io.StringIO(json.dumps(doc)))
    assert run_cli(capsys, "--json", *argv) == from_file
    assert from_file[0] == 0 and from_file[2] == ""


def test_series_verify_reads_a_piped_table_in_a_fresh_process():
    got = _fresh_process(["--json", "series-verify"], os.environ, stdin=json.dumps(SERIES_TABLE_DOC))
    assert got == (0, SERIES_GOLDEN["4"] + "\n", "")


def test_flags_that_stand_in_for_the_document_leave_stdin_unread(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.sys, "stdin", io.StringIO("not a document"))
    code, out, _ = run_cli(capsys, "--json", "wps", "verify", "--weights", "1,1,2,2", "--bundle", "1")
    assert (code, out) == (0, WPS_GOLDEN[("verify", "1,1,2,2", "1")] + "\n")
    assert cli.sys.stdin.read() == "not a document"
    # a file given with the flag is still read and validated
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, out, err = run_cli(capsys, "--json", "wps", "verify", str(bad), "--weights", "1,2")
    assert code == 2 and out == "" and err.startswith("input error: malformed JSON")


@pytest.mark.parametrize("wps_command", ["sectors", "pairing", "verify"])
def test_wps_takes_its_file_before_or_after_its_options(tmp_path, capsys, wps_command):
    path = write_doc(tmp_path, WPS_DOC)
    orders = [
        [[wps_command, path, "--json"], [wps_command, "--json", path], ["--json", wps_command, path]],
        [[wps_command, path, "--weights", "1,2"], [wps_command, "--weights", "1,2", path]],
    ]
    for argvs in orders:
        reports = [run_cli(capsys, "wps", *argv) for argv in argvs]
        assert reports[0][0] == 0 and reports[0][2] == ""
        # the wall-clock line of a table report differs from run to run
        assert len({report[1].rsplit("wall-clock", 1)[0] for report in reports}) == 1, argvs


def test_wps_bundle_without_weights_is_an_input_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--json", "wps", "sectors", write_doc(tmp_path, WPS_DOC), "--bundle", "1,2")
    assert code == 2 and out == ""
    assert err == "input error: --bundle needs --weights; a document gives its bundle under 'wps'\n"


def test_verify_suite_command(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "verify", "--suite", "h1-vanishing", "--max-a", "2", "--max-l", "2", "--max-d", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["ok"]
    assert payload["results"]["suites"][0]["failures"] == 0


def test_verify_suite_failure_exit_code(capsys, monkeypatch):
    def failing_suite(**kwargs):
        return suites.SuiteResult("stub", instances=1, failures=1, first_counterexample={"x": 1})

    monkeypatch.setitem(suites.SUITES, "h1-vanishing", failing_suite)
    code, out, _ = run_cli(capsys, "--json", "verify", "--suite", "h1-vanishing")
    assert code == 1


@pytest.mark.parametrize(
    "error",
    [
        cohomology.InternalInconsistency("routes disagree"),
        convexity.CertificateError("not trivial"),
        KeyError("internal slot"),  # a fault in the library, not bad input
    ],
)
def test_internal_error_exit_code(capsys, monkeypatch, error):
    def broken_suite(**kwargs):
        raise error

    monkeypatch.setitem(suites.SUITES, "h1-vanishing", broken_suite)
    code, out, err = run_cli(capsys, "--json", "verify", "--suite", "h1-vanishing")
    assert code == 3 and out == ""
    # a disagreement or a failed certificate speaks for itself; any other
    # exception is named by its type
    named = "" if isinstance(error, (cohomology.InternalInconsistency, convexity.CertificateError)) else "KeyError: "
    assert err == f"internal error: {named}{error}\n"


def test_verify_names_the_flags_a_suite_drops(capsys, monkeypatch):
    def pairing_comparison(max_n=5, max_w=4, max_r=2, max_k=4):
        return suites.SuiteResult("pairing-comparison", instances=1)

    monkeypatch.setitem(suites.SUITES, "pairing-comparison", pairing_comparison)
    code, out, err = run_cli(capsys, "--json", "verify", "--suite", "pairing-comparison", "--max-a", "2")
    assert code == 0 and json.loads(out)["results"]["ok"]
    assert err == "verify: suite pairing-comparison takes no --max-a; ignored\n"

    plain = ["--json", "verify", "--suite", "isotropy-oracle", "--max-cd", "3"]
    code, out, err = run_cli(capsys, *plain)
    assert code == 0 and err == ""
    # the report does not change; a global flag counts once it leaves its default
    code, out_dropped, err = run_cli(capsys, "--seed", "1", *plain, "--max-a", "2", "--workers", "2")
    assert code == 0 and out_dropped == out
    assert err == "verify: suite isotropy-oracle takes no --max-a, --seed, --workers; ignored\n"


@pytest.mark.parametrize("where", ["before", "after"])
def test_verify_names_a_common_flag_given_at_its_default(capsys, where):
    # --seed 0 and --order 4 are the values a suite takes when they are not
    # given, but given to a suite that takes neither they are named as dropped
    plain = ["verify", "--suite", "isotropy-oracle", "--max-cd", "2"]
    common = ["--seed", "0", "--order", "4"]
    code, out, err = run_cli(capsys, "--json", *plain)
    assert code == 0 and err == ""
    argv = [*common, "--json", *plain] if where == "before" else ["--json", *plain, *common]
    code, out_given, err = run_cli(capsys, *argv)
    assert code == 0 and out_given == out
    assert err == "verify: suite isotropy-oracle takes no --order, --seed; ignored\n"


def test_verify_sweep_takes_chains_longer_than_three(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "verify", "--suite", "thm-weak-convexity",
        "--max-a", "2", "--max-l", "2", "--max-d", "2", "--max-len", "4",
    )
    assert code == 0
    assert json.loads(out)["results"]["suites"][0]["instances"] > 0


def test_series_verify_random(capsys):
    # random tables run as `verify --suite qsd-operator` alone
    for flag in ("--random", "--trials"):
        code, out, err = _in_process(capsys, ["--json", "series-verify", flag])
        assert code == 2 and out == ""
        assert err.endswith(f"error: unrecognized arguments: {flag}\n")


def test_qsd_operator_suite_golden_output(capsys):
    code, out, err = run_cli(capsys, "--json", "verify", "--suite", "qsd-operator", "--trials", "3", "--seed", "3")
    assert (code, err) == (0, "")
    assert out == (
        '{"command":"verify","results":{"ok":true,"suites":[{"details":{"coefficient_checks":13},"failures":0,'
        '"first_counterexample":null,"instances":3,"name":"qsd-operator"}]}}\n'
    )


def test_series_verify_table_document(tmp_path, capsys):
    doc = {
        "wps": {"weights": [1, 1], "bundle": [2]},
        "table": {
            "dim": 1,
            "entries": [
                {"beta": {"degrees": [1, 1]}, "sectors": [0, 0], "psi_power": 0, "row": 0, "col": 0, "value": "3"}
            ],
        },
    }
    code, out, _ = run_cli(capsys, "--json", "series-verify", write_doc(tmp_path, doc))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["ok"] and results["state_dim"] == 1


def test_series_verify_index_out_of_range_with_sectors(tmp_path, capsys):
    # the sector comparison must not index the basis past the state dimension
    doc = {
        "wps": {"weights": [1, 3]},
        "table": {
            "entries": [
                {"beta": {"degrees": [1, 0]}, "sectors": [0, 0], "psi_power": 0, "row": 7, "col": 0, "value": 1}
            ]
        },
    }
    code, out, err = run_cli(capsys, "--json", "series-verify", write_doc(tmp_path, doc))
    assert code == 2 and out == ""
    assert err == "input error: inconsistent table: entry 0: basis index out of range\n"


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("suite", ["thm-weak-convexity", "thm-weak-concavity", "log-canonical"])
def test_chain_suites_refuse_a_max_len_below_one(capsys, suite, value):
    code, out, err = run_cli(capsys, "--json", "verify", "--suite", suite, "--max-a", "2", "--max-len", value)
    assert code == 2 and out == ""
    assert err == "input error: max_len must be at least 1\n"


@pytest.mark.parametrize(
    "env, flag, message",
    [
        (None, "0", "workers must be at least 1"),
        (None, "-1", "workers must be at least 1"),
        # the refusal is the flag's alone: the environment is not read
        ("abc", "0", "workers must be at least 1"),
    ],
)
@pytest.mark.parametrize("suite", ["thm-weak-convexity", "thm-weak-concavity", "log-canonical"])
def test_chain_suites_refuse_an_unusable_worker_count(capsys, monkeypatch, suite, env, flag, message):
    if env is not None:
        monkeypatch.setenv("ORBICURVE_WORKERS", env)
    argv = ["--json", "verify", "--suite", suite, "--max-a", "2", "--max-l", "2", "--max-len", "3"]
    code, out, err = run_cli(capsys, *argv, "--workers", flag)
    assert code == 2 and out == ""
    assert err == f"input error: {message}\n"


# the spellings of `verify`'s flags that callers already use, and the suite
# argument each sets
PINNED_FLAGS = {
    "--max-a": "max_ab", "--max-l": "max_l", "--max-d": "max_d", "--max-len": "max_len", "--max-cd": "max_cd",
    "--trials": "trials", "--workers": "workers", "--seed": "seed", "--order": "order",
}
SUITE_PARAMETERS = [(name, arg) for name, fn in suites.SUITES.items() for arg in inspect.signature(fn).parameters]


@pytest.mark.parametrize("suite, arg", SUITE_PARAMETERS)
def test_every_suite_argument_is_reachable_from_verify(suite, arg):
    args = cli.build_parser().parse_args(["verify", "--suite", suite, cli._flag(arg), "7"])
    assert vars(args)[arg] == 7


@pytest.mark.parametrize("flag, arg", PINNED_FLAGS.items())
def test_verify_keeps_its_flag_spellings(flag, arg):
    assert cli._flag(arg) == flag
    assert vars(cli.build_parser().parse_args(["verify", "--suite", "all", flag, "7"]))[arg] == 7


@pytest.mark.parametrize(
    "suite, arg, least", [(name, arg, suites.MINIMUMS[arg]) for name, arg in SUITE_PARAMETERS if arg != "seed"]
)
def test_verify_refuses_a_flag_below_its_minimum(capsys, suite, arg, least):
    # an empty suite would print "ok": true with no instance checked
    code, out, err = run_cli(capsys, "--json", "verify", "--suite", suite, cli._flag(arg), str(least - 1))
    assert code == 2 and out == ""
    assert err == f"input error: {arg} must be at least {least}\n"


@pytest.mark.parametrize(
    "argv, suite, kwargs",
    [
        (["--suite", "pairing-comparison", "--max-n", "2", "--max-w", "1", "--max-r", "0", "--max-k", "1"],
         suites.suite_pairing_comparison, dict(max_n=2, max_w=1, max_r=0, max_k=1)),
        (["--suite", "age-sum", "--max-den", "3", "--trials", "20"], suites.suite_age_sum, dict(max_den=3, trials=20)),
        (["--suite", "qsd-operator", "--max-dim", "2", "--trials", "5"], suites.suite_qsd_operator,
         dict(max_dim=2, trials=5)),
    ],
    ids=["pairing-comparison", "age-sum", "qsd-operator"],
)
def test_the_derived_flags_reach_the_suite(capsys, argv, suite, kwargs):
    code, out, err = run_cli(capsys, "--json", "verify", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["suites"] == [cli._suite_payload(suite(**kwargs))]


def test_readme_tabulates_every_verify_flag():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    for arg in cli._suite_args():
        names = ", ".join(name for name, fn in suites.SUITES.items() if arg in inspect.signature(fn).parameters)
        least = suites.MINIMUMS.get(arg, "any int")
        assert f"| `{cli._flag(arg)}` | `{arg}` | {least} | {names} |\n" in readme, arg


def test_verify_all_refuses_before_any_suite_runs(capsys, monkeypatch):
    monkeypatch.setattr(suites, "_family_grid", None)  # the first suites would fail on it
    code, out, err = run_cli(capsys, "--json", "verify", "--suite", "all", "--trials", "0")
    assert code == 2 and out == ""
    assert err.endswith("\ninput error: trials must be at least 1\n")


def test_verify_all_refuses_a_worker_count_before_any_suite_runs(capsys, monkeypatch):
    monkeypatch.setattr(suites, "_family_grid", None)  # the first suites would fail on it
    code, out, err = run_cli(capsys, "--json", "verify", "--suite", "all", "--workers", "0")
    assert code == 2 and out == ""
    assert err.endswith("\ninput error: workers must be at least 1\n")


@pytest.mark.parametrize("value", ["0", "-1"])
def test_random_series_verify_refuses_an_order_below_one(capsys, value):
    # the operator identity on random tables runs as the qsd-operator suite
    code, out, err = run_cli(capsys, "--json", "verify", "--suite", "qsd-operator", "--trials", "3", "--order", value)
    assert code == 2 and out == ""
    assert err == "input error: order must be at least 1\n"


def test_series_verify_cost_is_bounded_by_psi_power_size(tmp_path):
    # the sign of psi^a is read per entry: nothing is as long as the largest a
    doc = {
        "wps": {"weights": [1, 3]},
        "table": {"entries": [{"beta": {"degrees": [1, 0]}, "psi_power": 10**18, "row": 0, "col": 0, "value": 1}]},
    }
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "orbicurve.cli", "--json", "series-verify", write_doc(tmp_path, doc)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["ok"]


def test_table_output_contains_wall_clock(tmp_path, capsys):
    path = write_doc(
        tmp_path, {"chain": [{"c": 1, "d": 2}], "bundle": [[{"k1": 0, "k2": 0, "d": 3}]]}
    )
    code, out, _ = run_cli(capsys, "cohomology", path)
    assert code == 0 and "wall-clock" in out and "h0" in out


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"chain": [{"a": 1, "b": 2}, {"a": 3, "b": 1}], "bundle": [[{"d": 0}, {"d": 0}]]},
            "invalid chain: node 0: node isotropy mismatch (2 vs 3)",
        ),
        (
            {"chain": [{"a": 1, "b": 2}, {"a": 2, "b": 1}], "bundle": [[{"d": 1}, {"d": 0}]]},
            "bundle[0]: node 0: unbalanced fiber characters (ages 1/2 and 0)",
        ),
        (
            {"chain": [{"a": 1, "b": 1}, {"a": 1, "b": 1}], "bundle": [[{"d": 0}, {"d": 0}], [{"d": 0}]]},
            "bundle[1] has 1 pieces for a chain of length 2",
        ),
    ],
    ids=["node-isotropy-mismatch", "unbalanced-node", "piece-count"],
)
@pytest.mark.parametrize("command", ["cohomology", "convexity"])
def test_invalid_chain_and_bundle_messages(tmp_path, capsys, command, doc, message):
    code, out, err = run_cli(capsys, "--json", command, write_doc(tmp_path, doc))
    assert code == 2 and out == ""
    assert err == f"input error: {message}\n"


def test_unreadable_file_is_an_input_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--json", "cohomology", str(tmp_path / "missing.json"))
    assert code == 2 and out == ""
    assert err.startswith("input error: cannot read ")


@pytest.mark.parametrize("wps_command", ["sectors", "pairing", "verify"])
def test_wps_without_document_is_an_input_error(capsys, monkeypatch, wps_command):
    monkeypatch.setattr(cli.sys.stdin, "isatty", lambda: True)
    code, out, err = run_cli(capsys, "--json", "wps", wps_command)
    assert code == 2 and out == ""
    assert err == "input error: no input document\n"


# series-verify needs a table document like the others
@pytest.mark.parametrize("command", ["cohomology", "convexity", "series-verify"])
def test_chain_command_on_terminal_stdin_is_an_input_error(capsys, monkeypatch, command):
    monkeypatch.setattr(cli.sys.stdin, "isatty", lambda: True)
    code, out, err = run_cli(capsys, "--json", command)
    assert code == 2 and out == ""
    assert err == "input error: no input document\n"


def test_validators_that_disagree_are_an_internal_error(tmp_path, capsys, monkeypatch):
    # the compiled predicate rejects a document jsonschema accepts: neither is trusted
    monkeypatch.setattr(cli, "_input_predicate", lambda: lambda doc: False)
    code, out, err = run_cli(capsys, "--json", "cohomology", write_doc(tmp_path, CHAIN_DOC))
    assert code == 3 and out == ""
    assert err == "internal error: the compiled input schema rejects a document that jsonschema accepts\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"chain": [{"a": 1, "b": 1}], "bundle": [[{"d": 2.0}]]},
            "schema violation at /bundle/0/0/d: 2.0 is not of type 'integer'",
        ),
        (
            {"chain": [{"c": 2.0, "d": 4}], "bundle": [[{"d": 1}]]},
            "schema violation at /chain/0: {'c': 2.0, 'd': 4} is not valid under any of the given schemas",
        ),
    ],
    ids=["float-degree", "float-presentation"],
)
def test_integral_floats_are_schema_violations(tmp_path, capsys, doc, message):
    # JSON Schema's "integer" admits 2.0; the parsers would hand it to
    # Fraction and gcd, which raise TypeError
    code, out, err = run_cli(capsys, "--json", "cohomology", write_doc(tmp_path, doc))
    assert code == 2 and out == ""
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"chain": [{"a": True, "b": 2}], "bundle": [[{"d": 1}]]},
            "schema violation at /chain/0: {'a': True, 'b': 2} is not valid under any of the given schemas",
        ),
        (
            {"chain": [{"a": 1, "b": 2}], "bundle": [[{"d": 2.5}]]},
            "schema violation at /bundle/0/0/d: 2.5 is not of type 'integer'",
        ),
    ],
    ids=["bool-presentation", "fractional-degree"],
)
def test_non_integer_data_are_schema_violations(tmp_path, capsys, doc, message):
    # the dataclasses reject these too, but a document never reaches them
    code, out, err = run_cli(capsys, "--json", "cohomology", write_doc(tmp_path, doc))
    assert code == 2 and out == ""
    assert err == f"input error: {message}\n"


def _fresh_process(argv, env, stdin=None):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(env, PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "orbicurve.cli", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cached_parser_carries_nothing_between_calls(tmp_path, capsys, monkeypatch):
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    wps_doc = write_doc(tmp_path, {"wps": {"weights": [1, 2, 3]}})
    table_doc = write_doc(tmp_path, REPEATING_TABLE_DOC, "table.json")
    rank = ["rank", "--beta-detE", "1/2", "--g2", "1/2"]
    sweep = ["verify", "--suite", "thm-weak-convexity", "--max-a", "2", "--max-l", "2", "--max-d", "1"]
    calls = [
        ["--json", *rank],
        [*rank, "--json"],
        rank,
        ["--json", "--order", "2", "verify", "--suite", "qsd-operator", "--trials", "2"],
        ["--json", "verify", "--suite", "qsd-operator", "--trials", "2"],
        ["--json", "series-verify", "--random"],
        ["--json", "--order", "2", "series-verify", table_doc],
        ["--json", "series-verify", table_doc],
        ["--json", "wps", "verify", "--weights", "1,1,2,2", "--bundle", "1"],
        ["--json", "wps", "verify", wps_doc],
        ["wps", "--weights", "1,2", "pairing", "--json"],
        ["--json", "wps", "pairing", wps_doc],
        ["--json", *sweep, "--max-len", "2"],
        ["--json", *sweep],
        ["--json", "rank", "--g1", "1/2"],
        ["--json", "--seed", "3", *rank],
    ]
    wall_clock = re.compile(r"wall-clock: [0-9.]+ ms")
    for argv in calls:
        got = _in_process(capsys, argv)
        want = _fresh_process(argv, os.environ)
        assert [got[0], wall_clock.sub("", got[1]), got[2]] == [
            want[0], wall_clock.sub("", want[1]), want[2]
        ], argv
    assert cli.build_parser() is cli.build_parser()
