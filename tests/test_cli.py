"""Command-line front end: parsing, reports, determinism, exit codes."""
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from orbicurve import cli, cohomology, convexity, suites


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


def test_sign_command(capsys):
    code, out, _ = run_cli(capsys, "--json", "sign", "--beta-detE", "1/2", "--g1", "", "--g2", "1/2")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["exponent"] == "1" and results["sign"] == -1


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
    "error", [cohomology.InternalInconsistency("routes disagree"), convexity.CertificateError("not trivial")]
)
def test_internal_error_exit_code(capsys, monkeypatch, error):
    def broken_suite(**kwargs):
        raise error

    monkeypatch.setitem(suites.SUITES, "h1-vanishing", broken_suite)
    code, out, err = run_cli(capsys, "--json", "verify", "--suite", "h1-vanishing")
    assert code == 3 and out == ""
    assert err == f"internal error: {error}\n"


def test_verify_sweep_takes_chains_longer_than_three(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "verify", "--suite", "thm-weak-convexity",
        "--max-a", "2", "--max-l", "2", "--max-d", "2", "--max-len", "4",
    )
    assert code == 0
    assert json.loads(out)["results"]["suites"][0]["instances"] > 0


def test_series_verify_random(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "--seed", "3", "series-verify", "--random", "--trials", "3"
    )
    assert code == 0
    assert json.loads(out)["results"]["failures"] == 0


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


@pytest.mark.parametrize("wps_command", ["sectors", "pairing", "verify"])
def test_wps_without_document_is_an_input_error(capsys, wps_command):
    code, out, err = run_cli(capsys, "--json", "wps", wps_command)
    assert code == 2 and out == ""
    assert err == "input error: no input document\n"


@pytest.mark.parametrize("command", ["cohomology", "convexity"])
def test_chain_command_on_terminal_stdin_is_an_input_error(capsys, monkeypatch, command):
    monkeypatch.setattr(cli.sys.stdin, "isatty", lambda: True)
    code, out, err = run_cli(capsys, "--json", command)
    assert code == 2 and out == ""
    assert err == "input error: no input document\n"
