"""Command-line front end.

All exact values are serialized as strings ("3/2", "e^{i*pi*1/2}"), never as
floats, so reports round-trip losslessly.  JSON reports are byte-deterministic
for a fixed (input, seed); wall-clock timing appears only in the human-readable
table output.  Exit codes: 0 success, 1 suite/verdict failure, 2 input error
(`InputError` or `ValueError`, including a file that cannot be read), 3
internal error (any other exception: two independent computations disagreed,
a certificate failed, or a fault in the library, whose message names the
exception type).

Input documents follow `schemas/input-v1.json`, where an integer is a JSON
integer: `2.0` is a schema violation, not the number 2.  The argument parser
and the input schema are built once per process, so a program that calls
`main()` many times pays for them once.  The schema is compiled once into
generated source that no document value reaches: a predicate that accepts
valid documents without jsonschema, which is imported only for a document the
predicate rejects, to word its schema violation (if it finds none, the two
disagree: exit 3).  Repeated chain components, and a table's repeated classes and
scalars, are built once per document; nothing of a document outlives its call.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import re
import sys
import time
from fractions import Fraction
from importlib import resources
from typing import Callable

from . import bundles, cohomology, convexity, curves, sectors, series, suites, wps
from .foundation import InternalInconsistency


class InputError(Exception):
    pass


def _rational(x) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InputError(f"expected an exact rational, got {x!r}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {x!r}: {exc}") from exc


def fmt(x):
    """Serialize exact values: ints stay ints, a Fraction becomes its string ("3", "-1/2")."""
    return str(x) if isinstance(x, Fraction) else x


def load_schema(name: str) -> dict:
    with resources.files("orbicurve.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


# the test that a value is of each kind some keywords are about
_KINDS = {
    "object": "isinstance({0}, dict)",
    "array": "isinstance({0}, list)",
    "string": "isinstance({0}, str)",
    "number": "isinstance({0}, (int, float)) and not isinstance({0}, bool)",
}
# each supported "type": its test, and the kind of value it leaves
_TYPES = {
    "object": (_KINDS["object"], "object"),
    "array": (_KINDS["array"], "array"),
    "string": (_KINDS["string"], "string"),
    "integer": ("isinstance({0}, int) and not isinstance({0}, bool)", "number"),
}
# the supported keywords in the order their tests run, each with the kind of
# value it is about (None: every kind)
_KEYWORDS = {
    "type": None, "enum": None, "oneOf": None, "$ref": None,
    "required": "object", "additionalProperties": "object", "properties": "object",
    "minItems": "array", "maxItems": "array", "items": "array", "pattern": "string", "minimum": "number",
}
# keywords that check nothing: metadata, and $defs, which is reached by $ref
_INERT = frozenset({"$schema", "$id", "title", "$defs"})


def _compile(schema: dict) -> Callable[[object], bool]:
    """Compile `schema` into a predicate on JSON values.

    It accepts exactly what the validator of `_input_validator` accepts.  As in
    JSON Schema, a keyword about objects, arrays, strings or numbers ignores
    every other kind of value.  Only the keywords input-v1.json uses are
    supported; any other raises ValueError, so an edit of the schema cannot
    silently drop a check.

    The predicate is Python source generated here and executed once.  A schema
    becomes straight-line statements that return False at the first failed
    test, `items` a loop, and each `oneOf` branch and `$ref` target a function
    of its own.  A schema value enters the source only as the repr() of a str
    or an int, or as a named constant; no document value ever does.
    """
    consts: dict = {}
    sources: list[str] = []
    refs: dict[str, str] = {}

    def const(value) -> str:
        consts[name := f"_c{len(consts)}"] = value
        return name

    def literal(value) -> str:
        return repr(value) if type(value) in (int, str) else const(value)

    def function(sub) -> str:
        body = statements(sub, "x0", 0)
        sources.append("\n    ".join([f"def _f{len(sources)}(x0):", *body, "return True"]))
        return f"_f{len(sources) - 1}"

    def statements(sub, v: str, depth: int) -> list[str]:
        """Lines that return False unless the value named `v` satisfies `sub`."""
        if not isinstance(sub, dict):
            raise ValueError(f"unsupported schema {sub!r}")
        for key in sub.keys() - _KEYWORDS.keys() - _INERT:
            raise ValueError(f"unsupported schema keyword {key!r}")
        tests: dict = {kind: [] for kind in (None, *_KINDS)}
        kept, inner = None, f"x{depth + 1}"
        for key, kind in _KEYWORDS.items():
            if key not in sub:
                continue
            arg, out = sub[key], tests[kind]
            if key == "type":
                if not isinstance(arg, str) or arg not in _TYPES:
                    raise ValueError(f"unsupported type {arg!r}")
                test, kept = _TYPES[arg]
                out.append(f"if not ({test.format(v)}): return False")
            elif key == "enum":
                if any(type(member) not in (int, str) for member in arg):
                    raise ValueError(f"unsupported enum {arg!r}")
                # as in jsonschema's enum, a bool equals no number
                out.append(f"if isinstance({v}, bool) or {v} not in {tuple(arg)!r}: return False")
            elif key == "oneOf":
                calls = [f"{function(branch)}({v})" for branch in arg] or ["0"]
                out.append(f"if {' + '.join(calls)} != 1: return False")
            elif key == "$ref":
                if not arg.startswith("#/"):
                    raise ValueError(f"unsupported $ref {arg!r}")
                if arg not in refs:
                    target = schema
                    for part in arg[2:].split("/"):
                        target = target[part.replace("~1", "/").replace("~0", "~")]
                    refs[arg] = function(target)
                out.append(f"if not {refs[arg]}({v}): return False")
            elif key == "required":
                out += [f"if {literal(name)} not in {v}: return False" for name in arg]
            elif key == "additionalProperties":
                if arg is not False:
                    raise ValueError(f"unsupported additionalProperties {arg!r}")
                out.append(f"if not {v}.keys() <= {const(frozenset(sub.get('properties', ())))}: return False")
            elif key == "properties":
                for name, prop in arg.items():
                    if body := statements(prop, inner, depth + 1):
                        out += [f"if {literal(name)} in {v}:", f"    {inner} = {v}[{literal(name)}]"]
                        out += ["    " + line for line in body]
            elif key == "items":
                if body := statements(arg, inner, depth + 1):
                    out += [f"for {inner} in {v}:", *("    " + line for line in body)]
            elif key in ("minItems", "maxItems"):
                out.append(f"if len({v}) {'<' if key == 'minItems' else '>'} {literal(arg)}: return False")
            elif key == "pattern":
                out.append(f"if {const(re.compile(arg).search)}({v}) is None: return False")
            else:  # minimum
                out.append(f"if {v} < {literal(arg)}: return False")
        lines = tests.pop(None)
        for kind, out in tests.items():  # a "type" drops the tests of other kinds and the guard of its own
            if out and kept in (None, kind):
                lines += out if kept else [f"if {_KINDS[kind].format(v)}:", *("    " + line for line in out)]
        return lines

    top = function(schema)
    exec("\n".join(sources), consts)
    return consts[top]


@functools.cache
def _input_predicate() -> Callable[[object], bool]:
    return _compile(load_schema("input-v1.json"))


@functools.cache
def _input_validator():
    """jsonschema's validator of input-v1, imported and built on the first rejected document."""
    import jsonschema

    # Since draft 6, JSON Schema's "integer" admits integral floats such as
    # 2.0, which would reach Fraction and gcd as floats.  Draft 4's types are
    # those of 2020-12 with an integer that is a JSON integer.  (A type check
    # written here would be held by the checker's map, which the collector
    # cannot traverse, and would keep this module alive after its reload.)
    integers = jsonschema.Draft4Validator.TYPE_CHECKER
    validator = jsonschema.validators.extend(jsonschema.Draft202012Validator, type_checker=integers)
    return validator(load_schema("input-v1.json"))


def validate_document(doc: dict) -> None:
    if _input_predicate()(doc):
        return
    errors = sorted(_input_validator().iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        raise InternalInconsistency("the compiled input schema rejects a document that jsonschema accepts")
    e = errors[0]
    pointer = "/" + "/".join(str(p) for p in e.absolute_path)
    raise InputError(f"schema violation at {pointer or '/'}: {e.message}")


def parse_chain(doc: dict) -> curves.CurveChain:
    if "chain" not in doc:
        raise InputError("document has no 'chain'")
    built, comps, tags = {}, [], {}  # the component of each distinct entry; the degrees given
    for n, item in enumerate(doc["chain"]):
        key = (item["c"], item["d"]) if "c" in item else (item["a"], item["b"], item.get("l1", 1), item.get("l2", 1))
        if key not in built:
            try:
                built[key] = curves.present(*key) if len(key) == 2 else curves.TwistedComponent(*key)
            except ValueError as exc:
                raise InputError(f"chain[{n}]: {exc}") from exc
        comps.append(built[key])
        if "degree" in item:
            tags[n] = _rational(item["degree"])
    try:  # with no degree given, every component shares the chain's default tag
        return curves.CurveChain(tuple(comps), tuple(tags.get(n, 1) for n in range(len(comps))) if tags else ())
    except ValueError as exc:
        raise InputError(f"invalid chain: {exc}") from exc


def parse_split_bundle(doc: dict, chain: curves.CurveChain) -> bundles.SplitBundle:
    if "bundle" not in doc or not doc["bundle"]:
        raise InputError("document has no 'bundle'")
    summands = []
    for i, summand in enumerate(doc["bundle"]):
        if len(summand) != len(chain.components):
            raise InputError(
                f"bundle[{i}] has {len(summand)} pieces for a chain of length {len(chain.components)}"
            )
        pieces = tuple(
            bundles.EqLineBundle(comp, p.get("k1", 0), p.get("k2", 0), p["d"])
            for comp, p in zip(chain.components, summand)
        )
        try:
            summands.append(bundles.ChainBundle(chain, pieces))
        except ValueError as exc:
            raise InputError(f"bundle[{i}]: {exc}") from exc
    return bundles.SplitBundle(tuple(summands))


def parse_wps(doc: dict) -> wps.WPSModel:
    if "wps" not in doc:
        raise InputError("document has no 'wps'")
    spec = doc["wps"]
    return wps.WPSModel(tuple(spec["weights"]), tuple(spec.get("bundle", ())))


def parse_table(doc: dict, dim: int) -> series.InvariantTable:
    if "table" not in doc:
        raise InputError("document has no 'table'")
    spec = doc["table"]
    # the Fraction of each distinct scalar, keyed with its type (True == 1,
    # and only 1 is a rational), and the class of each distinct degree vector:
    # entries of one class share it, so lookups by class stop at identity
    scalars: dict = {}
    classes: dict[tuple[Fraction, ...], series.EffClass] = {}

    def rational(x) -> Fraction:
        key = (x.__class__, x)
        q = scalars.get(key)
        if q is None:
            q = scalars[key] = _rational(x)
        return q

    entries = []
    for e in spec["entries"]:
        degrees = tuple(map(rational, e["beta"]["degrees"]))
        beta = classes.get(degrees)
        if beta is None:
            beta = classes[degrees] = series.EffClass(degrees)
        sector_pair = None
        if "sectors" in e:
            sector_pair = (rational(e["sectors"][0]), rational(e["sectors"][1]))
        entries.append(
            series.TableEntry(beta, e["psi_power"], e["row"], e["col"], rational(e["value"]), sector_pair)
        )
    return series.InvariantTable(spec.get("dim", dim), entries)


def serialize_document(chain: curves.CurveChain, split: bundles.SplitBundle | None = None) -> dict:
    """Canonical JSON form of a parsed chain/bundle document.

    parse(serialize(parse(doc))) == parse(doc) for every valid doc; documents
    already in canonical form round-trip byte-identically.
    """
    doc: dict = {
        "chain": [
            {"a": c.a, "b": c.b, "l1": c.l1, "l2": c.l2, "degree": fmt(t)}
            for c, t in zip(chain.components, chain.degree_tags)
        ]
    }
    if split is not None:
        doc["bundle"] = [
            [{"k1": p.k1, "k2": p.k2, "d": p.d} for p in summand.pieces]
            for summand in split.summands
        ]
    return doc


def _weights_arg(text: str) -> tuple[Fraction, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_rational(t.strip()) for t in text.split(","))


def _padded_sectors(g1: str, g2: str) -> tuple[sectors.SectorAction, sectors.SectorAction]:
    w1, w2 = _weights_arg(g1), _weights_arg(g2)
    rank = max(len(w1), len(w2))
    w1 += tuple(Fraction(0) for _ in range(rank - len(w1)))
    w2 += tuple(Fraction(0) for _ in range(rank - len(w2)))
    return sectors.SectorAction(w1), sectors.SectorAction(w2)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_cohomology(args, doc: dict) -> dict:
    chain = parse_chain(doc)
    split = parse_split_bundle(doc, chain)
    twist = doc.get("twist")
    reports = []
    for cb in split.summands:
        if twist:
            pt = curves.MarkedPoint(twist["point"])
            rep = cohomology.h_twisted(cb, pt, twist["sign"])
        else:
            rep = cohomology.h_chain(cb)
        reports.append({"h0": rep.h0, "h1": rep.h1, "euler_char": str(rep.h0 - rep.h1)})
    if len(reports) == 1:
        return reports[0]
    total = {
        "h0": sum(r["h0"] for r in reports),
        "h1": sum(r["h1"] for r in reports),
    }
    return {"summands": reports, "total": total}


def cmd_convexity(args, doc: dict) -> dict:
    chain = parse_chain(doc)
    split = parse_split_bundle(doc, chain)
    verdict = convexity.convexity_verdict(split)
    return {
        "weakly_semipositive": verdict.weakly_semipositive,
        "weakly_convex": verdict.weakly_convex,
        "weakly_concave_dual": verdict.weakly_concave_dual,
        "witnesses": [list(w) for w in verdict.witnesses],
    }


def cmd_rank(args, doc: dict) -> dict:
    g1, g2 = _padded_sectors(args.g1, args.g2)
    value = sectors.rank_formula(_rational(args.beta_detE), g1, g2)
    return {"rank": fmt(value), "is_integer": value.denominator == 1}


def cmd_sign(args, doc: dict) -> dict:
    g1, g2 = _padded_sectors(args.g1, args.g2)
    result = sectors.sign_cycle(_rational(args.beta_detE), g1, g2)
    out = {"exponent": fmt(result.exponent), "sign": result.as_sign}
    if result.as_sign is None:
        out["realizable"] = False
    return out


def cmd_wps(args, doc: dict) -> dict:
    if args.bundle and not args.weights:
        raise InputError("--bundle needs --weights; a document gives its bundle under 'wps'")
    if args.weights:
        weights = tuple(int(w) for w in args.weights.split(","))
        degrees = tuple(int(k) for k in args.bundle.split(",")) if args.bundle else ()
        model = wps.WPSModel(weights, degrees)
    else:
        model = parse_wps(doc)
    if args.wps_command == "sectors":
        out = []
        for s in model.sectors:
            out.append(
                {
                    "f": fmt(s.f),
                    "fixed_weights": [model.weights[i] for i in s.fixed_indices],
                    "dim": s.dim,
                    "age": fmt(Fraction(s.age_num, model.N)),
                    "rank_fixed": s.rank_fixed,
                }
            )
        return {"model": str(model), "sectors": out}
    if args.wps_command == "pairing":
        labels = [f"H^{p}@{f}" for f, p in wps.state_basis(model)]
        matrix = [[fmt(x) for x in row] for row in wps.pairing_gram(model, "cr")]
        return {"model": str(model), "basis": labels, "cr_pairing": matrix}
    # verify
    pairing = wps.verify_pairing_comparison(model)
    iso = wps.verify_delta_iso_dims(model)
    return {
        "model": str(model),
        "pairing_checks": pairing.checks,
        "pairing_failures": pairing.failures,
        "iso_sectors": [
            {
                "f": fmt(s.f),
                "image_dim": s.image_dim,
                "ambient_pairing_rank": s.ambient_pairing_rank,
                "kernel_stable": s.kernel_stable,
            }
            for s in iso.sectors
        ],
        "ok": pairing.ok and iso.ok,
    }


def cmd_series_verify(args, doc: dict) -> dict:
    order = 4 if args.order is None else args.order
    suites.check_arguments({"order": order})  # as `verify --suite qsd-operator` refuses it
    model = parse_wps(doc)
    basis = series.compact_type_basis(model)
    table = parse_table(doc, dim=len(basis))
    report = series.verify_qsd_operator_identity(table, model, order)
    return {
        "model": str(model),
        "state_dim": report.dim,
        "coefficient_checks": report.checks,
        "ok": report.ok,
        "first_violation": report.first_violation,
    }


def _suite_payload(result: suites.SuiteResult) -> dict:
    return {
        "name": result.name,
        "instances": result.instances,
        "failures": result.failures,
        "first_counterexample": result.first_counterexample,
        "details": result.details,
    }


def _flag(name: str) -> str:
    """The `verify` flag that sets suite argument `name`."""
    return "--max-a" if name == "max_ab" else "--" + name.replace("_", "-")


def _suite_args() -> tuple[str, ...]:
    """Every argument of every suite, in order of first appearance; `verify` takes each as `_flag(name)`."""
    return tuple(dict.fromkeys(k for fn in suites.SUITES.values() for k in inspect.signature(fn).parameters))


def cmd_verify(args, doc: dict | None) -> dict:
    values = vars(args)
    given = {k for k in _suite_args() if values.get(k) is not None}
    runs = []
    for name in list(suites.SUITES) if args.suite == "all" else [args.suite]:
        fn = suites.SUITES[name]
        accepted = inspect.signature(fn).parameters
        kwargs = {k: values[k] for k in accepted if values.get(k) is not None}
        dropped = sorted(_flag(k) for k in given if k not in accepted)
        if dropped:
            print(f"verify: suite {name} takes no {', '.join(dropped)}; ignored", file=sys.stderr)
        suites.check_arguments(kwargs)  # every suite's, before any of them runs
        runs.append((fn, kwargs))
    results = [fn(**kwargs) for fn, kwargs in runs]
    return {"suites": [_suite_payload(r) for r in results], "ok": all(r.ok for r in results)}


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: `parse_args` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="orbicurve",
        description="Exact computations for line bundles on two-pointed orbifold curve chains",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    # None when not given: `verify` tells a given --seed or --order by that
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized suites")
    parser.add_argument("--order", type=int, default=None, help="Novikov truncation order")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--order", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", parents=[common], help="h0/h1 of a split bundle on a chain")
    p.add_argument("file", nargs="?", help="JSON input document (default: stdin)")

    p = sub.add_parser(
        "convexity", parents=[common], help="semi-positivity / convexity / concavity verdict"
    )
    p.add_argument("file", nargs="?")

    p = sub.add_parser("rank", parents=[common], help="rank formula from degree and sector weights")
    p.add_argument("--beta-detE", required=True, dest="beta_detE")
    p.add_argument("--g1", default="", help="comma-separated weights in [0,1)")
    p.add_argument("--g2", default="")

    p = sub.add_parser("sign", parents=[common], help="duality sign from degree and sector weights")
    p.add_argument("--beta-detE", required=True, dest="beta_detE")
    p.add_argument("--g1", default="")
    p.add_argument("--g2", default="")

    # `wps` takes its flags before or after the subcommand word, as the
    # top level takes the common flags
    p = sub.add_parser("wps", parents=[common], help="weighted projective state-space computations")
    p.add_argument("--weights", default="", help="comma-separated ambient weights")
    p.add_argument("--bundle", default="", help="comma-separated bundle degrees (with --weights)")
    wps_flags = argparse.ArgumentParser(add_help=False)
    wps_flags.add_argument("--weights", default=argparse.SUPPRESS)
    wps_flags.add_argument("--bundle", default=argparse.SUPPRESS)
    wps_sub = p.add_subparsers(dest="wps_command", required=True)
    for name in ("sectors", "pairing", "verify"):
        wps_sub.add_parser(name, parents=[common, wps_flags]).add_argument("file", nargs="?")

    p = sub.add_parser("series-verify", parents=[common], help="operator identity verification")
    p.add_argument("file", nargs="?")

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", required=True, choices=list(suites.SUITES) + ["all"])
    for name in _suite_args():
        if name not in ("seed", "order"):  # common flags
            p.add_argument(_flag(name), type=int, default=None, dest=name)
    return parser


def _read_document(args) -> dict | None:
    """`file`, else stdin if the command takes a document: it has `file` and no `--weights`."""
    path = getattr(args, "file", None)
    if path is None:
        if not hasattr(args, "file") or getattr(args, "weights", ""):
            return None
        if sys.stdin.isatty():
            raise InputError("no input document")
        text = sys.stdin.read()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    validate_document(doc)
    return doc


COMMANDS = {
    "cohomology": cmd_cohomology,
    "convexity": cmd_convexity,
    "rank": cmd_rank,
    "sign": cmd_sign,
    "wps": cmd_wps,
    "series-verify": cmd_series_verify,
    "verify": cmd_verify,
}


def _render_table(report: dict, elapsed: float) -> str:
    lines = [f"command: {report['command']}"]

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)):
                    yield f"{pad}{k}:"
                    yield from walk(v, indent + 1)
                else:
                    yield f"{pad}{k:<24} {v}"
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    yield from walk(v, indent)
                    yield pad + "-"
                else:
                    yield f"{pad}- {v}"

    lines.extend(walk(report.get("results", {}), 1))
    lines.append(f"wall-clock: {elapsed * 1000:.1f} ms")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        doc = _read_document(args)
        results = COMMANDS[args.command](args, doc)
    except (InputError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault in the library: name what failed
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    report = {"command": args.command, "results": results}
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(_render_table(report, time.monotonic() - started))
    return 0 if results.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
