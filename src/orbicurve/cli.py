"""Command-line front end.

All exact values are serialized as strings ("3/2", "e^{i*pi*1/2}"), never as
floats, so reports round-trip losslessly.  JSON reports are byte-deterministic
for a fixed (input, seed); wall-clock timing appears only in the human-readable
table output.  Exit codes: 0 success, 1 suite/verdict failure, 2 input error,
3 internal error (two independent computations disagreed, or a certificate
failed).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from importlib import resources

import jsonschema

from . import bundles, cohomology, convexity, curves, sectors, series, suites, wps
from .foundation import Phase, PhasedScalar


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
    """Serialize exact values: ints stay ints, everything else becomes a string."""
    if isinstance(x, bool):
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else str(x.numerator)
    if isinstance(x, (Phase, PhasedScalar)):
        return str(x)
    return x


def load_schema(name: str) -> dict:
    with resources.files("orbicurve.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


def validate_document(doc: dict) -> None:
    schema = load_schema("input-v1.json")
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        pointer = "/" + "/".join(str(p) for p in e.absolute_path)
        raise InputError(f"schema violation at {pointer or '/'}: {e.message}")


def parse_chain(doc: dict) -> curves.CurveChain:
    if "chain" not in doc:
        raise InputError("document has no 'chain'")
    comps = []
    tags = []
    for n, item in enumerate(doc["chain"]):
        try:
            if "c" in item:
                comps.append(curves.present(item["c"], item["d"]))
            else:
                comps.append(
                    curves.TwistedComponent(
                        item["a"], item["b"], item.get("l1", 1), item.get("l2", 1)
                    )
                )
        except ValueError as exc:
            raise InputError(f"chain[{n}]: {exc}") from exc
        tags.append(_rational(item.get("degree", 1)))
    chain = curves.CurveChain(tuple(comps), tuple(tags))
    validity = curves.validate_chain(chain)
    if not validity.valid:
        raise InputError("invalid chain: " + "; ".join(validity.violations))
    return chain


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
        cb = bundles.ChainBundle(chain, pieces)
        violations = cb.validate()
        if violations:
            raise InputError(f"bundle[{i}]: " + "; ".join(violations))
        summands.append(cb)
    return bundles.SplitBundle(tuple(summands))


def parse_wps(doc: dict) -> wps.WPSModel:
    if "wps" not in doc:
        raise InputError("document has no 'wps'")
    spec = doc["wps"]
    try:
        return wps.WPSModel(tuple(spec["weights"]), tuple(spec.get("bundle", ())))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def parse_table(doc: dict, dim: int | None = None) -> series.InvariantTable:
    if "table" not in doc:
        raise InputError("document has no 'table'")
    spec = doc["table"]
    entries = []
    for n, e in enumerate(spec["entries"]):
        beta = series.EffClass(tuple(_rational(x) for x in e["beta"]["degrees"]))
        sector_pair = None
        if "sectors" in e:
            sector_pair = (_rational(e["sectors"][0]), _rational(e["sectors"][1]))
        entries.append(
            series.TableEntry(beta, e["psi_power"], e["row"], e["col"], _rational(e["value"]), sector_pair)
        )
    table_dim = spec.get("dim", dim)
    if table_dim is None:
        table_dim = 1 + max((max(e.row, e.col) for e in entries), default=-1)
    return series.InvariantTable(table_dim, entries)


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
        reports.append({"h0": rep.h0, "h1": rep.h1, "euler_char": fmt(rep.euler_char)})
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
    import warnings as _warnings

    g1, g2 = _padded_sectors(args.g1, args.g2)
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        result = sectors.sign_cycle(_rational(args.beta_detE), g1, g2)
    out = {"exponent": fmt(result.phase.exponent), "sign": result.as_sign}
    if not result.realizable:
        out["realizable"] = False
    return out


def cmd_wps(args, doc: dict) -> dict:
    if args.weights:
        weights = tuple(int(w) for w in args.weights.split(","))
        degrees = tuple(int(k) for k in args.bundle.split(",")) if args.bundle else ()
        model = wps.WPSModel(weights, degrees)
    else:
        model = parse_wps(doc)
    if args.wps_command == "sectors":
        out = []
        for s in wps.enumerate_sectors(model):
            out.append(
                {
                    "f": fmt(s.f),
                    "fixed_weights": [model.weights[i] for i in s.fixed_indices],
                    "dim": s.dim,
                    "age": fmt(sectors.age(s.fiber_weights)),
                    "rank_fixed": s.rank_fixed,
                }
            )
        return {"model": str(model), "sectors": out}
    if args.wps_command == "pairing":
        secs = wps.enumerate_sectors(model)
        labels = [f"H^{p}@{f}" for f, p in wps.state_basis(secs)]
        matrix = [[fmt(x) for x in row] for row in wps.pairing_gram(model, "cr", secs)]
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


def cmd_series_verify(args, doc: dict | None) -> dict:
    if args.random or doc is None:
        result = suites.suite_qsd_operator(trials=args.trials, order=args.order, seed=args.seed)
        return _suite_payload(result)
    model = parse_wps(doc)
    basis = series.compact_type_basis(model)
    table = parse_table(doc, dim=len(basis))
    report = series.verify_qsd_operator_identity(table, model, args.order)
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


def cmd_verify(args, doc: dict | None) -> dict:
    import inspect

    overrides = {
        "max_ab": args.max_a,
        "max_l": args.max_l,
        "max_d": args.max_d,
        "max_len": args.max_len,
        "trials": args.trials,
        "seed": args.seed,
        "order": args.order,
        "max_cd": args.max_cd,
        "workers": args.workers,
    }
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    payloads = []
    ok = True
    for name in names:
        fn = suites.SUITES[name]
        accepted = inspect.signature(fn).parameters
        kwargs = {k: v for k, v in overrides.items() if v is not None and k in accepted}
        result = fn(**kwargs)
        payloads.append(_suite_payload(result))
        ok = ok and result.ok
    return {"suites": payloads, "ok": ok}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbicurve",
        description="Exact computations for line bundles on two-pointed orbifold curve chains",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    parser.add_argument("--order", type=int, default=4, help="Novikov truncation order")
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

    p = sub.add_parser("wps", parents=[common], help="weighted projective state-space computations")
    p.add_argument("wps_command", choices=["sectors", "pairing", "verify"])
    p.add_argument("file", nargs="?")
    p.add_argument("--weights", default="", help="comma-separated ambient weights")
    p.add_argument("--bundle", default="", help="comma-separated bundle degrees")

    p = sub.add_parser("series-verify", parents=[common], help="operator identity verification")
    p.add_argument("file", nargs="?")
    p.add_argument("--random", action="store_true", help="run seeded random tables")
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", required=True, choices=list(suites.SUITES) + ["all"])
    p.add_argument("--max-a", type=int, default=None, dest="max_a")
    p.add_argument("--max-l", type=int, default=None, dest="max_l")
    p.add_argument("--max-d", type=int, default=None, dest="max_d")
    p.add_argument("--max-len", type=int, default=None, dest="max_len")
    p.add_argument("--max-cd", type=int, default=None, dest="max_cd")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    return parser


def _read_document(args) -> dict | None:
    path = getattr(args, "file", None)
    if path is None:
        if sys.stdin.isatty() or args.command in ("rank", "sign", "verify", "series-verify", "wps"):
            return None
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
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
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (cohomology.InternalInconsistency, convexity.CertificateError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    report = {"command": args.command, "results": results}
    failed = _has_failures(results)
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(_render_table(report, time.monotonic() - started))
    return 1 if failed else 0


def _has_failures(results: dict) -> bool:
    if "ok" in results:
        return not results["ok"]
    if "failures" in results:
        return results["failures"] > 0
    if "suites" in results:
        return any(s["failures"] > 0 for s in results["suites"])
    return False


if __name__ == "__main__":
    sys.exit(main())
