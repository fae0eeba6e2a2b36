"""Command-line front end: field inspection, GAPN verification, construction,
exhaustive search, and one-command reproduction of the claim registry.

Exit codes: 0 success / property affirmed, 1 verified negative (not GAPN or
a failing claim), 2 usage or input error.  Data goes to stdout, diagnostics
to stderr.  The environment variable GAPN_TABLE_CAP overrides the maximum
field size.
"""

import argparse
import functools
import json
import os
import sys

from .constructions import FAMILIES
from .fields import DEFAULT_TABLE_CAP, field_order, make_field
from .polynomials import function_from_json, is_gapn
from .search import (
    _SHAPES,
    DEFAULT_BUDGET,
    SearchJob,
    check_search,
    claim_descriptions,
    claim_ids,
    reproduce,
    run_search,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _table_cap() -> int:
    raw = os.environ.get("GAPN_TABLE_CAP")
    return int(raw) if raw else DEFAULT_TABLE_CAP


def _threads(args) -> None:
    # --threads reaches nothing, since every search and claim runs in this
    # process, but a negative count is still a usage error
    if args.threads < 0:
        raise ValueError(f"--threads must be 0 or more, got {args.threads}")


def _parse_vector(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def cmd_field_info(args) -> int:
    ctx = make_field(args.p, args.n, table_cap=_table_cap())
    info = ctx.to_json()
    info["q"] = ctx.q
    info["primitive_element"] = list(ctx.primitive_element.vector())
    info["subgroup_size"] = (ctx.q - 1) // (ctx.p - 1)
    if args.format == "text":
        print(f"GF({ctx.p}^{ctx.n}), q = {ctx.q}")
        print(f"modulus (constant term first): {list(ctx.modulus)}")
        print(f"primitive element g: {list(ctx.primitive_element.vector())}")
        print(f"subgroup <g^(p-1)> size: {info['subgroup_size']}")
    else:
        print(json.dumps(info))
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.function_file, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError("function file is nested too deeply") from None
    f = function_from_json(obj, table_cap=_table_cap())
    verdict = is_gapn(f)
    if args.format == "text":
        deg = f.algebraic_degree()
        print(f"is_gapn: {verdict.is_gapn}")
        print(f"algebraic degree: {deg}")
        print(f"worst fiber: {verdict.worst_fiber}")
        if verdict.witness is not None:
            a, b = verdict.witness
            print(f"witness: a={list(a.vector())} b={list(b.vector())}")
    else:
        print(json.dumps(verdict.to_json()))
    return EXIT_OK if verdict.is_gapn else EXIT_NEGATIVE


def cmd_construct(args) -> int:
    build, required, coefficients = FAMILIES[args.family]
    if any(getattr(args, opt) is None for opt in required):
        raise ValueError(f"{args.family} requires " + " and ".join(f"--{opt}" for opt in required))
    unread = [f"--{opt}" for opt in ("h", "k", "l", "u", "v")
              if opt not in required + coefficients and getattr(args, opt) is not None]
    if unread:
        raise ValueError(f"{args.family} does not read " + " or ".join(unread))
    ctx = make_field(args.p, 2, table_cap=_table_cap())
    options = {opt: getattr(args, opt) for opt in required}
    options.update({opt: ctx.element(_parse_vector(text)) if (text := getattr(args, opt)) else None
                    for opt in coefficients})
    recipe = build(args.p, **options, ctx=ctx)
    verdict = is_gapn(recipe.result)
    out = {
        "recipe": recipe.to_json(),
        "function": recipe.result.to_json(),
        "verdict": verdict.to_json(),
    }
    if args.format == "text":
        print(f"family: {recipe.family}, degree {recipe.claimed_degree}")
        print(f"function: {recipe.result!r}")
        print(f"is_gapn: {verdict.is_gapn} (worst fiber {verdict.worst_fiber})")
    else:
        print(json.dumps(out))
    return EXIT_OK if verdict.is_gapn else EXIT_NEGATIVE


def _emit_hits(hits, summary, args) -> None:
    sink = open(args.output, "w", encoding="utf-8", newline="") if args.output else None
    target = sink or sys.stdout
    try:
        if args.format == "csv":
            import csv  # imported here, so no other command pays to load it

            writer = csv.writer(target)
            writer.writerow(["ordinal", "degree", "worst_fiber", "p", "n", "function"])
            for h in hits:
                field = h.function.field
                compact = ";".join(
                    f"{e}:{','.join(str(c) for c in coeff.vector())}"
                    for e, coeff in h.function.terms
                )
                # the worst_fiber column is p: that is the worst fiber of every GAPN hit
                writer.writerow([h.ordinal, h.degree, field.p, field.p, field.n, compact])
            print(json.dumps(summary.to_json()), file=sys.stderr)
        elif args.format == "text":
            for h in hits:
                print(f"#{h.ordinal} degree {h.degree}: {h.function!r}", file=target)
            print(f"examined {summary.examined}, checked {summary.checked}, "
                  f"hits by degree {summary.to_json()['hits_by_degree']}, "
                  f"{summary.elapsed_ms} ms")
        else:
            for h in hits:
                print(json.dumps(h.to_json()), file=target)
            print(json.dumps(summary.to_json()))
    finally:
        if sink:
            sink.close()


def cmd_search(args) -> int:
    _threads(args)
    # the field's p and n and the job's options are refused before the
    # field is built, which takes seconds on the largest fields
    field_order(args.p, args.n, _table_cap())
    options = {"degree_filter": args.degree, "canonicalize": not args.no_canonical,
               "limit": args.limit, "min_digit_sum": args.min_digit_sum}
    check_search(args.p, args.n, args.shape, **options, budget=args.budget)
    ctx = make_field(args.p, args.n, table_cap=_table_cap())
    hits, summary = run_search(SearchJob(ctx, args.shape, **options), budget=args.budget)
    _emit_hits(hits, summary, args)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    _threads(args)
    if args.claim == "list":
        for cid, desc in claim_descriptions().items():
            print(f"{cid}: {desc}")
        return EXIT_OK
    ids = claim_ids() if args.claim == "all" else [args.claim]
    reports = [reproduce(claim_id) for claim_id in ids]
    if args.format == "json":
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.claim} ({r.elapsed_ms} ms)")
            if not r.passed:
                print(f"     details: {json.dumps(r.details)}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_NEGATIVE


_THREADS_HELP = "0 or more; accepted for compatibility, every search and claim runs in this process"


# built on the first main() call, not at import, and reused by every later
# one: parsing leaves the parser unchanged and every default is immutable
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapn",
        description="Construct and exactly verify GAPN functions over GF(p^n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fi = sub.add_parser("field-info", help="print the canonical field description")
    fi.add_argument("-p", type=int, required=True)
    fi.add_argument("-n", type=int, default=2)
    fi.add_argument("--format", choices=("json", "text"), default="json")
    fi.set_defaults(func=cmd_field_info)

    ve = sub.add_parser("verify", help="GAPN-check a function JSON file")
    ve.add_argument("function_file")
    ve.add_argument("--format", choices=("json", "text"), default="json")
    ve.set_defaults(func=cmd_verify)

    co = sub.add_parser("construct", help="build a GAPN binomial or trinomial")
    co.add_argument("--family", required=True, choices=FAMILIES)
    co.add_argument("-p", type=int, required=True)
    co.add_argument("--h", type=int, default=None)
    co.add_argument("--k", type=int, default=None)
    co.add_argument("--l", type=int, default=None)
    co.add_argument("--u", type=str, default=None,
                    help="coefficient vector, comma separated, constant term first")
    co.add_argument("--v", type=str, default=None)
    co.add_argument("--format", choices=("json", "text"), default="json")
    co.set_defaults(func=cmd_construct)

    se = sub.add_parser("search", help="exhaustively enumerate and GAPN-check a family")
    se.add_argument("-p", type=int, required=True)
    se.add_argument("-n", type=int, default=2)
    se.add_argument("--shape", required=True, choices=_SHAPES)
    se.add_argument("--degree", type=int, action="append",
                    help="keep only candidates of this algebraic degree, 0..n(p-1) (repeatable)")
    se.add_argument("--no-canonical", action="store_true",
                    help="binomial, trinomial only: also enumerate the first coefficient instead of "
                         "fixing it to 1")
    se.add_argument("--min-digit-sum", type=int, default=None,
                    help="digitsum-reduced only: exponent digit-sum threshold (default p; 0 = raw space)")
    se.add_argument("--limit", type=int, default=None,
                    help="stop after this many hits (at least 1)")
    se.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    se.add_argument("--threads", type=int, default=0, help=_THREADS_HELP)
    se.add_argument("--format", choices=("json", "csv", "text"), default="json")
    se.add_argument("-o", "--output", default=None, help="write hits to this file")
    se.set_defaults(func=cmd_search)

    re_ = sub.add_parser("reproduce", help="re-run registered verification claims")
    re_.add_argument("--claim", required=True,
                     help="a claim id or 'all'; see 'gapn reproduce --claim list'")
    re_.add_argument("--threads", type=int, default=0, help=_THREADS_HELP)
    re_.add_argument("--format", choices=("json", "text"), default="text")
    re_.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
