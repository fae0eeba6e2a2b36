"""CLI surface: exit codes, output formats, file handling."""

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time

import pytest

import gapn
import gapn.search as search
from gapn.cli import _build_parser, main
from gapn.fields import FieldCtx, make_field
from gapn.polynomials import SparsePoly


def _function_file(tmp_path, poly, name="fn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(poly.to_json()))
    return str(path)


def test_field_info_json(capsys):
    assert main(["field-info", "-p", "7", "-n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["q"] == 49
    assert out["subgroup_size"] == 8
    assert out["modulus"][-1] == 1


def test_field_info_prime_field(capsys):
    assert main(["field-info", "-p", "3", "-n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["q"] == 3


def test_field_info_rejects_composite(capsys):
    assert main(["field-info", "-p", "4", "-n", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_gold_exit_zero(tmp_path, capsys):
    ctx = make_field(5, 2)
    path = _function_file(tmp_path, SparsePoly.monomial(ctx, 9))
    assert main(["verify", path]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["is_gapn"] is True and verdict["witness"] is None


def test_verify_non_gapn_exit_one(tmp_path, capsys):
    ctx = make_field(3, 2)
    path = _function_file(tmp_path, SparsePoly.monomial(ctx, 2))
    assert main(["verify", path]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["is_gapn"] is False and verdict["witness"] is not None


def test_verify_two_terms_over_gf3_8(tmp_path, capsys):
    # X^5 + X^45: G = 40, so 164 line classes stand for the 3,280 lines;
    # the output is the one a scan of every line gives
    path = tmp_path / "x5-x45.json"
    path.write_text('{"field": {"p": 3, "n": 8}, "terms": [{"exp": 5, "coeff": [1]}, {"exp": 45, "coeff": [1]}]}')
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == (
        '{"is_gapn": false, "worst_fiber": 27, "witness": {"a": [1, 0, 0, 0, 0, 0, 0, 0], '
        '"b": [0, 0, 0, 0, 0, 0, 0, 0]}}\n')


def test_verify_malformed_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 2
    path2 = tmp_path / "incomplete.json"
    path2.write_text(json.dumps({"field": {"p": 5, "n": 2}}))
    assert main(["verify", str(path2)]) == 2


_GOOD_FIELD = {"p": 5, "n": 2, "modulus": [2, 1, 1]}
_GOOD_TERM = {"exp": 9, "coeff": [1, 0]}


_MALFORMED = {
    "p-float": ({"p": 5.9, "n": 2}, _GOOD_TERM),
    "p-string": ({"p": "5", "n": 2}, _GOOD_TERM),
    "p-bool": ({"p": True, "n": 2}, _GOOD_TERM),
    "n-float": ({"p": 5, "n": 2.0}, _GOOD_TERM),
    "n-string": ({"p": 5, "n": "2"}, _GOOD_TERM),
    "n-bool": ({"p": 5, "n": True}, {"exp": 3, "coeff": [1]}),
    "modulus-float": ({"p": 5, "n": 2, "modulus": [2, 1.0, 1]}, _GOOD_TERM),
    "modulus-string": ({"p": 5, "n": 2, "modulus": "211"}, _GOOD_TERM),
    "modulus-bool": ({"p": 5, "n": 2, "modulus": [2, True, 1]}, _GOOD_TERM),
    "exp-float": (_GOOD_FIELD, {"exp": 9.0, "coeff": [1, 0]}),
    "exp-string": (_GOOD_FIELD, {"exp": "9", "coeff": [1, 0]}),
    "exp-bool": (_GOOD_FIELD, {"exp": True, "coeff": [1, 0]}),
    "coeff-float": (_GOOD_FIELD, {"exp": 9, "coeff": [1.7, 0]}),
    "coeff-string-entry": (_GOOD_FIELD, {"exp": 9, "coeff": ["1", 0]}),
    "coeff-bool": (_GOOD_FIELD, {"exp": 9, "coeff": [True, 0]}),
    "coeff-string": (_GOOD_FIELD, {"exp": 9, "coeff": "10"}),
    "coeff-int": (_GOOD_FIELD, {"exp": 9, "coeff": 10}),
    "coeff-object": (_GOOD_FIELD, {"exp": 9, "coeff": {"0": 1}}),
}


# malformed search and reproduce options, given as the command line itself
_MALFORMED_ARGV = {
    "search-limit-zero": ["search", "-p", "3", "--shape", "monomial", "--limit", "0"],
    "search-limit-negative": ["search", "-p", "3", "--shape", "monomial", "--limit", "-1"],
    "search-threads-negative": ["search", "-p", "3", "--shape", "monomial", "--threads", "-5"],
    "reproduce-threads-negative": ["reproduce", "--claim", "gold-monomials", "--threads", "-2"],
    "reproduce-list-threads-negative": ["reproduce", "--claim", "list", "--threads", "-1"],
    "field-info-huge-p": ["field-info", "-p", "1000000000000000003"],
}

# function files for verify that are not valid function JSON, given as text
_MALFORMED_TEXT = {
    "verify-deep-nesting": "[" * 200_000 + "]" * 200_000,
    "verify-huge-n": json.dumps({"field": {"p": 3, "n": 50_000_000}, "terms": []}),
    "verify-terms-object": json.dumps({"field": _GOOD_FIELD, "terms": {}}),
    "verify-terms-string": json.dumps({"field": _GOOD_FIELD, "terms": ""}),
}


@pytest.mark.parametrize(
    "case",
    [*_MALFORMED.values(), *_MALFORMED_ARGV.values(), *_MALFORMED_TEXT.values()],
    ids=[*_MALFORMED, *_MALFORMED_ARGV, *_MALFORMED_TEXT],
)
def test_verify_malformed_values_exit_two(tmp_path, capsys, case):
    if isinstance(case, tuple):  # (field, term) of a function file for verify
        field, term = case
        case = json.dumps({"field": field, "terms": [term]})
    if isinstance(case, str):  # the text of a function file for verify
        path = tmp_path / "bad.json"
        path.write_text(case)
        case = ["verify", str(path)]
    t0 = time.perf_counter()
    assert main(case) == 2
    assert time.perf_counter() - t0 < 1  # refused before any field-sized work
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err and len(captured.err) < 200


def test_python_dash_m_exit_codes(tmp_path):
    src = os.path.dirname(os.path.dirname(gapn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = _function_file(tmp_path, SparsePoly.monomial(make_field(3, 2), 2))
    run = subprocess.run([sys.executable, "-m", "gapn", "verify", path],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert json.loads(run.stdout)["is_gapn"] is False
    run = subprocess.run([sys.executable, "-m", "gapn.cli", "no-such-command"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2


def _json_summary(out):
    # hit lines, then the summary line without its elapsed_ms
    lines = out.splitlines()
    summary = json.loads(lines.pop())
    assert summary.pop("elapsed_ms") >= 0
    return [json.loads(line) for line in lines], summary


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main reuses one parser per process: a repeatable flag, a usage error
    # or --help in one call must leave nothing behind for the next
    from gapn import cli
    from gapn.search import SearchJob, run_search

    assert main(["search", "-p", "3", "--shape", "monomial", "--degree", "3"]) == 0
    _, filtered = _json_summary(capsys.readouterr().out)
    assert (filtered["examined"], filtered["checked"]) == (8, 2)
    assert main(["search", "-p", "3", "--shape", "monomial"]) == 0
    hits, summary = _json_summary(capsys.readouterr().out)
    want_hits, want = run_search(SearchJob(make_field(3, 2), "monomial"))
    want = want.to_json()
    want.pop("elapsed_ms")
    assert summary == want and summary["checked"] == 8
    assert hits == [h.to_json() for h in want_hits]

    path = _function_file(tmp_path, SparsePoly.monomial(make_field(5, 2), 9))
    assert main(["verify", path]) == 0
    first = capsys.readouterr().out
    assert main(["verify", path, "--format", "xml"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first) == {"is_gapn": True, "worst_fiber": 5, "witness": None}

    assert main(["--help"]) == 0
    assert "usage: gapn" in capsys.readouterr().out
    assert main(["field-info", "-p", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["q"] == 49

    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser.cache_info().misses == 1


def test_parser_is_built_on_first_main_call_only():
    # importing the package builds no parser; the first main() builds it
    # and every later call reuses it
    src = os.path.dirname(os.path.dirname(gapn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import gapn, gapn.cli as cli\n"
        "assert cli._build_parser.cache_info().misses == 0\n"
        "assert cli.main(['reproduce', '--claim', 'list']) == 0\n"
        "assert cli.main(['no-such-command']) == 2\n"
        "assert cli.main(['field-info', '-p', '5']) == 0\n"
        "info = cli._build_parser.cache_info()\n"
        "assert (info.misses, info.hits) == (1, 2), info\n"
    )
    run = subprocess.run([sys.executable, "-c", script],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_construct_even_binomial(capsys):
    assert main(["construct", "--family", "even-binomial", "-p", "5", "--h", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["recipe"]["degree"] == 6
    assert out["verdict"]["is_gapn"] is True
    exps = [t["exp"] for t in out["function"]["terms"]]
    assert exps == [9, 18]


def test_construct_even_binomial_p13(capsys):
    assert main(["construct", "--family", "even-binomial", "-p", "13", "--h", "12"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["recipe"]["degree"] == 24
    assert out["verdict"]["is_gapn"] is True


def test_construct_trinomial_auto_coefficients(capsys):
    assert main(["construct", "--family", "trinomial", "-p", "7", "--h", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["recipe"]["degree"] == 8
    assert out["verdict"]["is_gapn"] is True


def test_construct_mod3_binomial(capsys):
    assert main(["construct", "--family", "mod3-binomial", "-p", "5", "--h", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["recipe"]["degree"] == 8
    assert out["verdict"]["is_gapn"] is True
    assert main(["construct", "--family", "mod3-binomial", "-p", "7", "--h", "3"]) == 2


def test_construct_odd_binomial_requires_digits(capsys):
    assert main(["construct", "--family", "odd-binomial", "-p", "5", "--k", "4"]) == 2
    assert "requires" in capsys.readouterr().err


def test_construct_mersenne_rejected(capsys):
    assert main(["construct", "--family", "even-binomial", "-p", "7", "--h", "3"]) == 2
    assert "Mersenne" in capsys.readouterr().err


def test_construct_missing_parameter(capsys):
    assert main(["construct", "--family", "trinomial", "-p", "7"]) == 2


@pytest.mark.parametrize("args, unread", [
    (["--family", "odd-binomial", "-p", "5", "--k", "1", "--l", "4", "--u", "1,2"], "--u"),
    (["--family", "odd-binomial", "-p", "5", "--k", "1", "--l", "4", "--h", "0"], "--h"),
    (["--family", "trinomial", "-p", "7", "--h", "3", "--k", "2"], "--k"),
    (["--family", "mod3-binomial", "-p", "5", "--h", "4", "--l", "0", "--v", "1"], "--l or --v"),
    (["--family", "even-binomial", "-p", "5", "--h", "3", "--u", ""], "--u"),
])
def test_construct_refuses_options_its_family_does_not_read(capsys, args, unread):
    # FAMILIES lists every option a family reads; any other one is a usage
    # error, and no verdict is printed
    assert main(["construct", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {args[1]} does not read {unread}\n"


@pytest.mark.parametrize("argv, message", [
    (["search", "-p", "1009", "-n", "2", "--shape", "monomial", "--threads", "-1"],
     "--threads must be 0 or more, got -1"),
    (["construct", "--family", "odd-binomial", "-p", "1009", "--k", "1"],
     "odd-binomial requires --k and --l"),
], ids=["search-threads", "construct-options"])
def test_bad_option_is_refused_before_the_field_is_built(monkeypatch, capsys, argv, message):
    # GF(1009^2) is slow to build, and an option that is refused anyway
    # must not wait for it
    def refuse(*args, **kwargs):
        raise AssertionError("the field was built before the options were checked")

    monkeypatch.setattr("gapn.cli.make_field", refuse)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_construct_trinomial_reads_its_coefficients(capsys):
    # given (u, v) equal to the defaults, or empty, trinomial prints what
    # the defaults print
    assert main(["construct", "--family", "trinomial", "-p", "7", "--h", "4"]) == 0
    auto = capsys.readouterr().out
    for extra in (["--u", "4,6", "--v", "4,0"], ["--u", "", "--v", ""]):
        assert main(["construct", "--family", "trinomial", "-p", "7", "--h", "4", *extra]) == 0
        assert capsys.readouterr().out == auto


def _construct_grid():
    for p in (3, 5, 7, 11, 13):
        for family in ("odd-binomial", "mod3-binomial", "even-binomial", "trinomial"):
            yield ["--family", family, "-p", str(p)]
        for k in range(-1, p + 1):
            for l in range(-1, p + 1):
                yield ["--family", "odd-binomial", "-p", str(p), "--k", str(k), "--l", str(l)]
        for family in ("mod3-binomial", "even-binomial", "trinomial"):
            for h in range(-1, p + 1):
                yield ["--family", family, "-p", str(p), "--h", str(h)]


def test_construct_grid_output_is_pinned(capsys):
    # stdout, stderr and exit code of 1,432 construct calls, valid and
    # invalid, in both formats, as one digest
    digest = hashlib.sha256()
    for args in _construct_grid():
        for fmt in ("json", "text"):
            argv = ["construct", *args, "--format", fmt]
            code = main(argv)
            out, err = capsys.readouterr()
            digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
    assert digest.hexdigest() == "1dd48e49327b278101f7fdd983365491720444b0191c5326dc18bc4dfb0012c5"


def test_search_json_stdout(capsys):
    rc = main(["search", "-p", "3", "--shape", "digitsum-reduced", "--degree", "4",
               "--threads", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["checked"] == 648
    assert summary["hits_by_degree"] == {}
    assert len(lines) == 1  # no hits, summary only


def test_search_hits_to_file(tmp_path, capsys):
    out_path = tmp_path / "hits.jsonl"
    rc = main(["search", "-p", "3", "--shape", "monomial", "--threads", "1",
               "-o", str(out_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    hits = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(hits) == sum(summary["hits_by_degree"].values())
    assert all(set(h) == {"ordinal", "degree", "function", "worst_fiber"} for h in hits)


def test_search_csv_format(tmp_path, capsys):
    out_path = tmp_path / "hits.csv"
    rc = main(["search", "-p", "3", "--shape", "monomial", "--threads", "1",
               "--format", "csv", "-o", str(out_path)])
    assert rc == 0
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "ordinal,degree,worst_fiber,p,n,function"
    assert len(rows) > 1
    # GF(25) binomials: 6,624 candidates; --threads reaches nothing, so stdout
    # is the same for every count apart from elapsed_ms
    for fmt in ("csv", "json"):
        outs = []
        for threads in ("1", "2"):
            assert main(["search", "-p", "5", "--shape", "binomial", "--format", fmt,
                         "--threads", threads]) == 0
            out = capsys.readouterr().out.splitlines()
            if fmt == "json":
                summary = json.loads(out.pop())
                assert summary.pop("elapsed_ms") >= 0
                out.append(json.dumps(summary))
            outs.append(out)
        assert len(outs[0]) > 100
        assert outs[0] == outs[1]


def test_search_budget_flag(capsys):
    rc = main(["search", "-p", "3", "--shape", "binomial", "--no-canonical",
               "--budget", "10", "--threads", "1"])
    assert rc == 2
    assert "budget" in capsys.readouterr().err


def _refuse_field_builds(field_p, field_n, table_cap=1 << 22):
    raise AssertionError("make_field called")


@pytest.mark.parametrize("argv, message", [
    (["--shape", "binomial", "--limit", "0"], "limit must be at least 1, got 0"),
    (["--shape", "binomial"], f"job enumerates {math.comb(3 ** 13 - 1, 2) * (3 ** 13 - 1)} candidates, "
                              "above the budget of 10000000; raise the budget explicitly to run it"),
    (["--shape", "binomial", "--min-digit-sum", "2"], "binomial does not read --min-digit-sum"),
    (["--shape", "trinomial", "--min-digit-sum", "0"], "trinomial does not read --min-digit-sum"),
    (["--shape", "monomial", "--no-canonical"], "monomial does not read --no-canonical"),
    (["--shape", "digitsum-reduced", "--no-canonical", "--min-digit-sum", "2"],
     "digitsum-reduced does not read --no-canonical"),
    (["--shape", "monomial", "--no-canonical", "--min-digit-sum", "1"],
     "monomial does not read --no-canonical or --min-digit-sum"),
    (["--shape", "binomial", "--degree", "99"], "--degree must lie in 0..26 over GF(3^13), got 99"),
    (["--shape", "monomial", "--degree", "-1", "--degree", "99"],
     "--degree must lie in 0..26 over GF(3^13), got -1"),
    (["--shape", "monomial", "--degree", "26", "--degree", "27"],
     "--degree must lie in 0..26 over GF(3^13), got 27"),
    # 3^10 - 66 and 3^13 - 105 slots: counts of over 4,300 digits, named as q^s
    (["-n", "10", "--shape", "digitsum-reduced"], "job enumerates 59049^58983 candidates, "
                                                  "above the budget of 10000000; raise the budget explicitly to run it"),
    (["--shape", "digitsum-reduced"], "job enumerates 1594323^1594218 candidates, "
                                      "above the budget of 10000000; raise the budget explicitly to run it"),
])
def test_search_refuses_before_building_the_field(monkeypatch, capsys, argv, message):
    # the limit, the candidate count, the options a shape reads and the
    # degrees 0..n(p-1) depend only on p, n and the options: GF(3^13) (and
    # GF(3^10)) searches are refused without make_field, with the message
    # search.check_search gives, which SearchJob and run_search give on a
    # built field too
    monkeypatch.setattr("gapn.cli.make_field", _refuse_field_builds)
    assert main(["search", "-p", "3", "-n", "13", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    monkeypatch.undo()
    args = _build_parser().parse_args(["search", "-p", "3", "-n", "13", *argv])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        search.check_search(args.p, args.n, args.shape, args.degree, not args.no_canonical,
                            args.limit, args.min_digit_sum, args.budget)
    # the end degrees 0 and n(p-1) are accepted
    for shape, degree in (("digitsum-reduced", "0"), ("binomial", "4")):
        assert main(["search", "-p", "3", "-n", "2", "--shape", shape, "--degree", degree]) == 0
        capsys.readouterr()
    ctx = make_field(3, 3)
    for shape, options in (("trinomial", {"canonicalize": False}), ("digitsum-reduced", {"min_digit_sum": 2})):
        with pytest.raises(ValueError) as built:
            search.run_search(search.SearchJob(ctx, shape, **options), budget=10)
        with pytest.raises(ValueError, match=f"^{re.escape(str(built.value))}$"):
            search.check_search(3, 3, shape, **options, budget=10)
        flags = ["--no-canonical"] if shape == "trinomial" else ["--min-digit-sum", "2"]
        assert main(["search", "-p", "3", "-n", "3", "--shape", shape, *flags, "--budget", "10"]) == 2
        assert capsys.readouterr().err == f"error: {built.value}\n"
    with pytest.raises(ValueError) as built:
        search.SearchJob(ctx, "monomial", limit=0)
    assert main(["search", "-p", "3", "-n", "3", "--shape", "monomial", "--limit", "0"]) == 2
    assert capsys.readouterr().err == f"error: {built.value}\n"


def test_reproduce_single(monkeypatch, capsys):
    assert main(["reproduce", "--claim", "gold-monomials"]) == 0
    assert "PASS gold-monomials" in capsys.readouterr().out
    # a failing claim prints its details under the FAIL line and exits 1
    desc, _ = search.CLAIM_REGISTRY["gold-monomials"]
    monkeypatch.setitem(search.CLAIM_REGISTRY, "gold-monomials", (desc, lambda: (False, {"why": [1, 2]})))
    assert main(["reproduce", "--claim", "gold-monomials"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"FAIL gold-monomials \(\d+ ms\)", out[0])
    assert out[1:] == ['     details: {"why": [1, 2]}']


def test_reproduce_unknown(capsys):
    assert main(["reproduce", "--claim", "bogus"]) == 2


def test_reproduce_list(capsys):
    assert main(["reproduce", "--claim", "list"]) == 0
    out = capsys.readouterr().out
    assert "p7-binomial-even-gaps" in out


def test_reproduce_json_format(capsys):
    assert main(["reproduce", "--claim", "p11-monomial-deg15-none", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["passed"] is True
    assert reports[0]["details"]["exponents"] == [65, 75, 85, 95, 105, 115]


def test_usage_errors_exit_two():
    assert main(["search", "-p", "3", "--shape", "nope"]) == 2
    assert main(["no-such-command"]) == 2


def test_text_format_outputs(tmp_path, capsys):
    assert main(["field-info", "-p", "7", "-n", "2", "--format", "text"]) == 0
    assert "q = 49" in capsys.readouterr().out
    ctx = make_field(3, 2)
    path = _function_file(tmp_path, SparsePoly.monomial(ctx, 2))
    assert main(["verify", path, "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert "is_gapn: False" in out and "witness" in out
    assert main(["construct", "--family", "odd-binomial", "-p", "5", "--k", "4",
                 "--l", "3", "--format", "text"]) == 0
    assert "degree 7" in capsys.readouterr().out
    assert main(["search", "-p", "3", "--shape", "monomial", "--threads", "1",
                 "--format", "text"]) == 0
    assert "examined 8" in capsys.readouterr().out


def test_table_cap_env_override(monkeypatch, capsys):
    monkeypatch.setenv("GAPN_TABLE_CAP", "10")
    assert main(["field-info", "-p", "5", "-n", "2"]) == 2
    assert "table cap" in capsys.readouterr().err
    monkeypatch.setenv("GAPN_TABLE_CAP", "100")
    assert main(["field-info", "-p", "5", "-n", "2"]) == 0


def test_field_info_counts_the_subgroup_without_listing_it(monkeypatch, capsys):
    # <g^(p-1)> has (q-1)/(p-1) elements; field-info reports that count
    # without walking the field's elements
    def refuse(self):
        raise AssertionError("field-info must not enumerate the field")

    monkeypatch.setattr(FieldCtx, "units", refuse)
    monkeypatch.setattr(FieldCtx, "elements", refuse)
    for p, n, size in ((7, 2, 8), (3, 1, 1)):
        for fmt in ("json", "text"):
            assert main(["field-info", "-p", str(p), "-n", str(n), "--format", fmt]) == 0
            out = capsys.readouterr().out
            if fmt == "json":
                assert json.loads(out)["subgroup_size"] == size
            else:
                assert f"subgroup <g^(p-1)> size: {size}\n" in out


def _is_prime(m):
    return m > 1 and all(m % f for f in range(2, m))


def _slots(node, path=()):
    # (path, value) for every value of a JSON document, the root included
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _slots(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _mutate_values(rng, doc):
    # a verify document of the right shape whose values may still be refused
    field, terms = doc["field"], doc["terms"]
    for _ in range(rng.randrange(1, 4)):
        what = rng.randrange(8)
        if what == 0:
            field["p"] = rng.choice([-1, 0, 1, 2, 3, 4, 5, 7, 9])
        elif what == 1:
            field["n"] = rng.choice([-1, 0, 1, 2, 3])
        elif what == 2:
            field.pop("modulus", None)
        elif what == 3 and field.get("modulus"):
            modulus = field["modulus"]
            modulus[rng.randrange(len(modulus))] = rng.randint(-3, 10)
            if rng.random() < 0.3:
                modulus.append(1)
        elif what == 4 and terms:
            rng.choice(terms)["exp"] = rng.choice([-1, 0, 1, 8, 9, 24, 25, 26, 10 ** 12])
        elif what == 5 and terms:
            coeff = rng.choice(terms)["coeff"]
            coeff.append(rng.randint(-10, 10))
            if rng.random() < 0.5:
                del coeff[0]
        elif what == 6:
            terms.append({"exp": rng.randrange(1, 25), "coeff": [rng.randint(0, 4), rng.randint(0, 4)]})
        elif what == 7 and terms:
            terms.pop(rng.randrange(len(terms)))
    return doc


_REQUIRED_KEYS = ("field", "terms", "p", "n", "exp", "coeff")


def _break_schema(rng, doc):
    # one integer of the wrong JSON type, one required key missing, or one
    # container of the wrong kind
    slots = list(_slots(doc))
    what = rng.randrange(3)
    if what == 0:
        path, value = rng.choice([(path, v) for path, v in slots if isinstance(v, int)])
        return _replaced(doc, path, rng.choice([value + 0.5, float(value), str(value), True, False]))
    if what == 1:
        path = rng.choice([path for path, _ in slots if path and path[-1] in _REQUIRED_KEYS])
        del _at(doc, path[:-1])[path[-1]]
        return doc
    path, value = rng.choice([(path, v) for path, v in slots if isinstance(v, (dict, list))])
    wrong = [{}, {"0": 1}, "", "x", 7] if isinstance(value, list) else [[], [1], "", "x", 7]
    return _replaced(doc, path, rng.choice(wrong))


def _fuzz_main(argv):
    t0 = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - t0 < 1, argv
    assert code in (0, 1, 2), argv
    return code


def test_fuzzed_verify_documents_exit_cleanly(tmp_path, capsys):
    # seeded mutations of well-formed GF(9) and GF(25) documents: main never
    # raises, and every document that breaks the schema exits 2
    f9, f25 = make_field(3, 2), make_field(5, 2)
    bases = [
        SparsePoly(f9, [(5, f9.one), (7, f9.primitive_element)]).to_json(),
        SparsePoly(f25, [(9, f25.one)]).to_json(),
        SparsePoly(f25, [(9, f25.one), (13, f25.primitive_element), (18, f25.one)]).to_json(),
    ]
    rng = random.Random(20221)
    path = tmp_path / "fn.json"
    for i in range(200):
        doc = json.loads(json.dumps(rng.choice(bases)))
        if rng.random() < 0.5:
            doc = _mutate_values(rng, doc)
        broken = i % 2 == 0
        if broken:
            doc = _break_schema(rng, doc)
        path.write_text(json.dumps(doc))
        code = _fuzz_main(["verify", str(path)])
        if broken:
            assert code == 2, doc
        capsys.readouterr()


_FAST_CLAIMS = ["gold-monomials", "inverse-monomials", "odd-binomial-degrees",
                "even-binomial-degrees", "p7-trinomial-even-degrees", "p7-binomial-even-gaps",
                "derivative-power-identity", "conjugate-premise-obstruction",
                "list", "no-such-claim"]


def _random_argv(rng, files):
    # (argv, must_refuse): must_refuse when the argv has a negative
    # --threads, --limit 0, a non-prime p or n < 1, or a search option its
    # shape does not read or a --degree outside 0..n(p-1)
    p = rng.choice([3, 5, 7] * 4 + [-3, 0, 1, 2, 4, 9])
    n = rng.choice([1, 2, 2, 3] * 3 + [-1, 0])
    threads = rng.choice([0, 1, 2] * 3 + [-1])
    command = rng.choice(["field-info", "verify", "construct", "search", "reproduce"])
    fmt = ["--format", rng.choice(["json", "text"])] if rng.random() < 0.5 else []
    if command == "field-info":
        return ["field-info", "-p", str(p), "-n", str(n)] + fmt, not _is_prime(p) or n < 1
    if command == "verify":
        return ["verify", rng.choice(files)] + fmt, False
    if command == "construct":
        family = rng.choice(["odd-binomial", "mod3-binomial", "even-binomial", "trinomial"])
        argv = ["construct", "--family", family, "-p", str(p)]
        for flag in ("--h", "--k", "--l"):
            if rng.random() < 0.7:
                argv += [flag, str(rng.randint(-1, max(p, 1)))]
        for flag in ("--u", "--v"):
            if rng.random() < 0.2:
                argv += [flag, rng.choice(["1,0", "0,1", "2", "1,x", ""])]
        return argv + fmt, not _is_prime(p)
    if command == "search":
        shape = rng.choice(["monomial", "binomial", "trinomial", "digitsum-reduced"])
        budgets = [-1, 0, 1, 50, 1000] + [10_000] * 3
        argv = ["search", "-p", str(p), "-n", str(n), "--shape", shape,
                "--budget", str(rng.choice(budgets)), "--threads", str(threads)]
        limit = rng.choice([None] * 4 + [1, 3] * 2 + [0, -1])
        if limit is not None:
            argv += ["--limit", str(limit)]
        degree = no_canonical = min_digit_sum = None
        if rng.random() < 0.3:
            degree = rng.randint(-1, 12)
            argv += ["--degree", str(degree)]
        if rng.random() < 0.2:
            no_canonical = True
            argv.append("--no-canonical")
        if rng.random() < 0.3:
            min_digit_sum = rng.randint(-1, 6)
            argv += ["--min-digit-sum", str(min_digit_sum)]
        if rng.random() < 0.5:
            argv += ["--format", rng.choice(["json", "csv", "text"])]
        unread = (min_digit_sum is not None and shape != "digitsum-reduced"
                  or no_canonical and shape in ("monomial", "digitsum-reduced"))
        no_degree = degree is not None and not 0 <= degree <= n * (p - 1)
        return argv, not _is_prime(p) or n < 1 or threads < 0 or limit == 0 or unread or no_degree
    argv = ["reproduce", "--claim", rng.choice(_FAST_CLAIMS), "--threads", str(threads)]
    return argv + fmt, threads < 0


def test_fuzzed_argv_exit_cleanly(tmp_path, capsys):
    # seeded command lines over all five subcommands, kept to p <= 7,
    # n <= 3 and small budgets: main never raises, and a negative --threads,
    # --limit 0, a non-prime p, n < 1, an unread search option or a degree
    # outside 0..n(p-1) exits 2
    good = _function_file(tmp_path, SparsePoly.monomial(make_field(5, 2), 9))
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": {"p": 5, "n": 2}, "terms": {}}')
    files = [good, str(bad), str(tmp_path / "missing.json")]
    rng = random.Random(20222)
    for _ in range(200):
        argv, must_refuse = _random_argv(rng, files)
        code = _fuzz_main(argv)
        if must_refuse:
            assert code == 2, argv
        capsys.readouterr()
