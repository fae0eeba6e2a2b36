"""CLI surface: exit codes, output formats, file handling."""

import json
import os
import subprocess
import sys
import time

import pytest

import gapn
from gapn.cli import main
from gapn.fields import make_field
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
    "field-info-huge-p": ["field-info", "-p", "1000000000000000003"],
}

# function files for verify that are not valid function JSON, given as text
_MALFORMED_TEXT = {
    "verify-deep-nesting": "[" * 200_000 + "]" * 200_000,
    "verify-huge-n": json.dumps({"field": {"p": 3, "n": 50_000_000}, "terms": []}),
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
    # GF(25) binomials: 6,624 candidates, decided per exponent pair without a
    # pool; stdout is the same for every --threads apart from elapsed_ms
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


def test_reproduce_single(capsys):
    assert main(["reproduce", "--claim", "gold-monomials"]) == 0
    assert "PASS gold-monomials" in capsys.readouterr().out


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
