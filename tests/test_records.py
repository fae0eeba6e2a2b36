"""The result records: constructors, equality, hashing, repr and the CSV and
JSON forms the CLI writes from them."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import gapn
from gapn.cli import main
from gapn.constructions import ConstructionRecipe, build_odd_binomial
from gapn.fields import make_field
from gapn.polynomials import DerivativeMap, GapnVerdict, SparsePoly, derivative, is_gapn
from gapn.search import Report, SearchHit, SearchJob, SearchSummary, reproduce, run_search


def test_constructors_take_positional_and_keyword_fields():
    ctx = make_field(3, 2)
    f = SparsePoly.monomial(ctx, 5)
    job = SearchJob(ctx, "binomial")
    assert (job.field, job.shape, job.degree_filter, job.canonicalize, job.limit, job.min_digit_sum) == (
        ctx, "binomial", None, True, None, None)
    job = SearchJob(ctx, "digitsum-reduced", [3, 4, 3], False, 2, 3)
    assert job == SearchJob(field=ctx, shape="digitsum-reduced", degree_filter=frozenset({3, 4}),
                            canonicalize=False, limit=2, min_digit_sum=3)
    assert type(job.degree_filter) is frozenset and job.degree_filter == {3, 4}

    hit = SearchHit(4, f, 3)
    assert (hit.ordinal, hit.function, hit.degree) == (4, f, 3)
    assert hit == SearchHit(degree=3, function=f, ordinal=4)
    summary = SearchSummary(8, 7, {3: 2}, 0)
    assert summary == SearchSummary(examined=8, checked=7, hits_by_degree={3: 2}, elapsed_ms=0)
    assert (summary.examined, summary.checked, summary.hits_by_degree, summary.elapsed_ms) == (8, 7, {3: 2}, 0)
    report = Report("c", True, {"a": 1}, 5)
    assert report == Report(claim="c", passed=True, details={"a": 1}, elapsed_ms=5)
    assert (report.claim, report.passed, report.details, report.elapsed_ms) == ("c", True, {"a": 1}, 5)
    dm = DerivativeMap([0, 1], {0: 1, 1: 1})
    assert dm == DerivativeMap(values=[0, 1], fiber_histogram={0: 1, 1: 1})
    assert (dm.values, dm.fiber_histogram) == ([0, 1], {0: 1, 1: 1})
    v = GapnVerdict(True, 3, None, [])
    assert v == GapnVerdict(is_gapn=True, worst_fiber=3, witness=None, per_direction=lambda: [])

    built = build_odd_binomial(5, k=4, l=3)
    recipe = ConstructionRecipe(built.family, built.p, built.params, built.result, built.claimed_degree)
    assert recipe == built == ConstructionRecipe(
        family="odd-binomial", p=5, params={"k": 4, "l": 3, "u": [0, 1]}, result=built.result, claimed_degree=7)

    for make, args in ((SearchJob, (ctx,)), (Report, ("c", True, {})), (SearchHit, (1, f))):
        with pytest.raises(TypeError, match="missing 1 required positional argument"):
            make(*args)
    with pytest.raises(TypeError, match="unexpected keyword argument 'foo'"):
        SearchJob(ctx, "binomial", foo=1)
    with pytest.raises(TypeError, match="takes from 3 to 7 positional arguments but 8 were given"):
        SearchJob(ctx, "binomial", None, True, None, None, 7)


def test_constructors_refuse_in_order():
    # SearchJob checks the shape, then makes degree_filter a frozenset, then
    # checks the limit; ConstructionRecipe checks the built degree, then its range
    ctx = make_field(3, 2)
    with pytest.raises(ValueError, match="^unknown search shape 'nope'$"):
        SearchJob(ctx, "nope", degree_filter=5, limit=0)
    with pytest.raises(TypeError, match="'int' object is not iterable"):
        SearchJob(ctx, "binomial", degree_filter=5, limit=0)
    with pytest.raises(ValueError, match="^limit must be at least 1, got 0$"):
        SearchJob(ctx, "binomial", limit=0)
    assert SearchJob(ctx, "binomial", limit=1).limit == 1

    f = build_odd_binomial(5, k=4, l=3).result  # degree 7
    with pytest.raises(AssertionError, match=r"^claimed degree 9 but built degree 7$"):
        ConstructionRecipe("odd-binomial", 3, {}, f, 9)
    with pytest.raises(AssertionError, match=r"^degree outside \[p, 2\(p-1\)\]$"):
        ConstructionRecipe("odd-binomial", 3, {}, f, 7)
    assert ConstructionRecipe("odd-binomial", 7, {}, f, 7).claimed_degree == 7


def test_records_compare_by_fields_and_are_unhashable():
    ctx = make_field(3, 2)
    f = SparsePoly.monomial(ctx, 5)
    r = build_odd_binomial(5, k=4, l=3)
    cases = [
        (SearchJob, (ctx, "binomial"), (ctx, "binomial", None, False)),
        (SearchHit, (4, f, 3), (4, f, 2)),
        (SearchSummary, (8, 8, {3: 2}, 0), (8, 8, {3: 2}, 1)),
        (Report, ("c", True, {}, 0), ("c", False, {}, 0)),
        (DerivativeMap, ([0], {0: 1}), ([1], {1: 1})),
        (GapnVerdict, (True, 3, None, []), (True, 3, None, [(ctx.one, 3)])),
        (ConstructionRecipe, (r.family, r.p, r.params, r.result, 7), (r.family, r.p, {}, r.result, 7)),
    ]
    for cls, fields, other in cases:
        record = cls(*fields)
        assert record == cls(*fields) and not record != cls(*fields)
        assert record != cls(*other)
        with pytest.raises(TypeError, match="unhashable type"):
            hash(record)
    # same field values, another class: never equal
    assert SearchSummary("c", True, {}, 0) != Report("c", True, {}, 0)
    assert Report("c", True, {}, 0) != ("c", True, {}, 0)
    # a lazy per_direction compares as the list it builds
    assert GapnVerdict(True, 3, None, lambda: [(ctx.one, 3)]) == GapnVerdict(True, 3, None, [(ctx.one, 3)])


def test_record_reprs_are_pinned():
    ctx = make_field(3, 2)
    hits, summary = run_search(SearchJob(ctx, "monomial"))
    summary.elapsed_ms = 0
    report = reproduce("gold-monomials")
    report.elapsed_ms = 0
    assert repr(SearchJob(ctx, "binomial")) == (
        "SearchJob(field=FieldCtx(p=3, n=2, modulus=[2, 1, 1]), shape='binomial', degree_filter=None, "
        "canonicalize=True, limit=None, min_digit_sum=None)")
    assert repr(SearchJob(ctx, "binomial", {3}, False, 2, 3)) == (
        "SearchJob(field=FieldCtx(p=3, n=2, modulus=[2, 1, 1]), shape='binomial', "
        "degree_filter=frozenset({3}), canonicalize=False, limit=2, min_digit_sum=3)")
    assert repr(hits) == (
        "[SearchHit(ordinal=4, function=SparsePoly(F9: [1, 0]*X^5), degree=3), "
        "SearchHit(ordinal=6, function=SparsePoly(F9: [1, 0]*X^7), degree=3)]")
    assert repr(summary) == "SearchSummary(examined=8, checked=8, hits_by_degree={3: 2}, elapsed_ms=0)"
    assert repr(report) == (
        "Report(claim='gold-monomials', passed=True, details={'p=3': {'is_gapn': True, 'worst_fiber': 3}, "
        "'p=5': {'is_gapn': True, 'worst_fiber': 5}, 'p=7': {'is_gapn': True, 'worst_fiber': 7}, "
        "'p=11': {'is_gapn': True, 'worst_fiber': 11}, 'p=13': {'is_gapn': True, 'worst_fiber': 13}}, "
        "elapsed_ms=0)")
    assert repr(derivative(SparsePoly.monomial(ctx, 5), ctx.one)) == (
        "DerivativeMap(values=[0, 0, 0, 7, 7, 7, 5, 5, 5], fiber_histogram={0: 3, 7: 3, 5: 3})")
    assert repr(is_gapn(SparsePoly.monomial(ctx, 2), fail_fast=True)) == (
        "GapnVerdict(is_gapn=False, worst_fiber=9, witness=(F9[1, 0], F9[2, 0]), "
        "per_direction=[(F9[1, 0], 9), (F9[2, 0], 9)])")
    assert repr(build_odd_binomial(5, k=4, l=3)) == (
        "ConstructionRecipe(family='odd-binomial', p=5, params={'k': 4, 'l': 3, 'u': [0, 1]}, "
        "result=SparsePoly(F25: [1, 0]*X^9 + [0, 1]*X^23), claimed_degree=7)")


def test_report_json_keeps_its_key_order(capsys):
    report = Report("c", False, {"b": [1, 2], "a": {"x": None}}, 7)
    assert json.dumps(report.to_json()) == (
        '{"claim": "c", "passed": false, "details": {"b": [1, 2], "a": {"x": null}}, "elapsed_ms": 7}')
    assert main(["reproduce", "--claim", "gold-monomials", "--format", "json"]) == 0
    (out,) = json.loads(capsys.readouterr().out)
    assert list(out) == ["claim", "passed", "details", "elapsed_ms"]


def test_search_csv_output_is_pinned(tmp_path, capsys):
    # the csv module's \r\n rows, on stdout and in an -o file alike
    want = ('ordinal,degree,worst_fiber,p,n,function\r\n'
            '4,3,3,3,2,"5:1,0"\r\n'
            '6,3,3,3,2,"7:1,0"\r\n')
    assert main(["search", "-p", "3", "--shape", "monomial", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out == want
    assert json.loads(captured.err)["hits_by_degree"] == {"3": 2}
    path = tmp_path / "hits.csv"
    assert main(["search", "-p", "3", "--shape", "monomial", "--format", "csv", "-o", str(path)]) == 0
    assert path.read_bytes() == want.encode()
    # GF(27) binomials: 2,436 hits
    assert main(["search", "-p", "3", "-n", "3", "--shape", "binomial", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.count("\r\n") == 2437
    assert hashlib.md5(out.encode()).hexdigest() == "002ca869ec633203d8a022fe8b0c6d9b"


def test_import_leaves_unused_stdlib_modules_unloaded():
    # dataclasses (with inspect, ast and dis behind it) and csv cost start-up
    # time on every command; csv loads only for --format csv
    src = os.path.dirname(os.path.dirname(gapn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys\n"
        "import gapn, gapn.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))\n"
    )
    run = subprocess.run([sys.executable, "-c", script],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
