"""Checks of the benchmark itself: its generators keep every verdict fixed,
its pinned expectations agree with the reference oracle where that is
affordable, and its tracer accounts for all traced time.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for extra in (HERE, ROOT / "src", ROOT / "tests"):
    if str(extra) not in sys.path:
        sys.path.insert(0, str(extra))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import gapn  # noqa: E402
from gapn import cli, constructions, fields, polynomials, search  # noqa: E402
from gapn import SparsePoly, derivative, function_from_json, is_gapn, make_field  # noqa: E402
from gapn.fields import FieldElem  # noqa: E402


def _poly(ctx, terms):
    return SparsePoly(ctx, [(e, ctx.element(c)) for e, c in terms])


def _verdict_tuple(v):
    return (v.to_json(), [(a.code, m) for a, m in v.per_direction])


def test_seeded_low_degree_terms_leave_is_gapn_unchanged():
    for p, n in ((3, 3), (5, 2), (7, 2)):
        ctx = make_field(p, n)
        tf = oracle.tuple_field_of(ctx)
        g = [0, 1] + [0] * (n - 2)
        bases = [
            [(2 * p - 1, [1])],  # gold monomial, GAPN
            [(2 * p - 1, [1]), (ctx.q - 2, g)],
            [(p + 2, g), (2 * p, [1])],
        ]
        for seed in range(4):
            rng = random.Random(seed)
            for base in bases:
                extra = workloads.low_degree_terms(rng, p, n, min(3, n + 1))
                assert all(workloads.digit_sum(p, e) <= p - 2 for e, _ in extra)
                assert all(any(c[1:]) for _, c in extra)
                f, h = _poly(ctx, base), _poly(ctx, base + extra)
                assert f != h
                want = oracle.is_gapn(tf, oracle.poly_terms(f))
                assert oracle.is_gapn(tf, oracle.poly_terms(h)) == want
                assert _verdict_tuple(is_gapn(h)) == _verdict_tuple(is_gapn(f))
                assert is_gapn(h).is_gapn == want


def test_pinned_non_gapn_witness_matches_oracle():
    name, obj = workloads.verify_functions(7)[3]
    assert name == "gf47-2"
    f = function_from_json(obj)
    tf = oracle.tuple_field_of(f.field)
    want = json.loads(workloads.VERIFY_INPUTS[3][4])
    a = tuple(want["witness"]["a"])
    b = tuple(want["witness"]["b"])
    terms = oracle.poly_terms(f)
    hist = oracle.fibers(oracle.derivative_table(tf, terms, a))
    over = sorted(tf.to_code(y) for y, cnt in hist.items() if cnt > f.field.p)
    assert over and over[0] == tf.to_code(b)
    # the worst fiber, at a direction where the library says it occurs
    worst_at = max(is_gapn(f).per_direction, key=lambda d: d[1])[0]
    hist = oracle.fibers(oracle.derivative_table(tf, terms, worst_at.vector()))
    assert max(hist.values()) == want["worst_fiber"]


def test_two_seeds_give_the_same_verify_wide_verdicts():
    one = dict(workloads.verify_functions(1))
    two = dict(workloads.verify_functions(2))
    for name, _, _, extra, _, _ in workloads.VERIFY_INPUTS:
        f, h = function_from_json(one[name]), function_from_json(two[name])
        assert (f != h) == bool(extra)
        ctx = f.field
        rng = random.Random(name)
        directions = [ctx.one, ctx.primitive_element] + [
            FieldElem(ctx, rng.randrange(ctx.q - 1)) for _ in range(2)
        ]
        for a in directions:
            assert derivative(f, a).values == derivative(h, a).values
    # the cheap inputs end to end, through the CLI
    for seed in (1, 2):
        for name, obj in workloads.verify_functions(seed):
            if name not in ("gf5-4", "gf47-2"):
                continue
            out = _run_cli_verify(obj)
            assert workloads.check("verify-wide", {"name": name}, out) == []


def _run_cli_verify(obj):
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        path = Path(tmp) / "f.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", str(path)])
    return {"exit": code, "stdout": buf.getvalue()}


def test_two_seeds_give_the_same_census_counts():
    draws = [workloads.census_moduli(seed) for seed in (1, 2)]
    assert draws[0] != draws[1]
    for draw in draws:
        assert len(set(draw)) == workloads.CENSUS_DRAW
        mod = draw[0]
        job = search.SearchJob(make_field(7, 2, modulus=list(mod)), "binomial",
                               degree_filter=frozenset(workloads.CENSUS_DEGREES))
        hits, summary = search.run_search(job, threads=1)
        out = {
            "examined": summary.examined,
            "checked": summary.checked,
            "hits_by_degree": summary.to_json()["hits_by_degree"],
            "hits_digest": workloads.digest([h.to_json() for h in hits]),
        }
        assert workloads.check("search-census", {"modulus": list(mod)}, out) == []


def test_span_recorder_partitions_the_traced_time():
    rec = spans.SpanRecorder()
    mods = (gapn, fields, polynomials, constructions, search, cli)
    originals = {m: dict(vars(m)) for m in mods}
    value_table = polynomials.SparsePoly.value_table
    undo = spans.install(rec, mods)
    try:
        root = rec.open("bench.pass")
        code = cli.main(["reproduce", "--claim", "p7-binomial-beyond-criteria", "--format", "json"])
        gapn.make_field(5, 2)
        rec.close(root)
    finally:
        spans.uninstall(undo)
    assert code == 0
    for m in mods:
        assert all(vars(m)[k] is v for k, v in originals[m].items())
    assert polynomials.SparsePoly.value_table is value_table
    layers = spans.layer_metrics(rec, root, search.claim_ids())
    total = sum(layers[k] for k in spans.SELF_TIME_KEYS)
    assert abs(total - layers["trace.wall_s"]) < 1e-9
    assert layers["cli.main_calls"] == 1
    assert layers["fields.make_field_calls"] >= 1
    assert layers["polynomials.is_gapn_calls"] == 2
    # two full scans of GF(49): 48 / 6 lines each
    assert layers["polynomials.lines_decided"] == 16
    assert layers["constructions.calls"] == 2
    assert layers["search.claim_s.p7-binomial-beyond-criteria"] > 0
    assert all(v >= -1e-12 for v in rec.self_times())


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert tuple(run.CLAIM_IDS) == tuple(search.claim_ids())
