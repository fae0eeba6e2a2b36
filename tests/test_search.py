"""Deterministic enumeration, search execution and the claim registry."""

import json
import random
from collections import deque
from itertools import islice

import pytest

import gapn.search as search
from gapn.cli import main
from gapn.fields import FieldElem, make_field
from gapn.polynomials import SparsePoly, digit_sum, is_gapn
from gapn.search import (
    SearchJob,
    _scan_range,
    candidate_count,
    claim_ids,
    enumerate_candidates,
    reproduce,
    run_search,
)

import oracle


def test_candidate_counts():
    f49 = make_field(7, 2)
    assert candidate_count(SearchJob(f49, "monomial")) == 48
    assert candidate_count(SearchJob(f49, "binomial")) == 1128 * 48
    f9 = make_field(3, 2)
    assert candidate_count(SearchJob(f9, "digitsum-reduced")) == 9 ** 3
    assert candidate_count(SearchJob(f9, "binomial", canonicalize=False)) == 28 * 64


def test_digitsum_reduced_slots():
    f9 = make_field(3, 2)
    job = SearchJob(f9, "digitsum-reduced")
    descs = list(enumerate_candidates(job))
    exps = {e for desc in descs for e, _ in desc}
    assert exps == {5, 7, 8}
    assert len(descs) == 729
    assert sorted(digit_sum(3, e) for e in exps) == [3, 3, 4]


def test_enumeration_order_binomial():
    f9 = make_field(3, 2)
    job = SearchJob(f9, "binomial")
    first = list(enumerate_candidates(job))[:10]
    # exponent pair (1, 2) first, coefficient log index ascending
    assert first[0] == ((1, 0), (2, 0))
    assert first[1] == ((1, 0), (2, 1))
    assert first[8] == ((1, 0), (3, 0))


# ordinals walked by the reference enumeration in one start-ordinal case;
# only GF(25)'s trinomial spaces (1.2 M and 27.9 M candidates) are larger
_WALK_CAP = 600_000


@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "raw"])
@pytest.mark.parametrize("shape", ["monomial", "binomial", "trinomial", "digitsum-reduced"])
@pytest.mark.parametrize("p", [3, 5])
def test_enumeration_starts_at_ordinal(p, shape, canonical):
    ctx = make_field(p, 2)
    # digit sum >= 7 keeps 3 of GF(25)'s exponents (25^3 candidates)
    job = SearchJob(ctx, shape, canonicalize=canonical, min_digit_sum=7 if p == 5 else None)
    total = candidate_count(job)
    m = ctx.q - 1
    lead = 1 if shape == "monomial" or canonical else m
    inner = {"monomial": 1, "binomial": lead * m, "trinomial": lead * m * m}.get(shape, total)
    starts = {0, 1, total - 1, total}
    starts |= {b + d for b in range(inner, total, inner) for d in (-1, 0)}
    # whole tails where they are short, else one block and two more, so
    # every window crosses the next exponent tuple's boundary
    width = total if total <= 2000 else inner + 2
    ref = enumerate_candidates(job)
    buf, at = deque(), 0  # buf holds ref's descriptors from ordinal at on
    for s in sorted(x for x in starts if x <= _WALK_CAP or x >= total - 1):
        if s > _WALK_CAP:  # a trinomial space's last descriptor, without walking to it
            last = ((ctx.q - 3, m - 1 if lead > 1 else 0), (ctx.q - 2, m - 1), (ctx.q - 1, m - 1))
            assert list(enumerate_candidates(job, s)) == ([last] if s < total else [])
            continue
        drop = min(s - at, len(buf))
        for _ in range(drop):
            buf.popleft()
        deque(islice(ref, s - at - drop), maxlen=0)
        at = s
        buf.extend(islice(ref, width - len(buf)))
        assert list(islice(enumerate_candidates(job, s), width)) == list(buf), s


def test_enumeration_rejects_negative_start():
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_candidates(SearchJob(make_field(3, 2), "monomial"), -1)


def test_unknown_shape_rejected():
    f9 = make_field(3, 2)
    with pytest.raises(ValueError):
        SearchJob(f9, "hexanomial")


def test_run_is_deterministic():
    f9 = make_field(3, 2)
    job = SearchJob(f9, "binomial")
    hits1, sum1 = run_search(job)
    hits2, sum2 = run_search(job)
    lines1 = [json.dumps(h.to_json()) for h in hits1]
    lines2 = [json.dumps(h.to_json()) for h in hits2]
    assert lines1 == lines2
    assert sum1.examined == sum2.examined == 28 * 8
    assert all(is_gapn(h.function).is_gapn for h in hits1)
    assert all(h.degree == h.function.algebraic_degree() for h in hits1)


# (p, n, shape, canonicalize, options): whole spaces, except that the GF(9)
# digitsum-reduced space with min_digit_sum=2 has 9^6 = 531,441 candidates and
# is cut by a hit limit after its 4- and 5-term candidates, which take the
# kernel's gather path; the binomial and trinomial limits stop inside a
# block of coefficient choices
_REFERENCE_JOBS = {
    "gf9-binomial": (3, 2, "binomial", True, {}),
    "gf9-binomial-raw": (3, 2, "binomial", False, {}),
    "gf9-binomial-raw-degree-3-limit": (3, 2, "binomial", False, {"degree_filter": {3}, "limit": 100}),
    "gf9-trinomial": (3, 2, "trinomial", True, {}),
    "gf9-trinomial-raw": (3, 2, "trinomial", False, {}),
    "gf9-trinomial-raw-limit": (3, 2, "trinomial", False, {"limit": 700}),
    "gf9-digitsum-2": (3, 2, "digitsum-reduced", True, {"min_digit_sum": 2, "limit": 500}),
    "gf9-digitsum-degree-3": (3, 2, "digitsum-reduced", True, {"degree_filter": {3}}),
    "gf25-binomial": (5, 2, "binomial", True, {}),
    "gf25-binomial-limit": (5, 2, "binomial", True, {"limit": 500}),
    "gf27-binomial": (3, 3, "binomial", True, {}),
    "gf27-trinomial-limit": (3, 3, "trinomial", True, {"limit": 200}),
}


@pytest.mark.parametrize("case", list(_REFERENCE_JOBS.values()), ids=list(_REFERENCE_JOBS))
def test_search_matches_direct_loop(case):
    # the search scans descriptors on the line kernel; the reference builds
    # each candidate as a SparsePoly and takes a full is_gapn verdict
    p, n, shape, canonical, options = case
    ctx = make_field(p, n)
    job = SearchJob(ctx, shape, canonicalize=canonical, **options)
    hits, summary = run_search(job, threads=1)
    want, checked, most = [], 0, 0
    for ordinal, desc in enumerate(enumerate_candidates(job)):
        f = SparsePoly(ctx, [(e, FieldElem(ctx, j)) for e, j in desc if j != -1])
        degree = f.algebraic_degree()
        if degree is None or (job.degree_filter is not None and degree not in job.degree_filter):
            continue
        checked += 1
        most = max(most, len(f.terms))
        if is_gapn(f).is_gapn:
            want.append((ordinal, f, degree))
            if len(want) == job.limit:
                break
    assert [(h.ordinal, h.function, h.degree) for h in hits] == want
    assert (summary.examined, summary.checked) == (ordinal + 1, checked)
    assert most > p or "min_digit_sum" not in options  # the gather path was taken
    if "limit" in options and shape != "digitsum-reduced":
        m = ctx.q - 1
        block = (1 if canonical else m) * m ** (len(want[0][1].terms) - 1)
        assert len(want) == job.limit and summary.examined % block
    if ctx.q == 9:
        # the oracle takes milliseconds a candidate: every candidate of the
        # small spaces, an even spread of about 300 of the larger ones
        tf = oracle.tuple_field_of(ctx)
        gapn = {h.ordinal for h in hits}
        stride = max(1, summary.examined // 300)
        sample = islice(enumerate(enumerate_candidates(job)), 0, summary.examined, stride)
        for ordinal, desc in sample:
            terms = [(e, tuple(FieldElem(ctx, j).vector())) for e, j in desc if j != -1]
            flt = job.degree_filter
            if terms and (flt is None or max(digit_sum(p, e) for e, _ in terms) in flt):
                assert (oracle.verdict(tf, terms)[1] is None) == (ordinal in gapn)


def test_partition_soundness():
    f9 = make_field(3, 2)
    job = SearchJob(f9, "binomial")
    total = candidate_count(job)
    _, _, full_records = _scan_range(job, 0, total)
    for nparts in (2, 3, 7):
        merged = []
        step = -(-total // nparts)
        for lo in range(0, total, step):
            _, _, part = _scan_range(job, lo, min(lo + step, total))
            merged.extend(part)
        assert merged == full_records


def _scan_hits(job):
    """(examined, checked, [(ordinal, function, degree)]) from scanning
    every candidate of job on the line kernel."""
    ctx = job.field
    examined, checked, records = _scan_range(job, 0, candidate_count(job))
    hits = [(o, SparsePoly(ctx, [(e, FieldElem(ctx, j)) for e, j in desc if j != -1]), degree)
            for o, desc, degree in records]
    return examined, checked, hits


def _assert_matches_scan(job):
    hits, summary = run_search(job, threads=1)
    got = [(h.ordinal, h.function, h.degree) for h in hits]
    assert (summary.examined, summary.checked, got) == _scan_hits(job)
    return hits, summary


def _primitive_quadratics(p):
    for c in range(p):
        for b in range(p):
            try:
                yield make_field(p, 2, modulus=[c, b, 1])
            except ValueError:
                pass


def test_gf49_census_matches_scan_for_every_modulus():
    # the even-degree binomial census of p7-binomial-even-gaps, for each of
    # the 8 primitive quadratics over F_7
    fields = list(_primitive_quadratics(7))
    assert len(fields) == 8
    for ctx in fields:
        job = SearchJob(ctx, "binomial", degree_filter=frozenset({8, 10, 12}))
        hits, summary = _assert_matches_scan(job)
        assert (summary.examined, summary.hits_by_degree) == (54144, {10: 288})


def test_gf121_even_degree_census():
    # the hit counts of GF(121)'s even-degree canonical binomials; a seeded
    # sample of hits is GAPN and a sample of checked non-hits is not
    ctx = make_field(11, 2)
    job = SearchJob(ctx, "binomial", degree_filter=frozenset({12, 14, 16, 18, 20}))
    hits, summary = run_search(job)
    assert summary.hits_by_degree == {12: 2400, 14: 3360, 16: 5088, 18: 3136, 20: 640}
    assert (summary.examined, summary.checked) == (candidate_count(job), 285_000)
    rng = random.Random(121)
    assert all(is_gapn(h.function).is_gapn for h in rng.sample(hits, 40))
    found = {h.ordinal for h in hits}
    misses = 0
    while misses < 200:
        ordinal = rng.randrange(summary.examined)
        desc = next(enumerate_candidates(job, ordinal))
        f = SparsePoly(ctx, [(e, FieldElem(ctx, j)) for e, j in desc])
        if ordinal in found or f.algebraic_degree() not in job.degree_filter:
            continue
        assert not is_gapn(f).is_gapn, ordinal
        misses += 1


# whole spaces that take the scan from about 5 s to 2 min each
_SLOW_SCAN_JOBS = {
    "gf25-binomial-raw": (5, 2, "binomial", False),
    "gf27-binomial-raw": (3, 3, "binomial", False),
    "gf25-trinomial": (5, 2, "trinomial", True),
    "gf27-trinomial": (3, 3, "trinomial", True),
}


@pytest.mark.slow
@pytest.mark.parametrize("case", list(_SLOW_SCAN_JOBS.values()), ids=list(_SLOW_SCAN_JOBS))
def test_secant_matches_scan_on_whole_space(case):
    p, n, shape, canonical = case
    _assert_matches_scan(SearchJob(make_field(p, n), shape, canonicalize=canonical))


def _pooled_job():
    # binomials and trinomials never pool; GF(25)'s digitsum-reduced space
    # with digit sums of at least 7 (the exponents 19, 23 and 24) does
    return SearchJob(make_field(5, 2), "digitsum-reduced", min_digit_sum=7)


def test_parallel_matches_serial():
    # 25^3 = 15,625 candidates, above run_search's serial cutoff, so
    # threads=2 runs the pool
    job = _pooled_job()
    hits_s, sum_s = run_search(job, threads=1)
    hits_p, sum_p = run_search(job, threads=2)
    assert hits_s and hits_p == hits_s
    assert all(h.function.field is job.field for h in hits_p)
    assert (sum_p.examined, sum_p.checked) == (sum_s.examined, sum_s.checked)
    assert sum_p.hits_by_degree == sum_s.hits_by_degree


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    tasks in this process, so no worker process is started."""

    made: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.made.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("cpus", [None, 1, 3])
def test_pool_workers_capped_by_cpus(monkeypatch, cpus):
    job = _pooled_job()  # pooled above 1 worker
    serial = run_search(job, threads=1)
    monkeypatch.setattr(_InProcessPool, "made", [])
    monkeypatch.setattr(search, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(search, "_worker_job", None)
    hits, summary = run_search(job, threads=10_000)
    assert _InProcessPool.made == ([3] if cpus == 3 else [])
    assert hits == serial[0]
    assert (summary.examined, summary.checked, summary.hits_by_degree) == (
        serial[1].examined, serial[1].checked, serial[1].hits_by_degree)


@pytest.mark.parametrize("p, shape", [(5, "binomial"), (3, "trinomial")])
def test_secant_shapes_never_start_a_pool(monkeypatch, p, shape):
    job = SearchJob(make_field(p, 2), shape)  # 6,624 and 3,584 candidates
    assert candidate_count(job) >= 2000
    serial = run_search(job, threads=1)
    monkeypatch.setattr(_InProcessPool, "made", [])
    monkeypatch.setattr(search, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    hits, summary = run_search(job, threads=10_000)
    assert _InProcessPool.made == []
    assert hits == serial[0]
    assert (summary.examined, summary.checked, summary.hits_by_degree) == (
        serial[1].examined, serial[1].checked, serial[1].hits_by_degree)


def test_limit_cap():
    f9 = make_field(3, 2)
    job = SearchJob(f9, "monomial", limit=2)
    hits, summary = run_search(job)
    assert len(hits) == 2
    assert hits[0].ordinal < hits[1].ordinal


def test_budget_refusal():
    f9 = make_field(3, 2)
    job = SearchJob(f9, "binomial", canonicalize=False)
    with pytest.raises(ValueError, match="budget"):
        run_search(job, budget=100)
    hits, _ = run_search(job, budget=2000)
    assert hits  # raised budget runs fine


def test_raw_function_space_needs_budget_override():
    f9 = make_field(3, 2)
    job = SearchJob(f9, "digitsum-reduced", min_digit_sum=0)
    assert candidate_count(job) == 9 ** 9
    with pytest.raises(ValueError, match="budget"):
        run_search(job)


def test_scalar_canonicalization_soundness():
    # c*G is GAPN exactly when G is, so fixing the first coefficient is safe
    ctx = make_field(5, 2)
    rng = random.Random(8)
    for _ in range(6):
        exps = rng.sample(range(1, 25), 2)
        f = SparsePoly(ctx, [(e, ctx.from_code(rng.randrange(1, 25))) for e in exps])
        base = is_gapn(f, fail_fast=True).is_gapn
        for c in list(ctx.units())[:6]:
            scaled = SparsePoly(ctx, [(e, c * k) for e, k in f.terms])
            assert is_gapn(scaled, fail_fast=True).is_gapn == base


def test_digitsum_reduction_soundness_sample():
    ctx = make_field(3, 2)
    rng = random.Random(5150)
    for _ in range(200):
        terms = [(e, ctx.from_code(rng.randrange(9))) for e in range(9)]
        f = SparsePoly(ctx, [(e, c) for e, c in terms if not c.is_zero()])
        high = f.restrict_min_digit_sum(3)
        assert is_gapn(f, fail_fast=True).is_gapn == is_gapn(high, fail_fast=True).is_gapn


def test_hit_and_summary_json_shapes():
    f9 = make_field(3, 2)
    hits, summary = run_search(SearchJob(f9, "monomial"), claim="demo")
    assert hits
    h = hits[0].to_json()
    assert set(h) == {"ordinal", "degree", "function", "worst_fiber"}
    s = summary.to_json()
    assert set(s) == {"claim", "examined", "checked", "hits_by_degree", "elapsed_ms"}
    assert s["claim"] == "demo"


def test_registry_contains_required_claims():
    ids = claim_ids()
    for required in ("p7-binomial-even-gaps", "p11-monomial-deg15-none", "p11-mixed-binomial"):
        assert required in ids


def test_reproduce_unknown_claim():
    with pytest.raises(ValueError, match="unknown claim"):
        reproduce("no-such-claim")


def test_reproduce_single_claim():
    r = reproduce("gold-monomials")
    assert r.passed
    assert r.claim == "gold-monomials"
    assert set(r.to_json()) == {"claim", "passed", "details", "elapsed_ms"}


def _reproduce_all_json(capsys, threads: str) -> list[dict]:
    assert main(["reproduce", "--claim", "all", "--threads", threads, "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    for r in reports:
        del r["elapsed_ms"]
    return reports


def test_reproduce_never_starts_a_pool(monkeypatch, capsys):
    # --threads is validated but reaches no claim, so even a thread count
    # far above the CPUs starts no pool and changes no report
    serial = _reproduce_all_json(capsys, "1")
    monkeypatch.setattr(_InProcessPool, "made", [])
    monkeypatch.setattr(search, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(search, "_worker_job", None)
    assert _reproduce_all_json(capsys, "10000") == serial
    assert _InProcessPool.made == []


def test_condition_claim_checks_every_direction(monkeypatch):
    # a = 2 lies on the F_5-line of 1, so a claim that tests the closed form
    # once per line (or once per function) would miss this one wrong answer
    ctx = make_field(5, 2)
    target = (ctx.one, ctx.primitive_element, ctx.scalar(2))
    real = search.p_to_one_condition

    def flipped(fctx, s, coeffs, a):
        answer = real(fctx, s, coeffs, a)
        if fctx.p == 5 and (coeffs[0], coeffs[1], a) == target:
            return not answer
        return answer

    assert reproduce("derivative-condition-equivalence").passed
    monkeypatch.setattr(search, "p_to_one_condition", flipped)
    assert reproduce("derivative-condition-equivalence").passed is False
