"""Deterministic enumeration, search execution and the claim registry."""

import gc
import json
import math
import multiprocessing.process
import random
from itertools import combinations, islice

import pytest

import gapn.search as search
from gapn.cli import main
from gapn.fields import FieldElem, make_field
from gapn.polynomials import GapnVerdict, SparsePoly, _LineKernel, _kernel, digit_sum, is_gapn
from gapn.search import (
    SearchJob,
    _scan_search,
    candidate_count,
    claim_ids,
    enumerate_candidates,
    reproduce,
    run_search,
)
from gapn.secant import negated_differences, pair_differences

import oracle


def test_candidate_counts():
    f49 = make_field(7, 2)
    assert candidate_count(SearchJob(f49, "monomial")) == 48
    assert candidate_count(SearchJob(f49, "monomial", canonicalize=False)) == 48
    assert candidate_count(SearchJob(f49, "binomial")) == 1128 * 48
    f9 = make_field(3, 2)
    assert candidate_count(SearchJob(f9, "digitsum-reduced")) == 9 ** 3
    assert candidate_count(SearchJob(f9, "binomial", canonicalize=False)) == 28 * 64
    assert candidate_count(SearchJob(f9, "trinomial")) == 56 * 64
    assert candidate_count(SearchJob(f9, "trinomial", canonicalize=False)) == 56 * 512
    for job in (SearchJob(f9, "monomial", canonicalize=False), SearchJob(f9, "trinomial")):
        assert candidate_count(job) == sum(1 for _ in enumerate_candidates(job))


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


# ordinals walked in one case; only GF(25)'s trinomial spaces (1.2 M and
# 27.9 M candidates) are larger
_WALK_CAP = 600_000


@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "raw"])
@pytest.mark.parametrize("shape", ["monomial", "binomial", "trinomial", "digitsum-reduced"])
@pytest.mark.parametrize("p", [3, 5])
def test_enumeration_starts_at_ordinal(p, shape, canonical):
    # exponent tuple r's block of coefficient choices starts at ordinal
    # r * block, and the choices inside it run in product order: the
    # secant search's ordinals rest on this layout
    ctx = make_field(p, 2)
    minds = 7 if p == 5 else 3  # digit sum >= 7 keeps 3 of GF(25)'s exponents
    job = SearchJob(ctx, shape, canonicalize=canonical, min_digit_sum=minds)
    units = list(range(ctx.q - 1))
    if shape == "digitsum-reduced":
        tuples = [[e for e in range(ctx.q) if digit_sum(p, e) >= minds]]
        choices = [[-1] + units] * len(tuples[0])
    else:
        k = {"monomial": 1, "binomial": 2, "trinomial": 3}[shape]
        tuples = list(combinations(range(1, ctx.q), k))
        choices = [[0] if shape == "monomial" or canonical else units] + [units] * (k - 1)
    block = math.prod(map(len, choices))
    total = candidate_count(job)
    assert total == len(tuples) * block
    starts = {0, 1, total - 1} | {b + d for b in range(block, total, block) for d in (-1, 0)}
    walked = 0
    for s, desc in enumerate(islice(enumerate_candidates(job), _WALK_CAP + 1)):
        walked += 1
        if s in starts:
            rank, rest = divmod(s, block)
            picks = []
            for options in reversed(choices):
                rest, i = divmod(rest, len(options))
                picks.append(options[i])
            assert desc == tuple(zip(tuples[rank], reversed(picks))), s
    assert walked == min(total, _WALK_CAP + 1)


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
# block of coefficient choices; the monomial spaces build one block table
# per Frobenius orbit
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
    "gf27-monomial": (3, 3, "monomial", True, {}),
    "gf243-monomial": (3, 5, "monomial", True, {}),
    "gf243-monomial-limit": (3, 5, "monomial", True, {"limit": 30}),
    "gf125-monomial": (5, 3, "monomial", True, {}),
}


@pytest.mark.parametrize("case", list(_REFERENCE_JOBS.values()), ids=list(_REFERENCE_JOBS))
def test_search_matches_direct_loop(monkeypatch, case):
    # the search scans descriptors on the line kernel; the reference builds
    # each candidate as a SparsePoly and takes a full is_gapn verdict
    p, n, shape, canonical, options = case
    ctx = make_field(p, n)
    job = SearchJob(ctx, shape, canonicalize=canonical, **options)
    scans, tables = [], []
    with monkeypatch.context() as mp:
        scan, blocks = _LineKernel.scan, _LineKernel.monomial_blocks
        mp.setattr(_LineKernel, "scan", lambda kern, *args, **kw: scans.append(args) or scan(kern, *args, **kw))
        mp.setattr(_LineKernel, "monomial_blocks", lambda kern, d: tables.append(d) or blocks(kern, d))
        hits, summary = run_search(job, threads=1)
    want, checked, most = [], 0, 0
    orbits = set()  # monomials: the Frobenius orbits of the checked exponents
    for ordinal, desc in enumerate(enumerate_candidates(job)):
        f = SparsePoly(ctx, [(e, FieldElem(ctx, j)) for e, j in desc if j != -1])
        degree = f.algebraic_degree()
        if degree is None or (job.degree_filter is not None and degree not in job.degree_filter):
            continue
        checked += 1
        most = max(most, len(f.terms))
        if shape == "monomial":
            (d, _), = f.terms
            orbits.add(frozenset(d * p ** k % (ctx.q - 1) or ctx.q - 1 for k in range(n)))
        if is_gapn(f).is_gapn:
            want.append((ordinal, f, degree))
            if len(want) == job.limit:
                break
    assert [(h.ordinal, h.function, h.degree) for h in hits] == want
    assert (summary.examined, summary.checked) == (ordinal + 1, checked)
    assert most > p or "min_digit_sum" not in options  # the gather path was taken
    assert bool(scans) == (shape == "digitsum-reduced")
    if shape == "monomial":
        # one block table per Frobenius orbit met with a nonzero M_d, read
        # at its smallest member
        assert tables == sorted(min(o) for o in orbits if digit_sum(p, min(o)) >= p - 1)
        assert len(tables) < checked
    if "limit" in options and shape in ("binomial", "trinomial"):
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


def _scan_hits(job):
    """(examined, checked, [(ordinal, function, degree)]) from scanning
    every candidate of job on the line kernel."""
    examined, checked, hits = _scan_search(job)
    return examined, checked, [(h.ordinal, h.function, h.degree) for h in hits]


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
    # 200 of the checked non-hits, drawn by their index among them and
    # read off in one ordered pass
    found = {h.ordinal for h in hits}
    picks = set(rng.sample(range(summary.checked - len(hits)), 200))
    degree_of = [digit_sum(11, e) for e in range(ctx.q)]
    misses = 0
    for ordinal, desc in enumerate(enumerate_candidates(job)):
        (d1, _), (d2, _) = desc
        if max(degree_of[d1], degree_of[d2]) not in job.degree_filter or ordinal in found:
            continue
        if misses in picks:
            f = SparsePoly(ctx, [(e, FieldElem(ctx, j)) for e, j in desc])
            assert not is_gapn(f).is_gapn, ordinal
        misses += 1
    assert misses == summary.checked - len(hits)


# whole spaces that take the scan from about 5 s to 2 min each
_SLOW_SCAN_JOBS = {
    "gf25-binomial-raw": (5, 2, "binomial", False),
    "gf27-binomial-raw": (3, 3, "binomial", False),
    "gf25-trinomial": (5, 2, "trinomial", True),
    "gf27-trinomial": (3, 3, "trinomial", True),
    "gf6561-monomial": (3, 8, "monomial", True),  # 72 hits
}


@pytest.mark.slow
@pytest.mark.parametrize("case", list(_SLOW_SCAN_JOBS.values()), ids=list(_SLOW_SCAN_JOBS))
def test_secant_matches_scan_on_whole_space(case):
    p, n, shape, canonical = case
    _assert_matches_scan(SearchJob(make_field(p, n), shape, canonicalize=canonical))


@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "raw"])
@pytest.mark.parametrize("shape", ["monomial", "binomial", "trinomial"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_prime_field_shapes_match_scan(p, shape, canonical):
    # over GF(p) a line is one block, so every D_a f is constant and every
    # candidate is GAPN; the block pair lists are empty
    job = SearchJob(make_field(p, 1), shape, canonicalize=canonical)
    hits, summary = _assert_matches_scan(job)
    assert len(hits) == summary.checked == summary.examined == candidate_count(job)


def _record_block_tables(monkeypatch):
    # the exponents whose block tables are asked for, in order
    built = []
    blocks = _LineKernel.monomial_blocks
    monkeypatch.setattr(_LineKernel, "monomial_blocks", lambda kern, d: built.append(d) or blocks(kern, d))
    return built


def _orbit(ctx, d):
    # d, d*p, d*p^2, ... as exponents in 1..q-1
    m = ctx.q - 1
    return {(d * ctx.p ** j - 1) % m + 1 for j in range(ctx.n)}


@pytest.mark.parametrize("p, n", [(7, 2), (3, 3), (3, 4), (5, 3)])
def test_pair_differences_match_block_tables(p, n):
    # every exponent's lists against the differences of its own block
    # table; read in descending order, so each orbit is built from its
    # largest member and the others are images of it
    ctx = make_field(p, n)
    kern = _kernel(ctx)
    zero = 2 * (ctx.q - 1)
    diffs = pair_differences(ctx)
    minus = negated_differences(ctx, diffs)
    for d in range(ctx.q - 1, 0, -1):
        blocks = [ctx.zero if x == zero else FieldElem(ctx, x) for x in kern.monomial_blocks(d)]
        pairs = list(combinations(blocks, 2))
        assert diffs[d] == [zero if x == y else (x - y).idx for x, y in pairs], d
        assert minus[d] == [2 * zero if x == y else (y - x).idx for x, y in pairs], d
    assert sorted(diffs) == sorted(minus) == list(range(1, ctx.q))


def test_pair_differences_build_one_table_per_orbit(monkeypatch):
    # GF(3^5) has 50 Frobenius orbits of exponents; X^1's has digit sum 1
    # and a zero table, so 49 block tables are built, each from the first
    # member read: here the orbit's largest
    ctx = make_field(3, 5)
    built = _record_block_tables(monkeypatch)
    diffs = pair_differences(ctx)
    for d in range(ctx.q - 1, 0, -1):
        diffs[d]
    assert len(built) == len(set(built)) == 49
    assert all(d == max(_orbit(ctx, d)) for d in built)
    assert len({min(_orbit(ctx, d)) for d in range(1, ctx.q)}) == 50


@pytest.mark.parametrize("degrees, limit", [(None, 1), (frozenset({9}), 50)])
def test_limited_search_builds_only_what_it_reads(monkeypatch, degrees, limit):
    # a whole GF(3^5) binomial space reads all 49 live orbits; a limited or
    # degree-filtered run stops before it has read them all
    ctx = make_field(3, 5)
    job = SearchJob(ctx, "binomial", degree_filter=degrees, limit=limit)
    built = _record_block_tables(monkeypatch)
    hits, summary = run_search(job)
    assert len(built) < 49
    monkeypatch.undo()
    got = [(h.ordinal, h.function, h.degree) for h in hits]
    assert len(hits) == limit
    assert (summary.examined, summary.checked, got) == _scan_hits(job)


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("shape, limit", [("binomial", None), ("binomial", 3), ("trinomial", None)])
def test_secant_search_restores_gc_state(collecting, shape, limit):
    # the secant search pauses the cyclic collector while it builds hits and
    # must leave it as the caller had it, on the early limit return as well
    job = SearchJob(make_field(3, 2), shape, limit=limit)
    was = gc.isenabled()
    try:
        if collecting:
            gc.enable()
        else:
            gc.disable()
        hits, summary = run_search(job)
        assert gc.isenabled() is collecting
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()
    if limit is not None:
        assert len(hits) == limit and summary.examined < candidate_count(job)


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


def _refuse_to_start(process):
    raise AssertionError(f"a process was started: {process!r}")


def _results(jobs, threads):
    """[(hits, summary without elapsed_ms)] of run_search on each job."""
    out = []
    for job in jobs:
        hits, summary = run_search(job, threads=threads)
        summary = summary.to_json()
        del summary["elapsed_ms"]
        out.append((hits, summary))
    return out


def test_no_process_is_started(monkeypatch):
    # --threads reaches nothing: on the shapes that a pool once served, a
    # thread count far above the CPUs starts no process and changes no result
    jobs = [
        SearchJob(make_field(3, 7), "monomial"),  # 2,186 candidates
        SearchJob(make_field(5, 2), "digitsum-reduced", min_digit_sum=7),  # 15,625
    ]
    serial = _results(jobs, 1)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _refuse_to_start)
    assert _results(jobs, 10_000) == serial


@pytest.mark.parametrize("p, shape", [(5, "binomial"), (3, "trinomial")])
def test_secant_shapes_never_start_a_pool(monkeypatch, p, shape):
    job = SearchJob(make_field(p, 2), shape)  # 6,624 and 3,584 candidates
    assert candidate_count(job) >= 2000
    serial = _results([job], 1)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _refuse_to_start)
    assert _results([job], 10_000) == serial


def test_reproduce_never_starts_a_pool(monkeypatch, capsys):
    # --threads is validated but reaches no claim, so even a thread count
    # far above the CPUs starts no process and changes no report
    serial = _reproduce_all_json(capsys, "1")
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _refuse_to_start)
    assert _reproduce_all_json(capsys, "10000") == serial


def test_condition_claim_checks_every_direction(monkeypatch):
    # the closed form reads a only through a^(p-1), so the claim evaluates it
    # once per class of a.idx mod p+1 (one F_5-line); a wrong closed form on
    # one line of one function is caught, and so is a wrong brute-force fiber
    # at a = 2 alone, which lies on the line of 1
    ctx = make_field(5, 2)
    g, two = ctx.primitive_element, ctx.scalar(2)
    real_condition, real_is_gapn = search.p_to_one_condition, search.is_gapn

    def flipped_condition(fctx, s, coeffs, a):
        answer = real_condition(fctx, s, coeffs, a)
        if fctx.p == 5 and (coeffs[0], coeffs[1]) == (ctx.one, g) and a.idx % 6 == two.idx % 6:
            return not answer
        return answer

    def flipped_fiber(f, fail_fast=False):
        v = real_is_gapn(f, fail_fast)
        if f.field.p == 5 and f.terms == ((9, ctx.one), (13, g)):
            per = [(a, (10 if fiber == 5 else 5) if a == two else fiber) for a, fiber in v.per_direction]
            v = GapnVerdict(v.is_gapn, v.worst_fiber, v.witness, per)
        return v

    assert reproduce("derivative-condition-equivalence").passed
    for name, mutant in (("p_to_one_condition", flipped_condition), ("is_gapn", flipped_fiber)):
        with monkeypatch.context() as patch:
            patch.setattr(search, name, mutant)
            assert reproduce("derivative-condition-equivalence").passed is False, name
