"""Deterministic enumeration, search execution and the claim registry."""

import gc
import hashlib
import json
import math
import multiprocessing.process
import os
import pathlib
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import combinations, islice, product

import pytest

import gapn.search as search
from gapn.cli import main
from gapn.fields import FieldElem, make_field
from gapn.polynomials import GapnVerdict, SparsePoly, _LineKernel, _kernel, digit_sum, is_gapn
from gapn.search import (
    SearchJob,
    candidate_count,
    claim_ids,
    reproduce,
    run_search,
)
from gapn.secant import PairTables, binomial_hits, trinomial_hits, tuple_hits

import oracle


def test_candidate_counts():
    f49 = make_field(7, 2)
    assert candidate_count(SearchJob(f49, "monomial")) == 48
    with pytest.raises(ValueError, match="^monomial does not read --no-canonical$"):
        SearchJob(f49, "monomial", canonicalize=False)
    assert candidate_count(SearchJob(f49, "binomial")) == 1128 * 48
    f9 = make_field(3, 2)
    assert candidate_count(SearchJob(f9, "digitsum-reduced")) == 9 ** 3
    assert candidate_count(SearchJob(f9, "binomial", canonicalize=False)) == 28 * 64
    assert candidate_count(SearchJob(f9, "trinomial")) == 56 * 64
    assert candidate_count(SearchJob(f9, "trinomial", canonicalize=False)) == 56 * 512
    # every shape, and the k-term ones canonical and raw, counted one
    # candidate at a time by the oracle; GF(27)'s default digitsum-reduced
    # space has 27^17 candidates, so it is counted from its slots and the
    # walked one keeps digit sums >= 5
    f3, f27 = make_field(3, 1), make_field(3, 3)
    all_f3 = SearchJob(f3, "digitsum-reduced", min_digit_sum=0)
    assert candidate_count(all_f3) == 27
    jobs = [all_f3]
    for ctx, minds in ((f9, None), (f27, 5)):
        jobs += [SearchJob(ctx, "monomial"), SearchJob(ctx, "digitsum-reduced", min_digit_sum=minds)]
        jobs += [SearchJob(ctx, shape, canonicalize=canonical)
                 for shape in ("binomial", "trinomial") for canonical in (True, False)]
    for job in jobs:
        assert candidate_count(job) == sum(1 for _ in oracle.enumerate_candidates(job)), job
    slots = next(oracle.enumerate_candidates(SearchJob(f27, "digitsum-reduced")))
    assert candidate_count(SearchJob(f27, "digitsum-reduced")) == 27 ** len(slots) == 27 ** 17


def test_digitsum_reduced_slots():
    f9 = make_field(3, 2)
    job = SearchJob(f9, "digitsum-reduced")
    descs = list(oracle.enumerate_candidates(job))
    exps = {e for desc in descs for e, _ in desc}
    assert exps == {5, 7, 8}
    assert len(descs) == 729
    assert sorted(digit_sum(3, e) for e in exps) == [3, 3, 4]
    # the slots are the exponents of digit sum at least min_digit_sum (p
    # when None): every one at 0 or below, q-1 alone at n(p-1), none above
    for p, n in ((3, 2), (3, 3), (5, 3), (3, 5)):
        q, top = p ** n, n * (p - 1)
        for minds in (None, -1, 0, top, top + 1):
            floor = p if minds is None else minds
            assert search._digitsum_slots(p, n, minds) == [e for e in range(q) if digit_sum(p, e) >= floor]
        assert search._digitsum_slots(p, n, 0) == list(range(q))
        assert search._digitsum_slots(p, n, top) == [q - 1]
        assert search._digitsum_slots(p, n, top + 1) == []


def test_enumeration_order_binomial():
    f9 = make_field(3, 2)
    job = SearchJob(f9, "binomial")
    first = list(oracle.enumerate_candidates(job))[:10]
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
    # secant search's ordinals rest on this layout.  A monomial's and a
    # digitsum-reduced job's coefficients are never canonicalized, so
    # their raw jobs are refused
    ctx = make_field(p, 2)
    minds = 7 if p == 5 else 3  # digit sum >= 7 keeps 3 of GF(25)'s exponents
    opts = {"min_digit_sum": minds} if shape == "digitsum-reduced" else {}
    if not canonical and shape in ("monomial", "digitsum-reduced"):
        with pytest.raises(ValueError, match=f"^{shape} does not read --no-canonical$"):
            SearchJob(ctx, shape, canonicalize=False, **opts)
        return
    job = SearchJob(ctx, shape, canonicalize=canonical, **opts)
    units = list(range(ctx.q - 1))
    if shape == "digitsum-reduced":
        tuples = [[e for e in range(ctx.q) if digit_sum(p, e) >= minds]]
        choices = [[-1] + units] * len(tuples[0])
    else:
        k = {"monomial": 1, "binomial": 2, "trinomial": 3}[shape]
        tuples = list(combinations(range(1, ctx.q), k))
        choices = [[0] if canonical else units] + [units] * (k - 1)
    block = math.prod(map(len, choices))
    total = candidate_count(job)
    assert total == len(tuples) * block
    starts = {0, 1, total - 1} | {b + d for b in range(block, total, block) for d in (-1, 0)}
    walked = 0
    for s, desc in enumerate(islice(oracle.enumerate_candidates(job), _WALK_CAP + 1)):
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
# is cut by a hit limit after its 4- and 5-term candidates, whose reference
# scans reduce and repack each line's packed sum; the binomial and
# trinomial limits stop inside a block of coefficient choices; the monomial
# spaces build one block table per Frobenius orbit
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
    # the search decides candidates without scanning them; the reference
    # builds each candidate as a SparsePoly and takes a full is_gapn verdict
    p, n, shape, canonical, options = case
    ctx = make_field(p, n)
    job = SearchJob(ctx, shape, canonicalize=canonical, **options)
    scans = []
    with monkeypatch.context() as mp:
        scan = _LineKernel.scan
        mp.setattr(_LineKernel, "scan", lambda kern, *args, **kw: scans.append(args) or scan(kern, *args, **kw))
        tables = _record_block_tables(mp)
        hits, summary = run_search(job)
    want, checked, most = [], 0, 0
    orbits = set()  # monomials: the Frobenius orbits of the checked exponents
    for ordinal, desc in enumerate(oracle.enumerate_candidates(job)):
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
    assert summary.hits_by_degree == Counter(h.degree for h in hits)
    assert most > p or "min_digit_sum" not in options  # the reference summed more than p terms
    assert not scans  # no shape scans a candidate's lines
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
        sample = islice(enumerate(oracle.enumerate_candidates(job)), 0, summary.examined, stride)
        for ordinal, desc in sample:
            terms = [(e, tuple(FieldElem(ctx, j).vector())) for e, j in desc if j != -1]
            flt = job.degree_filter
            if terms and (flt is None or max(digit_sum(p, e) for e, _ in terms) in flt):
                assert (oracle.verdict(tf, terms)[1] is None) == (ordinal in gapn)


def _scan_hits(job):
    """(examined, checked, [(ordinal, function, degree)]) from scanning
    every candidate of job in order on the line kernel, with fail_fast:
    the per-candidate reference for every shape."""
    ctx = job.field
    kern = _kernel(ctx)
    examined = checked = 0
    hits = []
    for ordinal, desc in enumerate(oracle.enumerate_candidates(job)):
        examined += 1
        terms = [(j, e) for e, j in desc if j != -1]
        degree = max([digit_sum(ctx.p, e) for _, e in terms], default=None)
        if degree is None or (job.degree_filter is not None and degree not in job.degree_filter):
            continue
        checked += 1
        if kern.scan(terms, fail_fast=True)[1] is None:
            f = SparsePoly(ctx, [(e, FieldElem(ctx, j)) for e, j in desc if j != -1])
            hits.append((ordinal, f, degree))
            if len(hits) == job.limit:
                break
    return examined, checked, hits


def _assert_matches_scan(job, budget=search.DEFAULT_BUDGET):
    hits, summary = run_search(job, budget=budget)
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
    for ordinal, desc in enumerate(oracle.enumerate_candidates(job)):
        (d1, _), (d2, _) = desc
        if max(degree_of[d1], degree_of[d2]) not in job.degree_filter or ordinal in found:
            continue
        if misses in picks:
            f = SparsePoly(ctx, [(e, FieldElem(ctx, j)) for e, j in desc])
            assert not is_gapn(f).is_gapn, ordinal
        misses += 1
    assert misses == summary.checked - len(hits)


def test_gf243_binomial_space():
    # the whole canonical GF(3^5) binomial space: 29,161 exponent pairs,
    # every one checked, so each pair's block pairs are screened or walked
    ctx = make_field(3, 5)
    hits, summary = run_search(SearchJob(ctx, "binomial"))
    assert summary.examined == summary.checked == 7_056_962
    assert summary.hits_by_degree == {3: 159_115, 5: 76_230, 7: 25_410, 9: 25_410}
    assert len(hits) == 286_165
    # (ordinal, [(exponent, coefficient log)], degree)
    ends = [(h.ordinal, [(e, c.idx) for e, c in h.function.terms], h.degree) for h in (hits[0], hits[-1])]
    assert ends == [(726, [(1, 0), (5, 0)], 3), (7_055_992, [(239, 0), (241, 240)], 9)]


@pytest.mark.slow
def test_gf961_even_degree_census():
    # GF(31^2), p Mersenne: canonical binomials of even degree 32...60
    # (441.9 M candidates, above the default budget) have hits at four degrees only
    job = SearchJob(make_field(31, 2), "binomial", degree_filter=frozenset(range(32, 61, 2)))
    hits, summary = run_search(job, budget=500_000_000)
    assert (summary.examined, summary.checked) == (441_907_200, 158_760_000)
    assert summary.hits_by_degree == {46: 201_600, 52: 96_768, 56: 44_800, 58: 24_192}


# whole spaces that take the scan from about 5 s to 2 min each
_SLOW_SCAN_JOBS = {
    "gf25-binomial-raw": (5, 2, "binomial", False, {}),
    "gf27-binomial-raw": (3, 3, "binomial", False, {}),
    "gf25-trinomial": (5, 2, "trinomial", True, {}),
    "gf27-trinomial": (3, 3, "trinomial", True, {}),
    "gf6561-monomial": (3, 8, "monomial", True, {}),  # 72 hits
    "gf9-digitsum-2": (3, 2, "digitsum-reduced", True, {"min_digit_sum": 2}),  # 531,441 candidates
    "gf27-digitsum-5": (3, 3, "digitsum-reduced", True, {"min_digit_sum": 5}),  # 531,441 candidates
}


@pytest.mark.slow
@pytest.mark.parametrize("case", list(_SLOW_SCAN_JOBS.values()), ids=list(_SLOW_SCAN_JOBS))
def test_secant_matches_scan_on_whole_space(case):
    p, n, shape, canonical, options = case
    _assert_matches_scan(SearchJob(make_field(p, n), shape, canonicalize=canonical, **options))


@pytest.mark.parametrize("p, n, minds, hits_by_degree, ends", [
    (3, 2, 2, {3: 34_992}, (9, 531_423)),
    (3, 3, 5, {5: 11_232}, (27, 531_387)),
], ids=["gf9-digitsum-2", "gf27-digitsum-5"])
def test_digitsum_whole_space(p, n, minds, hits_by_degree, ends):
    # 9^6 and 27^4 candidates, every one checked but the zero function;
    # the slow test above compares both spaces with the scan
    hits, summary = run_search(SearchJob(make_field(p, n), "digitsum-reduced", min_digit_sum=minds))
    assert (summary.examined, summary.checked) == (531_441, 531_440)
    assert summary.hits_by_degree == hits_by_degree
    assert (hits[0].ordinal, hits[-1].ordinal) == ends


# (p, n, options, budget): no slots (one candidate, the zero function);
# prime fields, which have no block pairs, so every nonzero candidate is a
# hit; slots whose digit sum is below p-1 (a zero column), and the slot
# X^0 when min_digit_sum <= 0, where a limit cuts GF(9)'s 9^8 and 9^9
# candidates; degree filters and limits on the default and larger spaces
_DIGITSUM_JOBS = {
    "gf9-no-slots": (3, 2, {"min_digit_sum": 5}, None),
    "gf5-no-slots": (5, 1, {}, None),
    "gf5-all-slots": (5, 1, {"min_digit_sum": 0}, None),
    "gf7-below-zero": (7, 1, {"min_digit_sum": -1, "limit": 500}, None),
    "gf3-low-slots": (3, 1, {"min_digit_sum": 1}, None),
    "gf9-low-slots-limit": (3, 2, {"min_digit_sum": 1, "limit": 60}, 10 ** 8),
    "gf9-zero-slot-limit": (3, 2, {"min_digit_sum": 0, "limit": 60}, 10 ** 9),
    "gf9-below-zero-degree-3": (3, 2, {"min_digit_sum": -1, "limit": 40, "degree_filter": {3}}, 10 ** 9),
    "gf9-degree-4": (3, 2, {"degree_filter": {4}}, None),
    "gf9-digitsum-2-limit-1": (3, 2, {"min_digit_sum": 2, "limit": 1}, None),
    "gf9-digitsum-2-limit-300": (3, 2, {"min_digit_sum": 2, "limit": 300}, None),
    "gf25-digitsum-7": (5, 2, {"min_digit_sum": 7}, None),
    "gf27-digitsum-5-limit": (3, 3, {"min_digit_sum": 5, "limit": 200}, None),
}


@pytest.mark.parametrize("case", list(_DIGITSUM_JOBS.values()), ids=list(_DIGITSUM_JOBS))
def test_digitsum_matches_scan(case):
    p, n, options, budget = case
    job = SearchJob(make_field(p, n), "digitsum-reduced", **options)
    hits, summary = _assert_matches_scan(job, budget or search.DEFAULT_BUDGET)
    if "min_digit_sum" in options and options["min_digit_sum"] > n * (p - 1):
        assert (summary.examined, summary.checked, hits) == (1, 0, [])
    if n == 1 and "limit" not in options:
        assert len(hits) == summary.checked == summary.examined - 1


@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "raw"])
@pytest.mark.parametrize("shape", ["monomial", "binomial", "trinomial"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_prime_field_shapes_match_scan(p, shape, canonical):
    # over GF(p) a line is one block, so every D_a f is constant and every
    # candidate is GAPN; the block pair lists are empty.  A monomial's
    # coefficient is always 1, so a raw monomial job is refused
    if shape == "monomial" and not canonical:
        with pytest.raises(ValueError, match="^monomial does not read --no-canonical$"):
            SearchJob(make_field(p, 1), shape, canonicalize=False)
        return
    job = SearchJob(make_field(p, 1), shape, canonicalize=canonical)
    hits, summary = _assert_matches_scan(job)
    assert len(hits) == summary.checked == summary.examined == candidate_count(job)


def _record_block_tables(monkeypatch):
    # the exponents whose block tables are asked for and are not the shared
    # dead one, in order
    built = []
    blocks = _LineKernel.monomial_blocks

    def spy(kern, d):
        table = blocks(kern, d)
        if table is not kern.dead:
            built.append(d)
        return table

    monkeypatch.setattr(_LineKernel, "monomial_blocks", spy)
    return built


def _orbit(ctx, d):
    # d, d*p, d*p^2, ... as exponents in 1..q-1
    m = ctx.q - 1
    return {(d * ctx.p ** j - 1) % m + 1 for j in range(ctx.n)}


@pytest.mark.parametrize("p, n", [(7, 2), (3, 3), (3, 4), (5, 3)])
def test_pair_differences_match_block_tables(p, n):
    # every exponent's lists and planes against the differences of its own
    # block table; read in descending order, so each orbit is built from
    # its largest member and the others are images of it.  Bit k of Z is
    # set when the block table is equal at the k-th block pair, so a digit
    # sum below p-1 (a zero table) sets every bit; bit k of O when the
    # difference there is nonzero with an odd log
    ctx = make_field(p, n)
    kern = _kernel(ctx)
    m = ctx.q - 1
    zero = 2 * m
    diffs = PairTables(ctx)
    npairs = math.comb(kern.nblocks, 2)
    assert diffs.full == (1 << npairs) - 1
    for d in range(ctx.q - 1, 0, -1):
        blocks = [ctx.zero if x == zero else FieldElem(ctx, x) for x in kern.monomial_blocks(d)]
        pairs = list(combinations(blocks, 2))
        logs = [zero if x == y else (x - y).idx for x, y in pairs]
        assert list(diffs[d]) == logs, d
        assert diffs.zero[d] == sum(1 << k for k, (x, y) in enumerate(pairs) if x == y), d
        assert diffs.odd[d] == sum(1 << k for k, l in enumerate(logs) if l < m and l % 2), d
        assert diffs.zero[d] == diffs.full or digit_sum(p, d) >= p - 1, d
    assert sorted(diffs.lists) == sorted(diffs.zero) == sorted(diffs.odd) == list(range(1, ctx.q))


def _binomial_hits_by_slope_set(diffs, m, exps):
    # the reference: every slope log(-D1) - log(D2) of the pair built
    # before any is looked at, with 4m for a zero D1 and 2m for a zero D2
    d1, d2 = exps
    minus = [4 * m if l == 2 * m else (l + m // 2) % m for l in diffs[d1]]
    slopes = {a - b for a, b in zip(minus, diffs[d2])}
    if 2 * m in slopes:
        return []
    g = math.gcd(d2 - d1, m)
    bad = {s % g for s in slopes if -m < s < m}
    return [j for j in range(m) if j % g not in bad]


def _binomial_rule(planes, m, exps):
    # the rule of binomial_hits that decides the pair: a common bit of the
    # Z planes; no block pair where neither difference is zero; G = 1;
    # G = 2 (the O planes); else the walk over the slopes
    d1, d2 = exps
    z1, z2 = planes.zero[d1], planes.zero[d2]
    if z1 & z2:
        return "screen"
    if z1 | z2 == planes.full:
        return "no pair"
    return {1: "G=1", 2: "G=2"}.get(math.gcd(d2 - d1, m), "walk")


def _assert_binomial_rules_match_slope_set(ctx):
    # every exponent pair's hits against the reference, counted by the rule
    # that decides it; every rule decides some pair, so none is unchecked
    m = ctx.q - 1
    hits_of = tuple_hits(ctx, 2)
    diffs, planes = {}, PairTables(ctx)
    rules = Counter()
    for exps in combinations(range(1, ctx.q), 2):
        for d in exps:
            if d not in diffs:
                diffs[d] = list(planes[d])
        assert hits_of(exps) == _binomial_hits_by_slope_set(diffs, m, exps), exps
        rules[_binomial_rule(planes, m, exps)] += 1
    assert sum(rules.values()) == math.comb(m, 2)
    assert set(rules) == {"screen", "no pair", "G=1", "G=2", "walk"}, rules
    return rules


# (screen, no pair, G = 1, G = 2, walk) on the default modulus; the eight
# GF(49) moduli are held only to every rule deciding some pair
_BINOMIAL_RULES = {
    "gf25": (make_field(5, 2), (153, 84, 16, 6, 17)),
    "gf27": (make_field(3, 3), (136, 81, 60, 45, 3)),
    "gf81": (make_field(3, 4), (1868, 224, 464, 200, 404)),
    "gf121": (make_field(11, 2), (4416, 1560, 412, 112, 640)),
    "gf125": (make_field(5, 3), (2811, 1632, 1947, 570, 666)),
    **{f"gf49-{i}": (ctx, None) for i, ctx in enumerate(_primitive_quadratics(7))},
}


@pytest.mark.parametrize("ctx, counts", list(_BINOMIAL_RULES.values()), ids=list(_BINOMIAL_RULES))
def test_binomial_hits_match_slope_set(ctx, counts):
    rules = _assert_binomial_rules_match_slope_set(ctx)
    if counts is not None:
        assert tuple(rules[r] for r in ("screen", "no pair", "G=1", "G=2", "walk")) == counts


@pytest.mark.slow
def test_gf243_binomial_hits_match_slope_set():
    # 29,161 exponent pairs, 1,630 of them walked
    rules = _assert_binomial_rules_match_slope_set(make_field(3, 5))
    assert tuple(rules[r] for r in ("screen", "no pair", "G=1", "G=2", "walk")) == (9636, 1100, 10890, 5905, 1630)


class _Unread:
    # the Z and O planes of a few exponents over npairs block pairs, whose
    # difference lists must not be read
    def __init__(self, npairs, zero, odd=None):
        self.full, self.zero, self.odd = (1 << npairs) - 1, zero, odd or {}

    def __getitem__(self, d):
        raise AssertionError(f"read the pair differences of X^{d}")


def test_binomial_hits_screen_reads_no_slope():
    # m = 48.  A block pair where both differences are zero empties the
    # tuple; so does a pair where neither is, when G = 1; with none such
    # every log is a hit; for G = 2 the O planes give the parity.  Only
    # G > 2 reads the difference lists
    zero = {1: 0b0110, 2: 0b1100, 3: 0b1001, 4: 0b1001}
    assert binomial_hits(_Unread(4, zero), 48, (1, 2)) == []
    assert binomial_hits(_Unread(4, zero), 48, (1, 3)) == list(range(48))
    assert binomial_hits(_Unread(5, {1: 0b0110, 2: 0b1001}), 48, (1, 2)) == []
    # (1, 3): G = 2, block pairs 4 and 5 have both differences nonzero
    assert binomial_hits(_Unread(6, zero, {1: 0b010000, 3: 0b100000}), 48, (1, 3)) == list(range(0, 48, 2))
    assert binomial_hits(_Unread(6, zero, {1: 0b110000, 3: 0b110000}), 48, (1, 3)) == list(range(1, 48, 2))
    assert binomial_hits(_Unread(6, zero, {1: 0b010000, 3: 0}), 48, (1, 3)) == []
    with pytest.raises(AssertionError, match="read the pair differences"):
        binomial_hits(_Unread(6, zero), 48, (1, 4))  # G = 3


def test_trinomial_hits_screen_reads_no_line():
    # a block pair where all three differences are zero empties the tuple
    # before any difference list or Zech log is read
    zero = {1: 0b0110, 2: 0b1100, 3: 0b0101}
    assert trinomial_hits(_Unread(4, zero), None, 48, (1, 2, 3)) == []


def _screened_trinomials(ctx):
    # the trinomial tuples whose three Z planes share a bit
    z = PairTables(ctx).zero
    return [e for e in combinations(range(1, ctx.q), 3) if z[e[0]] & z[e[1]] & z[e[2]]]


def _assert_scan_rejects(ctx, exps, choices):
    # each canonical candidate X^d1 + g^jv*X^d2 + g^jw*X^d3 fails the
    # per-candidate scan that _scan_hits runs
    kern = _kernel(ctx)
    d1, d2, d3 = exps
    for jv, jw in choices:
        assert kern.scan([(0, d1), (jv, d2), (jw, d3)], fail_fast=True)[1] is not None, (exps, jv, jw)


@pytest.mark.parametrize("p, n, screened", [(5, 2, 816), (3, 3, 680), (7, 2, 8824)])
def test_trinomial_screen_matches_scan(p, n, screened):
    # every screened tuple has no hit: trinomial_hits says so, and so does
    # the scan of a seeded sample of its candidates (the slow test below
    # scans them all on GF(25) and GF(27))
    ctx = make_field(p, n)
    m = ctx.q - 1
    rng = random.Random(ctx.q)
    tuples = _screened_trinomials(ctx)
    assert len(tuples) == screened
    hits_of = tuple_hits(ctx, 3)
    for exps in tuples:
        assert hits_of(exps) == [], exps
        _assert_scan_rejects(ctx, exps, [(rng.randrange(m), rng.randrange(m)) for _ in range(3)])


@pytest.mark.slow
@pytest.mark.parametrize("p, n", [(5, 2), (3, 3)])
def test_trinomial_screen_matches_scan_on_every_candidate(p, n):
    ctx = make_field(p, n)
    for exps in _screened_trinomials(ctx):
        _assert_scan_rejects(ctx, exps, product(range(ctx.q - 1), repeat=2))


def test_gf6561_binomial_limit_one_memory():
    # GF(3^8) binomials up to the first hit, X + X^5 (X's block table is
    # zero and X^5's values are distinct), decided from the planes with no
    # difference list: about 24 MB peak RSS, where one list per orbit
    # member took 1,151 MB.  The bound is that plus 40 MB.  The job runs in
    # a grandchild, and its ru_maxrss is read from RUSAGE_CHILDREN of the
    # child between: a process started from this one counts this one's peak
    # RSS, which the whole-space tests raise to hundreds of MB
    job = (
        "from gapn import make_field\n"
        "from gapn.search import SearchJob, run_search\n"
        "hits, s = run_search(SearchJob(make_field(3, 8), 'binomial', limit=1), budget=10 ** 12)\n"
        "print(s.examined, s.checked, hits[0].ordinal, len(hits))\n"
    )
    between = (
        "import resource, subprocess, sys\n"
        "out = subprocess.run([sys.executable, '-c', sys.argv[1]], capture_output=True, text=True, check=True)\n"
        "print(out.stdout.strip(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = pathlib.Path(search.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", between, job], env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    *counts, maxrss = run.stdout.split()
    assert counts == ["19681", "19681", "19680", "1"]
    assert int(maxrss) < 64 * 1024  # KiB on Linux


def test_pair_differences_build_one_table_per_orbit(monkeypatch):
    # GF(3^5) has 50 Frobenius orbits of exponents; X^1's has digit sum 1
    # and the shared dead table, so 49 block tables are built, each from the
    # first member read: here the orbit's largest.  The dead table takes no
    # slot in the kernel's block cache
    ctx = make_field(3, 5)
    kern = _kernel(ctx)
    built = _record_block_tables(monkeypatch)
    diffs = PairTables(ctx)
    for d in range(ctx.q - 1, 0, -1):
        diffs[d]
        assert all(table is not kern.dead for table in kern.blocks.values()), d
    assert len(built) == len(set(built)) == 49
    assert all(d == max(_orbit(ctx, d)) for d in built)
    assert len({min(_orbit(ctx, d)) for d in range(1, ctx.q)}) == 50


@pytest.mark.parametrize("d", [0, -1, 9])
def test_orbit_tables_reject_exponents_outside_units(d):
    # the orbit walk sends 0 to q-1 and keeps q-1 fixed, so reading 0 would
    # never return; every exponent outside 1..q-1 raises instead
    ctx = make_field(3, 2)
    diffs = PairTables(ctx)
    for table in (diffs, diffs.zero, diffs.odd):
        with pytest.raises(KeyError):
            table[d]
    with pytest.raises(KeyError):
        tuple_hits(ctx, 1)((d,))


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
@pytest.mark.parametrize("shape, limit", [("binomial", None), ("binomial", 3), ("trinomial", None),
                                          ("monomial", None), ("digitsum-reduced", 3)])
def test_secant_search_restores_gc_state(collecting, shape, limit):
    # every search pauses the cyclic collector while it builds hits and
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
        high = SparsePoly(ctx, [(e, c) for e, c in f.terms if digit_sum(3, e) >= 3])
        assert is_gapn(f, fail_fast=True).is_gapn == is_gapn(high, fail_fast=True).is_gapn


def test_p3_reduced_hit_set_is_every_gapn_function():
    # the p3-no-even-degree claim reads each draw's reduction in this set:
    # membership matches is_gapn and the oracle on all 729 functions of the
    # slots {5, 7, 8}, the zero function included, and the hits are the
    # validated SparsePoly of their coefficients (==, hash, tuple terms)
    ctx = make_field(3, 2)
    tf = oracle.tuple_field_of(ctx)
    hits, _ = run_search(SearchJob(ctx, "digitsum-reduced"))
    table = {h.function for h in hits}
    assert len(table) == len(hits) == 48
    for h in hits:
        validated = SparsePoly(ctx, h.function.terms)
        assert h.function == validated and hash(h.function) == hash(validated)
        assert type(h.function.terms) is tuple
    gapn = set()
    for codes in product(range(9), repeat=3):
        f = SparsePoly(ctx, [(e, ctx.from_code(c)) for e, c in zip((5, 7, 8), codes)])
        want = is_gapn(f, fail_fast=True).is_gapn
        assert (f in table) == want == (oracle.verdict(tf, oracle.poly_terms(f))[0] == 3), codes
        if want:
            gapn.add(f)
    assert gapn == table


@pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2)])
def test_monomial_tuple_hits_match_is_gapn(p, n):
    # monomial-criteria-soundness reads X^d's verdict from tuple_hits(ctx, 1)
    ctx = make_field(p, n)
    hits_of = tuple_hits(ctx, 1)
    for d in range(1, ctx.q):
        assert bool(hits_of((d,))) == is_gapn(SparsePoly.monomial(ctx, d), fail_fast=True).is_gapn, d


@pytest.mark.parametrize("p, min_sum", [(3, 3), (5, 6)])
def test_random_poly_and_restriction_are_canonical(p, min_sum):
    # the p3-no-even-degree claim builds its draws without validation, by
    # rng.choice over the elements by code: their coefficients are the codes
    # of the randrange(q) stream of the same seed, f and its restriction
    # equal (== and hash) the validated SparsePoly of those codes, and the
    # claim's key, the logs at the reduction's slots, is the restriction's
    ctx = make_field(p, 2)
    elements = list(ctx.elements())
    slots = [e for e in range(ctx.q) if digit_sum(p, e) >= min_sum]
    rng, again = random.Random(0x6A93), random.Random(0x6A93)
    for _ in range(50):
        f, coeffs = search._random_poly(ctx, elements, rng)
        codes = [again.randrange(ctx.q) for _ in range(ctx.q)]
        assert [c.code for c in coeffs] == codes
        want = SparsePoly(ctx, [(e, ctx.from_code(code)) for e, code in enumerate(codes)])
        want_high = SparsePoly(ctx, [(e, c) for e, c in want.terms if digit_sum(p, e) >= min_sum])
        restricted = SparsePoly(ctx, [(e, c) for e, c in f.terms if digit_sum(p, e) >= min_sum])
        for got, validated in ((f, want), (restricted, want_high)):
            assert got == validated and hash(got) == hash(validated)
            assert type(got.terms) is tuple
        high = dict(want_high.terms)
        assert [coeffs[e].idx for e in slots] == [high[e].idx if e in high else -1 for e in slots]


def test_sampling_claims_draw_the_randrange_streams(monkeypatch):
    # p3-no-even-degree checks the functions whose coefficient codes are
    # randrange(9) draws, and derivative-condition-equivalence the p = 7
    # triples (c1, c2, a) whose logs are randrange(48) draws, in draw order
    checked, triples = [], []
    real_is_gapn, real_condition = search.is_gapn, search.p_to_one_condition

    def recording_is_gapn(f, fail_fast=False):
        if f.field.q == 9:
            checked.append(f)
        return real_is_gapn(f, fail_fast)

    def recording_condition(ctx, s, coeffs, a):
        if ctx.p == 7:
            triples.append((coeffs[0].idx, coeffs[1].idx, a.idx))
        return real_condition(ctx, s, coeffs, a)

    monkeypatch.setattr(search, "is_gapn", recording_is_gapn)
    monkeypatch.setattr(search, "p_to_one_condition", recording_condition)
    assert reproduce("p3-no-even-degree").passed
    assert reproduce("derivative-condition-equivalence").passed
    ctx = make_field(3, 2)
    rng = random.Random(0x6A93)
    want = [SparsePoly(ctx, [(e, ctx.from_code(rng.randrange(9))) for e in range(9)]) for _ in range(1000)]
    assert checked == want
    rng = random.Random(0x51E7)
    assert triples == [tuple(rng.randrange(48) for _ in range(3)) for _ in range(2000)]


def test_hit_and_summary_json_shapes():
    f9 = make_field(3, 2)
    hits, summary = run_search(SearchJob(f9, "monomial"))
    assert hits
    h = hits[0].to_json()
    assert set(h) == {"ordinal", "degree", "function", "worst_fiber"}
    s = summary.to_json()
    assert set(s) == {"claim", "examined", "checked", "hits_by_degree", "elapsed_ms"}
    assert s["claim"] is None  # kept in the JSON so search stdout keeps its shape


def test_registry_contains_required_claims():
    ids = claim_ids()
    for required in ("p7-binomial-even-gaps", "p11-monomial-deg15-none", "p11-mixed-binomial"):
        assert required in ids


def test_readme_claim_table_lists_the_registry():
    # the README's claim table names every registered claim once, in
    # registry order
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text(encoding="utf-8").split("## Claim registry", 1)[1]
    assert re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE) == claim_ids()


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


def _results(capsys, searches, threads):
    """[(hit lines, summary without elapsed_ms)] of `gapn search ARGS
    --threads threads` for each ARGS in searches, read from stdout."""
    out = []
    for args in searches:
        assert main(["search", *args, "--threads", str(threads)]) == 0
        *hits, summary = capsys.readouterr().out.splitlines()
        summary = json.loads(summary)
        del summary["elapsed_ms"]
        out.append((hits, summary))
    return out


def test_no_process_is_started(monkeypatch, capsys):
    # --threads reaches nothing: on the shapes that a pool once served, a
    # thread count far above the CPUs starts no process and changes no output
    searches = [
        ["-p", "3", "-n", "7", "--shape", "monomial"],  # 2,186 candidates
        ["-p", "5", "--shape", "digitsum-reduced", "--min-digit-sum", "7"],  # 15,625
    ]
    serial = _results(capsys, searches, 1)
    assert all(hits for hits, _ in serial)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _refuse_to_start)
    assert _results(capsys, searches, 10_000) == serial


@pytest.mark.parametrize("p, shape", [(5, "binomial"), (3, "trinomial")])
def test_secant_shapes_never_start_a_pool(monkeypatch, capsys, p, shape):
    assert candidate_count(SearchJob(make_field(p, 2), shape)) >= 2000  # 6,624 and 3,584
    searches = [["-p", str(p), "--shape", shape]]
    serial = _results(capsys, searches, 1)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _refuse_to_start)
    assert _results(capsys, searches, 10_000) == serial


def test_reproduce_never_starts_a_pool(monkeypatch, capsys):
    # --threads is validated but reaches no claim, so even a thread count
    # far above the CPUs starts no process and changes no report
    serial = _reproduce_all_json(capsys, "1")
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _refuse_to_start)
    assert _reproduce_all_json(capsys, "10000") == serial


# claim id -> first 16 hex digits of the sha256 of its details as compact
# JSON with sorted keys, in registry order
CLAIM_DETAIL_DIGESTS = {
    "gold-monomials": "d5edb229925f5106",
    "inverse-monomials": "6a5f0263bc95aeca",
    "monomial-criteria-soundness": "d8cfa3471dbce4a9",
    "odd-binomial-degrees": "7154e32140d93612",
    "even-binomial-degrees": "10ef10a82495d5ff",
    "p7-trinomial-even-degrees": "bd57afdbf4406870",
    "p7-binomial-even-gaps": "fd9f6e39f8595dbd",
    "p3-no-even-degree": "75dc4fc90d257c4d",
    "p7-binomial-beyond-criteria": "b6b8012c19655863",
    "p11-mixed-binomial": "3dd47af1ec9e2b7b",
    "derivative-power-identity": "08b65415b79e91e0",
    "derivative-condition-equivalence": "d35382bb27e9b387",
    "p11-monomial-deg15-none": "cbf41e80381c2a0c",
    "conjugate-premise-obstruction": "a91de8d18ca77881",
}


def test_claim_details_are_pinned(capsys):
    reports = _reproduce_all_json(capsys, "1")
    assert all(r["passed"] for r in reports)
    digests = {r["claim"]: hashlib.sha256(json.dumps(r["details"], sort_keys=True, separators=(",", ":"))
                                          .encode()).hexdigest()[:16] for r in reports}
    assert list(digests.items()) == list(CLAIM_DETAIL_DIGESTS.items())


def test_each_claim_alone_gives_its_details_in_the_all_order():
    # the kernel's block-table cache also holds exponents whose derivative
    # vanishes and is cleared at 8p entries, so what an earlier claim left
    # on a shared field must not change a later claim: each claim run alone
    # on freshly built fields gives the details of the registry-order run
    search._field.cache_clear()
    in_order = [reproduce(claim_id) for claim_id in claim_ids()]
    for report in in_order:
        search._field.cache_clear()
        alone = reproduce(report.claim)
        assert (alone.passed, alone.details) == (True, report.details), report.claim


def test_ratio_fibers_match_oracle():
    # c1*X^d1 + c2*X^d2 has the fibers of X^d1 + g^u*X^d2, u = log c2 - log c1.
    # GF(25): every (c1, c2) with a = c2, which meets every (u, a) once
    ctx = make_field(5, 2)
    tf = oracle.tuple_field_of(ctx)
    fibers = search._ratio_fibers(ctx)
    units = list(ctx.units())
    for c1 in units:
        for c2 in units:
            terms = [(9, tuple(c1.vector())), (13, tuple(c2.vector()))]
            values = oracle.derivative_table(tf, terms, tf.from_code(c2.code))
            assert max(oracle.fibers(values).values()) == fibers[(c2.idx - c1.idx) % 24][c2.idx], (c1, c2)
    ctx = make_field(7, 2)
    tf = oracle.tuple_field_of(ctx)
    fibers = search._ratio_fibers(ctx)
    rng = random.Random(49)
    for _ in range(64):
        c1, c2, a = (FieldElem(ctx, rng.randrange(48)) for _ in range(3))
        terms = [(13, tuple(c1.vector())), (19, tuple(c2.vector()))]
        values = oracle.derivative_table(tf, terms, tf.from_code(a.code))
        assert max(oracle.fibers(values).values()) == fibers[(c2.idx - c1.idx) % 48][a.idx], (c1, c2, a)


def test_condition_claim_checks_every_direction(monkeypatch):
    # the closed form reads a only through a^(p-1), so the claim evaluates it
    # once per class of a.idx mod p+1 (one F_5-line); a wrong closed form on
    # one line of one function is caught, and so is a wrong brute-force fiber
    # at a = 2 alone, which lies on the line of 1
    ctx = make_field(5, 2)
    g, two = ctx.primitive_element, ctx.scalar(2)
    real_condition, real_is_gapn = search.p_to_one_condition, search.is_gapn

    # p=7: the first sampled triple (c1, c2, a); a wrong closed form on a's
    # class for (c1, c2), or a wrong fiber of the ratio c2/c1 at a alone, is caught
    ctx7 = make_field(7, 2)
    rng = random.Random(0x51E7)
    c1, c2, a7 = (FieldElem(ctx7, rng.randrange(48)) for _ in range(3))
    ratio = FieldElem(ctx7, (c2.idx - c1.idx) % 48)

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

    def flipped_condition7(fctx, s, coeffs, a):
        answer = real_condition(fctx, s, coeffs, a)
        if fctx.p == 7 and (coeffs[0], coeffs[1]) == (c1, c2) and a.idx % 8 == a7.idx % 8:
            return not answer
        return answer

    def flipped_fiber7(f, fail_fast=False):
        v = real_is_gapn(f, fail_fast)
        if f.field.p == 7 and f.terms == ((13, ctx7.one), (19, ratio)):
            per = [(a, (14 if fiber == 7 else 7) if a == a7 else fiber) for a, fiber in v.per_direction]
            v = GapnVerdict(v.is_gapn, v.worst_fiber, v.witness, per)
        return v

    assert reproduce("derivative-condition-equivalence").passed
    for name, mutant in (("p_to_one_condition", flipped_condition), ("is_gapn", flipped_fiber),
                         ("p_to_one_condition", flipped_condition7), ("is_gapn", flipped_fiber7)):
        with monkeypatch.context() as patch:
            patch.setattr(search, name, mutant)
            assert reproduce("derivative-condition-equivalence").passed is False, mutant.__name__


def test_p3_claim_checks_every_draw(monkeypatch):
    # a wrong kernel verdict on the first draw is caught, and so is a hit
    # set that misses the GAPN reduction of a draw
    ctx = make_field(3, 2)
    rng = random.Random(0x6A93)
    elements = list(ctx.elements())
    draws = [search._random_poly(ctx, elements, rng)[0] for _ in range(1000)]
    table = {h.function for h in run_search(SearchJob(ctx, "digitsum-reduced"))[0]}
    reductions = (SparsePoly(ctx, [(e, c) for e, c in f.terms if digit_sum(3, e) >= 3]) for f in draws)
    missing = next(high for high in reductions if high in table)
    real_is_gapn, real_run_search = search.is_gapn, search.run_search

    def flipped_first(f, fail_fast=False):
        v = real_is_gapn(f, fail_fast)
        return GapnVerdict(not v.is_gapn, v.worst_fiber, v.witness, []) if f == draws[0] else v

    def without_missing(job, *args, **kwargs):
        hits, summary = real_run_search(job, *args, **kwargs)
        return [h for h in hits if h.function != missing], summary

    assert reproduce("p3-no-even-degree").passed
    for name, mutant in (("is_gapn", flipped_first), ("run_search", without_missing)):
        with monkeypatch.context() as patch:
            patch.setattr(search, name, mutant)
            assert reproduce("p3-no-even-degree").passed is False, mutant.__name__


@pytest.mark.parametrize("criterion", ["sufficient", "failed-necessary"])
def test_monomial_criteria_claim_reads_every_verdict(monkeypatch, criterion):
    # flipping the orbit verdict of the first exponent that a sufficient (or
    # failed-necessary) combo reads makes the claim fail
    def reads(p, n, *combo):
        if criterion == "sufficient":
            return search.monomial_gapn_sufficient(p, n, *combo)
        return not search.monomial_gapn_necessary(p, n, *combo)

    p, n, k, l, r1, r2 = next((p, n, *combo) for p in (3, 5, 7) for n in (2, 3)
                              for combo in search._monomial_digit_combos(p, n) if reads(p, n, *combo))
    m, d = p ** n - 1, k * p ** r1 + l * p ** r2
    orbit = {d * p ** j % m or m for j in range(n)}
    real_tuple_hits = search.tuple_hits

    def flipped_orbit(ctx, size):
        hits_of = real_tuple_hits(ctx, size)
        if (ctx.p, ctx.n) != (p, n):
            return hits_of
        return lambda exps: ([] if hits_of(exps) else [0]) if exps[0] in orbit else hits_of(exps)

    assert reproduce("monomial-criteria-soundness").passed
    monkeypatch.setattr(search, "tuple_hits", flipped_orbit)
    assert reproduce("monomial-criteria-soundness").passed is False, (p, n, d)
