"""Deterministic exhaustive searches for GAPN functions plus a registry of
named, re-runnable verification claims.

Candidates are enumerated in a documented total order (exponent tuples
ascending, then coefficient log-indices ascending, with an absent/zero
coefficient sorting first), so identical jobs always yield identical result
streams.  A candidate's degree is the largest digit sum of its exponents.
Every hit is GAPN, so a hit carries no verdict; its worst fiber is p by
definition.

gapn.secant decides every shape and yields its blocks of consecutive
candidates with their hits' offsets and terms: tuple_blocks for monomials,
binomials and trinomials (k = 1, 2, 3 terms), decided a whole exponent
tuple at a time, and digitsum_blocks for digitsum-reduced sums, decided a
choice of all but the last coefficient at a time.  run_search is their one
consumer: it alone cuts at the limit, counts and builds the hits.

check_search alone states which jobs are refused: SearchJob calls it, as
gapn search does before it builds the field, and run_search shares its
budget check.
The registry's claims take no arguments and run serially, their searches
included.
"""

import gc
import math
import random
import time
from functools import cache, partial

from .fields import FieldCtx, FieldElem, Record, make_field
from .polynomials import SparsePoly, _digit_sums, is_gapn
from .secant import digitsum_blocks, tuple_blocks, tuple_hits
from .constructions import (
    binomial_gapn_sufficient,
    binomial_reduction_vanishes,
    build_even_binomial,
    build_odd_binomial,
    build_trinomial,
    derivative_conjugate_premise,
    find_trinomial_u,
    monomial_gapn_necessary,
    monomial_gapn_sufficient,
    p_to_one_condition,
    verify_power_identity,
)

DEFAULT_BUDGET = 10_000_000

# each search shape and the options it reads besides the degree filter,
# limit and budget, named by their gapn search flags; check_search refuses
# the others
_SHAPES = {
    "monomial": (),
    "binomial": ("--no-canonical",),
    "trinomial": ("--no-canonical",),
    "digitsum-reduced": ("--min-digit-sum",),
}


class SearchJob(Record):
    """One deterministic enumeration of a candidate family with filters;
    refuses, as check_search does, all that gapn search refuses but the
    budget, which run_search checks."""

    __slots__ = __match_args__ = (
        "field", "shape", "degree_filter", "canonicalize", "limit", "min_digit_sum")

    def __init__(self, field: FieldCtx, shape: str, degree_filter: frozenset | None = None,
                 canonicalize: bool = True, limit: int | None = None, min_digit_sum: int | None = None):
        check_search(field.p, field.n, shape, degree_filter, canonicalize, limit, min_digit_sum)
        self.field = field
        self.shape = shape
        self.degree_filter = None if degree_filter is None else frozenset(degree_filter)
        self.canonicalize = canonicalize  # binomial and trinomial only
        self.limit = limit  # stop after this many hits; at least 1
        self.min_digit_sum = min_digit_sum  # digitsum-reduced only; defaults to p


class SearchHit(Record):
    """One GAPN candidate, in enumeration order; is_gapn(function) gives
    its full verdict."""

    __slots__ = __match_args__ = ("ordinal", "function", "degree")

    def __init__(self, ordinal: int, function: SparsePoly, degree: int):
        self.ordinal = ordinal
        self.function = function
        self.degree = degree

    def to_json(self) -> dict:
        return {
            "ordinal": self.ordinal,
            "degree": self.degree,
            "function": self.function.to_json(),
            # fibers are unions of cosets x + F_p*a, so a GAPN hit's worst fiber is p
            "worst_fiber": self.function.field.p,
        }


class SearchSummary(Record):
    __slots__ = __match_args__ = ("examined", "checked", "hits_by_degree", "elapsed_ms")

    def __init__(self, examined: int, checked: int, hits_by_degree: dict, elapsed_ms: int):
        self.examined = examined
        self.checked = checked
        self.hits_by_degree = hits_by_degree
        self.elapsed_ms = elapsed_ms

    def to_json(self) -> dict:
        return {
            "claim": None,
            "examined": self.examined,
            "checked": self.checked,
            "hits_by_degree": {str(k): v for k, v in sorted(self.hits_by_degree.items())},
            "elapsed_ms": self.elapsed_ms,
        }


def _digitsum_slots(p: int, n: int, min_digit_sum: int | None) -> list[int]:
    """The exponents of a digitsum-reduced job over GF(p^n): those of digit
    sum at least min_digit_sum, p when it is None."""
    floor = p if min_digit_sum is None else min_digit_sum
    return [e for e, s in enumerate(_digit_sums(p, n)) if s >= floor]


def _tuple_shape(shape: str, canonicalize: bool, q: int) -> tuple[int, range]:
    """(k, lead coefficient logs) of a k-term job over GF(q)."""
    k = {"monomial": 1, "binomial": 2, "trinomial": 3}[shape]
    return k, range(1 if canonicalize else q - 1)


def _count(p: int, n: int, shape: str, canonicalize: bool, min_digit_sum: int | None) -> int:
    """Exact number of candidates of a job over GF(p^n)."""
    q = p ** n
    if shape == "digitsum-reduced":
        return q ** len(_digitsum_slots(p, n, min_digit_sum))
    k, leads = _tuple_shape(shape, canonicalize, q)
    return math.comb(q - 1, k) * len(leads) * (q - 1) ** (k - 1)


def candidate_count(job: SearchJob) -> int:
    """Exact number of candidates the job enumerates."""
    return _count(job.field.p, job.field.n, job.shape, job.canonicalize, job.min_digit_sum)


def _budgeted_count(p: int, n: int, shape: str, canonicalize: bool, min_digit_sum: int | None,
                    budget: int) -> int:
    """Exact number of candidates of a job over GF(p^n); refuses more than
    budget."""
    if shape != "digitsum-reduced":
        count = total = _count(p, n, shape, canonicalize, min_digit_sum)
    else:
        q, s = p ** n, len(_digitsum_slots(p, n, min_digit_sum))
        # q >= 2 makes q^s > budget once s passes budget's bit length, so
        # q^s, thousands of digits from GF(3^10) on, is formed only below it
        count = f"{q}^{s}"
        total = budget + 1 if s > budget.bit_length() else q ** s
    if total > budget:
        raise ValueError(
            f"job enumerates {count} candidates, above the budget of {budget}; "
            "raise the budget explicitly to run it"
        )
    return total


def check_search(p: int, n: int, shape: str, degree_filter=None, canonicalize: bool = True,
                 limit: int | None = None, min_digit_sum: int | None = None,
                 budget: int | None = None) -> None:
    """Raise the ValueError of a job over GF(p^n) that gapn search refuses,
    reading p, n and the options only, so before the field is built.  In
    order: an unknown shape; an option the shape does not read (_SHAPES); a
    degree outside 0..n(p-1), which no candidate has; a limit below 1; and,
    given a budget, more candidates than the budget, as run_search does."""
    if shape not in _SHAPES:
        raise ValueError(f"unknown search shape {shape!r}")
    unread = [flag for flag, given in (("--no-canonical", not canonicalize),
                                       ("--min-digit-sum", min_digit_sum is not None))
              if given and flag not in _SHAPES[shape]]
    if unread:
        raise ValueError(f"{shape} does not read " + " or ".join(unread))
    top = n * (p - 1)
    wrong = [d for d in degree_filter or () if not 0 <= d <= top]
    if wrong:
        raise ValueError(f"--degree must lie in 0..{top} over GF({p}^{n}), got {wrong[0]}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if budget is not None:
        _budgeted_count(p, n, shape, canonicalize, min_digit_sum, budget)


def run_search(
    job: SearchJob,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> tuple[list[SearchHit], SearchSummary]:
    """Run the job and return (hits, summary); refuses jobs over budget.

    Every job runs serially in this process, as one loop over the blocks
    that gapn.secant yields for its shape (tuple_blocks, digitsum_blocks),
    (start, size, degree, offsets, terms): size candidates from ordinal
    start on, of one degree that passes the filter, with hits at start +
    offsets.  A block without hits is read for its size alone, so it may
    gather candidates of several starts and degrees.  Only this loop cuts
    at the limit, counts examined, checked and hits_by_degree, and builds
    hits; threads is ignored."""
    ctx = job.field
    total = _budgeted_count(ctx.p, ctx.n, job.shape, job.canonicalize, job.min_digit_sum, budget)
    t0 = time.perf_counter()
    poly = partial(SparsePoly._from_sorted_terms, ctx)
    room = job.limit or total + 1  # the hits still allowed: with no limit, more than all candidates
    examined, checked, hits, by_degree = total, 0, [], {}
    # the hits hold no reference cycles: pause the collector, restored as the caller left it
    collect = gc.isenabled()
    gc.disable()
    try:
        if job.shape == "digitsum-reduced":
            blocks = digitsum_blocks(ctx, _digitsum_slots(ctx.p, ctx.n, job.min_digit_sum), job.degree_filter)
        else:
            blocks = tuple_blocks(ctx, *_tuple_shape(job.shape, job.canonicalize, ctx.q), job.degree_filter)
        for start, size, degree, offsets, terms in blocks:
            if offsets:
                if len(offsets) >= room:  # the last hit allowed: stop after it
                    offsets, terms, size = offsets[:room], terms[:room], offsets[room - 1] + 1
                    examined = start + size
                room -= len(offsets)
                by_degree[degree] = by_degree.get(degree, 0) + len(offsets)
                for o, t in zip(offsets, terms):
                    hits.append(SearchHit(start + o, poly(t), degree))
            checked += size
            if not room:
                break
    finally:
        if collect:
            gc.enable()
    elapsed = int((time.perf_counter() - t0) * 1000)
    return hits, SearchSummary(examined, checked, by_degree, elapsed)


# ---------------------------------------------------------------------------
# claim registry
# ---------------------------------------------------------------------------


class Report(Record):
    """Outcome of re-running one registered claim."""

    __slots__ = __match_args__ = ("claim", "passed", "details", "elapsed_ms")

    def __init__(self, claim: str, passed: bool, details: dict, elapsed_ms: int):
        self.claim = claim
        self.passed = passed
        self.details = details
        self.elapsed_ms = elapsed_ms

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "passed": self.passed,
            "details": self.details,
            "elapsed_ms": self.elapsed_ms,
        }


@cache
def _field(p: int, n: int = 2) -> FieldCtx:
    return make_field(p, n)


def _claim_gold_monomials():
    details = {}
    ok = True
    for p in (3, 5, 7, 11, 13):
        ctx = _field(p)
        v = is_gapn(SparsePoly.monomial(ctx, 2 * p - 1))
        details[f"p={p}"] = {"is_gapn": v.is_gapn, "worst_fiber": v.worst_fiber}
        ok = ok and v.is_gapn and v.worst_fiber == p
    return ok, details


def _claim_inverse_monomials():
    details = {}
    ok = True
    for p in (3, 5, 7, 11):
        ctx = _field(p)
        f = SparsePoly.monomial(ctx, ctx.q - 2)
        v = is_gapn(f)
        deg = f.algebraic_degree()
        details[f"p={p}"] = {"is_gapn": v.is_gapn, "degree": deg}
        ok = ok and v.is_gapn and deg == 2 * (p - 1) - 1
    return ok, details


def _monomial_digit_combos(p, n):
    for k in range(p):
        for l in range(p):
            if not p <= k + l < 2 * (p - 1):
                continue
            for r1 in range(n):
                for r2 in range(n):
                    if r1 != r2:
                        yield k, l, r1, r2


def _claim_monomial_criteria():
    # every d = k*p^r1 + l*p^r2 lies in 1..q-1, where tuple_hits(ctx, 1)
    # decides X^d once per Frobenius orbit: [0] when it is GAPN, else []
    ok = True
    combos = sufficient_true = necessary_false = 0
    for p in (3, 5, 7):
        for n in (2, 3):
            monomial_hits = tuple_hits(_field(p, n), 1)
            for k, l, r1, r2 in _monomial_digit_combos(p, n):
                combos += 1
                gapn = bool(monomial_hits((k * p ** r1 + l * p ** r2,)))
                if monomial_gapn_sufficient(p, n, k, l, r1, r2):
                    sufficient_true += 1
                    ok = ok and gapn
                if not monomial_gapn_necessary(p, n, k, l, r1, r2):
                    necessary_false += 1
                    ok = ok and not gapn
    # evidence only (n=2 converse of the necessary criterion is reported from
    # a talk, never assumed): count how the brute force falls for p=5,7,11
    nec_true = nec_true_gapn = 0
    for p in (5, 7, 11):
        monomial_hits = tuple_hits(_field(p), 1)
        for k, l, r1, r2 in _monomial_digit_combos(p, 2):
            if monomial_gapn_necessary(p, 2, k, l, r1, r2):
                nec_true += 1
                nec_true_gapn += bool(monomial_hits((k * p ** r1 + l * p ** r2,)))
    details = {
        "combos": combos,
        "sufficient_true": sufficient_true,
        "necessary_false": necessary_false,
        "footnote_evidence_n2": {"necessary_true": nec_true, "of_which_gapn": nec_true_gapn},
    }
    return ok, details


def _claim_odd_binomials():
    ok = True
    details = {}
    for p in (5, 7, 11):
        ctx = _field(p)
        degrees = set()
        built = 0
        for k in range(p):
            for l in range(p):
                if (k + l) % 2 == 0:
                    continue
                r = build_odd_binomial(p, k, l, ctx=ctx)
                v = is_gapn(r.result, fail_fast=True)
                ok = ok and v.is_gapn and r.claimed_degree == max(p, k + l)
                degrees.add(r.claimed_degree)
                built += 1
        wanted = set(range(p, 2 * p - 2, 2))
        ok = ok and wanted <= degrees
        details[f"p={p}"] = {"built": built, "degrees": sorted(degrees)}
    return ok, details


def _claim_even_binomials():
    ok = True
    details = {}
    for p in (5, 11, 13):
        ctx = _field(p)
        degrees = set()
        for h in range((p + 1) // 2, p):
            r = build_even_binomial(p, h, ctx=ctx)
            v = is_gapn(r.result, fail_fast=True)
            ok = ok and v.is_gapn and r.claimed_degree == 2 * h
            degrees.add(r.claimed_degree)
        wanted = set(range(p + 1, 2 * p - 1, 2))
        ok = ok and degrees == wanted
        details[f"p={p}"] = {"degrees": sorted(degrees)}
    return ok, details


def _claim_p7_trinomials():
    ctx = _field(7)
    u = find_trinomial_u(ctx)
    ok = True
    degrees = {}
    for h in (4, 5, 6):
        r = build_trinomial(7, h, u=u, ctx=ctx)
        v = is_gapn(r.result, fail_fast=True)
        degrees[f"h={h}"] = r.claimed_degree
        ok = ok and v.is_gapn and r.claimed_degree == 2 * h
    details = {"u": list(u.vector()), "degrees": degrees}
    return ok, details


def _claim_p7_binomial_even_gaps():
    job = SearchJob(_field(7), "binomial", degree_filter=frozenset({8, 10, 12}))
    _, summary = run_search(job)
    by = summary.hits_by_degree
    ok = by.get(8, 0) == 0 and by.get(12, 0) == 0 and by.get(10, 0) >= 1
    ok = ok and summary.examined == 54144
    details = {
        "examined": summary.examined,
        "checked": summary.checked,
        "hits_degree_8": by.get(8, 0),
        "hits_degree_10": by.get(10, 0),
        "hits_degree_12": by.get(12, 0),
    }
    return ok, details


def _random_poly(ctx: FieldCtx, elements: list[FieldElem], rng: random.Random):
    """(f, coefficients): every coefficient of X^0..X^(q-1) is
    rng.choice(elements) over ctx's elements by code, the draw of
    randrange(q) without a FieldElem built per draw."""
    coeffs = [rng.choice(elements) for _ in elements]
    # exponents ascend and zeros are skipped, so the terms are canonical
    terms = tuple((e, c) for e, c in enumerate(coeffs) if c.idx >= 0)
    return SparsePoly._from_sorted_terms(ctx, terms), coeffs


def _claim_p3_no_even_degree():
    # the reduction keeps the slots {5, 7, 8} of GF(9), 729 functions: the
    # unfiltered digitsum-reduced search (the secant walk) decides them all
    # once, and each draw's kernel scan is checked against the entry of its
    # coefficients' logs at those slots (-1 for zero)
    ctx = _field(3)
    slots = _digitsum_slots(ctx.p, ctx.n, None)
    hits, _ = run_search(SearchJob(ctx, "digitsum-reduced"))
    gapn_reduced = {tuple(dict(h.function.terms).get(e, ctx.zero).idx for e in slots) for h in hits}
    elements = list(ctx.elements())
    rng = random.Random(0x6A93)
    sound = 0
    trials = 1000
    for _ in range(trials):
        f, coeffs = _random_poly(ctx, elements, rng)
        if is_gapn(f, fail_fast=True).is_gapn == (tuple(coeffs[e].idx for e in slots) in gapn_reduced):
            sound += 1
    ok = sound == trials
    job = SearchJob(ctx, "digitsum-reduced", degree_filter=frozenset({4}))
    _, summary = run_search(job)
    ok = ok and summary.checked == 648 and summary.hits_by_degree.get(4, 0) == 0
    details = {
        "reduction_checks_passed": sound,
        "examined": summary.examined,
        "checked": summary.checked,
        "hits_degree_4": summary.hits_by_degree.get(4, 0),
    }
    return ok, details


def _claim_p7_binomial_beyond_criteria():
    ctx = _field(7)
    one = ctx.one
    mono_ok = is_gapn(SparsePoly.monomial(ctx, 25)).is_gapn
    g = SparsePoly(ctx, [(25, one), (46, one)])
    bino_ok = is_gapn(g).is_gapn
    # a root of X^2 + 1: square to -1
    minus_one = -one
    root = next(y for y in ctx.units() if y * y == minus_one)
    vanishes = binomial_reduction_vanishes(ctx, 25, 46, one, root)
    criteria = binomial_gapn_sufficient(ctx, 25, 46, one)
    ok = mono_ok and bino_ok and vanishes and not criteria
    details = {
        "monomial_gapn": mono_ok,
        "binomial_gapn": bino_ok,
        "reduction_vanishes_at": list(root.vector()),
        "captured_by_criteria": criteria,
    }
    return ok, details


def _claim_p11_mixed_binomial():
    ctx = _field(11)
    g = ctx.primitive_element
    mixed = SparsePoly(ctx, [(32, ctx.one), (65, g)])
    v_mixed = is_gapn(mixed)
    v_first = is_gapn(SparsePoly.monomial(ctx, 32), fail_fast=True)
    v_second = is_gapn(SparsePoly.monomial(ctx, 65, g), fail_fast=True)
    ok = v_mixed.is_gapn and not v_first.is_gapn and not v_second.is_gapn
    details = {
        "binomial_gapn": v_mixed.is_gapn,
        "term_32_gapn": v_first.is_gapn,
        "term_65_gapn": v_second.is_gapn,
    }
    return ok, details


def _claim_power_identity():
    ok = True
    details = {}
    for p in (3, 5, 7):
        ctx = _field(p)
        good = sum(verify_power_identity(ctx, d) for d in range(ctx.q))
        details[f"p={p}"] = good
        ok = ok and good == ctx.q
    return ok, details


def _ratio_fibers(ctx: FieldCtx) -> list[list[int]]:
    """fibers[u][k]: the max fiber of the derivative of
    X^(2p-1) + g^u*X^(3p-2) at direction g^k, one full is_gapn per u."""
    p, m = ctx.p, ctx.q - 1
    fibers = []
    for u in range(m):
        f = SparsePoly(ctx, [(2 * p - 1, ctx.one), (3 * p - 2, FieldElem(ctx, u))])
        row = [0] * m
        for a, fiber in is_gapn(f).per_direction:
            row[a.idx] = fiber
        fibers.append(row)
    return fibers


def _claim_condition_equivalence():
    # D_a is GF(q)-linear, so D_a(c1*X^d1 + c2*X^d2) = c1*D_a(X^d1 + (c2/c1)*X^d2)
    # (d1 = 2p-1, d2 = 3p-2), and y -> c1*y is a bijection on the values:
    # every (c1, c2) with the same ratio c2/c1 = g^u has the fibers of
    # X^d1 + g^u*X^d2 at every direction.  So one full check per ratio gives
    # the brute-force side of every triple.
    # p=5: the condition reads a only through a^(p-1), which a.idx mod p+1
    # fixes, so it is evaluated once per class; repeated p-1 times, the
    # classes line up with the q-1 = (p+1)(p-1) directions by a.idx
    ctx5 = _field(5)
    p, m = ctx5.p, ctx5.q - 1
    fibers5 = _ratio_fibers(ctx5)
    exhaustive = 0
    ok = True
    units5 = list(ctx5.units())
    for c1 in units5:
        for c2 in units5:
            coeffs = [c1, c2, ctx5.zero, ctx5.zero]
            preds = [p_to_one_condition(ctx5, 1, coeffs, a) for a in units5[:p + 1]]
            row = fibers5[(c2.idx - c1.idx) % m]
            ok = ok and [fiber == p for fiber in row] == preds * (p - 1)
            exhaustive += len(row)
    ctx7 = _field(7)
    zeros7 = [ctx7.zero] * 4
    fibers7 = _ratio_fibers(ctx7)
    # units by log: rng.choice(units7) is FieldElem(ctx7, rng.randrange(48))
    units7 = list(ctx7.units())
    rng = random.Random(0x51E7)
    sampled = 2000
    for _ in range(sampled):
        c1, c2, a = rng.choice(units7), rng.choice(units7), rng.choice(units7)
        pred = p_to_one_condition(ctx7, 1, [c1, c2] + zeros7, a)
        ok = ok and pred == (fibers7[(c2.idx - c1.idx) % 48][a.idx] == 7)
    details = {"exhaustive_triples": exhaustive, "sampled_triples": sampled}
    return ok, details


def _claim_p11_degree15_gap():
    ctx = _field(11)
    exponents = [d for d, s in enumerate(_digit_sums(11, 2)) if s == 15]
    gapn = [d for d in exponents if is_gapn(SparsePoly.monomial(ctx, d), fail_fast=True).is_gapn]
    ok = len(exponents) > 0 and not gapn
    details = {"exponents": exponents, "gapn_found": gapn}
    return ok, details


def _claim_conjugate_premise_obstruction():
    ctx = _field(3, 3)
    ok = True
    premise_count = 0
    for d in range(ctx.q):
        f = SparsePoly.monomial(ctx, d)
        premise = any(derivative_conjugate_premise(f, r) is not None for r in (1, 2))
        if premise:
            premise_count += 1
            ok = ok and not is_gapn(f, fail_fast=True).is_gapn
    gold = SparsePoly.monomial(ctx, 5)
    gold_premise = any(derivative_conjugate_premise(gold, r) is not None for r in (1, 2))
    gold_gapn = is_gapn(gold).is_gapn
    ok = ok and not gold_premise and gold_gapn
    details = {
        "monomials_with_premise": premise_count,
        "gold_premise": gold_premise,
        "gold_gapn": gold_gapn,
    }
    return ok, details


CLAIM_REGISTRY = {
    "gold-monomials": (
        "X^(2p-1) is GAPN over GF(p^2) for p in {3,5,7,11,13}",
        _claim_gold_monomials,
    ),
    "inverse-monomials": (
        "X^(q-2) is GAPN over GF(p^2) with degree 2(p-1)-1 for p in {3,5,7,11}",
        _claim_inverse_monomials,
    ),
    "monomial-criteria-soundness": (
        "sufficient criterion implies GAPN, failed necessary criterion implies not GAPN "
        "(p in {3,5,7}, n in {2,3}, brute force)",
        _claim_monomial_criteria,
    ),
    "odd-binomial-degrees": (
        "odd-binomial builder is GAPN for all odd k+l and covers every odd degree "
        "in [p, 2p-3] (p in {5,7,11})",
        _claim_odd_binomials,
    ),
    "even-binomial-degrees": (
        "even-binomial builder is GAPN and covers every even degree in [p+1, 2p-2] "
        "(p in {5,11,13})",
        _claim_even_binomials,
    ),
    "p7-trinomial-even-degrees": (
        "trinomials over GF(49) reach even degrees 8, 10, 12",
        _claim_p7_trinomials,
    ),
    "p7-binomial-even-gaps": (
        "exhaustive canonical search over GF(49): no GAPN binomial of degree 8 or 12, "
        "at least one of degree 10",
        _claim_p7_binomial_even_gaps,
    ),
    "p3-no-even-degree": (
        "digit-sum-reduced exhaustive search over GF(9): no GAPN function of degree 4",
        _claim_p3_no_even_degree,
    ),
    "p7-binomial-beyond-criteria": (
        "X^25 + X^46 over GF(49) is GAPN although the binomial criteria reject it",
        _claim_p7_binomial_beyond_criteria,
    ),
    "p11-mixed-binomial": (
        "X^32 + g*X^65 over GF(121) is GAPN while neither term is",
        _claim_p11_mixed_binomial,
    ),
    "derivative-power-identity": (
        "monomial derivative conjugation identity holds for all d (p in {3,5,7})",
        _claim_power_identity,
    ),
    "derivative-condition-equivalence": (
        "closed-form p-to-1 condition matches the actual derivative "
        "(p=5 exhaustive, p=7 sampled)",
        _claim_condition_equivalence,
    ),
    "p11-monomial-deg15-none": (
        "no GAPN monomial of algebraic degree 15 over GF(121)",
        _claim_p11_degree15_gap,
    ),
    "conjugate-premise-obstruction": (
        "over GF(27), monomials whose derivative conjugates to a scalar multiple "
        "are never GAPN; the gold monomial fails the premise",
        _claim_conjugate_premise_obstruction,
    ),
}


def claim_ids() -> list[str]:
    return list(CLAIM_REGISTRY)


def claim_descriptions() -> dict[str, str]:
    return {k: v[0] for k, v in CLAIM_REGISTRY.items()}


def reproduce(claim_id: str) -> Report:
    """Re-run one registered claim serially; report pass/fail with its evidence."""
    if claim_id not in CLAIM_REGISTRY:
        raise ValueError(f"unknown claim id {claim_id!r}; known: {', '.join(CLAIM_REGISTRY)}")
    _, fn = CLAIM_REGISTRY[claim_id]
    t0 = time.perf_counter()
    passed, details = fn()
    elapsed = int((time.perf_counter() - t0) * 1000)
    return Report(claim_id, passed, details, elapsed)
