"""Sparse polynomials, discrete derivatives and GAPN verdicts."""

import math
import random
from functools import reduce

import pytest

from gapn.constructions import verify_power_identity
from gapn.fields import FieldElem, make_field
from gapn.polynomials import (
    SparsePoly,
    _LineKernel,
    derivative,
    digit_sum,
    function_from_json,
    is_gapn,
    _digit_sums,
    _kernel,
)
from gapn.search import SearchJob, run_search
from gapn.secant import tuple_hits

import oracle


def _random_poly(ctx, rng, max_terms=3):
    exps = rng.sample(range(ctx.q), rng.randint(1, max_terms))
    return SparsePoly(ctx, [(e, ctx.from_code(rng.randrange(1, ctx.q))) for e in exps])


def _surviving_exponents(ctx, digit_sum_is=None):
    """Exponents d with digit_sum(d) >= p-1 (or == digit_sum_is): the terms
    whose order-(p-1) derivative is not identically zero."""
    p = ctx.p
    return [e for e in range(ctx.q)
            if (digit_sum(p, e) >= p - 1 if digit_sum_is is None else digit_sum(p, e) == digit_sum_is)]


def test_digit_sum():
    assert digit_sum(7, 46) == 10
    assert digit_sum(5, 0) == 0
    for p in (3, 5, 11):
        assert digit_sum(p, 2 * p - 1) == p
    with pytest.raises(ValueError):
        digit_sum(3, -1)


def test_digit_sum_refuses_a_float():
    # 5.0 is no exponent: divmod would give the digit sum 3.0
    with pytest.raises(TypeError):
        digit_sum(3, 5.0)


def test_polynomial_compared_with_a_non_polynomial_is_unequal():
    # __eq__ returns NotImplemented, so Python falls back to identity
    f = SparsePoly.monomial(make_field(3, 2), 5)
    assert (f == "x") is False and f != "x"


def test_algebraic_degree():
    ctx = make_field(5, 2)
    assert SparsePoly.monomial(ctx, 9).algebraic_degree() == 5
    f49 = make_field(7, 2)
    f = SparsePoly(f49, [(25, f49.one), (46, f49.one)])
    assert f.algebraic_degree() == 10
    assert SparsePoly(ctx, []).algebraic_degree() is None


def test_term_normalization():
    ctx = make_field(3, 2)
    g = ctx.primitive_element
    # duplicate exponents merge; cancelling coefficients vanish
    f = SparsePoly(ctx, [(5, g), (5, -g)])
    assert f.is_zero()
    f = SparsePoly(ctx, [(5, g), (5, g)])
    assert f.terms == ((5, g + g),)
    with pytest.raises(ValueError):
        SparsePoly(ctx, [(9, g)])


def test_add():
    ctx = make_field(3, 2)
    g = ctx.primitive_element
    f = SparsePoly(ctx, [(1, g), (5, ctx.one)])
    # shared exponents merge, and the others are kept in exponent order
    assert (f + SparsePoly(ctx, [(5, g), (7, g)])).terms == ((1, g), (5, ctx.one + g), (7, g))
    # terms that cancel are dropped, down to the zero polynomial
    assert (f + SparsePoly(ctx, [(5, -ctx.one)])).terms == ((1, g),)
    zero = f + SparsePoly(ctx, [(1, -g), (5, -ctx.one)])
    assert zero.is_zero() and repr(zero) == "SparsePoly(F9: 0)"
    with pytest.raises(ValueError):
        f + SparsePoly.monomial(make_field(3, 3), 5)
    with pytest.raises(TypeError):
        f + 1


@pytest.mark.parametrize("exp", [2.9, 2.0, "7"])
def test_exponents_must_be_integers(exp):
    # none is an integer, so none names an exponent: truncating 2.9 would build X^2
    ctx = make_field(3, 2)
    with pytest.raises(TypeError):
        SparsePoly(ctx, [(exp, ctx.one)])
    with pytest.raises(TypeError):
        SparsePoly.monomial(ctx, exp)


def test_evaluate():
    ctx = make_field(5, 2)
    g = ctx.primitive_element
    f = SparsePoly.monomial(ctx, 7)
    assert f.evaluate(ctx.zero) == ctx.zero
    assert f.evaluate(g) == g ** 7
    f49 = make_field(7, 2)
    two = f49.scalar(2)
    b = SparsePoly(f49, [(25, f49.one), (46, f49.one)])
    assert b.evaluate(f49.one) == two
    # constant term at zero uses 0^0 = 1
    c = SparsePoly(f49, [(0, two)])
    assert c.evaluate(f49.zero) == two


def test_value_table_matches_oracle():
    for p, n in ((3, 2), (5, 2), (3, 3)):
        ctx = make_field(p, n)
        tf = oracle.tuple_field_of(ctx)
        rng = random.Random(7)
        for _ in range(10):
            if ctx.q == 9:
                f = _random_poly(ctx, rng, max_terms=4)
            else:  # X^0 (0^0 = 1) and X^(q-1) (0 at zero only) in every draw
                exps = {0, ctx.q - 1, *rng.sample(range(1, ctx.q - 1), rng.randint(1, 3))}
                f = SparsePoly(ctx, [(e, ctx.from_code(rng.randrange(1, ctx.q))) for e in exps])
            ref = oracle.value_table(tf, oracle.poly_terms(f))
            assert [tuple(ctx.code_to_vector(v)) for v in f.value_table()] == ref


def test_derivative_matches_direct_summation():
    cases = []
    for p, n in ((3, 2), (5, 2)):
        ctx = make_field(p, n)
        rng = random.Random(p * 100 + n)
        for _ in range(6):
            cases.append((_random_poly(ctx, rng), ctx.from_code(rng.randrange(1, ctx.q))))
    # every direction on GF(27); the last function has 11 terms, 10 of them
    # with digit sum >= p-1, more than GF(27)'s packed sum holds (7), so
    # each line's packed sum is reduced and repacked once
    ctx = make_field(3, 3)
    rng = random.Random(27)
    many = SparsePoly(ctx, [(e, ctx.from_code(rng.randrange(1, 27)))
                            for e in [1] + rng.sample(_surviving_exponents(ctx), 10)])
    for f in (_random_poly(ctx, rng), _random_poly(ctx, rng, max_terms=5), many):
        cases.extend((f, a) for a in ctx.units())
    for f, a in cases:
        ctx = f.field
        tf = oracle.tuple_field_of(ctx)
        dm = derivative(f, a)
        ref = oracle.derivative_table(tf, oracle.poly_terms(f), tuple(a.vector()))
        assert [tuple(ctx.code_to_vector(v)) for v in dm.values] == ref
        # same images in the same order: first appearance along codes x = 0..q-1
        want = [(tf.to_code(v), c) for v, c in oracle.fibers(ref).items()]
        assert list(dm.fiber_histogram.items()) == want


def test_gold_derivative_is_p_to_one_f25():
    ctx = make_field(5, 2)
    tf = oracle.tuple_field_of(ctx)
    f = SparsePoly.monomial(ctx, 9)
    dm = derivative(f, ctx.one)
    ref = oracle.derivative_table(tf, oracle.poly_terms(f), tf.one)
    assert [tuple(ctx.code_to_vector(v)) for v in dm.values] == ref
    assert all(c == 5 for c in oracle.fibers(ref).values())
    assert max(dm.fiber_histogram.values()) == 5


def test_low_degree_derivative_vanishes():
    # degree <= p-2 terms are annihilated by the order-(p-1) difference
    for p in (3, 5):
        ctx = make_field(p, 2)
        g = ctx.primitive_element
        low_exps = [e for e in range(ctx.q) if digit_sum(p, e) <= p - 2]
        rng = random.Random(p)
        for _ in range(5):
            exps = rng.sample(low_exps, 3)
            f = SparsePoly(ctx, [(e, g ** rng.randrange(1, ctx.q)) for e in exps])
            a = ctx.from_code(rng.randrange(1, ctx.q))
            dm = derivative(f, a)
            assert set(dm.values) == {0}
    # a constant sums to p copies of itself, i.e. zero
    ctx = make_field(3, 2)
    dm = derivative(SparsePoly(ctx, [(0, ctx.primitive_element)]), ctx.one)
    assert set(dm.values) == {0}


def test_fiber_histogram_counts_are_multiples_of_p():
    ctx = make_field(5, 2)
    rng = random.Random(99)
    for _ in range(8):
        f = _random_poly(ctx, rng)
        a = ctx.from_code(rng.randrange(1, ctx.q))
        dm = derivative(f, a)
        assert sum(dm.fiber_histogram.values()) == ctx.q
        assert all(c % 5 == 0 for c in dm.fiber_histogram.values())


def test_coset_invariance():
    for p in (3, 5, 7):
        ctx = make_field(p, 2)
        rng = random.Random(p)
        f = _random_poly(ctx, rng)
        for _ in range(4):
            a = ctx.from_code(rng.randrange(1, ctx.q))
            dm = derivative(f, a)
            for x in ctx.elements():
                base = dm.values[x.code]
                for i in range(p):
                    shift = ctx.scalar(i) * a
                    assert dm.values[(x + shift).code] == base


def test_scaling_law_f25():
    # D_a M_d(X) == a^d * D_1 M_d(a^(-1) X) for every d, a, X
    ctx = make_field(5, 2)
    for d in range(ctx.q):
        f = SparsePoly.monomial(ctx, d)
        dm1 = derivative(f, ctx.one)
        for a in ctx.units():
            dma = derivative(f, a)
            ainv = a.inv()
            for x in ctx.elements():
                at_x = ctx.from_code(dma.values[x.code])
                assert at_x == a ** d * ctx.from_code(dm1.values[(ainv * x).code])


def test_conjugation_law_f25():
    # (D_a M_d(X))^p == (-1)^d * A^d * D_a M_d(X) with A = a^(p-1)
    ctx = make_field(5, 2)
    for d in range(ctx.q):
        f = SparsePoly.monomial(ctx, d)
        for a in ctx.units():
            big_a = a ** 4
            dma = derivative(f, a)
            scale = big_a ** d if d % 2 == 0 else -(big_a ** d)
            for code in set(dma.values):
                y = ctx.from_code(code)
                assert y ** 5 == scale * y


def test_derivative_linearity():
    ctx = make_field(5, 2)
    rng = random.Random(3)
    for _ in range(5):
        f = _random_poly(ctx, rng)
        g = _random_poly(ctx, rng)
        a = ctx.from_code(rng.randrange(1, ctx.q))
        ds = derivative(f + g, a)
        df, dg = derivative(f, a), derivative(g, a)
        for x in range(ctx.q):
            assert ds.values[x] == ctx.add_code(df.values[x], dg.values[x])


def test_derivative_rejects_zero_direction():
    ctx = make_field(3, 2)
    with pytest.raises(ValueError):
        derivative(SparsePoly.monomial(ctx, 5), ctx.zero)


def test_is_gapn_examples():
    for p in (3, 5):
        ctx = make_field(p, 2)
        v = is_gapn(SparsePoly.monomial(ctx, 2 * p - 1))
        assert v.is_gapn and v.worst_fiber == p and v.witness is None
        assert len(v.per_direction) == ctx.q - 1
        # a verdict whose per-direction list is not built yet equals one
        # whose list is, and builds the list once
        unread = is_gapn(SparsePoly.monomial(ctx, 2 * p - 1))
        assert unread == v and repr(unread) == repr(v)
        assert unread.per_direction is unread.per_direction
        inv = SparsePoly.monomial(ctx, ctx.q - 2)
        assert is_gapn(inv).is_gapn
        assert inv.algebraic_degree() == 2 * (p - 1) - 1
    ctx = make_field(3, 2)
    v = is_gapn(SparsePoly.monomial(ctx, 2))
    assert not v.is_gapn and v.witness is not None
    a, b = v.witness
    assert not a.is_zero()


def test_is_gapn_zero_function():
    ctx = make_field(3, 2)
    v = is_gapn(SparsePoly(ctx, []))
    assert not v.is_gapn and v.worst_fiber == ctx.q


def test_is_gapn_matches_oracle():
    ctx = make_field(3, 2)
    tf = oracle.tuple_field_of(ctx)
    rng = random.Random(41)
    polys = [_random_poly(ctx, rng, max_terms=4) for _ in range(12)]
    polys.append(SparsePoly.monomial(ctx, 5))        # gold, GAPN
    polys.append(SparsePoly.monomial(ctx, 7))        # gold twin, GAPN
    polys.append(SparsePoly.monomial(ctx, 2))        # not GAPN
    agree = 0
    for f in polys:
        assert is_gapn(f).is_gapn == oracle.is_gapn(tf, oracle.poly_terms(f))
        agree += 1
    assert agree == len(polys)


def test_is_gapn_matches_oracle_on_fixtures():
    # the headline fixtures re-verified through the tuple-arithmetic route
    f49 = make_field(7, 2)
    tf49 = oracle.tuple_field_of(f49)
    fixture = SparsePoly(f49, [(25, f49.one), (46, f49.one)])
    assert is_gapn(fixture).is_gapn
    assert oracle.is_gapn(tf49, oracle.poly_terms(fixture))
    bad = SparsePoly(f49, [(25, f49.one), (33, f49.one)])  # degree-8 binomial
    assert is_gapn(bad, fail_fast=True).is_gapn == oracle.is_gapn(tf49, oracle.poly_terms(bad))

    f121 = make_field(11, 2)
    tf121 = oracle.tuple_field_of(f121)
    g = f121.primitive_element
    mixed = SparsePoly(f121, [(32, f121.one), (65, g)])
    assert is_gapn(mixed).is_gapn
    assert oracle.is_gapn(tf121, oracle.poly_terms(mixed))


def _assert_verdict_matches_oracle(f):
    """is_gapn agrees with oracle.verdict on is_gapn, worst_fiber, witness and
    per_direction, with fail_fast off and on.

    With fail_fast, exactly the lines up to the witness's (by smallest code)
    are reported.
    """
    tf = oracle.tuple_field_of(f.field)
    worst, witness, per_dir = oracle.verdict(tf, oracle.poly_terms(f))
    if witness is not None:
        scanned = {a: m for a, m in per_dir.items() if oracle.line_min_code(tf, a) <= witness[0]}
        fast = (max(scanned.values()), witness, scanned)
    else:
        fast = (worst, witness, per_dir)
    for fail_fast, (want_worst, want_witness, want_dirs) in ((False, (worst, witness, per_dir)),
                                                             (True, fast)):
        v = is_gapn(f, fail_fast=fail_fast)
        got_witness = None if v.witness is None else (v.witness[0].code, v.witness[1].code)
        assert v.is_gapn == (witness is None)
        assert v.worst_fiber == want_worst
        assert got_witness == want_witness
        assert [(a.code, m) for a, m in v.per_direction] == sorted(want_dirs.items())


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_verdict_matches_oracle_every_monomial(p, n):
    # at most one surviving term: the line path that builds no O(q) table
    ctx = make_field(p, n)
    for d in range(ctx.q):
        _assert_verdict_matches_oracle(SparsePoly.monomial(ctx, d))
    assert _built_tables(ctx) == []


@pytest.mark.parametrize("p,n,count", [(7, 2, 8), (5, 3, 3)])
def test_verdict_matches_oracle_seeded_binomials(p, n, count):
    # with both digit sums >= p the derivative differs from line to line, so
    # many of these binomials first fail on a line other than that of 1
    ctx = make_field(p, n)
    high = [e for e in range(ctx.q) if digit_sum(p, e) >= p]
    rng = random.Random(p ** n)
    for _ in range(count):
        d1, d2 = rng.sample(high, 2)
        u = ctx.from_code(rng.randrange(1, ctx.q))
        _assert_verdict_matches_oracle(SparsePoly(ctx, [(d1, ctx.one), (d2, u)]))


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_verdict_matches_oracle_many_surviving_terms(p, n):
    # p+1 to 3p terms whose derivative does not vanish: random ones, and
    # GAPN ones (the gold monomial plus terms of digit sum p-1, whose
    # derivatives are constants); on GF(27) beyond 7 terms each line's sum
    # is reduced and repacked, while GF(9) and GF(25) hold them in one sum
    # (test_wide_sums_match_oracle_up_to_capacity goes past their capacity)
    ctx = make_field(p, n)
    rng = random.Random(1000 * p + n)
    surviving = _surviving_exponents(ctx)
    constant = _surviving_exponents(ctx, digit_sum_is=p - 1)

    def coeff():
        return ctx.from_code(rng.randrange(1, ctx.q))

    for _ in range(6):
        k = rng.randint(p + 1, min(3 * p, len(surviving)))
        f = SparsePoly(ctx, [(e, coeff()) for e in rng.sample(surviving, k)])
        assert len(f.terms) > p
        _assert_verdict_matches_oracle(f)
        k = rng.randint(min(p, len(constant)), min(3 * p - 1, len(constant)))
        g = SparsePoly(ctx, [(2 * p - 1, coeff())] + [(e, coeff()) for e in rng.sample(constant, k)])
        assert len(g.terms) > p
        _assert_verdict_matches_oracle(g)
    # p//2+1 to p such terms: one packed sum per line, with no repacking
    for _ in range(4):
        k = rng.randint(p // 2 + 1, p)
        _assert_verdict_matches_oracle(SparsePoly(ctx, [(e, coeff()) for e in rng.sample(surviving, k)]))
        k = rng.randint(p // 2, p - 1)
        g = SparsePoly(ctx, [(2 * p - 1, coeff())] + [(e, coeff()) for e in rng.sample(constant, k)])
        assert p // 2 < len(g.terms) <= p
        _assert_verdict_matches_oracle(g)


@pytest.mark.parametrize("p,n", [(5, 2), (3, 5), (11, 2), (13, 2)])
def test_regrouped_sum_matches_oracle_on_every_unpack_layout(p, n):
    # p+1, 2p and 3p surviving terms, and a GAPN function of more than p
    # (the gold monomial plus terms of digit sum p-1); GF(25) unpacks with
    # one chunk table and holds up to 15 terms in one sum, GF(3^5) reduces
    # after 7 terms and unpacks with two tables, GF(11^2) and GF(13^2)
    # reduce after 12 and 21 and unpack digit by digit with % p
    ctx = make_field(p, n)
    tf = oracle.tuple_field_of(ctx)
    rng = random.Random(1900 + 10 * p + n)
    surviving = _surviving_exponents(ctx)
    constant = _surviving_exponents(ctx, digit_sum_is=p - 1)

    def coeff():
        return ctx.from_code(rng.randrange(1, ctx.q))

    functions = [SparsePoly(ctx, [(e, coeff()) for e in rng.sample(surviving, k)]) for k in (p + 1, 2 * p, 3 * p)]
    gold = SparsePoly(ctx, [(2 * p - 1, coeff())] + [(e, coeff()) for e in constant[:3 * p - 1]])
    for f in functions + [gold]:
        assert len(f.terms) > p
        want = oracle.witness(tf, oracle.poly_terms(f))
        for fail_fast in (False, True):
            v = is_gapn(f, fail_fast=fail_fast)
            assert v.is_gapn == (want is None) == (f is gold)
            assert v.witness == (None if want is None else tuple(map(ctx.from_code, want)))


@pytest.mark.parametrize("p,n,directions", [
    (3, 2, None), (3, 3, None), (5, 2, None), (7, 2, None), (5, 3, 12), (3, 5, 12), (5, 4, 1),
])
def test_wide_sums_match_oracle_up_to_capacity(p, n, directions):
    # every field whose packed sum holds more than p values, the count at
    # the narrowest width: seeded functions of 1 up to capacity+2 surviving terms (as many as the
    # field has), so sums of capacity terms and sums reduced once.  The
    # oracle sums every direction where directions is None, and else the
    # leading direction codes 1..directions (it costs q*p tuple additions per
    # direction): their fibers, the witness when one of them fails, and the
    # derivative values there
    ctx = make_field(p, n)
    tf = oracle.tuple_field_of(ctx)
    kern = _kernel(ctx)
    assert kern.capacity == ((1 << _packed_width(p, n)) - 1) // (p - 1) > p
    rng = random.Random(3700 + 10 * p + n)
    exps = rng.sample(_surviving_exponents(ctx), min(kern.capacity + 2, len(_surviving_exponents(ctx))))
    coeffs = [ctx.from_code(rng.randrange(1, ctx.q)) for _ in exps]
    gt = [tf.zero] * ctx.q
    for count, (e, c) in enumerate(zip(exps, coeffs), 1):
        f = SparsePoly(ctx, zip(exps[:count], coeffs[:count]))
        assert len(f.terms) == count
        gt = list(map(tf.add, gt, oracle.value_table(tf, [(e, tuple(c.vector()))])))
        if directions is None:
            _assert_verdict_matches_oracle(f)
        full, fast = is_gapn(f), is_gapn(f, fail_fast=True)
        fibers = {a.code: m for a, m in full.per_direction}
        leading = range(1, ctx.q if directions is None else directions + 1)
        witness = None
        for a in leading:
            want = oracle.summed_derivative(tf, gt, tf.from_code(a))
            assert derivative(f, ctx.from_code(a)).values == [tf.to_code(v) for v in want], (count, a)
            hist = oracle.fibers(want)
            assert fibers[a] == max(hist.values()), (count, a)
            if witness is None and fibers[a] > p:
                witness = (a, min(tf.to_code(v) for v, k in hist.items() if k > p))
        for v in (full, fast):
            if witness is None:
                assert v.witness is None or v.witness[0].code > leading[-1], count
            else:
                assert (v.witness[0].code, v.witness[1].code) == witness, count
    assert len(exps) > kern.capacity or len(exps) == len(_surviving_exponents(ctx))


@pytest.mark.parametrize("p,n", [(5, 2), (3, 3)])
def test_verdict_matches_oracle_scaled_monomials(p, n):
    # c*X^d with c outside F_p: every line's derivative is a scaled copy of
    # the first line's, and the witness comes from the first line
    ctx = make_field(p, n)
    c = ctx.primitive_element
    for d in range(ctx.q):
        _assert_verdict_matches_oracle(SparsePoly.monomial(ctx, d, c))
    assert _built_tables(ctx) == []


def test_verdict_matches_oracle_zero_and_constant():
    for p, n in ((3, 2), (5, 2), (7, 1)):
        ctx = make_field(p, n)
        _assert_verdict_matches_oracle(SparsePoly(ctx, []))
        _assert_verdict_matches_oracle(SparsePoly(ctx, [(0, ctx.primitive_element)]))


def _built_lines(monkeypatch, f):
    """The lines t whose codes a full is_gapn(f) builds, in build order."""
    built = []
    line_codes = _LineKernel.line_codes
    with monkeypatch.context() as mp:
        mp.setattr(_LineKernel, "line_codes", lambda kern, terms, t: built.append(t) or line_codes(kern, terms, t))
        is_gapn(f)
    return built


@pytest.mark.parametrize("exps, period", [
    ((5, 21), 5),  # G = gcd(80, 16) = 16: c = 80/lcm(2, 16)
    ((5, 45), 2),  # G = 40
    ((5, 7), 40),  # G = 2: every line
    ((5,), 1),  # one term
])
def test_scan_builds_one_line_per_line_class(monkeypatch, exps, period):
    # X^5 + g*X^d over GF(3^4), q-1 = 80 and 40 lines: lines t = t' mod
    # c = 80/lcm(2, G) share their fibers, so only the first line of each
    # class in scan order is built
    ctx = make_field(3, 4)
    f = SparsePoly(ctx, [(d, FieldElem(ctx, j)) for j, d in enumerate(exps)])
    assert _kernel(ctx).reader([(c.idx, d) for d, c in f.terms])[1] == period
    built = _built_lines(monkeypatch, f)
    firsts = {}
    for t in _kernel(ctx).lines:
        firsts.setdefault(t % period, t)
    assert built == list(firsts.values())
    _assert_verdict_matches_oracle(f)


def _coset_functions(ctx, rng, count):
    """count functions of 1-3 surviving terms whose exponents lie in one
    coset d1 + G*Z of a subgroup of Z/(q-1), G a random divisor of q-1
    that does not divide p-1, so that some lines share their fibers."""
    p, m = ctx.p, ctx.q - 1
    surviving = _surviving_exponents(ctx)
    divisors = [G for G in range(1, m + 1) if m % G == 0 and (p - 1) % G]
    functions = []
    while len(functions) < count:
        G, d1, k = rng.choice(divisors), rng.choice(surviving), rng.randint(0, 2)
        coset = [e for e in surviving if (e - d1) % G == 0 and e != d1]
        if len(coset) < k:
            continue
        exps = [d1] + rng.sample(coset, k)
        functions.append(SparsePoly(ctx, [(e, ctx.from_code(rng.randrange(1, ctx.q))) for e in exps]))
    return functions


@pytest.mark.parametrize("p,n", [(3, 3), (3, 4), (5, 2), (7, 2)])
def test_verdict_matches_oracle_on_exponent_cosets(monkeypatch, p, n):
    # exponents in one coset of a subgroup of Z/m: every function builds
    # fewer lines than there are, yet verdict, witness and per_direction
    # with and without fail_fast match the oracle's every-direction scan
    ctx = make_field(p, n)
    nlines = (ctx.q - 1) // (p - 1)
    rng = random.Random(2500 + 10 * p + n)
    functions = _coset_functions(ctx, rng, 16)
    for f in functions:
        period = _kernel(ctx).reader([(c.idx, d) for d, c in f.terms])[1]
        assert len(_built_lines(monkeypatch, f)) == period < nlines
        _assert_verdict_matches_oracle(f)
    assert sum(len(f.terms) > 1 for f in functions) >= 5


def test_monomial_block_cache_is_bounded():
    # a monomial scan meets every exponent once; the kernel's cached
    # D_1 X^d block tables (q/p entries each) stay within 8q entries
    ctx = make_field(3, 6)
    for d in range(ctx.q):
        is_gapn(SparsePoly.monomial(ctx, d), fail_fast=True)
    blocks = ctx._line_kernel.blocks
    assert 0 < sum(map(len, blocks.values())) <= 8 * ctx.q


def _block_codes(kern, blocks):
    """Element codes of a block table in log form (2m for zero)."""
    return [0 if v >= kern.m else kern.antilog[v] for v in blocks]


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2),
                                 (11, 2), (3, 5)])
def test_monomial_blocks_match_oracle(p, n):
    # M_d = D_1 X^d, by the oracle's direct summation, read at the first
    # code b*p of each block, for every d whose derivative does not vanish
    ctx = make_field(p, n)
    tf = oracle.tuple_field_of(ctx)
    kern = _kernel(ctx)
    for d in _surviving_exponents(ctx):
        want = oracle.derivative_table(tf, [(d, tf.one)], tf.one)[::p]
        assert _block_codes(kern, kern.monomial_blocks(d)) == [tf.to_code(v) for v in want], d


@pytest.mark.parametrize("p,modulus", [(47, [5, 2, 1]), (211, [2, 4, 1])])
def test_monomial_blocks_match_direct_sums_on_wide_fields(p, modulus):
    # block 0 and 50 seeded blocks b (all p blocks when p <= 51) against
    # M_d(y) = sum of (y+c)^d over c in F_p, y = b*p, in element arithmetic
    ctx = make_field(p, 2, modulus=modulus)
    kern = _kernel(ctx)
    rng = random.Random(p)
    for d in (2 * p - 1, ctx.q - 2):
        codes = _block_codes(kern, kern.monomial_blocks(d))
        for b in [0] + rng.sample(range(1, p), min(50, p - 1)):
            y = ctx.from_code(b * p)
            total = ctx.zero
            for c in range(p):
                total = total + (y + ctx.from_code(c)) ** d
            assert codes[b] == total.code, (d, b)


class _CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_monomial_blocks_sum_only_orbit_representatives(monkeypatch):
    # M_d(lambda*y) = lambda^d * M_d(y) for lambda in F_p*: one p-term sum
    # per F_p* orbit of blocks, plus a log shift per block, with the values
    # read from antilog and no q-entry table of X^d or of the kernel
    p = 211
    ctx = make_field(p, 2, modulus=[2, 4, 1])
    q = ctx.q
    kern = _kernel(ctx)
    want = kern.monomial_blocks(421)
    counting = _CountingList(kern.antilog)
    monkeypatch.setattr(kern, "antilog", counting)
    monkeypatch.setattr(kern, "blocks", {})
    assert kern.monomial_blocks(421) == want
    assert 0 < counting.reads <= q // (p - 1) + q // p + p
    assert _built_tables(ctx) == []


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (5, 2), (7, 2), (11, 2), (3, 5), (5, 3)])
def test_block_orbit_map(p, n):
    # every nonzero block b reads the copy of its representative r scaled
    # by lambda in F_p*: b = lambda*r digit-wise, r has leading digit 1,
    # and block 0 reads the entry one past the copies
    ctx = make_field(p, n)
    kern = _kernel(ctx)
    nreps = len(kern.scales) // (p - 1)
    assert nreps == (kern.nblocks - 1) // (p - 1)
    assert sorted(kern.fill) == list(range(kern.nblocks))
    assert kern.fill[0] == len(kern.scales)

    def digits(u):
        return [u // p ** i % p for i in range(n - 1)]

    for b in range(1, kern.nblocks):
        k = kern.fill[b]
        lam = kern.antilog[kern.scales[k]]
        rep = kern.antilog[kern.orbit_logs[p - 1 + k % nreps * p]] // p
        assert 0 < lam < p
        assert digits(b) == [lam * x % p for x in digits(rep)]
        while rep >= p:
            rep //= p
        assert rep == 1


def test_fail_fast_matches_full_verdict():
    ctx = make_field(5, 2)
    rng = random.Random(17)
    for _ in range(10):
        f = _random_poly(ctx, rng)
        assert is_gapn(f, fail_fast=True).is_gapn == is_gapn(f).is_gapn


def test_gapn_invariant_under_low_degree_shift():
    # adding terms of algebraic degree <= p-1 never changes the verdict
    for p in (3, 5):
        ctx = make_field(p, 2)
        low_exps = [e for e in range(ctx.q) if digit_sum(p, e) <= p - 1]
        rng = random.Random(p + 60)
        for _ in range(6):
            f = _random_poly(ctx, rng)
            shift = SparsePoly(
                ctx, [(e, ctx.from_code(rng.randrange(ctx.q))) for e in rng.sample(low_exps, 3)]
            )
            assert is_gapn(f).is_gapn == is_gapn(f + shift).is_gapn


def test_scalar_multiple_preserves_gapn():
    ctx = make_field(5, 2)
    f = SparsePoly.monomial(ctx, 9)
    for c in ctx.units():
        scaled = SparsePoly(ctx, [(e, c * k) for e, k in f.terms])
        assert is_gapn(scaled, fail_fast=True).is_gapn
    bad = SparsePoly.monomial(ctx, 2)
    g = ctx.primitive_element
    scaled_bad = SparsePoly(ctx, [(e, g * k) for e, k in bad.terms])
    assert not is_gapn(scaled_bad, fail_fast=True).is_gapn


def test_verify_power_identity():
    f9 = make_field(3, 2)
    assert all(verify_power_identity(f9, d) for d in range(9))
    f49 = make_field(7, 2)
    assert verify_power_identity(f49, 25)
    f25 = make_field(5, 2)
    assert verify_power_identity(f25, 0)
    # every d against D(x)^p == (-1)^d * D(x) checked value by value
    for ctx in (f9, f25, f49):
        sign = [ctx.one, -ctx.one]
        for d in range(ctx.q):
            values = map(ctx.from_code, set(derivative(SparsePoly.monomial(ctx, d), ctx.one).values))
            want = all(y ** ctx.p == sign[d % 2] * y for y in values)
            assert verify_power_identity(ctx, d) == want
    with pytest.raises(ValueError):
        verify_power_identity(make_field(3, 3), 5)
    with pytest.raises(ValueError, match=r"^exponent must lie in 0\.\.8$"):
        verify_power_identity(f9, 9)


def test_function_json_roundtrip():
    ctx = make_field(7, 2)
    f = SparsePoly(ctx, [(25, ctx.one), (46, ctx.primitive_element)])
    clone = function_from_json(f.to_json())
    assert clone == f
    assert clone.to_json() == f.to_json()


def test_verdict_json_shape():
    ctx = make_field(3, 2)
    v = is_gapn(SparsePoly.monomial(ctx, 2))
    obj = v.to_json()
    assert set(obj) == {"is_gapn", "worst_fiber", "witness"}
    assert obj["witness"] is not None and set(obj["witness"]) == {"a", "b"}
    ok = is_gapn(SparsePoly.monomial(ctx, 5)).to_json()
    assert ok["witness"] is None


@pytest.mark.parametrize("p,n", [(5, 1), (3, 2), (3, 3), (7, 2), (3, 5), (5, 3)])
def test_lines_ordered_by_smallest_code(p, n):
    # the kernel scans lines by their smallest direction code, and that
    # code is the line's one direction whose leading base-p digit is 1
    ctx = make_field(p, n)
    tf = oracle.tuple_field_of(ctx)
    kern = _kernel(ctx)
    smallest = [oracle.line_min_code(tf, ctx.antilog[t]) for t in range(kern.nlines)]
    assert kern.lines == sorted(range(kern.nlines), key=smallest.__getitem__)
    for code in smallest:
        while code >= p:
            code //= p
        assert code == 1


def _chunk_layout(kern):
    """'one table', 'tables' or '% p': how the kernel unpacks a packed sum."""
    tables = [lookup.__self__ for _, _, lookup, _ in kern.chunks if isinstance(lookup.__self__, list)]
    if not tables:
        return "% p"
    assert len(tables) == len(kern.chunks)
    return "one table" if len(tables) == 1 else "tables"


# packed values a sum holds, (2^w-1)//(p-1) for the width w of _packed_width
_CAPACITY = {(3, 1): 3, (3, 2): 31, (3, 3): 7, (3, 4): 3, (3, 5): 7, (3, 6): 7, (3, 7): 3,
             (5, 1): 7, (5, 2): 15, (5, 3): 15, (5, 4): 15, (7, 2): 10, (7, 3): 10,
             (11, 2): 12, (13, 2): 21, (67, 1): 124}


@pytest.mark.parametrize("p,n,layout", [
    (3, 1, "% p"), (3, 2, "one table"), (3, 3, "one table"), (3, 4, "one table"),
    (3, 5, "tables"), (3, 6, "tables"), (3, 7, "tables"),
    (5, 1, "% p"), (5, 2, "one table"), (5, 3, "tables"), (5, 4, "tables"),
    (7, 2, "one table"), (7, 3, "tables"),
    (11, 2, "% p"), (13, 2, "% p"), (67, 1, "% p"),
])
def test_unpack_matches_digitwise_reduction(p, n, layout):
    # every chunk layout maps a packed sum of up to capacity packed values
    # to the code whose base-p digits are the bit fields' sums mod p; the
    # width and so the capacity follow _packed_width's rule
    ctx = make_field(p, n)
    kern = _kernel(ctx)
    capacity = _CAPACITY[p, n]
    assert _chunk_layout(kern) == layout
    assert _unpack_tables(p, n, _packed_width(p, n)) == (len(kern.chunks) if layout != "% p" else None)
    for _, _, lookup, _ in kern.chunks:
        if isinstance(lookup.__self__, list):
            assert len(lookup.__self__) <= max(2 * ctx.q, 4096)
    w = _packed_width(p, n)
    assert kern.capacity == capacity == ((1 << w) - 1) // (p - 1)

    def reduce_digits(total):
        return sum(((total >> (w * i)) & ((1 << w) - 1)) % p * p ** i for i in range(n))

    packed = [_pack_digitwise(p, n, c) for c in range(ctx.q)]
    rng = random.Random(1400 + 10 * p + n)
    sums = [capacity * packed[-1]]  # every field at its largest sum capacity*(p-1)
    sums += [sum(rng.choices(packed, k=rng.randint(1, capacity))) for _ in range(2000)]
    assert kern.unpack(sums) == [reduce_digits(s) for s in sums]


@pytest.mark.parametrize("p,n", sorted(_CAPACITY))
def test_sum_codes_fills_every_field_to_capacity(monkeypatch, p, n):
    # entries holding p-1 in every digit fill each bit field to
    # capacity*(p-1) after capacity values, so a group one value too long
    # overflows: k of them sum to the code with every digit k(p-1) mod p for
    # k = 1..2*capacity+1, and no bit field of a sum that reaches unpack
    # exceeds capacity*(p-1) (with one digit, % p would hide the overflow)
    ctx = make_field(p, n)
    kern = _kernel(ctx).with_tables()
    capacity = _CAPACITY[p, n]
    w = _packed_width(p, n)
    full = _pack_digitwise(p, n, ctx.q - 1)
    real_unpack = _LineKernel.unpack
    seen = []

    def checked_unpack(self, sums):
        seen.extend(sums)
        return real_unpack(self, sums)

    monkeypatch.setattr(_LineKernel, "unpack", checked_unpack)
    for k in range(1, 2 * capacity + 2):
        digit = k * (p - 1) % p
        want = sum(digit * p ** i for i in range(n))
        assert kern.sum_codes([[full] * 3 for _ in range(k)]) == [want] * 3, k
    fields = [s >> (w * i) & ((1 << w) - 1) for s in seen for i in range(n - 1)]
    fields += [s >> (w * (n - 1)) for s in seen]
    assert seen and max(fields) == capacity * (p - 1)


_TABLES = ("pack", "packed_at", "logz")


def _built_tables(ctx):
    """The line kernel's O(q) tables that have been built on ctx."""
    return [name for name in _TABLES if getattr(_kernel(ctx), name) is not None]


def _unpack_tables(p, n, w):
    """Unpack tables per packed sum at field width w, or None when no two
    digits share a table.  A table of k digits takes every w-bit value of
    its k-1 low fields and every sum its top field can hold, capacity*(p-1)
    for capacity = (2^w-1)//(p-1), and has at most max(2q, 4096) entries."""
    largest = ((1 << w) - 1) // (p - 1) * (p - 1)
    fit = [k for k in range(2, n + 1) if (1 << (w * (k - 1))) * (largest + 1) <= max(2 * p ** n, 4096)]
    return math.ceil(n / max(fit)) if fit else None


def _packed_width(p, n):
    """The kernel's bit-field width: the narrowest width that holds a sum of
    p digits, (p(p-1)).bit_length(), widened while a packed sum still needs
    as many unpack tables; kept where digits are reduced with % p."""
    w = (p * (p - 1)).bit_length()
    while _unpack_tables(p, n, w) is not None and _unpack_tables(p, n, w + 1) == _unpack_tables(p, n, w):
        w += 1
    return w


def _pack_digitwise(p, n, code):
    """code with base-p digit i in bit field i of _packed_width bits."""
    w = _packed_width(p, n)
    return sum((code // p ** i % p) << (w * i) for i in range(n))


def test_single_term_check_builds_no_kernel_table():
    # X^421 plus terms of digit sum below p-1, which the derivative kills: the
    # block table and the line read antilog, and no O(q) table is built; nor
    # by the derivative of a monomial, nor by a whole monomial search or the
    # monomial verdicts of tuple_hits, dead exponents included
    p = 211
    ctx = make_field(p, 2, modulus=[2, 4, 1])
    rng = random.Random(211)
    low = [(lo + p * hi, ctx.from_code(rng.randrange(1, ctx.q)))
           for lo, hi in [(0, 0), (5, 17), (208, 1), (0, 209)]]
    assert all(digit_sum(p, e) < p - 1 for e, _ in low)
    for fail_fast in (False, True):
        v = is_gapn(SparsePoly(ctx, [(421, ctx.one)] + low), fail_fast=fail_fast)
        assert (v.is_gapn, v.worst_fiber, v.witness) == (True, p, None)
    dm = derivative(SparsePoly.monomial(ctx, 421), ctx.primitive_element)
    assert sorted(set(dm.fiber_histogram.values())) == [p]
    assert _built_tables(ctx) == []
    for ctx in (make_field(3, 5), make_field(7, 2)):
        hits, summary = run_search(SearchJob(ctx, "monomial"))
        hits_of = tuple_hits(ctx, 1)
        assert [d for d in range(1, ctx.q) if hits_of((d,))] == [h.function.terms[0][0] for h in hits]
        assert hits and summary.checked == ctx.q - 1
        assert _built_tables(ctx) == []


def _two_term_check(ctx):
    is_gapn(SparsePoly(ctx, [(2 * ctx.p - 1, ctx.one), (ctx.q - 2, ctx.primitive_element)]))


def _derivative(ctx):
    derivative(SparsePoly(ctx, [(2 * ctx.p - 1, ctx.one), (ctx.q - 2, ctx.one)]), ctx.primitive_element)


def _search(ctx):
    run_search(SearchJob(ctx, "binomial"))


@pytest.mark.parametrize("build", [_two_term_check, _derivative, _search])
def test_paths_that_build_the_kernel_tables(build):
    ctx = make_field(5, 2)
    assert _built_tables(ctx) == []
    build(ctx)
    assert _built_tables(ctx) == list(_TABLES)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (7, 2)])
def test_kernel_tables_match_independent_construction(p, n):
    # digit sums and digit-wise packing from oracle digits, and the powers of
    # g by tuple arithmetic
    ctx = make_field(p, n)
    tf = oracle.tuple_field_of(ctx)
    kern = _kernel(ctx).with_tables()
    q, m = ctx.q, ctx.q - 1
    assert _digit_sums(p, n) == [sum(tf.from_code(c)) for c in range(q)]
    assert kern.pack == [_pack_digitwise(p, n, c) for c in range(q)]
    # capacity packed values of digit p-1 fill each w-bit field, one more
    # would carry into the next: sums of 1 up to capacity packed codes
    # unpack to their digit-wise sums
    w = _packed_width(p, n)
    assert kern.capacity * (p - 1) < 1 << w <= (kern.capacity + 1) * (p - 1)
    rng = random.Random(3100 + 10 * p + n)
    draws = [rng.choices(range(q), k=k) for k in range(1, kern.capacity + 1)] + [[q - 1] * kern.capacity]
    assert kern.unpack([sum(map(kern.pack.__getitem__, codes)) for codes in draws]) == [
        tf.to_code(reduce(tf.add, map(tf.from_code, codes))) for codes in draws]
    g = tuple(ctx.primitive_element.vector())
    powers = [tf.one]
    for _ in range(m - 1):
        powers.append(tf.mul(powers[-1], g))
    codes = [tf.to_code(x) for x in powers]
    assert kern.packed_at == [_pack_digitwise(p, n, c) for c in codes] * 2 + [0] * m
    want_logz = [2 * m] + [None] * m
    for k, c in enumerate(codes):
        want_logz[c] = k
    assert kern.logz == want_logz
