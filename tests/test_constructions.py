"""Construction predicates and builders against the brute-force verifier."""

import math
import random

import pytest

import gapn
from gapn.constructions import (
    binomial_gapn_sufficient,
    binomial_reduction_vanishes,
    build_even_binomial,
    build_mod3_binomial,
    build_odd_binomial,
    build_trinomial,
    derivative_conjugate_premise,
    find_trinomial_u,
    is_mersenne,
    monomial_gapn_necessary,
    monomial_gapn_sufficient,
    odd_part,
    p_to_one_condition,
    trinomial_condition,
    verify_power_identity,
)
from gapn.fields import FieldElem, make_field
from gapn.polynomials import SparsePoly, derivative, is_gapn

import oracle


def test_monomial_sufficient_examples():
    assert monomial_gapn_sufficient(7, 2, 3, 4, 1, 0)
    assert not monomial_gapn_sufficient(11, 2, 7, 8, 1, 0)  # gcd(5, 120) = 5
    assert monomial_gapn_sufficient(5, 2, 2, 3, 1, 0)
    ctx = make_field(5, 2)
    assert is_gapn(SparsePoly.monomial(ctx, 13)).is_gapn  # 2*5+3


def test_monomial_necessary_examples():
    assert not monomial_gapn_necessary(11, 2, 7, 8, 1, 0)
    assert monomial_gapn_necessary(7, 2, 3, 4, 1, 0)
    assert not monomial_gapn_necessary(5, 2, 4, 2, 1, 0)  # gcd(2, 4) = 2
    ctx = make_field(5, 2)
    assert not is_gapn(SparsePoly.monomial(ctx, 22), fail_fast=True).is_gapn
    assert not monomial_gapn_necessary(3, 4, 1, 2, 0, 2)  # gcd(r1 - r2, n) = gcd(-2, 4) = 2
    assert not is_gapn(SparsePoly.monomial(make_field(3, 4), 19), fail_fast=True).is_gapn  # 1 + 2*9


def test_monomial_criteria_reject_bad_parameters():
    with pytest.raises(ValueError):
        monomial_gapn_sufficient(5, 2, 5, 0, 1, 0)  # digit out of range
    with pytest.raises(ValueError):
        monomial_gapn_sufficient(5, 2, 2, 3, 0, 0)  # r1 == r2
    with pytest.raises(ValueError):
        monomial_gapn_sufficient(5, 2, 1, 1, 1, 0)  # k+l below p
    with pytest.raises(ValueError):
        monomial_gapn_necessary(5, 2, 4, 4, 1, 0)  # k+l == 2(p-1)


def test_reduction_vanishing_fixture_f49():
    ctx = make_field(7, 2)
    root = next(y for y in ctx.units() if y * y == -ctx.one)
    assert binomial_reduction_vanishes(ctx, 25, 46, ctx.one, root)
    # with d2 odd and a non-square u, the reduction never degenerates
    g = ctx.primitive_element
    for a in ctx.units():
        assert not binomial_reduction_vanishes(ctx, 13, 9, g, a)
    with pytest.raises(ValueError):
        binomial_reduction_vanishes(ctx, 25, 46, ctx.zero, root)


def test_reduction_never_vanishes_under_even_criterion():
    # d2 even, d2-d1 divisible by the odd part of p+1, u primitive
    ctx = make_field(5, 2)
    g = ctx.primitive_element
    d1, d2 = 9, 18  # difference 9, odd part of 6 is 3
    for a in ctx.units():
        assert not binomial_reduction_vanishes(ctx, d1, d2, g, a)


def test_binomial_sufficient():
    ctx = make_field(5, 2)
    g = ctx.primitive_element
    assert binomial_gapn_sufficient(ctx, 9, 13, g)  # d2 odd, g non-square
    assert is_gapn(SparsePoly(ctx, [(9, ctx.one), (13, g)])).is_gapn
    assert binomial_gapn_sufficient(ctx, 9, 18, g)  # d2 even, N = 3
    assert is_gapn(SparsePoly(ctx, [(9, ctx.one), (18, g)])).is_gapn
    # sufficiency only: this binomial is GAPN yet not captured
    f49 = make_field(7, 2)
    assert not binomial_gapn_sufficient(f49, 25, 46, f49.one)
    assert is_gapn(SparsePoly(f49, [(25, f49.one), (46, f49.one)])).is_gapn
    with pytest.raises(ValueError):
        binomial_gapn_sufficient(ctx, 9, 13, ctx.zero)


def test_binomial_sufficient_checks_u():
    # u's log is read only once u is known to be an element of ctx
    f49, f121 = make_field(7, 2), make_field(11, 2)
    with pytest.raises(ValueError, match="different fields"):
        binomial_gapn_sufficient(f49, 25, 46, f121.primitive_element)
    with pytest.raises(TypeError, match="expected a field element, got int"):
        binomial_gapn_sufficient(f49, 25, 46, 3)


@pytest.mark.parametrize("d1, d2", [(9, 13.0), (9, 18.0), (9.0, 13)])
def test_binomial_sufficient_refuses_float_exponents(d1, d2):
    # an odd float d2 would be answered (True over GF(25)) and an even one
    # fail in math.gcd: each is refused alike
    ctx = make_field(5, 2)
    with pytest.raises(TypeError):
        binomial_gapn_sufficient(ctx, d1, d2, ctx.primitive_element)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_binomial_sufficient_matches_paper_statement(p):
    # the criterion as the paper states it, with the N-th powers {z^N}
    # walked by the oracle's schoolbook powering: d2 odd and u a non-square,
    # or d2 even and some odd N >= 3 dividing p+1 and d2 - d1 with u not an
    # N-th power
    ctx = make_field(p, 2)
    tf = oracle.tuple_field_of(ctx)
    powers = {
        n_th: {tf.to_code(tf.pow(tf.from_code(c), n_th)) for c in range(1, ctx.q)}
        for n_th in [2] + [n for n in range(3, p + 2, 2) if (p + 1) % n == 0]
    }
    d1 = 2 * p - 1
    for d2 in range(1, ctx.q):
        for u in ctx.units():
            if d2 % 2 == 1:
                stated = u.code not in powers[2]
            else:
                stated = any((d2 - d1) % n_th == 0 and u.code not in codes
                             for n_th, codes in powers.items() if n_th > 2)
            assert binomial_gapn_sufficient(ctx, d1, d2, u) == stated, (d2, u)


def test_odd_part_and_mersenne():
    assert odd_part(14) == 7
    assert odd_part(12) == 3
    assert odd_part(8) == 1
    for m in range(1, 4097):
        halved = m
        while halved % 2 == 0:
            halved //= 2
        assert odd_part(m) == halved, m
    assert is_mersenne(7)
    assert is_mersenne(31)
    assert is_mersenne(3)
    assert not is_mersenne(13)
    with pytest.raises(ValueError):
        odd_part(0)


def test_build_odd_binomial():
    ctx = make_field(5, 2)
    r = build_odd_binomial(5, 4, 3, ctx=ctx)
    assert r.claimed_degree == 7
    assert [e for e, _ in r.result.terms] == [9, 23]
    assert is_gapn(r.result).is_gapn
    r2 = build_odd_binomial(7, 6, 5)
    assert r2.claimed_degree == 11
    assert is_gapn(r2.result, fail_fast=True).is_gapn
    r3 = build_odd_binomial(5, 0, 1, ctx=ctx)
    assert r3.claimed_degree == 5
    assert is_gapn(r3.result, fail_fast=True).is_gapn
    with pytest.raises(ValueError):
        build_odd_binomial(5, 2, 4, ctx=ctx)  # k+l even
    with pytest.raises(ValueError, match=r"context is not GF\(5\^2\)"):
        build_odd_binomial(5, 4, 3, ctx=make_field(7, 2))


def test_build_odd_binomial_overlapping_exponent():
    # k*p + l == 2p-1 collapses to a single-term multiple of the gold monomial
    ctx = make_field(5, 2)
    r = build_odd_binomial(5, 1, 4, ctx=ctx)
    assert len(r.result.terms) == 1
    assert r.claimed_degree == 5
    assert is_gapn(r.result, fail_fast=True).is_gapn


def test_build_mod3_binomial():
    ctx = make_field(5, 2)
    r = build_mod3_binomial(5, 4, ctx=ctx)
    assert [e for e, _ in r.result.terms] == [9, 24]
    assert r.claimed_degree == 8
    assert is_gapn(r.result).is_gapn
    r2 = build_mod3_binomial(11, 8)
    assert r2.claimed_degree == 16
    assert is_gapn(r2.result, fail_fast=True).is_gapn
    with pytest.raises(ValueError):
        build_mod3_binomial(7, 3)  # 7 = 1 mod 3


def test_build_even_binomial():
    ctx = make_field(5, 2)
    r = build_even_binomial(5, 3, ctx=ctx)
    assert [e for e, _ in r.result.terms] == [9, 18]
    assert r.claimed_degree == 6
    assert is_gapn(r.result).is_gapn
    r2 = build_even_binomial(13, 12)
    assert r2.params["k1"] * 13 + r2.params["l1"] == 49
    assert [e for e, _ in r2.result.terms] == [49, 168]
    assert r2.claimed_degree == 24
    with pytest.raises(ValueError, match="Mersenne"):
        build_even_binomial(7, 3)


def test_p_to_one_condition_shape():
    # with only c_1, c_2 nonzero the condition collapses to c1 + 2*c2*a^(p-1) != 0
    ctx = make_field(5, 2)
    zero = ctx.zero
    g = ctx.primitive_element
    two = ctx.scalar(2)
    for c1 in (ctx.one, g, g ** 7):
        for c2 in (ctx.one, g ** 3):
            for a in list(ctx.units())[:8]:
                expected = not (c1 + two * c2 * a ** 4).is_zero()
                assert p_to_one_condition(ctx, 1, [c1, c2, zero, zero], a) == expected
    # pure gold column: c_1 = 1, everything else zero, always p-to-1
    for a in ctx.units():
        assert p_to_one_condition(ctx, 1, [ctx.one, zero, zero, zero], a)


def test_p_to_one_condition_matches_derivative():
    ctx = make_field(5, 2)
    g = ctx.primitive_element
    zero = ctx.zero
    f = SparsePoly(ctx, [(9, ctx.one), (13, g)])
    for a in ctx.units():
        pred = p_to_one_condition(ctx, 1, [ctx.one, g, zero, zero], a)
        assert pred == (max(derivative(f, a).fiber_histogram.values()) == ctx.p)


@pytest.mark.parametrize("p, admissible", [(5, [1]), (7, [1, 5]), (11, [1, 7])])
def test_p_to_one_condition_every_admissible_s(p, admissible):
    # f = sum_{i=s}^{p-1} c_i X^(ip + p-1+s-i) with random, partly zero c_i;
    # the closed form must agree with the brute-force derivative at a
    ctx = make_field(p, 2)
    s_values = [s for s in range(1, p - 1) if math.gcd(s, ctx.q - 1) == 1]
    assert s_values == admissible
    rng = random.Random(8000 + p)
    for s in s_values:
        for _ in range(100):
            coeffs = [ctx.zero if rng.random() < 0.4 else FieldElem(ctx, rng.randrange(ctx.q - 1))
                      for _ in range(s, p)]
            a = FieldElem(ctx, rng.randrange(ctx.q - 1))
            f = SparsePoly(ctx, [(i * p + p - 1 + s - i, c) for i, c in zip(range(s, p), coeffs)])
            actual = max(derivative(f, a).fiber_histogram.values()) == p
            assert p_to_one_condition(ctx, s, coeffs, a) == actual, (s, coeffs, a)


def test_p_to_one_condition_depends_on_a_mod_p_plus_one():
    # the condition reads a only through a^(p-1), and g^(k*(p-1)) depends only
    # on k mod p+1, so every direction of one class of a.idx mod p+1 agrees:
    # all (c1, c2, a) over GF(25), then seeded coefficients over GF(49)
    def classes_agree(ctx, s, coeffs):
        p = ctx.p
        by_class = {}
        for a in ctx.units():
            value = p_to_one_condition(ctx, s, coeffs, a)
            assert by_class.setdefault(a.idx % (p + 1), value) == value, (s, coeffs, a)

    ctx = make_field(5, 2)
    zero = ctx.zero
    for c1 in ctx.elements():
        for c2 in ctx.elements():
            classes_agree(ctx, 1, [c1, c2, zero, zero])
    ctx = make_field(7, 2)
    rng = random.Random(0x7A11)
    for _ in range(200):
        s = rng.choice([1, 5])
        coeffs = [ctx.zero if rng.random() < 0.3 else FieldElem(ctx, rng.randrange(ctx.q - 1))
                  for _ in range(s, 7)]
        classes_agree(ctx, s, coeffs)


def test_p_to_one_condition_rejects_bad_parameters():
    ctx = make_field(5, 2)
    good = [ctx.one] * 4
    with pytest.raises(ValueError):
        p_to_one_condition(ctx, 0, good, ctx.one)
    with pytest.raises(ValueError):
        p_to_one_condition(ctx, 2, [ctx.one] * 3, ctx.one)  # gcd(2, 24) = 2
    with pytest.raises(ValueError):
        p_to_one_condition(ctx, 1, good, ctx.zero)
    with pytest.raises(ValueError):
        p_to_one_condition(ctx, 1, [ctx.one], ctx.one)
    with pytest.raises(ValueError):
        p_to_one_condition(make_field(3, 3), 1, [ctx.one] * 2, ctx.one)
    # inputs from another field, or not field elements at all, never get an answer
    other = make_field(7, 2)
    with pytest.raises(ValueError):
        p_to_one_condition(ctx, 1, good, other.one)
    with pytest.raises(ValueError):
        p_to_one_condition(ctx, 1, [ctx.one, other.one, ctx.zero, ctx.zero], ctx.one)
    with pytest.raises(ValueError):
        p_to_one_condition(ctx, 1, [ctx.one, ctx.one, other.zero, ctx.zero], ctx.one)
    with pytest.raises(TypeError):
        p_to_one_condition(ctx, 1, [ctx.one, 1, ctx.zero, ctx.zero], ctx.one)
    # checked in order: a's field, a nonzero, the length, each coefficient
    with pytest.raises(ValueError, match="different fields"):
        p_to_one_condition(ctx, 1, [other.one, 1], other.zero)
    with pytest.raises(ValueError, match="direction a must be nonzero"):
        p_to_one_condition(ctx, 1, [ctx.one, other.one, ctx.zero, ctx.zero], ctx.zero)
    with pytest.raises(ValueError, match="expected 4 coefficients"):
        p_to_one_condition(ctx, 1, [ctx.one, 1], ctx.one)
    with pytest.raises(TypeError):
        p_to_one_condition(ctx, 1, [ctx.one, 1, other.one, ctx.zero], ctx.one)
    with pytest.raises(ValueError, match="different fields"):
        p_to_one_condition(ctx, 1, [ctx.one, other.one, 1, ctx.zero], ctx.one)


def test_trinomial_condition():
    ctx = make_field(5, 2)
    # A = -1 is always in the subgroup and kills u = v = 1
    assert not trinomial_condition(ctx, ctx.one, ctx.one)
    with pytest.raises(ValueError):
        trinomial_condition(ctx, ctx.zero, ctx.one)


def test_trinomial_condition_matches_root_enumeration():
    # all 576 pairs over GF(25): compare against direct evaluation on the
    # independently-computed subgroup {y : y^(p+1) == 1}
    ctx = make_field(5, 2)
    two = ctx.scalar(2)
    members = [y for y in ctx.units() if y ** 6 == ctx.one]
    assert len(members) == 6
    for u in ctx.units():
        up = u ** 5
        for v in ctx.units():
            vp = v ** 5
            has_root = any(
                (two * v * A ** 5 + u * A ** 4 + up * A + two * vp).is_zero()
                for A in members
            )
            assert trinomial_condition(ctx, u, v) == (not has_root)


def _trinomial_condition_by_elements(ctx, u, v):
    # the condition evaluated with FieldElem arithmetic, term by term
    p = ctx.p
    two = ctx.scalar(2)
    up = u ** p
    vp = v ** p
    return not any((two * v * big_a ** 5 + u * big_a ** 4 + up * big_a + two * vp).is_zero()
                   for big_a in ctx.units() if big_a ** (p + 1) == ctx.one)


@pytest.mark.parametrize("p", [5, 7])
def test_trinomial_condition_matches_element_arithmetic(p):
    ctx = make_field(p, 2)
    units = list(ctx.units())
    for u in units:
        for v in units:
            assert trinomial_condition(ctx, u, v) == _trinomial_condition_by_elements(ctx, u, v)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_find_trinomial_u_matches_element_arithmetic(p):
    ctx = make_field(p, 2)
    half = ctx.scalar(2).inv()
    first = next(u for u in ctx.units() if _trinomial_condition_by_elements(ctx, u, half))
    assert find_trinomial_u(ctx) == first


def test_trinomial_condition_errors():
    ctx = make_field(5, 2)
    other = make_field(7, 2)
    cubic = make_field(5, 3)
    with pytest.raises(ValueError):
        trinomial_condition(cubic, cubic.one, cubic.one)
    with pytest.raises(ValueError):
        trinomial_condition(ctx, ctx.one, ctx.zero)
    with pytest.raises(ValueError):
        trinomial_condition(ctx, other.one, ctx.one)
    with pytest.raises(ValueError):
        trinomial_condition(ctx, ctx.one, other.one)
    with pytest.raises(TypeError):
        trinomial_condition(ctx, 1, ctx.one)
    with pytest.raises(TypeError):
        trinomial_condition(ctx, ctx.one, 1)


@pytest.mark.parametrize("p", [5, 7])
def test_conditions_never_read_field_constants(p, monkeypatch):
    # both conditions check their arguments against the field's key, so
    # they answer (and reject) the same with ctx.one and ctx.zero unreadable
    ctx = make_field(p, 2)
    twin = make_field(p, 2)  # an equal field, built apart
    other = make_field(3, 2)
    rng = random.Random(9100 + p)

    def elem(field, zero_rate=0.0):
        return field.zero if rng.random() < zero_rate else FieldElem(field, rng.randrange(field.q - 1))

    s_values = [s for s in range(1, p - 1) if math.gcd(s, ctx.q - 1) == 1]
    conds = [(s, [elem(rng.choice((ctx, twin)), 0.3) for _ in range(s, p)], elem(ctx))
             for s in s_values for _ in range(60)]
    pairs = [(elem(ctx), elem(twin)) for _ in range(60)]
    expected = ([p_to_one_condition(ctx, s, cs, a) for s, cs, a in conds],
                [trinomial_condition(ctx, u, v) for u, v in pairs])

    def unreadable(self):
        raise AssertionError("field constant read")

    monkeypatch.setattr(type(ctx), "one", property(unreadable))
    monkeypatch.setattr(type(ctx), "zero", property(unreadable))
    assert ([p_to_one_condition(ctx, s, cs, a) for s, cs, a in conds],
            [trinomial_condition(ctx, u, v) for u, v in pairs]) == expected
    unit = FieldElem(ctx, 0)
    with pytest.raises(ValueError, match="different fields"):
        p_to_one_condition(ctx, 1, [unit] * (p - 1), FieldElem(other, 0))
    with pytest.raises(ValueError, match="different fields"):
        p_to_one_condition(ctx, 1, [unit, FieldElem(other, 0)] + [unit] * (p - 3), unit)
    with pytest.raises(TypeError):
        trinomial_condition(ctx, unit, 1)
    with pytest.raises(ValueError, match="different fields"):
        trinomial_condition(ctx, FieldElem(other, 0), unit)


def test_find_trinomial_u():
    ctx = make_field(7, 2)
    u = find_trinomial_u(ctx)
    assert trinomial_condition(ctx, u, ctx.scalar(2).inv())
    # enumeration order: no unit with a smaller log index passes
    half = ctx.scalar(2).inv()
    for earlier in ctx.units():
        if earlier == u:
            break
        assert not trinomial_condition(ctx, earlier, half)
    with pytest.raises(ValueError):
        find_trinomial_u(make_field(3, 2))


def test_find_trinomial_u_mersenne_p31():
    ctx = make_field(31, 2)
    u = find_trinomial_u(ctx)
    assert trinomial_condition(ctx, u, ctx.scalar(2).inv())


def test_build_trinomial():
    ctx = make_field(7, 2)
    r = build_trinomial(7, 5, ctx=ctx)
    assert r.claimed_degree == 10
    assert is_gapn(r.result, fail_fast=True).is_gapn
    r2 = build_trinomial(7, 4, ctx=ctx)
    assert r2.claimed_degree == 8
    assert is_gapn(r2.result, fail_fast=True).is_gapn
    r0 = build_trinomial(7, 0, ctx=ctx)
    assert r0.claimed_degree == 7
    assert (0, ctx.one) in r0.result.terms
    with pytest.raises(ValueError, match="condition"):
        build_trinomial(7, 4, u=ctx.one, v=ctx.one, ctx=ctx)


def _gapn_monomial_exponents(ctx):
    return [
        d for d in range(1, ctx.q)
        if is_gapn(SparsePoly.monomial(ctx, d), fail_fast=True).is_gapn
    ]


def test_binomial_criteria_soundness_exhaustive_p5():
    # for every GAPN base exponent d1 and every (d2, u): accepted criteria
    # imply a never-degenerate reduction, and a never-degenerate reduction
    # implies the binomial is GAPN by brute force
    ctx = make_field(5, 2)
    units = list(ctx.units())
    accepted = never_vanishes = 0
    for d1 in _gapn_monomial_exponents(ctx):
        for d2 in range(1, ctx.q):
            if d2 == d1:
                continue
            for u in units:
                ok = binomial_gapn_sufficient(ctx, d1, d2, u)
                clean = all(
                    not binomial_reduction_vanishes(ctx, d1, d2, u, a) for a in units
                )
                if ok:
                    accepted += 1
                    assert clean
                if clean:
                    never_vanishes += 1
                    f = SparsePoly(ctx, [(d1, ctx.one), (d2, u)])
                    assert is_gapn(f, fail_fast=True).is_gapn
    assert accepted > 0 and never_vanishes >= accepted


@pytest.mark.parametrize("p,samples", [(7, 400), (11, 200)])
def test_binomial_criteria_soundness_sampled(p, samples):
    import random

    ctx = make_field(p, 2)
    units = list(ctx.units())
    bases = _gapn_monomial_exponents(ctx)
    rng = random.Random(p * 31337)
    confirmed = 0
    while confirmed < samples:
        d1 = rng.choice(bases)
        d2 = rng.randrange(1, ctx.q)
        u = rng.choice(units)
        if d2 == d1 or not binomial_gapn_sufficient(ctx, d1, d2, u):
            continue
        f = SparsePoly(ctx, [(d1, ctx.one), (d2, u)])
        assert is_gapn(f, fail_fast=True).is_gapn
        confirmed += 1


@pytest.mark.parametrize("p", [5, 7])
def test_trinomial_soundness_sweep(p):
    # every (u, v) passing the condition yields GAPN functions for all h
    ctx = make_field(p, 2)
    units = list(ctx.units())
    passing = [(u, v) for u in units for v in units if trinomial_condition(ctx, u, v)]
    assert passing
    for u, v in passing:
        for h in range(p):
            r = build_trinomial(p, h, u=u, v=v, ctx=ctx)
            assert is_gapn(r.result, fail_fast=True).is_gapn


def test_derivative_conjugate_premise_quadratic():
    ctx = make_field(3, 2)
    for d in range(ctx.q):
        c = derivative_conjugate_premise(SparsePoly.monomial(ctx, d), 1)
        dm = derivative(SparsePoly.monomial(ctx, d), ctx.one)
        if set(dm.values) == {0}:
            assert c == ctx.zero
        else:
            assert c == (ctx.one if d % 2 == 0 else -ctx.one)


def test_derivative_conjugate_premise_cubic():
    ctx = make_field(3, 3)
    gold = SparsePoly.monomial(ctx, 5)
    assert derivative_conjugate_premise(gold, 1) is None
    assert derivative_conjugate_premise(gold, 2) is None
    assert is_gapn(gold).is_gapn
    # identically-zero derivative reports the degenerate constant 0
    assert derivative_conjugate_premise(SparsePoly.monomial(ctx, 1), 1) == ctx.zero
    with pytest.raises(ValueError, match=r"^r must lie in 1\.\.2$"):
        derivative_conjugate_premise(gold, 3)


def test_derivative_conjugate_premise_refuses_a_float_r():
    # r = 1.0 would give a constant whose log is a float, failing only when printed
    with pytest.raises(TypeError):
        derivative_conjugate_premise(SparsePoly.monomial(make_field(3, 2), 5), 1.0)


def _premise_by_frobenius(f, r):
    """derivative_conjugate_premise by the Frobenius-and-division loop over
    field elements: y0^(p^r)/y0 for the smallest nonzero value y0, checked
    against every other nonzero value."""
    ctx = f.field
    nonzero = sorted(code for code in set(derivative(f, ctx.one).values) if code != 0)
    if not nonzero:
        return ctx.zero
    e = ctx.p ** r
    y0 = ctx.from_code(nonzero[0])
    c = y0 ** e / y0
    for code in nonzero[1:]:
        y = ctx.from_code(code)
        if y ** e != c * y:
            return None
    return c


def test_premise_matches_the_frobenius_loop():
    # every monomial of GF(27) with r = 1, 2 (and with a coefficient outside
    # F_p), and seeded binomials of GF(25) and GF(49) with r = 1
    ctx = make_field(3, 3)
    g = ctx.primitive_element
    for d in range(ctx.q):
        for f in (SparsePoly.monomial(ctx, d), SparsePoly.monomial(ctx, d, g)):
            for r in (1, 2):
                assert derivative_conjugate_premise(f, r) == _premise_by_frobenius(f, r)
    found = set()
    for p in (5, 7):
        ctx = make_field(p, 2)
        rng = random.Random(4100 + p)
        for _ in range(150):
            d1, d2 = rng.sample(range(1, ctx.q), 2)
            f = SparsePoly(ctx, [(d1, ctx.from_code(rng.randrange(1, ctx.q))),
                                 (d2, ctx.from_code(rng.randrange(1, ctx.q)))])
            c = derivative_conjugate_premise(f, 1)
            assert c == _premise_by_frobenius(f, 1)
            found.add("none" if c is None else "zero" if c.is_zero() else "unit")
    assert found == {"none", "zero", "unit"}


def test_premise_does_not_call_derivative(monkeypatch):
    # the premise reads one kernel line, so with every binding of derivative
    # raising it still agrees with the Frobenius loop, which goes through
    # derivative: two independent routes to the same constant
    f27, f25 = make_field(3, 3), make_field(5, 2)
    monomials = [SparsePoly.monomial(f27, d) for d in range(f27.q)]
    want = [_premise_by_frobenius(f, r) for f in monomials for r in (1, 2)]
    identity = []  # D(x)^p == (-1)^d * D(x) for X^d, by the Frobenius loop
    for d in range(f25.q):
        c = _premise_by_frobenius(SparsePoly.monomial(f25, d), 1)
        identity.append(c is not None and (c.is_zero() or c == (-f25.one if d % 2 else f25.one)))
    assert all(identity)

    def refuse(*args):
        raise AssertionError("derivative called")

    for module in (gapn, gapn.polynomials, gapn.constructions, gapn.search):
        if hasattr(module, "derivative"):
            monkeypatch.setattr(module, "derivative", refuse)
    assert [derivative_conjugate_premise(f, r) for f in monomials for r in (1, 2)] == want
    assert [verify_power_identity(f25, d) for d in range(f25.q)] == identity


def test_conjugate_premise_refutes_gapn_over_cubic_extension():
    ctx = make_field(3, 3)
    for d in range(ctx.q):
        f = SparsePoly.monomial(ctx, d)
        if any(derivative_conjugate_premise(f, r) is not None for r in (1, 2)):
            assert not is_gapn(f, fail_fast=True).is_gapn


def test_recipe_json():
    r = build_even_binomial(5, 3)
    obj = r.to_json()
    assert obj["family"] == "even-binomial"
    assert obj["degree"] == 6
    assert obj["params"]["N"] == 3


def test_quadratic_only_messages_are_pinned():
    cubic = make_field(5, 3)
    one = cubic.one
    calls = [
        (lambda: binomial_reduction_vanishes(cubic, 9, 13, one, one), "reduction test"),
        (lambda: binomial_gapn_sufficient(cubic, 9, 13, one), "binomial criterion"),
        (lambda: p_to_one_condition(cubic, 1, [one] * 4, one), "condition"),
        (lambda: trinomial_condition(cubic, one, one), "trinomial condition"),
        (lambda: find_trinomial_u(cubic), "trinomial search"),
        (lambda: verify_power_identity(cubic, 9), "the power identity"),
    ]
    for call, subject in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{subject} is specific to quadratic extensions"
