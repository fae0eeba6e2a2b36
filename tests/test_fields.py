"""Field construction, arithmetic and helper operations."""

import random

import pytest

from gapn.fields import make_field

import oracle


def test_default_modulus_is_first_primitive_f9():
    # independent enumeration with tuple arithmetic must agree
    expected = oracle.first_primitive_modulus(3, 2)
    ctx = make_field(3, 2)
    assert list(ctx.modulus) == expected == [2, 1, 1]


def test_default_modulus_is_first_primitive_f25_f49():
    for p in (5, 7):
        ctx = make_field(p, 2)
        assert list(ctx.modulus) == oracle.first_primitive_modulus(p, 2)


def test_prime_field_f3():
    ctx = make_field(3, 1)
    assert ctx.q == 3
    g = ctx.primitive_element
    assert g.code == 2
    assert g.order() == 2


def test_f49_generator_has_full_order():
    ctx = make_field(7, 2)
    g = ctx.primitive_element
    assert g ** 48 == ctx.one
    assert g ** 24 != ctx.one
    assert g.order() == 48


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
def test_field_axioms_exhaustive(p, n):
    ctx = make_field(p, n)
    elems = list(ctx.elements())
    for x in elems:
        assert x + (-x) == ctx.zero
        if not x.is_zero():
            assert x * x.inv() == ctx.one
        for y in elems:
            assert x + y == y + x
            assert x * y == y * x
            for z in elems:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


def test_field_axioms_random_triples_f343():
    ctx = make_field(7, 3)
    rng = random.Random(1234)
    for _ in range(10_000):
        x, y, z = (ctx.from_code(rng.randrange(ctx.q)) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)


def test_multiplication_matches_oracle():
    ctx = make_field(5, 2)
    tf = oracle.tuple_field_of(ctx)
    for x in ctx.elements():
        for y in ctx.elements():
            lib = (x * y).vector()
            ref = tf.mul(tuple(x.vector()), tuple(y.vector()))
            assert tuple(lib) == ref


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (7, 2), (11, 2)])
def test_unit_group_order(p, n):
    ctx = make_field(p, n)
    for y in ctx.units():
        assert y ** (ctx.q - 1) == ctx.one


def test_frobenius_is_additive_multiplicative_and_fixes_subfield():
    ctx = make_field(3, 2)
    elems = list(ctx.elements())
    for x in elems:
        assert x.frobenius(1) == x ** 3
        assert x.frobenius(1).frobenius(1) == x
        for y in elems:
            assert (x + y).frobenius(1) == x.frobenius(1) + y.frobenius(1)
            assert (x * y).frobenius(1) == x.frobenius(1) * y.frobenius(1)
    for k in range(3):
        c = ctx.scalar(k)
        assert c.frobenius(1) == c


def test_trace_properties():
    ctx = make_field(7, 2)
    for y in ctx.elements():
        t = y.trace()
        assert t == y + y.frobenius(1)
        assert t ** 7 == t  # lands in the prime subfield
    for k in range(7):
        assert ctx.scalar(k).trace() == ctx.scalar(2 * k)
    assert ctx.zero.trace() == ctx.zero


def test_trace_plus_identity_quadratic():
    # x^p + x is the trace for n = 2
    for p in (3, 5):
        ctx = make_field(p, 2)
        for y in ctx.elements():
            assert y ** p + y == y.trace()


def test_element_order_examples():
    ctx = make_field(7, 2)
    assert ctx.one.order() == 1
    assert ctx.primitive_element.order() == 48
    # a root of X^2 + 1 squares to -1, hence has order 4
    root = next(y for y in ctx.units() if y * y == -ctx.one)
    assert root.order() == 4
    with pytest.raises(ValueError):
        ctx.zero.order()


def test_nth_power_tests():
    ctx = make_field(5, 2)
    g = ctx.primitive_element
    assert not g.is_nth_power(2)
    assert (g * g).is_nth_power(2)
    assert g.is_nth_power(1)
    assert not g.is_nth_power(3)  # gcd(3, 24) = 3 > 1, g is not hit
    with pytest.raises(ValueError):
        ctx.zero.is_nth_power(2)
    with pytest.raises(ValueError):
        g.is_nth_power(0)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_nth_power_matches_brute_force_power_sets(p, n):
    # y is an N-th power exactly when it lies in {z^N}, the set walked by
    # the oracle's schoolbook powering
    ctx = make_field(p, n)
    tf = oracle.tuple_field_of(ctx)
    for n_th in range(1, ctx.q):
        powers = {tf.to_code(tf.pow(tf.from_code(c), n_th)) for c in range(1, ctx.q)}
        for y in ctx.units():
            assert y.is_nth_power(n_th) == (y.code in powers), (n_th, y)


def test_subgroup():
    ctx = make_field(7, 2)
    assert ctx.subgroup(ctx.q - 1) == [ctx.one]
    sub = ctx.subgroup(6)
    assert len(sub) == 8
    assert all(y ** 8 == ctx.one for y in sub)
    for p in (3, 5, 7, 11):
        c = make_field(p, 2)
        assert -c.one in c.subgroup(p - 1)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
                                 (7, 2), (11, 2), (3, 5), (3, 6), (5, 4), (7, 3), (13, 2)])
def test_order_screen_agrees_with_table_build(p, n):
    # the fast primitivity screen must accept exactly the moduli whose
    # full table construction succeeds, over every monic candidate; the
    # constant-term prefilter must never reject a buildable modulus
    from itertools import product as iproduct

    from gapn.fields import _build_tables, _norm_constant_terms, _order_screen, _prime_factors

    factors = _prime_factors(p ** n - 1)
    norm_ok = _norm_constant_terms(p, n)
    for tail in iproduct(range(p), repeat=n):
        screened = _order_screen(p, n, list(tail), factors)
        built = _build_tables(p, n, list(tail)) is not None
        assert screened == built, f"disagreement at modulus {list(tail) + [1]}"
        if built:
            assert tail[0] in norm_ok


# the pinned verify-wide moduli of the benchmark, then two default moduli
@pytest.mark.parametrize("p,n,modulus", [
    (3, 7, [1, 0, 0, 0, 0, 1, 2, 1]),
    (5, 4, [2, 0, 2, 1, 1]),
    (47, 2, [5, 2, 1]),
    (211, 2, [2, 4, 1]),
    (3, 8, None),
    (5, 3, None),
], ids=["3^7", "5^4", "47^2", "211^2", "3^8", "5^3"])
def test_tables_match_oracle_powers_of_x(p, n, modulus):
    # antilog[k] is the code of x^k, walked by the oracle's schoolbook
    # multiplication, and log inverts antilog
    ctx = make_field(p, n, modulus=modulus)
    tf = oracle.tuple_field_of(ctx)
    x = tf.from_code(p)
    cur = tf.one
    for k in range(ctx.q - 1):
        assert ctx.antilog[k] == tf.to_code(cur), f"x^{k}"
        cur = tf.mul(cur, x)
    assert cur == tf.one
    assert len(ctx.log) == ctx.q and ctx.log[0] == -1
    assert [ctx.log[c] for c in ctx.antilog] == list(range(ctx.q - 1))


def test_higher_extension_degree_construction():
    ctx = make_field(3, 10)  # q = 59049, still desk scale
    g = ctx.primitive_element
    assert g.order() == ctx.q - 1
    assert (g ** (ctx.q - 1)) == ctx.one
    assert ctx.modulus[0] != 0 and ctx.modulus[-1] == 1


def test_deterministic_construction():
    a = make_field(5, 2)
    b = make_field(5, 2)
    assert a.modulus == b.modulus
    assert a.antilog == b.antilog
    # elements from equal contexts interoperate
    assert a.primitive_element * b.primitive_element == a.primitive_element ** 2


def test_pow_conventions():
    ctx = make_field(7, 2)
    assert ctx.zero ** 0 == ctx.one
    assert ctx.zero ** 5 == ctx.zero
    with pytest.raises(ValueError):
        ctx.zero ** -1
    for y in ctx.elements():
        assert y ** 49 == y  # double frobenius is the identity for n = 2


def test_construction_errors():
    with pytest.raises(ValueError):
        make_field(2, 4)
    with pytest.raises(ValueError):
        make_field(4, 2)
    with pytest.raises(ValueError):
        make_field(9, 1)
    with pytest.raises(ValueError):
        make_field(3, 0)
    with pytest.raises(ValueError):
        make_field(3, 2, table_cap=8)
    with pytest.raises(ValueError, match="reducible"):
        make_field(3, 2, modulus=[1, 2, 1])  # (x+1)^2
    with pytest.raises(ValueError, match="not primitive"):
        make_field(3, 2, modulus=[1, 0, 1])  # irreducible, root of order 4
    with pytest.raises(ValueError, match="monic"):
        make_field(3, 2, modulus=[1, 1])


def test_reducible_modulus_with_factor_degrees_of_lcm_n():
    # (x+1)(x^2+1)(x^3+2x+1) over F_3: x^(3^k) != x for k < 6 while
    # x^(3^6) == x, so the Frobenius chain alone would call it irreducible
    with pytest.raises(ValueError, match="reducible"):
        make_field(3, 6, modulus=[1, 0, 0, 1, 0, 1, 1])


def test_supplied_primitive_modulus_accepted():
    ctx = make_field(3, 2, modulus=[2, 1, 1])
    assert ctx.primitive_element.order() == 8


def test_dropped_field_is_freed_without_the_cyclic_collector():
    # a field holds no reference back to itself, so the last reference going
    # away frees it and its tables at once, with the collector off
    import gc
    import weakref

    from gapn.constructions import p_to_one_condition, trinomial_condition
    from gapn.polynomials import SparsePoly, is_gapn
    from gapn.search import SearchJob, run_search

    was = gc.isenabled()
    gc.disable()
    try:
        ctx = make_field(5, 2)
        assert is_gapn(SparsePoly.monomial(ctx, 9)).is_gapn
        assert run_search(SearchJob(ctx, "binomial", limit=3))[0]
        assert p_to_one_condition(ctx, 1, [ctx.one, ctx.zero, ctx.zero, ctx.zero], ctx.one)
        assert not trinomial_condition(ctx, ctx.one, ctx.one)
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        if was:
            gc.enable()


def test_mixed_field_operations_rejected():
    a = make_field(3, 2)
    b = make_field(5, 2)
    with pytest.raises(ValueError):
        a.one + b.one
    with pytest.raises(TypeError):
        a.one + 1


def test_inverse_of_zero_rejected():
    ctx = make_field(3, 2)
    with pytest.raises(ValueError):
        ctx.zero.inv()


def test_field_json_roundtrip():
    from gapn.fields import field_from_json

    ctx = make_field(7, 2)
    clone = field_from_json(ctx.to_json())
    assert clone.key == ctx.key
