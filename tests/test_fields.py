"""Field construction, log/antilog tables and element arithmetic."""

import random

import pytest

from gapn.fields import make_field

import oracle


def _assert_tables_cycle(ctx):
    # the walk 1, g, g^2, ... meets every nonzero code once and log inverts
    # it, so g has order q-1 in the tables themselves; powers such as
    # g ** (q-1) read only the log index and hold for any tables
    assert sorted(ctx.antilog) == list(range(1, ctx.q))
    assert all(ctx.log[ctx.antilog[k]] == k for k in range(ctx.q - 1))


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
    _assert_tables_cycle(ctx)


def test_f49_generator_has_full_order():
    ctx = make_field(7, 2)
    assert ctx.primitive_element.code == 7
    _assert_tables_cycle(ctx)


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


@pytest.mark.parametrize("p,n", [(7, 1), (5, 2), (3, 3), (3, 4)])
def test_addition_matches_oracle(p, n):
    ctx = make_field(p, n)
    tf = oracle.tuple_field_of(ctx)
    for x in ctx.elements():
        for y in ctx.elements():
            ref = tf.add(tuple(x.vector()), tuple(y.vector()))
            assert tuple((x + y).vector()) == ref
            assert ctx.add_code(x.code, y.code) == tf.to_code(ref)


def test_is_prime_matches_sieve():
    from gapn.fields import _is_prime

    top = 10 ** 4
    sieve = [False, False] + [True] * (top - 1)
    for m in range(2, int(top ** 0.5) + 1):
        if sieve[m]:
            sieve[m * m::m] = [False] * len(sieve[m * m::m])
    assert [m for m in range(-2, top + 1) if _is_prime(m)] == [m for m in range(top + 1) if sieve[m]]


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (7, 2), (11, 2)])
def test_unit_group_order(p, n):
    _assert_tables_cycle(make_field(p, n))


def test_frobenius_is_additive_multiplicative_and_fixes_subfield():
    ctx = make_field(3, 2)
    elems = list(ctx.elements())
    for x in elems:
        assert (x ** 3) ** 3 == x
        for y in elems:
            assert (x + y) ** 3 == x ** 3 + y ** 3
            assert (x * y) ** 3 == x ** 3 * y ** 3
    for k in range(3):
        c = ctx.scalar(k)
        assert c ** 3 == c


def test_trace_properties():
    # the trace y + y^p of GF(p^2) lies in the prime subfield, and is 2k on
    # the scalar k
    for p in (3, 5, 7):
        ctx = make_field(p, 2)
        scalars = {ctx.scalar(k) for k in range(p)}
        for y in ctx.elements():
            t = y + y ** p
            assert t ** p == t
            assert t in scalars
        for k in range(p):
            assert ctx.scalar(k) + ctx.scalar(k) ** p == ctx.scalar(2 * k)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_nth_power_matches_brute_force_power_sets(p, n):
    # y ** N is z^N walked by the oracle's schoolbook powering, so the
    # N-th power sets are the oracle's
    ctx = make_field(p, n)
    tf = oracle.tuple_field_of(ctx)
    for n_th in range(1, ctx.q):
        for y in ctx.units():
            assert (y ** n_th).code == tf.to_code(tf.pow(tf.from_code(y.code), n_th)), (n_th, y)


def _assert_oracle_walk(tf, antilog, log):
    # antilog[k] is the code of x^k, walked by the oracle's schoolbook
    # multiplication, and log inverts antilog
    x = tf.from_code(tf.p) if tf.n > 1 else tf.neg(tf.modulus[:1])
    cur = tf.one
    for k in range(tf.q - 1):
        assert antilog[k] == tf.to_code(cur), f"x^{k} modulo {list(tf.modulus)}"
        cur = tf.mul(cur, x)
    assert cur == tf.one
    assert len(log) == tf.q and log[0] == -1
    assert [log[c] for c in antilog] == list(range(tf.q - 1))


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
                                 (7, 2), (11, 2), (3, 5), (3, 6), (5, 4), (7, 3), (13, 2)])
def test_order_screen_agrees_with_table_build(p, n):
    # the fast primitivity screen must accept exactly the moduli whose
    # full table construction succeeds, over every monic candidate; the
    # constant-term prefilter must never reject a buildable modulus, and
    # every table built must be the oracle's walk of x
    from itertools import product as iproduct

    from gapn.fields import _build_tables, _norm_constant_terms, _order_screen, _prime_factors

    factors = _prime_factors(p ** n - 1)
    norm_ok = _norm_constant_terms(p, n)
    for tail in iproduct(range(p), repeat=n):
        screened = _order_screen(p, n, list(tail), factors)
        tables = _build_tables(p, n, list(tail))
        assert screened == (tables is not None), f"disagreement at modulus {list(tail) + [1]}"
        if tables is not None:
            assert tail[0] in norm_ok
            _assert_oracle_walk(oracle.TupleField(p, n, list(tail) + [1]), *tables)


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
    ctx = make_field(p, n, modulus=modulus)
    _assert_oracle_walk(oracle.tuple_field_of(ctx), ctx.antilog, ctx.log)


def test_higher_extension_degree_construction():
    ctx = make_field(3, 10)  # q = 59049, still desk scale
    _assert_tables_cycle(ctx)
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
    _assert_tables_cycle(ctx)


@pytest.mark.parametrize("modulus", [[2.7, 1.2, 1], [2, 1, 1.0], ["2", 1, 1]])
def test_modulus_entries_must_be_integers(modulus):
    # no entry may be truncated: [2.7, 1.2, 1] would become the primitive [2, 1, 1]
    with pytest.raises(TypeError):
        make_field(3, 2, modulus=modulus)


@pytest.mark.parametrize("e", [2.0, 2.5, "2"])
def test_powers_must_be_integers(e):
    # a float exponent would become the element's log and fail only at its
    # next table read
    g = make_field(3, 2).primitive_element
    with pytest.raises(TypeError):
        g ** e


@pytest.mark.parametrize("coeffs", [[2.7, 1], [2, 1.0], ["3", 1]])
def test_element_coefficients_must_be_integers(coeffs):
    # a float would be truncated and a string parsed, so neither is read
    with pytest.raises(TypeError):
        make_field(3, 2).element(coeffs)


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
    # at every entry point a non-element raises TypeError, and an element of
    # GF(49) built with another primitive modulus raises ValueError
    from gapn.constructions import p_to_one_condition, trinomial_condition
    from gapn.polynomials import SparsePoly, derivative

    ctx = make_field(7, 2)
    other = make_field(7, 2, modulus=[3, 2, 1])
    assert ctx.modulus != other.modulus
    x = ctx.primitive_element
    f = SparsePoly.monomial(ctx, 13)
    coeffs = [ctx.one] * 6
    entry_points = [
        lambda y: x + y,
        lambda y: x - y,
        lambda y: x * y,
        lambda y: x / y,
        lambda y: SparsePoly(ctx, [(13, y)]),
        lambda y: f.evaluate(y),
        lambda y: derivative(f, y),
        lambda y: p_to_one_condition(ctx, 1, coeffs, y),
        lambda y: p_to_one_condition(ctx, 1, [y] + coeffs[1:], x),
        lambda y: trinomial_condition(ctx, y, x),
        lambda y: trinomial_condition(ctx, x, y),
    ]
    with pytest.raises(ValueError):
        x + make_field(5, 2).one  # another characteristic
    for call in entry_points:
        with pytest.raises(TypeError, match="expected a field element, got int"):
            call(1)
        with pytest.raises(ValueError, match="elements from different fields cannot be combined"):
            call(other.primitive_element)


def test_fields_compare_and_hash_by_their_key():
    ctx, twin = make_field(3, 2), make_field(3, 2)
    assert ctx is not twin and ctx == twin and hash(ctx) == hash(twin)
    other = make_field(3, 2, modulus=[2, 2, 1])
    assert tuple(ctx.modulus) == (2, 1, 1) and other != ctx
    assert (ctx == "GF(9)") is False and ctx != "GF(9)"
    by_field = {ctx: "default", other: "supplied"}
    assert len(by_field) == 2 and by_field[twin] == "default"


def test_elements_are_false_only_at_zero_and_unequal_to_ints():
    ctx = make_field(3, 2)
    assert bool(ctx.zero) is False and bool(ctx.one) is True
    assert all(ctx.units())
    # __eq__ returns NotImplemented for a non-element, and 1 is not one
    assert (ctx.one == 1) is False and ctx.one != 1


def test_inverse_of_zero_rejected():
    ctx = make_field(3, 2)
    with pytest.raises(ValueError):
        ctx.zero.inv()
    for code in (-1, ctx.q):
        with pytest.raises(ValueError, match=r"element code out of range 0\.\.8"):
            ctx.from_code(code)


def test_field_json_roundtrip():
    from gapn.fields import field_from_json

    ctx = make_field(7, 2)
    clone = field_from_json(ctx.to_json())
    assert clone.key == ctx.key
