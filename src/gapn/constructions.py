"""Closed-form GAPN criteria and the binomial/trinomial builders.

Monomial criteria cover exponents of the form k*p^r1 + l*p^r2.  Binomials
X^d1 + u*X^d2 with a GAPN first term are certified through conditions on u
and d2 - d1; three explicit families realize every odd algebraic degree in
[p, 2(p-1)] and, for non-Mersenne p, every even degree as well.  Trinomials
u*X^(2p-1) + v*X^(3p-2) + X^(h(p+1)) close the even-degree gap for the
remaining primes, subject to a root-freeness condition on the subgroup of
(p-1)-th powers.

Each family has one builder (the binomials share one recipe, _binomial),
and `gapn construct` reads FAMILIES alone: each family name, its builder
and every option the builder reads.
"""

import math

from .fields import _ZERO_IDX, FieldCtx, FieldElem, Record, check_element, make_field
from .polynomials import SparsePoly, _kernel


class ConstructionRecipe(Record):
    """A built GAPN function together with the parameters that produced it."""

    __slots__ = __match_args__ = ("family", "p", "params", "result", "claimed_degree")

    def __init__(self, family: str, p: int, params: dict, result: SparsePoly, claimed_degree: int):
        self.family = family  # a key of FAMILIES
        self.p = p
        self.params = params
        self.result = result
        self.claimed_degree = claimed_degree
        actual = self.result.algebraic_degree()
        if actual != self.claimed_degree:
            raise AssertionError(
                f"claimed degree {self.claimed_degree} but built degree {actual}"
            )
        if not self.p <= self.claimed_degree <= 2 * (self.p - 1):
            raise AssertionError("degree outside [p, 2(p-1)]")

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "p": self.p,
            "params": self.params,
            "degree": self.claimed_degree,
        }


def _digit_args(p: int, n: int, k: int, l: int, r1: int, r2: int) -> None:
    if not (0 <= k <= p - 1 and 0 <= l <= p - 1):
        raise ValueError(f"digits k, l must lie in 0..{p - 1}")
    if not (0 <= r1 < n and 0 <= r2 < n and r1 != r2):
        raise ValueError(f"powers r1, r2 must be distinct and lie in 0..{n - 1}")
    if not p <= k + l < 2 * (p - 1):
        raise ValueError(f"k + l must lie in {p}..{2 * (p - 1) - 1}")


def monomial_gapn_sufficient(p: int, n: int, k: int, l: int, r1: int, r2: int) -> bool:
    """Sufficient criterion for X^(k*p^r1 + l*p^r2) to be GAPN over GF(p^n)."""
    _digit_args(p, n, k, l, r1, r2)
    return math.gcd(r1 - r2, n) == 1 and math.gcd(k + l - (p - 1), p ** n - 1) == 1


def monomial_gapn_necessary(p: int, n: int, k: int, l: int, r1: int, r2: int) -> bool:
    """Necessary criterion for the same monomials: a False return proves the
    monomial is not GAPN; a True return decides nothing on its own."""
    _digit_args(p, n, k, l, r1, r2)
    if math.gcd(r1 - r2, n) != 1:
        return False
    for n1 in range(1, n):
        if n % n1 == 0 and math.gcd(k + l - (p - 1), p ** n1 - 1) != 1:
            return False
    return True


def _check_quadratic(ctx: FieldCtx, subject: str) -> None:
    if ctx.n != 2:
        raise ValueError(f"{subject} is specific to quadratic extensions")


def binomial_reduction_vanishes(ctx: FieldCtx, d1: int, d2: int, u: FieldElem, a: FieldElem) -> bool:
    """Whether the multiplier that reduces the derivative of X^d1 + u*X^d2 to
    the derivative of X^d1 degenerates at direction a, i.e. whether
    (-1)^(d2+1) * (u * a^(d2-d1))^(p-1) == 1."""
    _check_quadratic(ctx, "reduction test")
    if u.is_zero() or a.is_zero():
        raise ValueError("u and a must be nonzero")
    val = (u * a ** (d2 - d1)) ** (ctx.p - 1)
    if (d2 + 1) % 2 == 1:
        val = -val
    return val == ctx.one


def binomial_gapn_sufficient(ctx: FieldCtx, d1: int, d2: int, u: FieldElem) -> bool:
    """Sufficient condition for X^d1 + u*X^d2 over GF(p^2) to be GAPN, given
    a GAPN X^d1 (the caller's obligation): either d2 is odd and u is a
    non-square, or d2 is even and some odd N >= 3 divides both p+1 and
    d2 - d1 with u not an N-th power.

    With u = g^j: u is a square iff j is even, and for N | p+1 | q-1 an
    N-th power iff N | j.  An odd N >= 3 dividing G = gcd(p+1, d2-d1) with
    N not dividing j exists iff the odd part of G does not divide j."""
    _check_quadratic(ctx, "binomial criterion")
    if u.is_zero():
        raise ValueError("u must be nonzero")
    if d2 % 2 == 1:
        return u.idx % 2 == 1
    g = math.gcd(ctx.p + 1, d2 - d1)
    return u.idx % (g // (g & -g)) != 0  # odd_part(g), inlined: bench/spans.py counts each call


def odd_part(m: int) -> int:
    """Largest odd divisor; m & -m is the largest power of 2 dividing m."""
    if m < 1:
        raise ValueError("argument must be a positive integer")
    return m // (m & -m)


def is_mersenne(p: int) -> bool:
    """Whether p+1 is a power of two."""
    return odd_part(p + 1) == 1


def _quadratic_ctx(p: int, ctx: FieldCtx | None) -> FieldCtx:
    if ctx is None:
        return make_field(p, 2)
    if ctx.p != p or ctx.n != 2:
        raise ValueError(f"context is not GF({p}^2)")
    return ctx


def _binomial(ctx: FieldCtx, family: str, d1: int, d2: int, params: dict, degree: int) -> ConstructionRecipe:
    """The recipe of X^d1 + g*X^d2 with g the primitive element of ctx;
    its params are the given ones followed by "u", g's vector."""
    g = ctx.primitive_element
    result = SparsePoly(ctx, [(d1, ctx.one), (d2, g)])
    return ConstructionRecipe(family, ctx.p, {**params, "u": list(g.vector())}, result, degree)


def build_odd_binomial(p: int, k: int, l: int, ctx: FieldCtx | None = None) -> ConstructionRecipe:
    """X^(2p-1) + g*X^(kp+l) with k+l odd: GAPN of degree max(p, k+l)."""
    ctx = _quadratic_ctx(p, ctx)
    if not (0 <= k <= p - 1 and 0 <= l <= p - 1):
        raise ValueError(f"digits k, l must lie in 0..{p - 1}")
    if (k + l) % 2 == 0:
        raise ValueError("k + l must be odd")
    return _binomial(ctx, "odd-binomial", 2 * p - 1, k * p + l, {"k": k, "l": l}, max(p, k + l))


def build_mod3_binomial(p: int, h: int, ctx: FieldCtx | None = None) -> ConstructionRecipe:
    """X^(2p-1) + g*X^(h(p+1)) for p = 2 mod 3: GAPN of degree max(p, 2h)."""
    if p % 3 != 2:
        raise ValueError(f"p must be 2 mod 3, got {p}")
    ctx = _quadratic_ctx(p, ctx)
    if not 1 <= h <= p - 1:
        raise ValueError(f"h must lie in 1..{p - 1}")
    return _binomial(ctx, "mod3-binomial", 2 * p - 1, h * (p + 1), {"h": h}, max(p, 2 * h))


def build_even_binomial(p: int, h: int, ctx: FieldCtx | None = None) -> ConstructionRecipe:
    """X^((p^2+p-N(p-1))/2) + g*X^(h(p+1)) with N the odd part of p+1:
    GAPN of degree max(p, 2h) whenever p is not Mersenne."""
    n_odd = odd_part(p + 1)
    if n_odd == 1:
        raise ValueError(f"p = {p} is a Mersenne prime, no even-degree binomial here")
    ctx = _quadratic_ctx(p, ctx)
    if not 1 <= h <= p - 1:
        raise ValueError(f"h must lie in 1..{p - 1}")
    k1 = (p - n_odd) // 2
    l1 = (p + n_odd) // 2
    d1 = k1 * p + l1
    d2 = h * (p + 1)
    # the two facts the certificate rests on
    assert k1 + l1 - (p - 1) == 1
    assert (d2 - d1) % n_odd == 0
    params = {"h": h, "N": n_odd, "k1": k1, "l1": l1}
    return _binomial(ctx, "even-binomial", d1, d2, params, max(p, 2 * h))


def p_to_one_condition(ctx: FieldCtx, s: int, coeffs, a: FieldElem) -> bool:
    """Closed-form test that the derivative at direction a of
    sum_{i=s}^{p-1} c_i X^(i*p + (p-1+s-i)) over GF(p^2) is p-to-1:
    sum_{i=0}^{p-1-s} c_{i+s} * C(p-1-s, i) * (-a^(p-1))^i != 0.

    coeffs lists c_s..c_{p-1}; zero entries are allowed.  The sum is
    evaluated in the log domain: each nonzero term is one antilog lookup at
    log C(p-1-s, i) + log c_{i+s} + i * log(-a^(p-1)), and the terms' two
    base-p digits are summed apart and reduced mod p once.
    """
    _check_quadratic(ctx, "condition")
    p = ctx.p
    if not 1 <= s <= p - 2:
        raise ValueError(f"s must lie in 1..{p - 2}")
    if math.gcd(s, ctx.q - 1) != 1:
        raise ValueError(f"s must be coprime to {ctx.q - 1}")
    check_element(ctx, a)
    if a.is_zero():
        raise ValueError("direction a must be nonzero")
    coeffs = list(coeffs)
    if len(coeffs) != p - s:
        raise ValueError(f"expected {p - s} coefficients c_{s}..c_{p - 1}")
    m = ctx.q - 1
    step = (a.idx * (p - 1) + m // 2) % m  # log of -a^(p-1)
    log, antilog = ctx.log, ctx.antilog
    low = high = 0
    for i, c in enumerate(coeffs):
        check_element(ctx, c)
        # C(p-1-s, i) is a unit mod p since p-1-s < p
        if c.idx != _ZERO_IDX:
            code = antilog[(log[math.comb(p - 1 - s, i) % p] + c.idx + i * step) % m]
            low += code % p
            high += code // p
    return low % p != 0 or high % p != 0


def trinomial_condition(ctx: FieldCtx, u: FieldElem, v: FieldElem) -> bool:
    """Whether 2v*A^5 + u*A^4 + u^p*A + 2v^p is nonzero on the whole
    subgroup of (p-1)-th powers (the p+1 solutions of A^(p+1) = 1).

    The sum is evaluated in the log domain: for A = g^j, j = 0, p-1,
    2(p-1), ..., each term is one antilog lookup, at log 2v + 5j, log u + 4j,
    p*log u + j and p*log 2v (2v^p = (2v)^p), and the sum is zero when both
    base-p digit sums of the four codes are 0 mod p.
    """
    _check_quadratic(ctx, "trinomial condition")
    check_element(ctx, u)
    check_element(ctx, v)
    if u.is_zero() or v.is_zero():
        raise ValueError("u and v must be nonzero")
    p, m = ctx.p, ctx.q - 1
    antilog = ctx.antilog
    log_2v = ctx.log[2] + v.idx
    log_up = u.idx * p
    high_2vp, low_2vp = divmod(antilog[log_2v * p % m], p)
    for j in range(0, m, p - 1):
        x = antilog[(log_2v + 5 * j) % m]
        y = antilog[(u.idx + 4 * j) % m]
        z = antilog[(log_up + j) % m]
        if ((x % p + y % p + z % p + low_2vp) % p == 0
                and (x // p + y // p + z // p + high_2vp) % p == 0):
            return False
    return True


def find_trinomial_u(ctx: FieldCtx, v: FieldElem | None = None) -> FieldElem:
    """First u (ascending discrete-log index) passing trinomial_condition
    with v = 1/2 by default; requires p > 3."""
    _check_quadratic(ctx, "trinomial search")
    if ctx.p <= 3:
        raise ValueError("the trinomial coefficient search requires p > 3")
    if v is None:
        v = ctx.scalar(2).inv()
    for u in ctx.units():
        if trinomial_condition(ctx, u, v):
            return u
    raise RuntimeError("no admissible trinomial coefficient u exists in this field")


def build_trinomial(
    p: int,
    h: int,
    u: FieldElem | None = None,
    v: FieldElem | None = None,
    ctx: FieldCtx | None = None,
) -> ConstructionRecipe:
    """u*X^(2p-1) + v*X^(3p-2) + X^(h(p+1)): GAPN of degree max(p, 2h),
    provided (u, v) passes trinomial_condition.  Omitted coefficients
    default to v = 1/2 and the first admissible u."""
    ctx = _quadratic_ctx(p, ctx)
    if not 0 <= h <= p - 1:
        raise ValueError(f"h must lie in 0..{p - 1}")
    if v is None:
        v = ctx.scalar(2).inv()
    if u is None:
        u = find_trinomial_u(ctx, v)
    elif not trinomial_condition(ctx, u, v):
        raise ValueError("coefficients (u, v) fail the trinomial condition")
    result = SparsePoly(ctx, [(2 * p - 1, u), (3 * p - 2, v), (h * (p + 1), ctx.one)])
    return ConstructionRecipe(
        "trinomial",
        p,
        {"h": h, "u": list(u.vector()), "v": list(v.vector())},
        result,
        max(p, 2 * h),
    )


# family name -> (builder, the integer options `gapn construct` requires, the
# coefficient options it may give), passed by name; it refuses every other
FAMILIES = {
    "odd-binomial": (build_odd_binomial, ("k", "l"), ()),
    "mod3-binomial": (build_mod3_binomial, ("h",), ()),
    "even-binomial": (build_even_binomial, ("h",), ()),
    "trinomial": (build_trinomial, ("h",), ("u", "v")),
}


def derivative_conjugate_premise(f: SparsePoly, r: int) -> FieldElem | None:
    """The constant c with D(x)^(p^r) == c*D(x) for all x, where D = D_1 f,
    whose values are the block codes of the line kernel's line 0; None if no
    such constant exists.  A zero D returns c = 0; else c exists when
    g^(l*(p^r-1)) = (g^l)^(p^r) / g^l is one value over D's nonzero g^l.

    For n > 2, any f admitting such a constant cannot be GAPN.
    """
    ctx = f.field
    if not 1 <= r <= ctx.n - 1:
        raise ValueError(f"r must lie in 1..{ctx.n - 1}")
    shift = ctx.p ** r - 1
    line, _ = _kernel(ctx).reader([(c.idx, d) for d, c in f.terms])
    ratios = {ctx.log[y] * shift % (ctx.q - 1) for y in set(line(0)) if y}
    if len(ratios) > 1:
        return None
    return FieldElem(ctx, ratios.pop()) if ratios else ctx.zero


def verify_power_identity(ctx: FieldCtx, d: int) -> bool:
    """Check that over GF(p^2) the derivative of X^d at direction 1
    satisfies D(x)^p == (-1)^d * D(x) for every x: the r = 1 constant of
    derivative_conjugate_premise is (-1)^d, or 0 for a zero derivative."""
    _check_quadratic(ctx, "the power identity")
    if not 0 <= d <= ctx.q - 1:
        raise ValueError(f"exponent must lie in 0..{ctx.q - 1}")
    c = derivative_conjugate_premise(SparsePoly.monomial(ctx, d), 1)
    return c is not None and (c.is_zero() or c == (-ctx.one if d % 2 else ctx.one))
