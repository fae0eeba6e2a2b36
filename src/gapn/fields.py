"""Exact arithmetic in GF(p^n) for odd primes p.

A FieldCtx is an immutable description of one field: the modulus polynomial,
the log/antilog tables and the canonical generator g (the residue class of
x).  Construction is deterministic: when no modulus is supplied, the
lexicographically smallest primitive monic polynomial (coefficient vectors
compared constant term first) is selected, so the same (p, n) always yields
identical tables and g = x.

Elements are identified by an integer "code" in 0..q-1 whose base-p digits
are the coefficients in the basis {1, x, ..., x^(n-1)}, constant term first.
Nonzero elements are carried as discrete-log indices, which turns
multiplication into index addition and powering by huge exponents into a
single modular multiply; addition drops down to coefficient vectors.

The tables come from one walk: multiplying by x is F_p-linear, so the
table of x*v over all q codes is built from whole-list operations (p
blocks, each one list comprehension per digit over a rotated digit
column, digit 1 of x*v varying fastest), and antilog is the walk 1, x,
x^2, ... through it.  The walk certifies itself: x has order q-1 when it
is back at 1 after q-1 steps but not after (q-1)/r steps for any prime
r | q-1, which antilog records.
"""

from itertools import product
from operator import index

DEFAULT_TABLE_CAP = 1 << 22

_ZERO_IDX = -1


def _is_prime(m: int) -> bool:
    return _prime_factors(m) == [m]


def check_element(ctx: "FieldCtx", x) -> None:
    """Raise TypeError unless x is a field element, ValueError unless one of
    ctx; compares field keys, so no element of ctx is built."""
    if not isinstance(x, FieldElem):
        raise TypeError(f"expected a field element, got {type(x).__name__}")
    if x.ctx is not ctx and x.ctx.key != ctx.key:
        raise ValueError("elements from different fields cannot be combined")


class Record:
    """Base of the package's result records, in place of dataclasses, whose
    import (inspect, ast, dis, tokenize behind it) every command would pay
    at start-up.  A subclass lists its fields in __match_args__; == compares
    them, same class only, repr shows them, and instances are unhashable,
    as for a @dataclass."""

    __slots__ = ()
    __match_args__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


class FieldElem:
    """One element of a specific FieldCtx.

    Stored as the discrete-log index of the element (-1 for zero);
    elements from different fields never combine.
    """

    __slots__ = ("ctx", "idx")

    def __init__(self, ctx: "FieldCtx", idx: int):
        self.ctx = ctx
        self.idx = idx

    @property
    def code(self) -> int:
        return 0 if self.idx == _ZERO_IDX else self.ctx.antilog[self.idx]

    def vector(self) -> tuple[int, ...]:
        """Coefficient vector over F_p, constant term first."""
        return self.ctx.code_to_vector(self.code)

    def is_zero(self) -> bool:
        return self.idx == _ZERO_IDX

    def __add__(self, other: "FieldElem") -> "FieldElem":
        check_element(self.ctx, other)
        return self.ctx.from_code(self.ctx.add_code(self.code, other.code))

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        check_element(self.ctx, other)
        return self + (-other)

    def __neg__(self) -> "FieldElem":
        if self.idx == _ZERO_IDX:
            return self
        m = self.ctx.q - 1
        return FieldElem(self.ctx, (self.idx + m // 2) % m)

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        check_element(self.ctx, other)
        if self.idx == _ZERO_IDX or other.idx == _ZERO_IDX:
            return self.ctx.zero
        return FieldElem(self.ctx, (self.idx + other.idx) % (self.ctx.q - 1))

    def inv(self) -> "FieldElem":
        if self.idx == _ZERO_IDX:
            raise ValueError("zero has no multiplicative inverse")
        return FieldElem(self.ctx, (-self.idx) % (self.ctx.q - 1))

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        check_element(self.ctx, other)
        return self * other.inv()

    def __pow__(self, e: int) -> "FieldElem":
        """y**e for any integer e, with 0**0 = 1 and 0**e = 0 for e > 0; e is
        read through operator.index, so a float raises TypeError."""
        e = index(e)
        if self.idx == _ZERO_IDX:
            if e == 0:
                return self.ctx.one
            if e > 0:
                return self
            raise ValueError("zero cannot be raised to a negative power")
        return FieldElem(self.ctx, (self.idx * e) % (self.ctx.q - 1))

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.idx == other.idx and self.ctx.key == other.ctx.key

    def __hash__(self):
        return hash((self.ctx.key, self.idx))

    def __bool__(self):
        return self.idx != _ZERO_IDX

    def __repr__(self):
        return f"F{self.ctx.q}{list(self.vector())}"


class FieldCtx:
    """Immutable context for GF(p^n): modulus, tables, canonical generator.

    Every operation is a pure function of its inputs.  Do not instantiate
    directly, use make_field.
    """

    def __init__(self, p, n, modulus, antilog, log):
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = tuple(modulus)
        self.antilog = antilog
        self.log = log
        self.key = (p, n, self.modulus)

    # built on each read: an element kept on the field would put every
    # field in a reference cycle, freed only by the cyclic collector
    @property
    def zero(self) -> FieldElem:
        return FieldElem(self, _ZERO_IDX)

    @property
    def one(self) -> FieldElem:
        return FieldElem(self, 0)

    @property
    def primitive_element(self) -> FieldElem:
        return FieldElem(self, 1)

    def code_to_vector(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    def vector_to_code(self, coeffs) -> int:
        """The code of the element with these coefficients, constant term
        first, each an integer reduced mod p (operator.index, so floats and
        strings raise TypeError)."""
        coeffs = list(map(index, coeffs))
        if len(coeffs) > self.n:
            raise ValueError(f"coefficient vector longer than extension degree {self.n}")
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c % self.p
        return code

    def add_code(self, c1: int, c2: int) -> int:
        """Field addition on element codes (digit-wise mod p)."""
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.n):
            out += ((c1 + c2) % p) * mult
            c1 //= p
            c2 //= p
            mult *= p
        return out

    # --- element factories ---

    def from_code(self, code: int) -> FieldElem:
        if not 0 <= code < self.q:
            raise ValueError(f"element code out of range 0..{self.q - 1}")
        return FieldElem(self, self.log[code])

    def element(self, coeffs) -> FieldElem:
        return self.from_code(self.vector_to_code(coeffs))

    def scalar(self, k: int) -> FieldElem:
        """Embed an integer into the prime subfield."""
        return self.from_code(k % self.p)

    def elements(self):
        """All q elements, by ascending code."""
        return (self.from_code(c) for c in range(self.q))

    def units(self):
        """All nonzero elements, by ascending discrete-log index."""
        return (FieldElem(self, i) for i in range(self.q - 1))

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "modulus": list(self.modulus)}

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, n={self.n}, modulus={list(self.modulus)})"


def _build_tables(p: int, n: int, lower: list[int]):
    """Fill antilog/log for x modulo the monic polynomial with the given
    lower coefficients; returns None unless x has full order q-1 (which
    certifies the modulus both irreducible and primitive).

    Multiplying by x is F_p-linear: for v = low + t*p^(n-1), x*v has digit 0
    equal to t*(-c_0) and digit i equal to low_(i-1) + t*(-c_i), so the
    times-x table over all q codes is p blocks.  Block t adds digits 1 to
    n-1 to digit 0, one list comprehension per digit over its rotated
    column: digit 1 (low_0) varies fastest, so it is a single loop over the
    column, and each higher digit takes the outer loop, leaving the long
    inner loop to the block built so far.
    antilog is the walk 1, x, x^2, ... through that table.  A walk that
    ends at 1 makes x a unit with x^(q-1) = 1; x then has order q-1 exactly
    when x^((q-1)/r) = antilog[(q-1)/r] != 1 for every prime r | q-1, and
    then the q-1 walked codes are distinct and nonzero."""
    q = p ** n
    mneg = [(-c) % p for c in lower]
    # base[i][d] = d*p^i; rotating it by s gives digit i = (d + s) % p
    base = [[d * p ** i for d in range(p)] for i in range(n)]
    times_x = []
    for t in range(p):
        # block t: the codes of x*v for v = low + t*p^(n-1), low ascending
        d0 = t * mneg[0] % p
        block = [d0]
        for i in range(1, n):
            s = t * mneg[i] % p
            col = base[i][s:] + base[i][:s]
            # digit i varies slower than the digits below it
            block = [d0 + c for c in col] if i == 1 else [x + c for c in col for x in block]
        times_x += block
    antilog = [0] * (q - 1)
    log = [_ZERO_IDX] * q
    v = 1
    for k in range(q - 1):
        antilog[k] = v
        log[v] = k
        v = times_x[v]
    if v != 1 or any(antilog[(q - 1) // r] == 1 for r in _prime_factors(q - 1)):
        return None
    return antilog, log


def _prime_factors(m: int) -> list[int]:
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


def _poly_mulmod(p: int, n: int, mneg, s, t):
    # product of two residues mod the monic modulus; mneg holds -lower mod p
    prod = [0] * (2 * n - 1)
    for i, a in enumerate(s):
        if a:
            for j, b in enumerate(t):
                prod[i + j] = (prod[i + j] + a * b) % p
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(n):
                prod[i - n + j] = (prod[i - n + j] + c * mneg[j]) % p
    return prod[:n]


def _poly_pow(p: int, n: int, mneg, base, e: int):
    acc = [1] + [0] * (n - 1)
    while e:
        if e & 1:
            acc = _poly_mulmod(p, n, mneg, acc, base)
        base = _poly_mulmod(p, n, mneg, base, base)
        e >>= 1
    return acc


def _norm_constant_terms(p: int, n: int) -> set[int]:
    """Constant terms a primitive degree-n modulus can have: (-1)^n * c0 is
    the norm of the root, which must generate F_p*."""
    fac = _prime_factors(p - 1)
    sign = 1 if n % 2 == 0 else -1
    out = set()
    for c0 in range(1, p):
        val = (sign * c0) % p
        if all(pow(val, (p - 1) // r, p) != 1 for r in fac):
            out.add(c0)
    return out


def _is_irreducible(p: int, n: int, lower) -> bool:
    """Rabin's test for the monic modulus m with the given lower
    coefficients, by walking the Frobenius chain x -> x^p.  m is irreducible
    iff x^(p^n) == x and x^(p^(n/r)) - x is a unit mod m for every prime
    r | n.  Once x^(p^n) == x, every factor of m has degree dividing n, so u
    is a unit iff u^(p^n - 1) == 1."""
    q = p ** n
    mneg = [(-c) % p for c in lower]
    x = [0, 1] + [0] * (n - 2) if n > 1 else [mneg[0] % p]
    chain = [x]  # chain[k] = x^(p^k)
    for _ in range(1, n):
        chain.append(_poly_pow(p, n, mneg, chain[-1], p))
        if chain[-1] == x:
            return False  # every factor degree divides k < n
    if _poly_pow(p, n, mneg, chain[-1], p) != x:
        return False  # some factor degree does not divide n
    one = [1] + [0] * (n - 1)
    for r in _prime_factors(n):
        u = [(a - b) % p for a, b in zip(chain[n // r], x)]
        if _poly_pow(p, n, mneg, u, q - 1) != one:
            return False  # some factor degree divides n/r
    return True


def _order_screen(p: int, n: int, lower, factors) -> bool:
    """Exact primitivity test for the monic modulus m with the given lower
    coefficients: x^(q-1) == 1 and x^((q-1)/r) != 1 for every prime r | q-1.
    Then x has q-1 distinct unit powers mod m, so every nonzero residue is a
    unit and F_p[x]/(m) is a field generated by x.  A zero constant term
    makes x a zero divisor, so x^(q-1) != 1."""
    q = p ** n
    mneg = [(-c) % p for c in lower]
    x = [0, 1] + [0] * (n - 2) if n > 1 else [mneg[0] % p]
    one = [1] + [0] * (n - 1)
    return _poly_pow(p, n, mneg, x, q - 1) == one and all(
        _poly_pow(p, n, mneg, x, (q - 1) // r) != one for r in factors)


def field_order(p: int, n: int, table_cap: int = DEFAULT_TABLE_CAP) -> int:
    """q = p^n when make_field accepts p, n and table_cap; otherwise raises
    make_field's ValueError.  Builds nothing."""
    if n < 1:
        raise ValueError("extension degree must be at least 1")
    # the cap goes first: p ** n and the prime test run for minutes on huge p or n
    if p > 2 and (p > table_cap or n > table_cap.bit_length() or (q := p ** n) > table_cap):
        raise ValueError(f"field size {p}^{n} exceeds the table cap {table_cap}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p == 2:
        raise ValueError("characteristic 2 is not supported")
    return q


def make_field(p: int, n: int, modulus=None, table_cap: int = DEFAULT_TABLE_CAP) -> FieldCtx:
    """Build GF(p^n) for an odd prime p.

    With no modulus, scans monic degree-n polynomials in lexicographic order
    (constant term first) and takes the first primitive one, so x itself is
    the returned primitive element.  A supplied modulus must be monic of
    degree n and primitive, otherwise ValueError is raised; an entry that
    is not an integer raises TypeError.
    """
    q = field_order(p, n, table_cap)

    if modulus is not None:
        m = [index(c) % p for c in modulus]
        if len(m) != n + 1 or m[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {n}")
        tables = _build_tables(p, n, m[:-1])
        if tables is None:
            if not _is_irreducible(p, n, m[:-1]):
                raise ValueError("supplied modulus is reducible over F_p")
            raise ValueError("supplied modulus is irreducible but not primitive")
        return FieldCtx(p, n, m, *tables)

    factors = _prime_factors(q - 1)
    norm_ok = _norm_constant_terms(p, n)
    for tail in product(range(p), repeat=n):
        if tail[0] not in norm_ok:
            continue  # constant term cannot be the norm of a generator
        if not _order_screen(p, n, tail, factors):
            continue
        tables = _build_tables(p, n, list(tail))
        if tables is None:
            raise RuntimeError("order screen and table build disagree")  # unreachable
        return FieldCtx(p, n, list(tail) + [1], *tables)
    raise RuntimeError(f"no primitive polynomial of degree {n} over F_{p}")  # unreachable


def json_int(value, what: str) -> int:
    """value itself if it is an integer; floats, strings and bools from a
    JSON document raise ValueError instead of being coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_int_list(value, what: str) -> list[int]:
    """value if it is a list of integers, in the sense of json_int."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return [json_int(v, what) for v in value]


def field_from_json(obj: dict, table_cap: int = DEFAULT_TABLE_CAP) -> FieldCtx:
    """Parse a field description {"p": int, "n": int, "modulus": [int,...]};
    the modulus is optional.  Non-integer values raise ValueError."""
    p = json_int(obj["p"], "p")
    n = json_int(obj["n"], "n")
    modulus = obj.get("modulus")
    if modulus is not None:
        modulus = json_int_list(modulus, "modulus")
    return make_field(p, n, modulus=modulus, table_cap=table_cap)
