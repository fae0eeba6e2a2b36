"""Sparse polynomial functions on a field and their GAPN analysis.

A SparsePoly represents a function GF(p^n) -> GF(p^n) by its nonzero terms,
with exponents in 0..q-1 kept as-is (X^(q-1) and X^0 differ at X = 0).  The
order-(p-1) discrete derivative in direction a is the map
D_a f : X -> sum over i in F_p of f(X + i*a).  It is constant on the cosets
of the line F_p*a, and every direction on one line gives the same map.  A
function is GAPN exactly when every such derivative at a != 0 is p-to-1.

Both derivative() and is_gapn() run on one line kernel, built on four facts:

- Direction scaling.  With f_a(y) = f(a*y), D_a f(x) = D_1 f_a(x/a), so
  D_a f has the fibers of D_1 f_a.  y + i changes only digit 0 of y's code,
  so D_1 f_a is constant on each block of p consecutive codes.
- Linearity over monomial blocks.  D_1 is GF(q)-linear and
  f_a = sum of (c*a^d) * X^d over f's terms c*X^d, so on each block
  D_1 f_a = sum of (c*a^d) * M_d, where M_d is D_1 X^d on the q/p blocks.
  M_d vanishes exactly when digit_sum(d) < p-1, so those terms are dropped.
  M_d(lambda*y) = lambda^d * M_d(y) for lambda in F_p*, so each M_d is
  summed only at block 0 and one block per F_p* orbit of blocks, and the
  other blocks shift their orbit's log by d*log(lambda): about
  q/(p-1) + q/p lookups, not 2q.  M_d is kept in log form (a bounded
  per-field cache), so scaling it by c*a^d is an index shift into one
  table.  A line costs T*q/p lookups for T surviving terms, and no
  q-entry table of f is built.
- Line classes.  Line t = log a of surviving terms c_i*X^(d_i) is
  g^(t*d_1) * sum of (c_i*g^(t*(d_i-d_1))) * M_(d_i), so its fibers depend
  on t mod m/G, m = q-1, G = gcd(m, d_i - d_1 over i), and t + m/(p-1) is
  line t: lines t = t' mod c = m/lcm(p-1, G) share fibers.  A check builds
  c lines: 1 for one term, 164 of 3280 for X^5 + X^45 over GF(3^8).
- Packed sums.  Values are stored digit-wise in bit fields of w bits, so
  up to capacity = (2^w-1)//(p-1) scaled values add as plain ints.
  Per-field tables of at most max(2q, 4096) entries map each packed sum
  back to an element code, as many digits per lookup as fit: fields up to
  GF(3^4), GF(5^2) and GF(7^2) need one lookup, and where not even two
  digits fit each digit is reduced with % p.  w is the widest width whose
  sums need as many lookups as at the narrowest, which holds a sum of p
  digits (31 values on GF(9), 15 on GF(25)).  Longer sums are reduced after
  every capacity-1 further terms.

The kernel takes f as (coefficient log, exponent) pairs; is_gapn turns a
scan into a GapnVerdict.  Lines are scanned in order of their smallest
direction code, which makes the witness the smallest failing direction
code, then the smallest image code with a fiber above p.
"""

import math
from collections import Counter
from functools import partial, reduce
from itertools import chain, compress, count, repeat
from operator import add, and_, floordiv, index, mod, mul, rshift, sub

from .fields import (
    DEFAULT_TABLE_CAP,
    FieldCtx,
    FieldElem,
    Record,
    check_element,
    field_from_json,
    json_int,
    json_int_list,
)


def digit_sum(p: int, u: int) -> int:
    """Sum of the base-p digits of a non-negative integer, read by operator.index."""
    u = index(u)
    if u < 0:
        raise ValueError("digit_sum is defined for non-negative integers")
    s = 0
    while u:
        u, r = divmod(u, p)
        s += r
    return s


def _digit_sums(p: int, n: int) -> list[int]:
    """The base-p digit sum, X^d's algebraic degree, of every d < p^n."""
    sums = [0]
    for _ in range(n):
        sums = [s + d for d in range(p) for s in sums]
    return sums


class SparsePoly:
    """Function GF(p^n) -> GF(p^n) as sorted (exponent, coefficient) terms.

    Duplicate exponents are merged and zero coefficients dropped on
    construction; exponents must be integers in 0..q-1.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: FieldCtx, terms):
        merged: dict[int, FieldElem] = {}
        for exp, coeff in terms:
            exp = index(exp)
            if not 0 <= exp <= field.q - 1:
                raise ValueError(f"exponent {exp} out of range 0..{field.q - 1}")
            check_element(field, coeff)
            prev = merged.get(exp)
            merged[exp] = coeff if prev is None else prev + coeff
        self.field = field
        self.terms = tuple(sorted((e, c) for e, c in merged.items() if not c.is_zero()))

    @classmethod
    def _from_sorted_terms(cls, field: FieldCtx, terms: tuple) -> "SparsePoly":
        """The SparsePoly whose terms tuple is terms, for callers that build
        it in canonical form: (exponent, nonzero coefficient of field)
        pairs, exponents distinct, ascending and in 0..q-1.  Nothing is
        checked or copied."""
        poly = cls.__new__(cls)
        poly.field = field
        poly.terms = terms
        return poly

    @classmethod
    def monomial(cls, field: FieldCtx, exp: int, coeff: FieldElem | None = None) -> "SparsePoly":
        return cls(field, [(exp, field.one if coeff is None else coeff)])

    def is_zero(self) -> bool:
        return not self.terms

    def algebraic_degree(self) -> int | None:
        """Max base-p digit sum over exponents; None for the zero function."""
        if not self.terms:
            return None
        p = self.field.p
        return max(digit_sum(p, e) for e, _ in self.terms)

    def evaluate(self, x: FieldElem) -> FieldElem:
        check_element(self.field, x)
        acc = self.field.zero
        for exp, coeff in self.terms:
            acc = acc + coeff * x ** exp
        return acc

    def value_table(self) -> list[int]:
        """Codes of F(x) for every x code 0..q-1."""
        return [self.evaluate(x).code for x in self.field.elements()]

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        if other.field.key != self.field.key:
            raise ValueError("polynomials over different fields")
        return SparsePoly(self.field, list(self.terms) + list(other.terms))

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.field.key == other.field.key and self.terms == other.terms

    def __hash__(self):
        return hash((self.field.key, self.terms))

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "terms": [{"exp": e, "coeff": list(c.vector())} for e, c in self.terms],
        }

    def __repr__(self):
        if not self.terms:
            return f"SparsePoly(F{self.field.q}: 0)"
        body = " + ".join(f"{list(c.vector())}*X^{e}" for e, c in self.terms)
        return f"SparsePoly(F{self.field.q}: {body})"


def function_from_json(obj: dict, table_cap: int = DEFAULT_TABLE_CAP) -> SparsePoly:
    """Parse {"field": {...}, "terms": [{"exp": int, "coeff": [int,...]}]}.

    Exponents and coefficient entries must be JSON integers (floats,
    strings and bools raise ValueError); coefficient entries are reduced
    mod p.
    """
    ctx = field_from_json(obj["field"], table_cap=table_cap)
    if not isinstance(obj["terms"], list):
        raise ValueError(f"terms must be a list, got {type(obj['terms']).__name__}")
    terms = [(json_int(t["exp"], "exp"), ctx.element(json_int_list(t["coeff"], "coeff")))
             for t in obj["terms"]]
    return SparsePoly(ctx, terms)


class _LineKernel:
    """Per-field tables of the line kernel (see the module docstring).

    Built once per FieldCtx by _kernel and kept on it, so the tables are
    freed with the field.  Construction builds only what every path reads,
    O(q/p) entries: the line order, the map from each block to its F_p*
    orbit's representative and scale, the lift that packs a code, and the
    unpack chunks.  A check whose function has at most one surviving term
    reads nothing more: its block table packs the codes it reads from
    antilog, and its line reads antilog.  The three O(q) tables -- pack
    (packed code), packed_at (packed g^k, 3(q-1) entries) and logz (log
    form of a code) -- are None until with_tables builds them for a path
    that reads packed sums: a line of more than one surviving term, or
    gapn.secant's block pair differences.  A monomial search builds none.
    Exponent block tables, each summed at the orbit representatives and
    filled by log shifts (monomial_blocks), hold q/p entries each and are
    cached up to 8*p of them (8*q entries), so a job that meets many
    exponents, such as a monomial search, keeps the kernel at O(q).  An
    exponent whose D_1 X^d vanishes gets the shared all-zero table dead,
    uncached, whose identity is how reader and gapn.secant drop its terms.
    """

    __slots__ = ("p", "n", "m", "nlines", "nblocks", "antilog", "log", "lift", "lines", "logz", "pack",
                 "packed_at", "capacity", "chunks", "orbit_logs", "scales", "fill", "dead", "blocks")

    def __init__(self, ctx: FieldCtx):
        p, n, q = ctx.p, ctx.n, ctx.q
        self.p, self.n = p, n
        self.m = m = q - 1
        self.nlines = nlines = m // (p - 1)
        self.nblocks = q // p
        self.antilog = ctx.antilog
        self.log = log = ctx.log
        # g^k lies on line k mod nlines.  The directions of a line share
        # their leading base-p digit's position, and its digit runs over
        # F_p*, so each line has exactly one direction with leading digit 1:
        # its smallest code.  Those codes, 1 and p^i..2p^i-1 for
        # i = 1..n-1, ascend, so the lines come sorted by their smallest code.
        # Block b is y + F_p for y = b*p, and the nonzero y fall into F_p*
        # orbits the same way: the y of leading digit 1 is its orbit's
        # representative, and the representatives' blocks hold the codes
        # p^i..2p^i-1.  orbit_logs lists the logs of block 0's nonzero
        # codes, then of those codes, p per block and y first
        self.orbit_logs = log[1:p] + list(chain.from_iterable(log[p ** i:2 * p ** i] for i in range(1, n)))
        self.lines = [0] + list(map(mod, self.orbit_logs[p - 1:], repeat(nlines)))
        # p-1 copies of the representatives' y, the jth scaled by
        # lambda = g^(j*nlines) in F_p*: scales holds log(lambda) per entry,
        # and fill the entry that each block reads, block 0 one past them
        rep_logs = self.orbit_logs[p - 1::p]
        self.scales = list(chain.from_iterable(map(repeat, range(0, m, nlines), repeat(len(rep_logs)))))
        block_of = list(map(floordiv, map(ctx.antilog.__getitem__,
                                          map(mod, map(add, rep_logs * (p - 1), self.scales), repeat(m))),
                            repeat(p)))
        self.fill = [len(block_of)] + sorted(range(len(block_of)), key=block_of.__getitem__)
        # one bit field of w bits per digit, so a packed sum of up to
        # capacity = (2^w-1)//(p-1) values adds as plain ints.  k digits
        # share one unpack table of at most max(2q, 4096) entries; w is the
        # widest width that needs as many tables per sum as the narrowest,
        # which holds a sum of p digits.  Where not even two digits fit at
        # that width, each is reduced with % p and w stays the narrowest
        def tables(w):  # unpack tables per sum; 0 when two digits do not fit
            k = _table_digits(p, n, q, w)
            return -(-n // k) if k >= 2 else 0

        w = (p * (p - 1)).bit_length()
        if narrowest := tables(w):
            while tables(w + 1) == narrowest:
                w += 1
        k = _table_digits(p, n, q, w)
        self.capacity = ((1 << w) - 1) // (p - 1)
        # with u = a + p*b, a < p, u packs to a + (b packed) << w, which is
        # u + lift[b] with lift[b] = (b packed) << w - p*b, q/p entries
        upper = [0]
        for i in range(1, n):
            upper = [x + s for s in [d << (w * i) for d in range(p)] for x in upper]
        self.lift = list(map(sub, upper, range(0, q, p)))
        self.logz = self.pack = self.packed_at = None
        if k < 2:
            self.chunks = [(w * i, (1 << w) - 1 if i < n - 1 else 0, p.__rmod__, p ** i)
                           for i in range(n)]
        else:
            self.chunks = [(w * lo, (1 << (w * k)) - 1 if lo + k < n else 0,
                            _chunk_table(p, w, lo, min(lo + k, n), self.capacity * (p - 1)).__getitem__, 1)
                           for lo in range(0, n, k)]
        # the block table of every exponent whose D_1 X^d vanishes
        self.dead = [2 * m] * self.nblocks
        self.blocks = {}

    def with_tables(self) -> "_LineKernel":
        """This kernel, with its O(q) tables built on the first call."""
        if self.packed_at is None:
            p, m = self.p, self.m
            # log form: the log of a nonzero code, 2m for zero
            self.logz = [2 * m] + self.log[1:]
            # the packed value of every u < q
            self.pack = pack = [a + s for s in map(add, self.lift, range(0, m + 1, p)) for a in range(p)]
            # packed g^k for k = 0..2m-1, then packed zero for k = 2m..3m-1: a
            # log-form entry plus a shift in 0..m-1 reads its scaled value;
            # extended in place, so no temporary copy of the table is made
            packed_at = list(map(pack.__getitem__, self.antilog))
            packed_at += packed_at
            packed_at += repeat(0, m)
            self.packed_at = packed_at
        return self

    def unpack(self, sums: list[int]) -> list[int]:
        """Element codes of packed sums of at most capacity packed values."""
        codes = None
        for shift, mask, lookup, scale in self.chunks:
            v = map(rshift, sums, repeat(shift)) if shift else sums
            v = map(lookup, map(and_, v, repeat(mask)) if mask else v)
            if scale > 1:
                v = map(mul, v, repeat(scale))
            codes = v if codes is None else map(add, codes, v)
        return list(codes)

    def sum_codes(self, vecs: list) -> list[int]:
        """Element codes of the entrywise sum of packed vectors.  A packed
        field holds a sum of capacity values, so a running sum takes
        capacity-1 vectors at a time and is mapped back to codes, and
        repacked, after each group."""
        more = self.capacity - 1
        acc, rest = vecs[0], vecs[1:]
        while True:
            codes = self.unpack(list(reduce(partial(map, add), rest[:more], acc)))
            rest = rest[more:]
            if not rest:
                return codes
            acc = map(self.pack.__getitem__, codes)

    def reader(self, terms):
        """(line, period) for f the sum of terms given as (coefficient log,
        exponent) pairs: line(t) gives the codes of D_1 f_a on each block of
        p consecutive codes, a = g^t, and lines t = t' mod period share
        their fibers (the line classes of the module docstring).  f's terms
        c*X^d whose D_1 X^d is identically zero are dropped.

        A line is the packed sum of the T scaled block tables (line_codes),
        T*q/p lookups for T surviving terms; beyond capacity terms
        sum_codes reduces it in groups.  A term is dropped when its block
        table is the shared dead one.  The kernel's O(q) tables are built
        for more than one surviving term."""
        dead = self.dead
        terms = [(ci, d, blocks) for ci, d in terms if (blocks := self.monomial_blocks(d)) is not dead]
        if not terms:
            return (lambda t: [0] * self.nblocks), 1
        if len(terms) > 1:
            self.with_tables()
        period = self.m // math.lcm(self.p - 1, math.gcd(self.m, *(d - terms[0][1] for _, d, _ in terms)))
        return partial(self.line_codes, terms), period

    def scan(self, terms, fail_fast: bool = False):
        """(scanned, failing) for f the sum of terms given as (coefficient
        log, exponent) pairs.  scanned maps each scanned line to the max
        fiber of its derivative, in order of the lines' smallest direction
        codes; failing is (line, Counter of its block codes) for the first
        line with a fiber above p, or None.  With fail_fast the scan stops
        at that line.  Only the first line of each class t mod reader's
        period is built, and the first failing line is always one of them."""
        line, period = self.reader(terms)
        scanned, fibers, failing = {}, {}, None
        for t in self.lines:
            mx = fibers.get(t % period)
            if mx is None:
                codes = line(t)
                if len(set(codes)) == self.nblocks:
                    mx = self.p
                else:
                    counts = Counter(codes)
                    mx = self.p * max(counts.values())
                    if failing is None:
                        failing = (t, counts)
                fibers[t % period] = mx
            scanned[t] = mx
            if fail_fast and failing is not None:
                break
        return scanned, failing

    def monomial_blocks(self, d: int) -> list[int]:
        """M_d = D_1 X^d on each block of p consecutive codes, in log form
        (cached).  D_1 X^d = -sum of C(d,k)*X^(d-k) over k > 0 with
        (p-1) | k, and by Lucas such a k with C(d,k) != 0 mod p exists
        exactly when digit_sum(d) >= p-1; below that, M_d is the shared
        all-zero table dead, which is never cached.

        M_d(y) = sum of (y+c)^d over c in F_p, and c/lambda runs over F_p
        too, so M_d(lambda*y) = lambda^d * M_d(y) for lambda in F_p*.  So
        only block 0 and the (q/p-1)/(p-1) orbit representatives are summed,
        about q/(p-1) packed values; every other block shifts its
        representative's log by d*log(lambda), about q/p more lookups.
        The values are read from antilog and packed through lift, so no
        O(q) table is read."""
        blocks = self.blocks.get(d)
        if blocks is None:
            p, m, zero = self.p, self.m, 2 * self.m
            if digit_sum(p, d) < p - 1:
                return self.dead
            if len(self.blocks) >= 8 * p:
                self.blocks.clear()
            # sums of p packed values (y+c)^d = g^(d*log(y+c)) over block 0,
            # led by 0^d = 0 (d > 0 here), and over each representative's
            # block; code u packs to u + lift[u // p]
            codes = [0]
            codes += map(self.antilog.__getitem__,
                         map(mod, map(mul, self.orbit_logs, repeat(d)), repeat(m)))
            vals = map(add, codes, map(self.lift.__getitem__, map(floordiv, codes, repeat(p))))
            sums = list(map(sum, zip(*[vals] * p)))
            # log[0] = -1 marks a zero sum
            at0, *reps = map(self.log.__getitem__, self.unpack(sums))
            # a scaled copy adds d*log(lambda) to the logs; a zero stays zero
            scaled = list(map(mod, map(add, reps * (p - 1), map(mul, self.scales, repeat(d))), repeat(m)))
            for i in compress(count(), map((-1).__eq__, reps)):
                scaled[i::len(reps)] = [zero] * (p - 1)
            scaled.append(zero if at0 < 0 else at0)
            blocks = self.blocks[d] = list(map(scaled.__getitem__, self.fill))
        return blocks

    def line_codes(self, terms, t: int) -> list[int]:
        """Codes of D_1 f_a on each block, a = g^t, for f's surviving terms
        as (coefficient log, exponent, block table).  Term c*X^d contributes
        (c*a^d) * D_1 X^d: its block table shifted by log(c*a^d) reads the
        scaled values, as codes from antilog for one term and else as
        packed values to sum."""
        m = self.m
        if len(terms) == 1:
            (ci, d, blocks), = terms
            shifted = map(mod, map(add, blocks, repeat((ci + d * t) % m)), repeat(m))
            codes = list(map(self.antilog.__getitem__, shifted))
            for i in compress(count(), map((2 * m).__eq__, blocks)):
                codes[i] = 0
            return codes
        at = self.packed_at.__getitem__
        return self.sum_codes([map(at, map(add, blocks, repeat((ci + d * t) % m)))
                               for ci, d, blocks in terms])


def _table_digits(p: int, n: int, q: int, w: int) -> int:
    """How many digits (at most n) of w-bit fields share one unpack table of
    at most max(2q, 4096) entries: all but the last take every w-bit value,
    the last at most a full field sum, (2^w-1)//(p-1)*(p-1)."""
    top = ((1 << w) - 1) // (p - 1) * (p - 1) + 1
    k = 0
    while k < n and top << (w * k) <= max(2 * q, 1 << 12):
        k += 1
    return k


def _chunk_table(p: int, w: int, lo: int, hi: int, largest: int) -> list[int]:
    """Code contribution of digits lo..hi-1, indexed by their packed fields;
    digit hi-1's field holds at most largest."""
    table = [0]
    for i in range(lo, hi):
        size = 1 << w if i < hi - 1 else largest + 1
        # field value v adds (v % p) * p^i: one period of p values of the
        # field over the table so far, repeated (shared ints)
        period = [x + s for s in range(0, p ** (i + 1), p ** i) for x in table]
        table = (period * -(-size // p))[:size * len(table)]
    return table


def _kernel(ctx: FieldCtx) -> _LineKernel:
    """The line kernel of ctx, built on first use and stored on the field."""
    kern = getattr(ctx, "_line_kernel", None)
    if kern is None:
        kern = ctx._line_kernel = _LineKernel(ctx)
    return kern


class DerivativeMap(Record):
    """Total map of one order-(p-1) derivative plus its fiber histogram.

    values[x] is the element code of the derivative at the element with
    code x; fiber_histogram maps each image code to its preimage count
    (always a multiple of p, by constancy on cosets of the line).
    """

    __slots__ = __match_args__ = ("values", "fiber_histogram")

    def __init__(self, values: list[int], fiber_histogram: dict[int, int]):
        self.values = values
        self.fiber_histogram = fiber_histogram


def derivative(f: SparsePoly, a: FieldElem) -> DerivativeMap:
    """Order-(p-1) discrete derivative of f in direction a != 0.

    Uses D_a f(x) = D_1 f_a(x/a) with f_a(y) = f(a*y): the line kernel sums
    the scaled blocks (c*a^d) * D_1 X^d of f's terms c*X^d over each block
    of p consecutive codes y, and values[x] reads the block of y = x/a.
    """
    ctx = f.field
    check_element(ctx, a)
    if a.is_zero():
        raise ValueError("derivative direction must be nonzero")
    t = a.idx
    codes = _kernel(ctx).reader([(c.idx, d) for d, c in f.terms])[0](t)
    at_y = list(chain.from_iterable(map(repeat, codes, repeat(ctx.p))))
    # antilog rotated by -t, then 0: indexed by log[x] (log[0] = -1 reads
    # the 0) it gives x/a for each x
    quotient = ctx.antilog[ctx.q - 1 - t:] + ctx.antilog[:ctx.q - 1 - t]
    quotient.append(0)
    values = list(map(at_y.__getitem__, map(quotient.__getitem__, ctx.log)))
    return DerivativeMap(values, dict(Counter(values)))


class GapnVerdict(Record):
    """Outcome of checking all derivative directions of one function.

    is_gapn holds exactly when worst_fiber <= p, i.e. every derivative is
    p-to-1.  witness is a pair (a, b) with fiber size of b under the
    derivative at a exceeding p (smallest direction code, then smallest
    image code); per_direction lists (a, max fiber) for the directions that
    were scanned, by ascending code.  per_direction may be given as a
    function of no arguments, which builds the list on first read.
    """

    __slots__ = ("is_gapn", "worst_fiber", "witness", "_per_direction")
    __match_args__ = ("is_gapn", "worst_fiber", "witness", "per_direction")

    def __init__(self, is_gapn: bool, worst_fiber: int,
                 witness: tuple[FieldElem, FieldElem] | None, per_direction):
        self.is_gapn = is_gapn
        self.worst_fiber = worst_fiber
        self.witness = witness
        self._per_direction = per_direction

    @property
    def per_direction(self) -> list[tuple[FieldElem, int]]:
        if callable(self._per_direction):
            self._per_direction = self._per_direction()
        return self._per_direction

    def to_json(self) -> dict:
        wit = None
        if self.witness is not None:
            a, b = self.witness
            wit = {"a": list(a.vector()), "b": list(b.vector())}
        return {"is_gapn": self.is_gapn, "worst_fiber": self.worst_fiber, "witness": wit}


def _directions(ctx: FieldCtx, scanned: dict) -> list[tuple[FieldElem, int]]:
    """(a, max fiber) for every direction a on a scanned line, by
    ascending code; scanned maps each line to its max fiber."""
    nlines = _kernel(ctx).nlines
    # ctx.log[1:] lists the logs of codes 1..q-1; g^k lies on line k mod nlines
    return [(FieldElem(ctx, k), scanned[t]) for k in ctx.log[1:] if (t := k % nlines) in scanned]


def is_gapn(f: SparsePoly, fail_fast: bool = False) -> GapnVerdict:
    """Exhaustive GAPN check over all q-1 directions.

    The directions of one line F_p*a share one derivative; the line
    kernel's scan gives each line's max fiber (see the module docstring),
    in order of the lines' smallest direction codes, so the witness is the
    smallest failing direction code, then the smallest image code with a
    fiber above p.  With fail_fast, scanning stops at the first failing
    line (its per-direction stats stay exact; later directions are not
    reported).  The per-direction list is built from the scanned lines
    when it is first read.
    """
    ctx = f.field
    kern = _kernel(ctx)
    scanned, failing = kern.scan([(c.idx, d) for d, c in f.terms], fail_fast)
    witness = None
    if failing is not None:
        t, counts = failing
        b = min(s for s, cnt in counts.items() if cnt > 1)
        witness = (ctx.from_code(min(kern.antilog[t::kern.nlines])), ctx.from_code(b))
    return GapnVerdict(witness is None, max(scanned.values()), witness, partial(_directions, ctx, scanned))
