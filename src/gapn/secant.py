"""k-term exponent tuples (k = 1, 2, 3) and digitsum-reduced spaces, decided
whole and yielded as run_search's blocks (tuple_blocks, digitsum_blocks).

With M_d = D_1 X^d on the q/p blocks of p consecutive codes (the line
kernel's monomial_blocks; the shared table dead iff digit_sum(d) < p-1), D_1 of
X^d1 + v*X^d2 + w*X^d3 is M_d1 + v*M_d2 + w*M_d3, and it is p-to-1 exactly
when its block values are distinct.  So each block pair i < j forbids the
coefficients (v, w) on the line D1 + v*D2 + w*D3 = 0, where
Dk = M_dk[i] - M_dk[j]; a binomial has no w, so a pair forbids one v, none
or all.  By direction scaling, D_a f has the fibers of D_1 f_a, and
f_a/a^d1 has the coefficients v*a^(d2-d1) and w*a^(d3-d1).  So
X^d1 + v*X^d2 + w*X^d3 is GAPN exactly when this orbit of (v, w) over the
units a meets no forbidden point.  One exponent tuple thus costs at most
C(q/p, 2) block pairs, whatever the number of its coefficient choices.  A
monomial X^d is GAPN exactly when M_d has distinct block values; when d
shares a factor with p-1 it is not (shares_factor), and no table is read.

Each exponent's block pairs are kept as two bit planes, ints with one bit
per pair: Z, set where the pair's values are equal (its difference is
zero), read straight from the block table, and O, set where the difference
is nonzero with an odd log.  Three plane rules decide most binomial tuples
(binomial_hits) and one AND screens trinomial tuples (trinomial_hits)
before any difference is read; only the rest walk the logs of the
differences.  X^(p*d) is X^d followed by Frobenius, an additive bijection,
so M_(p*d) is M_d with its logs times p: monomial verdicts, Z and O are
built once per Frobenius orbit of exponents (_OrbitTable), and p^j is odd
(p is odd, so m = q-1 is even), so O is the same for every member.  An
orbit holds one difference list, built at the first member that an O
plane or a walk reads, and member d*p^j reads it with its logs times p^j
(PairTables).  So an orbit read holds at most two C(q/p, 2)-bit ints and
one C(q/p, 2)-entry list.
A sum of c_e*X^e is GAPN exactly when sum of c_e*a^e*(M_e[i] - M_e[j]) is
nonzero for every unit a and block pair i < j (digitsum_blocks).
Everything is kept in discrete logs to base g, with 2m (m = q-1) for zero.
"""

import math
from functools import cache, partial
from itertools import chain, combinations, compress, count, repeat, tee
from operator import add, mod, rshift, sub

from .fields import FieldCtx, FieldElem
from .polynomials import _digit_sums, _kernel


def tuple_hits(ctx: FieldCtx, k: int):
    """The function that maps an exponent tuple d1 < ... < dk of ctx,
    k = 1, 2 or 3, to the ascending offsets of its GAPN canonical
    coefficient choices: 0 for X^d1 when it is GAPN, j for
    X^d1 + g^j*X^d2, jv*m + jw for X^d1 + g^jv*X^d2 + g^jw*X^d3.
    A monomial is decided once per Frobenius orbit, at the first member
    read: not GAPN when d shares a factor with p-1 (shares_factor, constant
    on the orbit since p^j = 1 mod p-1), and else when M_d's block values
    are not distinct."""
    kern = _kernel(ctx)
    if k == 1:
        def distinct(d):  # a zero M_d has one value, distinct only when nblocks = 1
            return not shares_factor(ctx, d) and len(set(kern.monomial_blocks(d))) == kern.nblocks

        verdicts = _OrbitTable(ctx, distinct, _same)
        return lambda exps: [0] if verdicts[exps[0]] else []
    pairs = PairTables(ctx)
    if k == 2:
        return partial(binomial_hits, pairs, kern.m)
    # log(1 + g^x) in log form
    zech = [2 * kern.m if c == 0 else ctx.log[c] for c in map(partial(ctx.add_code, 1), ctx.antilog)]
    return partial(trinomial_hits, pairs, zech * 2, kern.m)


def shares_factor(ctx: FieldCtx, *exps: int) -> bool:
    """Whether k = gcd(d_1, ..., d_s, p-1) > 1 over GF(p^n), n >= 2.  Then
    no sum of c_i*X^(d_i) is GAPN: its worst fiber is at least k*p.  For
    zeta in F_p* of order k, zeta^(d_i) = 1 makes M_d(zeta*y) = M_d(y) for
    every d_i, so D_1 f_a is equal on the k blocks of y, zeta*y, ...,
    zeta^(k-1)*y, distinct blocks when y is not in F_p, which needs n >= 2."""
    return ctx.n >= 2 and math.gcd(ctx.p - 1, *exps) > 1


class _OrbitTable(dict):
    """A value per exponent in 1..q-1, filled one Frobenius orbit at a time.
    Reading a missing exponent d builds build(d) and gives each further
    member d*p^j of d's orbit image(build(d), p^j mod (q-1)).  The orbit is
    walked by d -> (d*p - 1) mod (q-1) + 1, which keeps q-1 fixed.  A d
    outside 1..q-1 raises KeyError: the walk from 0 would never return."""

    __slots__ = ("m", "p", "build", "image")

    def __init__(self, ctx: FieldCtx, build, image):
        super().__init__()
        self.m, self.p, self.build, self.image = ctx.q - 1, ctx.p, build, image

    def __missing__(self, d):
        m, p = self.m, self.p
        if not 1 <= d <= m:
            raise KeyError(d)
        value = self[d] = self.build(d)
        e, scale = (d * p - 1) % m + 1, p % m
        while e != d:
            self[e] = self.image(value, scale)
            e, scale = (e * p - 1) % m + 1, scale * p % m
        return value


def _same(value, scale):
    """The image of an orbit value that Frobenius keeps."""
    return value


_BITS = bytes.maketrans(b"\x00\x01", b"01")


class PairTables:
    """The block pairs i < j of every exponent d in 1..q-1, in
    lexicographic order, as the tuple decisions read them: zero[d] and
    odd[d], the int planes Z and O whose bit k is set when M_d is equal at
    the k-th pair, or differs there by a nonzero of odd log; full, the
    plane of every pair; and self[d], the logs of M_d[i] - M_d[j], 2m for
    zero.  M_d is the kernel's monomial_blocks, the zero vector when
    digit_sum(d) < p-1, so its Z is full.

    Z is read from the block table alone: the pairs (i, j > i) with equal
    values are the later blocks that hold i's value.  An orbit keeps the
    one list of its first member d read, and member d*p^j reads it with its
    logs times p^j, lazily through a table per scale (2m+1 entries, at most
    n-1 tables), so a walk that stops early reads no more of it.  O is read from that list.  The kernel's O(q)
    tables are built with the first list."""

    __slots__ = ("m", "full", "zero", "odd", "lists", "scaled")

    def __init__(self, ctx: FieldCtx):
        kern = _kernel(ctx)
        self.m = m = kern.m
        nblocks, dead = kern.nblocks, kern.dead
        npairs = nblocks * (nblocks - 1) // 2
        self.full = (1 << npairs) - 1
        self.scaled = {}
        # row i of Z, pairs (i, j) for j > i as bits j-i-1, comes from the
        # blocks past i that hold its value; rows are written highest first
        rows = range(nblocks - 2, -1, -1)
        shifts = [i + 1 for i in rows]
        specs = [f"0{nblocks - 1 - i}b" for i in rows]

        def zero_plane(d):
            blocks = kern.monomial_blocks(d)
            if blocks is dead:
                return self.full
            holders = {}
            for i, v in enumerate(blocks):
                holders[v] = holders.get(v, 0) | 1 << i
            past = map(rshift, map(holders.__getitem__, map(blocks.__getitem__, rows)), shifts)
            return int("0" + "".join(map(format, past, specs)), 2)

        def difference_list(d):
            blocks = kern.monomial_blocks(d)
            if blocks is dead:
                return [2 * m] * npairs
            at = kern.with_tables().packed_at.__getitem__
            # -x is x times g^(m/2); a zero entry (2m) stays at or above 2m, which packs to 0
            minus = list(map(at, map(add, blocks, repeat(m // 2))))
            rows = (map(add, repeat(x), minus[i:]) for i, x in enumerate(map(at, blocks), 1))
            return list(map(kern.logz.__getitem__, kern.unpack(list(chain.from_iterable(rows)))))

        def odd_plane(d):  # zero (2m) is even; the last entry is the leading binary digit
            return int(b"0" + bytes(map((1).__and__, reversed(self.lists[d][0]))).translate(_BITS), 2)

        self.zero = _OrbitTable(ctx, zero_plane, _same)
        self.odd = _OrbitTable(ctx, odd_plane, _same)
        # (the orbit's list, the scale that maps its logs to this member's)
        self.lists = _OrbitTable(ctx, lambda d: (difference_list(d), 1), lambda built, scale: (built[0], scale))

    def __getitem__(self, d):
        logs, scale = self.lists[d]
        if scale == 1:
            return iter(logs)
        table = self.scaled.get(scale)
        if table is None:  # log l to l*scale mod m; zero (2m) stays
            m = self.m
            table = self.scaled[scale] = list(map(mod, range(0, m * scale, scale), repeat(m))) + [2 * m] * (m + 1)
        return map(table.__getitem__, logs)


def binomial_hits(pairs: PairTables, m: int, exps) -> list[int]:
    """The coefficient logs j, ascending, for which X^d1 + g^j*X^d2 is
    GAPN.

    D_1 f_a is a^d1 times M_d1 + w*M_d2 with w = g^j*a^(d2-d1), and it is
    p-to-1 exactly when its block values are distinct.  A block pair with
    differences (D1, D2) forbids every w when both are zero, no w when one
    is, and else the one w with log(-D1) - log(D2).  As a runs over the
    units, j + t*(d2-d1) runs over the class of j mod G = gcd(d2-d1, m),
    so j is a hit exactly when j mod G is the residue of no forbidden log,
    log(-D1) - log(D2) = log(D1) - log(D2) + m/2.

    The planes decide the tuple without a difference: a common bit of Z1
    and Z2 forbids every j; with P the pairs where neither is zero, P = 0
    forbids none; G = 1 leaves one class, which P forbids; for G = 2 a pair
    forbids the parity of O1 ^ O2 at its bit, plus m/2.  Only G > 2 walks
    the slopes, and stops as soon as their residues cover all G classes.
    """
    d1, d2 = exps
    z1, z2 = pairs.zero[d1], pairs.zero[d2]
    if z1 & z2:
        return []
    both = pairs.full ^ (z1 | z2)
    if not both:
        return list(range(m))
    g = math.gcd(d2 - d1, m)
    if g == 1:
        return []
    if g == 2:
        odd = both & (pairs.odd[d1] ^ pairs.odd[d2])
        if odd and odd != both:
            return []
        return list(range((m // 2 + (not odd)) % 2, m, 2))
    bad = set()
    # log(D1) - log(D2), 2m for zero: two logs give a slope in (-m, m), one zero lies outside
    for s in map(sub, pairs[d1], pairs[d2]):
        if -m < s < m:
            bad.add(s % g)
            if len(bad) == g:
                return []
    return list(compress(range(m), [(r - m // 2) % g not in bad for r in range(g)] * (m // g)))


def trinomial_hits(pairs: PairTables, zech: list[int], m: int, exps) -> list[int]:
    """The offsets jv*m + jw, ascending, of the coefficient logs for which
    X^d1 + g^jv*X^d2 + g^jw*X^d3 is GAPN.

    Each block pair with differences (D1, D2, D3) forbids the points
    (v, w) of the line D1 + v*D2 + w*D3 = 0, and every point when all
    three are zero, which a common bit of the three Z planes shows before
    any line is labelled.  Direction a = g^t moves (jv, jw) to (jv + t*e2,
    jw + t*e3), ek = dk - d1, so a pair is a hit exactly when its orbit
    meets no forbidden point.  With G2 = gcd(e2, m), r = jv mod G2 and t0
    the t that moves (r, .) to (jv, .), the orbit of (jv, jw) is labelled
    (r, (jw - t0*e3) mod H), H = gcd((m/G2)*e3, m), kept as r*m + label.
    zech[x] is log(1 + g^x), doubled to 2m entries.
    """
    d1, d2, d3 = exps
    if pairs.zero[d1] & pairs.zero[d2] & pairs.zero[d3]:
        return []
    e2, e3 = d2 - d1, d3 - d1
    zero, half = 2 * m, m // 2
    g2 = math.gcd(e2, m)
    period = m // g2
    inv = pow(e2 // g2, -1, period)
    h = math.gcd(period * e3, m)
    lvs = range(m)
    base = [lv % g2 * m for lv in lvs]
    shift = [(lv - lv % g2) // g2 * inv % period * e3 for lv in lvs]  # t0*e3
    minus_shift = [-s for s in shift]
    lv_minus_shift = list(map(sub, lvs, shift))

    def labels(w_minus_shift):  # the labels of the points (lv, w_minus_shift[lv] + shift[lv])
        return map(add, base, map(h.__rmod__, w_minus_shift))

    forbidden = set()
    for l1, l2, l3 in zip(pairs[d1], pairs[d2], pairs[d3]):
        if l3 == zero:
            if l2 != zero and l1 != zero:  # the row v = -D1/D2
                r = (l1 + half - l2) % g2
                forbidden.update(range(r * m, r * m + h))
        elif l2 == zero:
            if l1 != zero:  # the column w = -D1/D3
                forbidden.update(labels(map(add, minus_shift, repeat(l1 + half - l3))))
        elif l1 == zero:  # w = -v*D2/D3
            forbidden.update(labels(map(add, lv_minus_shift, repeat(l2 + half - l3))))
        else:  # w = -D1*(1 + v*D2/D1)/D3, except where 1 + v*D2/D1 = 0
            s = (l2 - l1) % m
            line = list(labels(map(add, map(add, zech[s:s + m], minus_shift), repeat(l1 + half - l3))))
            del line[(half - s) % m]
            forbidden.update(line)
        if len(forbidden) == g2 * h:
            return []
    alive = [[True] * h for _ in range(g2)]
    for label in forbidden:
        alive[label // m][label % m] = False
    tiles = [row * (2 * m // h) for row in alive]
    hits = []
    for jv in lvs:
        rot = -shift[jv] % h
        hits.extend(compress(range(jv * m, jv * m + m), tiles[jv % g2][rot:rot + m]))
    return hits


def tuple_blocks(ctx: FieldCtx, k: int, leads: range, degree_filter):
    """The blocks (run_search) of the k-term job over ctx whose lead
    coefficients have the logs leads (range(1) when canonical): one per
    exponent tuple with hits and lead log j1, and one for each run of
    tuples without hits, whose size is that of the run.  The tuples that
    degree_filter (None for every degree) drops are skipped by compress,
    unread.  c*f is GAPN exactly when f is, so a raw space's hits with
    lead log j1 are the canonical ones with j1 added to every coefficient
    log."""
    m, degree_of = ctx.q - 1, _digit_sums(ctx.p, ctx.n)
    flt = range(ctx.n * (ctx.p - 1) + 1) if degree_filter is None else degree_filter
    hits_of = tuple_hits(ctx, k)
    width = m ** (k - 1)
    block = len(leads) * width
    units = [FieldElem(ctx, j) for j in range(m)]

    @cache
    def row(d):  # the term (d, g^j) for each coefficient log j
        return [(d, u) for u in units]

    degrees, selectors = tee(map(max, combinations(degree_of[1:], k)))
    tuples = zip(count(0, block), combinations(range(1, ctx.q), k), degrees)
    empty = 0  # the candidates of the tuples without hits since the last block
    for start, exps, degree in compress(tuples, map(flt.__contains__, selectors)):
        found = hits_of(exps)
        if not found:
            empty += block
            continue
        if empty:
            yield None, empty, None, (), ()
            empty = 0
        rest = [row(d) for d in exps[1:]]
        for j1 in leads:
            # the hits' offsets within the block of lead log j1, then their terms
            if j1 == 0:
                offsets = found
            elif k == 2:
                offsets = sorted((o + j1) % m for o in found)
            else:
                offsets = sorted((o // m + j1) % m * m + (o + j1) % m for o in found)
            lead = (exps[0], units[j1])
            if k == 1:
                terms = [(lead,)] * len(offsets)
            elif k == 2:
                terms = [(lead, rest[0][o]) for o in offsets]
            else:
                terms = [(lead, rest[0][o // m], rest[1][o % m]) for o in offsets]
            yield start + j1 * width, width, degree, offsets, terms
    if empty:
        yield None, empty, None, (), ()


def digitsum_blocks(ctx: FieldCtx, slots: list[int], degree_filter):
    """The blocks (run_search) of the sums f of c_e*X^e over slots
    e_1 < ... < e_s: two per choice of c_(e_1) .. c_(e_(s-1)), in
    enumeration order (zero, then g^j by j), of q candidates from ordinal
    q*rank on: c_(e_s) = 0 (one candidate; none for the zero function),
    then c_(e_s) = g^j with the hit at offset j.  A block whose degree
    degree_filter (None for every degree) drops is not yielded.  The
    functionals above, one unit a per line, are kept once up to scaling;
    the walk carries their sums, the prefix's terms and its degree (-1
    while every coefficient is zero)."""
    if not slots:
        return
    kern = _kernel(ctx).with_tables()
    q, m, zero = ctx.q, kern.m, 2 * kern.m
    pairs = PairTables(ctx)  # X^0 reads X's zero column: 0 is in no Frobenius orbit
    columns = [(e, list(pairs[e or 1])) for e in slots]
    normals = set()
    for t in range(kern.nlines if len(slots) > 1 else 1):  # g^k lies on line k mod nlines
        for row in zip(*[[l if l == zero else (l + e * t) % m for l in column] for e, column in columns]):
            lead = next((l for l in row if l != zero), 0)
            normals.add(tuple([l if l == zero else (l - lead) % m for l in row]))
    *heads, last = list(zip(*normals)) or [()] * len(slots)
    # per partial sum P, the last coefficient it forbids: log(-P/n), m for
    # zero, or for n = 0 every one (-1) if P = 0 and else none (q)
    forbids = [[-1] + [q] * m if n == zero else [m] + [(l + m // 2 - n) % m for l in kern.logz[1:]]
               for n in last]
    degree_of = _digit_sums(ctx.p, ctx.n)
    flt = range(ctx.n * (ctx.p - 1) + 1) if degree_filter is None else degree_filter
    units = [FieldElem(ctx, j) for j in range(m)]
    # per slot: its column of the functionals, its terms (e, g^j) by j, its degree
    levels = [(column, [(e, u) for u in units], degree_of[e]) for column, e in zip(heads, slots)]
    last_row, last_degree = [(slots[-1], u) for u in units], degree_of[slots[-1]]
    starts = count(0, q)
    logs = range(m)

    def walk(sums, terms, degree, levels):
        if levels:
            (column, row, d), below = levels[0], levels[1:]
            yield from walk(sums, terms, degree, below)
            packed = list(map(kern.pack.__getitem__, sums))
            degree = max(degree, d)
            for j, term in enumerate(row):
                scaled = map(kern.packed_at.__getitem__, map(add, column, repeat(j)))  # g^j * column
                yield from walk(kern.unpack(list(map(add, packed, scaled))), terms + (term,), degree, below)
            return
        start = next(starts)
        bad = set(map(list.__getitem__, forbids, sums))
        alive = -1 not in bad
        if degree in flt:  # the zero function has degree -1, in no filter
            yield start, 1, degree, [0] if alive and m not in bad else (), (terms,)
        full = max(degree, last_degree)
        if full in flt:
            offsets = [j for j in logs if j not in bad] if alive else ()
            yield start + 1, m, full, offsets, [terms + (last_row[j],) for j in offsets]

    yield from walk([0] * len(normals), (), -1, levels)
