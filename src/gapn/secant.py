"""k-term exponent tuples (k = 1, 2, 3) and digitsum-reduced spaces, decided whole.

With M_d = D_1 X^d on the q/p blocks of p consecutive codes (the line
kernel's monomial_blocks, zero when digit_sum(d) < p-1), D_1 of
X^d1 + v*X^d2 + w*X^d3 is M_d1 + v*M_d2 + w*M_d3, and it is p-to-1 exactly
when its block values are distinct.  So each block pair i < j forbids the
coefficients (v, w) on the line D1 + v*D2 + w*D3 = 0, where
Dk = M_dk[i] - M_dk[j]; a binomial has no w, so a pair forbids one v, none
or all.  By direction scaling, D_a f has the fibers of D_1 f_a, and
f_a/a^d1 has the coefficients v*a^(d2-d1) and w*a^(d3-d1).  So
X^d1 + v*X^d2 + w*X^d3 is GAPN exactly when this orbit of (v, w) over the
units a meets no forbidden point.  One exponent tuple thus costs at most
C(q/p, 2) block pairs, whatever the number of its coefficient choices.  A
binomial pair forbids every v only when both of its differences are zero,
so one AND of the two exponents' zero patterns, kept as int bitmasks
(zero_masks), decides most empty binomial tuples before a slope is read;
the walk over the other tuples' slopes stops at the first one that leaves
no coefficient log free.  A monomial X^d is GAPN exactly when M_d has
distinct block values.  X^(p*d) is X^d followed by Frobenius, an additive
bijection, so M_(p*d) is M_d with its logs times p: monomial verdicts,
block pair differences and their zero patterns are built once per
Frobenius orbit of exponents, at the first member read (_OrbitTable).
A sum of c_e*X^e is GAPN exactly when sum of c_e*a^e*(M_e[i] - M_e[j]) is
nonzero for every unit a and block pair i < j (digitsum_hits).
Everything is kept in discrete logs to base g, with 2m (m = q-1) for zero.
"""

import math
from functools import partial
from itertools import combinations, compress, repeat
from operator import add, sub

from .fields import FieldCtx
from .polynomials import _kernel


def tuple_hits(ctx: FieldCtx, k: int):
    """The function that maps an exponent tuple d1 < ... < dk of ctx,
    k = 1, 2 or 3, to the ascending offsets of its GAPN canonical
    coefficient choices: 0 for X^d1 when it is GAPN, j for
    X^d1 + g^j*X^d2, jv*m + jw for X^d1 + g^jv*X^d2 + g^jw*X^d3.
    A monomial is decided once per Frobenius orbit, at the first member read."""
    kern = _kernel(ctx).with_tables()
    if k == 1:
        def distinct(d):  # a zero M_d has one value, distinct only when nblocks = 1
            live = kern.degree[d] >= kern.p - 1
            return (len(set(kern.monomial_blocks(d))) if live else 1) == kern.nblocks

        verdicts = _OrbitTable(ctx, distinct, lambda verdict, scale: verdict)
        return lambda exps: [0] if verdicts[exps[0]] else []
    diffs = pair_differences(ctx)
    if k == 2:
        return partial(binomial_hits, diffs, zero_masks(ctx, diffs), kern.m)
    zech = [kern.logz[ctx.add_code(1, x)] for x in ctx.antilog]
    return partial(trinomial_hits, diffs, zech * 2, kern.m)


class _OrbitTable(dict):
    """A value per exponent in 1..q-1, filled one Frobenius orbit at a time.
    Reading a missing exponent d builds build(d) and gives each further
    member d*p^j of d's orbit image(build(d), p^j mod (q-1)).  The orbit is
    walked by d -> (d*p - 1) mod (q-1) + 1, which keeps q-1 fixed."""

    __slots__ = ("m", "p", "build", "image")

    def __init__(self, ctx: FieldCtx, build, image):
        super().__init__()
        self.m, self.p, self.build, self.image = ctx.q - 1, ctx.p, build, image

    def __missing__(self, d):
        m, p = self.m, self.p
        value = self[d] = self.build(d)
        e, scale = (d * p - 1) % m + 1, p % m
        while e != d:
            self[e] = self.image(value, scale)
            e, scale = (e * p - 1) % m + 1, scale * p % m
        return value


def _scaled_logs(m: int, logs: list[int], scale: int) -> list[int]:
    """logs times scale mod m; an entry of m or more (a zero) stays."""
    return [l if l >= m else l * scale % m for l in logs]


def pair_differences(ctx: FieldCtx) -> _OrbitTable:
    """The table that maps each exponent d in 1..q-1 to the logs of
    M_d[i] - M_d[j] over the block pairs i < j in lexicographic order, with
    2m for zero.  M_d is D_1 X^d on the q/p blocks (the kernel's
    monomial_blocks), the zero vector when digit_sum(d) < p-1.  Frobenius
    is additive, so an orbit's lists are built from the first member d read,
    and member d*p^j takes d's with their logs times p^j."""
    kern = _kernel(ctx).with_tables()
    m = kern.m
    pairs = list(combinations(range(kern.nblocks), 2))
    first = [i for i, _ in pairs]
    second = [j for _, j in pairs]
    at = kern.packed_at.__getitem__
    zero = [2 * m] * len(pairs)

    def build(d):
        if kern.degree[d] < kern.p - 1:
            return zero
        blocks = kern.monomial_blocks(d)
        # -x is x times g^(m/2); a zero entry (2m) stays at or above 2m, which packs to 0
        minus = map(at, map(add, map(blocks.__getitem__, second), repeat(m // 2)))
        sums = list(map(add, map(at, map(blocks.__getitem__, first)), minus))
        return list(map(kern.logz.__getitem__, kern.unpack(sums)))

    return _OrbitTable(ctx, build, partial(_scaled_logs, m))


def zero_masks(ctx: FieldCtx, diffs: _OrbitTable) -> _OrbitTable:
    """The table that maps each exponent d to the int whose bit k is set
    when the k-th entry of diffs[d] (pair_differences) is zero, that is
    when M_d has equal values at the k-th block pair; every bit when
    digit_sum(d) < p-1.  Frobenius keeps zero and nonzero apart, so an
    orbit shares one mask."""
    zero = 2 * (ctx.q - 1)

    def build(d):  # the last entry is the leading binary digit
        return int("0" + "".join(["01"[l == zero] for l in reversed(diffs[d])]), 2)

    return _OrbitTable(ctx, build, lambda mask, scale: mask)


def binomial_hits(diffs, masks, m: int, exps) -> list[int]:
    """The coefficient logs j, ascending, for which X^d1 + g^j*X^d2 is
    GAPN; masks is zero_masks of diffs.

    D_1 f_a is a^d1 times M_d1 + w*M_d2 with w = g^j*a^(d2-d1), and it is
    p-to-1 exactly when its block values are distinct.  A block pair with
    differences (D1, D2) forbids every w when both are zero, no w when one
    is, and else the one w with log(-D1) - log(D2).  As a runs over the
    units, j + t*(d2-d1) runs over the class of j mod G = gcd(d2-d1, m),
    so j is a hit exactly when j mod G is the residue of no forbidden log.
    A block pair where both are zero shows as a common bit of the two
    masks, which decides the tuple before any slope is read; otherwise the
    slopes are walked one at a time and the walk stops as soon as their
    residues cover all G classes.
    """
    d1, d2 = exps
    if masks[d1] & masks[d2]:
        return []
    g = math.gcd(d2 - d1, m)
    bad = set()
    # log(D1) - log(D2), 2m for zero: after the screen two logs give a slope
    # in (-m, m), one zero lies outside; log(-D1/D2) is the slope plus m/2
    for s in map(sub, diffs[d1], diffs[d2]):
        if -m < s < m:
            bad.add(s % g)
            if len(bad) == g:
                return []
    return list(compress(range(m), [(r - m // 2) % g not in bad for r in range(g)] * (m // g)))


def trinomial_hits(diffs, zech: list[int], m: int, exps) -> list[int]:
    """The offsets jv*m + jw, ascending, of the coefficient logs for which
    X^d1 + g^jv*X^d2 + g^jw*X^d3 is GAPN.

    Each block pair with differences (D1, D2, D3) forbids the points
    (v, w) of the line D1 + v*D2 + w*D3 = 0, and every point when all
    three are zero.  Direction a = g^t moves (jv, jw) to (jv + t*e2,
    jw + t*e3), ek = dk - d1, so a pair is a hit exactly when its orbit
    meets no forbidden point.  With G2 = gcd(e2, m), r = jv mod G2 and t0
    the t that moves (r, .) to (jv, .), the orbit of (jv, jw) is labelled
    (r, (jw - t0*e3) mod H), H = gcd((m/G2)*e3, m), kept as r*m + label.
    zech[x] is log(1 + g^x), doubled to 2m entries.
    """
    d1, d2, d3 = exps
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
    for l1, l2, l3 in zip(diffs[d1], diffs[d2], diffs[d3]):
        if l3 == zero:
            if l2 != zero and l1 != zero:  # the row v = -D1/D2
                r = (l1 + half - l2) % g2
                forbidden.update(range(r * m, r * m + h))
            elif l2 == zero and l1 == zero:
                return []
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


def digitsum_hits(ctx: FieldCtx, slots: list[int]):
    """For f = sum of c_e*X^e over slots e_1 < ... < e_s, (prefix, ascending
    GAPN choices of c_(e_s)) per choice prefix of the others, in enumeration
    order; choice 0 is c = 0, 1 + j is c = g^j.  The functionals above, one
    unit a per line, are kept once up to scaling; the walk carries their sums."""
    kern = _kernel(ctx).with_tables()
    q, m, zero = ctx.q, kern.m, 2 * kern.m
    diffs = pair_differences(ctx)  # X^0 reads X's zero column: 0 is in no Frobenius orbit
    normals = set()
    for t in range(kern.nlines if len(slots) > 1 else 1):  # g^k lies on line k mod nlines
        for row in zip(*[[l if l == zero else (l + e * t) % m for l in diffs[e or 1]] for e in slots]):
            lead = next((l for l in row if l != zero), 0)
            normals.add(tuple([l if l == zero else (l - lead) % m for l in row]))
    *heads, last = list(zip(*normals)) or [()] * len(slots)
    # per partial sum P: the last choice -P/n, or for n = 0 all (-1) if P = 0 and else none (q)
    forbids = [[-1] + [q] * m if n == zero else [0] + [1 + (l + m // 2 - n) % m for l in kern.logz[1:]]
               for n in last]

    def walk(prefix, sums, heads):
        if heads:
            yield from walk(prefix + (0,), sums, heads[1:])
            packed = list(map(kern.pack.__getitem__, sums))
            for j in range(m):
                scaled = map(kern.packed_at.__getitem__, map(add, heads[0], repeat(j)))  # g^j * column
                yield from walk(prefix + (j + 1,), kern.unpack(list(map(add, packed, scaled))), heads[1:])
        else:
            bad = set(map(list.__getitem__, forbids, sums))
            yield prefix, [] if -1 in bad else [x for x in range(q) if x not in bad]

    return walk((), [0] * len(normals), heads)
