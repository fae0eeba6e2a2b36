"""Independent brute-force reference implementations used as test oracles.

Everything here works on coefficient tuples with schoolbook polynomial
arithmetic: no log tables, no coset tricks.  Library results are checked
against this structurally different route.  The search's candidate order
is spelled out here too, one candidate at a time, since run_search numbers
its hits by block arithmetic alone.
"""

from itertools import combinations, product


class TupleField:
    """GF(p^n) with elements as coefficient tuples (constant term first)."""

    def __init__(self, p, n, modulus):
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = tuple(int(c) % p for c in modulus)  # monic, length n+1
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)

    def from_code(self, code):
        return tuple((code // self.p ** i) % self.p for i in range(self.n))

    def to_code(self, t):
        return sum(c * self.p ** i for i, c in enumerate(t))

    def elements(self):
        return (self.from_code(c) for c in range(self.q))

    def add(self, s, t):
        return tuple((a + b) % self.p for a, b in zip(s, t))

    def neg(self, s):
        return tuple((-a) % self.p for a in s)

    def mul(self, s, t):
        p, n = self.p, self.n
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
                    prod[i - n + j] = (prod[i - n + j] - c * self.modulus[j]) % p
        return tuple(prod[:n])

    def pow(self, s, e):
        if e < 0:
            raise ValueError("oracle pow only handles non-negative exponents")
        acc = self.one
        base = s
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def mul_order(self, s):
        acc = s
        for t in range(1, self.q):
            if acc == self.one:
                return t
            acc = self.mul(acc, s)
        raise ValueError("element has no multiplicative order")


def first_primitive_modulus(p, n):
    """Lexicographically smallest (constant term first) monic degree-n
    polynomial whose root x has multiplicative order p^n - 1."""
    for tail in product(range(p), repeat=n):
        modulus = tail + (1,)
        tf = TupleField(p, n, modulus)
        x = tuple(1 if i == 1 else 0 for i in range(n)) if n > 1 else ((-tail[0]) % p,)
        if x == tf.zero:
            continue
        # order check by explicit iteration; q-1 also requires all powers distinct
        seen = set()
        acc = tf.one
        good = True
        for _ in range(tf.q - 1):
            if acc in seen or acc == tf.zero:
                good = False
                break
            seen.add(acc)
            acc = tf.mul(acc, x)
        if good and acc == tf.one and len(seen) == tf.q - 1:
            return list(modulus)
    raise AssertionError("no primitive modulus found")


def value_table(tf, terms):
    """G(x) tuple for every x code; terms are (exp, coeff_tuple) pairs."""
    vals = [tf.zero] * tf.q
    for exp, coeff in terms:
        for code in range(tf.q):
            x = tf.from_code(code)
            vals[code] = tf.add(vals[code], tf.mul(coeff, tf.pow(x, exp)))
    return vals


def _summed_derivative(tf, gt, a):
    out = []
    for code in range(tf.q):
        x = tf.from_code(code)
        acc = tf.zero
        ia = tf.zero
        for _ in range(tf.p):
            acc = tf.add(acc, gt[tf.to_code(tf.add(x, ia))])
            ia = tf.add(ia, a)
        out.append(acc)
    return out


def derivative_table(tf, terms, a):
    """Direct summation: D(x) = sum over i in F_p of G(x + i*a)."""
    return _summed_derivative(tf, value_table(tf, terms), a)


def fibers(values):
    hist = {}
    for v in values:
        hist[v] = hist.get(v, 0) + 1
    return hist


def is_gapn(tf, terms):
    """Every derivative at a != 0 has all fibers of size at most p."""
    gt = value_table(tf, terms)
    for a_code in range(1, tf.q):
        a = tf.from_code(a_code)
        hist = {}
        for code in range(tf.q):
            x = tf.from_code(code)
            acc = tf.zero
            ia = tf.zero
            for _ in range(tf.p):
                acc = tf.add(acc, gt[tf.to_code(tf.add(x, ia))])
                ia = tf.add(ia, a)
            hist[acc] = hist.get(acc, 0) + 1
            if hist[acc] > tf.p:
                return False
    return True


def verdict(tf, terms):
    """Full GAPN verdict by direct summation in every direction on its own.

    Returns (worst_fiber, witness, per_direction), all in element codes:
    witness is (a, b) for the smallest direction a whose derivative has a
    fiber above p and the smallest image b with such a fiber, or None;
    per_direction maps every direction to its largest fiber.
    """
    gt = value_table(tf, terms)
    per_direction = {}
    witness = None
    for a_code in range(1, tf.q):
        hist = fibers(_summed_derivative(tf, gt, tf.from_code(a_code)))
        per_direction[a_code] = max(hist.values())
        if witness is None and per_direction[a_code] > tf.p:
            b = min(tf.to_code(v) for v, c in hist.items() if c > tf.p)
            witness = (a_code, b)
    return max(per_direction.values()), witness, per_direction


def witness(tf, terms):
    """verdict's witness, or None, from a scan of the directions by
    ascending code that stops at the first failing one."""
    gt = value_table(tf, terms)
    for a_code in range(1, tf.q):
        hist = fibers(_summed_derivative(tf, gt, tf.from_code(a_code)))
        if max(hist.values()) > tf.p:
            return a_code, min(tf.to_code(v) for v, c in hist.items() if c > tf.p)
    return None


def line_min_code(tf, a_code):
    """Smallest code on the line F_p*a, found by scalar multiplication."""
    a = tf.from_code(a_code)
    return min(tf.to_code(tf.mul(tf.from_code(i), a)) for i in range(1, tf.p))


def poly_terms(f):
    """Convert a library SparsePoly into oracle (exp, coeff_tuple) pairs."""
    return [(e, tuple(c.vector())) for e, c in f.terms]


def tuple_field_of(ctx):
    return TupleField(ctx.p, ctx.n, ctx.modulus)


def enumerate_candidates(job):
    """The candidate descriptors of a gapn SearchJob in its documented total
    order, one at a time; the ordinal of a candidate is its index here.

    A descriptor is a tuple of (exponent, coefficient log) pairs, log -1
    marking a zero coefficient (term absent).  A digitsum-reduced job has
    one exponent tuple, every exponent whose base-p digit sum reaches
    min_digit_sum (default p), each with log -1 or a unit log.  A k-term
    job runs through the k-subsets of 1..q-1 in lexicographic order; the
    lead coefficient log is 0 for a monomial or a canonical job, else any
    unit log, and every later one any unit log.  Each exponent tuple is
    followed by every tuple of coefficient choices, in product order.
    """
    p, n, q = job.field.p, job.field.n, job.field.q
    units = list(range(q - 1))
    if job.shape == "digitsum-reduced":
        floor = p if job.min_digit_sum is None else job.min_digit_sum
        exponent_tuples = [[e for e in range(q) if sum(e // p ** i % p for i in range(n)) >= floor]]
        choices = [[-1] + units] * len(exponent_tuples[0])
    else:
        k = {"monomial": 1, "binomial": 2, "trinomial": 3}[job.shape]
        lead = [0] if k == 1 or job.canonicalize else units
        exponent_tuples = combinations(range(1, q), k)
        choices = [lead] + [units] * (k - 1)
    for exps in exponent_tuples:
        pairs = [[(e, j) for j in options] for e, options in zip(exps, choices)]
        yield from product(*pairs)
