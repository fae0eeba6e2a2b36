"""Seeded inputs, pinned expectations and exact output checks for the
benchmark's three workloads.

Stdlib only and free of any `gapn` import, so the orchestrator can build
inputs and judge outputs without loading the program it measures.  The
program sees only the generated inputs: function files for `verify`, moduli
for the census, and a fixed command line for `reproduce`.
"""

import hashlib
import json
import random

WORKLOADS = ("verify-wide", "search-census", "reproduce-all")

# Default (lexicographically smallest primitive) moduli of the verify-wide
# fields, pinned so that the inputs and their witnesses do not depend on how
# the program picks a modulus.
_GF3_7 = {"p": 3, "n": 7, "modulus": [1, 0, 0, 0, 0, 1, 2, 1]}
_GF211_2 = {"p": 211, "n": 2, "modulus": [2, 4, 1]}
_GF5_4 = {"p": 5, "n": 4, "modulus": [2, 0, 2, 1, 1]}
_GF47_2 = {"p": 47, "n": 2, "modulus": [5, 2, 1]}


def _gapn_verdict(p: int) -> str:
    return json.dumps({"is_gapn": True, "worst_fiber": p, "witness": None})


# name, field, base terms (exp, coeff vector), number of seeded low-degree
# terms, expected `gapn verify` stdout line and expected exit code.
VERIFY_INPUTS = (
    ("gf3-7", _GF3_7, [(5, [1])], 3, _gapn_verdict(3), 0),
    ("gf211-2", _GF211_2, [(421, [1])], 3, _gapn_verdict(211), 0),
    ("gf5-4", _GF5_4, [(9, [1])], 0, _gapn_verdict(5), 0),
    (
        "gf47-2",
        _GF47_2,
        # X^(2p-1) + g^5 * X^2000: not GAPN, degree 68
        [(93, [1]), (2000, [34, 28])],
        3,
        json.dumps({"is_gapn": False, "worst_fiber": 141, "witness": {"a": [11, 1], "b": [0, 0]}}),
        1,
    ),
)

# The eight primitive monic quadratics over F_7, constant term first.
F7_PRIMITIVE_QUADRATICS = (
    (3, 1, 1), (3, 2, 1), (3, 5, 1), (3, 6, 1),
    (5, 2, 1), (5, 3, 1), (5, 4, 1), (5, 5, 1),
)
CENSUS_DRAW = 4
CENSUS_DEGREES = (8, 10, 12)
CENSUS_EXAMINED = 54144
CENSUS_CHECKED = 16848
CENSUS_HITS_BY_DEGREE = {"10": 288}
# digest of the hit stream (SearchHit.to_json in order) for each modulus
CENSUS_HIT_DIGESTS = {
    (3, 1, 1): "ac277df0deae5543",
    (3, 2, 1): "c26d5fc47a87a4c5",
    (3, 5, 1): "2b63e43af49b18d0",
    (3, 6, 1): "9cb15346072fc160",
    (5, 2, 1): "6883b7a9ea656245",
    (5, 3, 1): "e52507607a2857b4",
    (5, 4, 1): "7006e620ac1f902d",
    (5, 5, 1): "69889f6699cf33cf",
}

REPRODUCE_ARGV = ["reproduce", "--claim", "all", "--threads", "2", "--format", "json"]
# claim id -> digest of its `details`, in registry order
REPRODUCE_DETAIL_DIGESTS = {
    "gold-monomials": "d5edb229925f5106",
    "inverse-monomials": "6a5f0263bc95aeca",
    "monomial-criteria-soundness": "d8cfa3471dbce4a9",
    "odd-binomial-degrees": "7154e32140d93612",
    "even-binomial-degrees": "10ef10a82495d5ff",
    "p7-trinomial-even-degrees": "bd57afdbf4406870",
    "p7-binomial-even-gaps": "fd9f6e39f8595dbd",
    "p3-no-even-degree": "75dc4fc90d257c4d",
    "p7-binomial-beyond-criteria": "b6b8012c19655863",
    "p11-mixed-binomial": "3dd47af1ec9e2b7b",
    "derivative-power-identity": "08b65415b79e91e0",
    "derivative-condition-equivalence": "d35382bb27e9b387",
    "p11-monomial-deg15-none": "cbf41e80381c2a0c",
    "conjugate-premise-obstruction": "a91de8d18ca77881",
}
# fields the claims build, made during set-up
REPRODUCE_FIELDS = [(3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (3, 3), (5, 3), (7, 3)]


def digest(obj) -> str:
    """Short stable digest of a JSON-able object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digit_sum(p: int, u: int) -> int:
    s = 0
    while u:
        u, r = divmod(u, p)
        s += r
    return s


def low_degree_terms(rng: random.Random, p: int, n: int, count: int) -> list:
    """`count` terms c*X^e with distinct exponents of algebraic degree at
    most p-2 and coefficients outside F_p (n >= 2).

    The order-(p-1) derivative annihilates every such term, so adding them
    to a function leaves each derivative, and hence the verdict, worst fiber
    and witness, unchanged.
    """
    q = p ** n
    exps: set[int] = set()
    while len(exps) < count:
        e = rng.randrange(q)
        if digit_sum(p, e) <= p - 2:
            exps.add(e)
    terms = []
    for e in sorted(exps):
        coeff = [rng.randrange(p) for _ in range(n)]
        coeff[rng.randrange(1, n)] = rng.randrange(1, p)
        terms.append((e, coeff))
    return terms


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def verify_functions(seed: int) -> list:
    """(name, function JSON) for each verify-wide input under this seed."""
    rng = _rng("verify-wide", seed)
    out = []
    for name, field, base, extra, _, _ in VERIFY_INPUTS:
        terms = list(base)
        if extra:
            terms += low_degree_terms(rng, field["p"], field["n"], extra)
        obj = {"field": field, "terms": [{"exp": e, "coeff": c} for e, c in terms]}
        out.append((name, obj))
    return out


def census_moduli(seed: int) -> list:
    """The seeded draw of GF(49) moduli for search-census."""
    return _rng("search-census", seed).sample(F7_PRIMITIVE_QUADRATICS, CENSUS_DRAW)


def lines_per_pass() -> int:
    """Derivative lines (q-1)/(p-1) that one verify-wide pass decides."""
    total = 0
    for _, field, *_ in VERIFY_INPUTS:
        p, n = field["p"], field["n"]
        total += (p ** n - 1) // (p - 1)
    return total


def fields_for(workload: str, seed: int) -> list:
    """(p, n, modulus or None) of every field the workload's inputs use."""
    if workload == "verify-wide":
        return [(f["p"], f["n"], f["modulus"]) for _, f, *_ in VERIFY_INPUTS]
    if workload == "search-census":
        return [(7, 2, list(m)) for m in census_moduli(seed)]
    return [(p, n, None) for p, n in REPRODUCE_FIELDS]


def check(workload: str, job: dict, output) -> list:
    """Mismatches between one job's output and its pinned expectation."""
    if output is None:
        return ["no output"]
    bad = []
    if workload == "verify-wide":
        spec = next(v for v in VERIFY_INPUTS if v[0] == job["name"])
        want_line, want_exit = spec[4], spec[5]
        if output["exit"] != want_exit:
            bad.append(f"exit {output['exit']}, expected {want_exit}")
        if output["stdout"] != want_line + "\n":
            bad.append(f"stdout {output['stdout']!r}, expected {want_line!r}")
    elif workload == "search-census":
        mod = tuple(job["modulus"])
        want = {
            "examined": CENSUS_EXAMINED,
            "checked": CENSUS_CHECKED,
            "hits_by_degree": CENSUS_HITS_BY_DEGREE,
            "hits_digest": CENSUS_HIT_DIGESTS[mod],
        }
        for key, value in want.items():
            if output.get(key) != value:
                bad.append(f"{key} {output.get(key)!r}, expected {value!r}")
    else:
        if output["exit"] != 0:
            bad.append(f"exit {output['exit']}, expected 0")
        claims = output.get("claims") or []
        got = [c["claim"] for c in claims]
        if got != list(REPRODUCE_DETAIL_DIGESTS):
            bad.append(f"claims {got}, expected {list(REPRODUCE_DETAIL_DIGESTS)}")
        for c in claims:
            if not c["passed"]:
                bad.append(f"claim {c['claim']} did not pass")
            want = REPRODUCE_DETAIL_DIGESTS.get(c["claim"])
            if c["details_digest"] != want:
                bad.append(f"claim {c['claim']} details digest {c['details_digest']}, expected {want}")
    return bad
