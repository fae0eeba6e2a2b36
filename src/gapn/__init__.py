"""Construct and exactly verify GAPN functions over GF(p^n).

A GAPN (generalized almost perfect nonlinear) function is one whose
order-(p-1) discrete derivative in every nonzero direction takes each value
at most p times.  This package provides exact field arithmetic, the
derivative/verdict machinery, closed-form construction families, a
deterministic search engine and a registry of re-runnable claims.
"""

from .fields import (
    DEFAULT_TABLE_CAP,
    FieldCtx,
    FieldElem,
    field_from_json,
    make_field,
)
from .polynomials import (
    DerivativeMap,
    GapnVerdict,
    SparsePoly,
    derivative,
    digit_sum,
    function_from_json,
    is_gapn,
    is_p_to_one,
)
from .constructions import (
    ConstructionRecipe,
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
from .search import (
    DEFAULT_BUDGET,
    Report,
    SearchHit,
    SearchJob,
    SearchSummary,
    candidate_count,
    claim_descriptions,
    claim_ids,
    enumerate_candidates,
    reproduce,
    run_search,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_TABLE_CAP",
    "ConstructionRecipe",
    "DerivativeMap",
    "FieldCtx",
    "FieldElem",
    "GapnVerdict",
    "Report",
    "SearchHit",
    "SearchJob",
    "SearchSummary",
    "SparsePoly",
    "binomial_gapn_sufficient",
    "binomial_reduction_vanishes",
    "build_even_binomial",
    "build_mod3_binomial",
    "build_odd_binomial",
    "build_trinomial",
    "candidate_count",
    "claim_descriptions",
    "claim_ids",
    "derivative",
    "derivative_conjugate_premise",
    "digit_sum",
    "enumerate_candidates",
    "field_from_json",
    "find_trinomial_u",
    "function_from_json",
    "is_gapn",
    "is_mersenne",
    "is_p_to_one",
    "make_field",
    "monomial_gapn_necessary",
    "monomial_gapn_sufficient",
    "odd_part",
    "p_to_one_condition",
    "reproduce",
    "run_search",
    "trinomial_condition",
    "verify_power_identity",
]
