"""Biases in residue patterns of consecutive primes: counts, constants,
and predictions."""

__version__ = "0.1.0"

from .arith import (
    InternalConsistencyError,
    Modulus,
    ResiduePattern,
    canonical_residue,
    epsilon_q,
    pattern_epsilon,
    prime_factors,
    primes_upto,
    sawtooth_B,
    totient,
    von_mangoldt,
)
from .characters import CharacterGroup, DirichletCharacter, character_group
from .constants import (
    ConjectureConstants,
    c1,
    c2_general,
    c2_pair,
    c2_pair_forms,
    c2_symmetric_sum,
    conjecture_constants,
    s0_main,
    s0c,
    skip_coefficient,
)
from .lfun import (
    CTable,
    CTableRow,
    a_q_chi,
    build_ctable,
    c_q_chi,
    l_at_one,
    l_at_zero,
    reduce_c,
    tail_bound,
)
from .predict import (
    DensityTerms,
    adaptive_gauss_legendre,
    PredictionRow,
    always_bias_difference,
    asymptotic_prediction,
    density_terms_brute,
    density_terms_semianalytic,
    integral_lower_limit,
    integral_prediction,
    li,
    quad_residue_sum_prediction,
    skip_prediction,
)
from .sieve import (
    CountTable,
    SieveConfig,
    character_sum,
    count_patterns,
    count_patterns_series,
    stream_primes,
)
from .singular import (
    S0Sum,
    SingularContext,
    s0_brute,
    s0_moment_main,
    singular_pair,
    singular_pair_zero,
    singular_zero,
)

__all__ = [
    "Modulus", "ResiduePattern", "canonical_residue", "epsilon_q",
    "pattern_epsilon", "prime_factors", "primes_upto", "sawtooth_B",
    "totient", "von_mangoldt",
    "CharacterGroup", "DirichletCharacter", "character_group",
    "ConjectureConstants", "InternalConsistencyError", "c1", "c2_general",
    "c2_pair", "c2_pair_forms", "c2_symmetric_sum", "conjecture_constants",
    "s0_main", "s0c", "skip_coefficient",
    "CTable", "CTableRow", "a_q_chi", "build_ctable", "c_q_chi", "l_at_one",
    "l_at_zero", "reduce_c", "tail_bound",
    "DensityTerms", "PredictionRow", "adaptive_gauss_legendre",
    "always_bias_difference",
    "asymptotic_prediction", "density_terms_brute",
    "density_terms_semianalytic", "integral_lower_limit",
    "integral_prediction", "li", "quad_residue_sum_prediction",
    "skip_prediction",
    "CountTable", "SieveConfig", "character_sum", "count_patterns",
    "count_patterns_series", "stream_primes",
    "S0Sum", "SingularContext", "s0_brute", "s0_moment_main",
    "singular_pair", "singular_pair_zero", "singular_zero",
]
