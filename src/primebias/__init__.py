"""Biases in residue patterns of consecutive primes: counts, constants,
and predictions.

Importing the package loads nothing else: each public name is imported
from its submodule on first access (PEP 562), so a command that counts
never loads the constants and a short run pays only for what it uses.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_SUBMODULE = {
    **dict.fromkeys((
        "InternalConsistencyError", "Modulus", "ResiduePattern",
        "canonical_residue", "epsilon_q", "prime_factors", "primes_upto",
        "totient", "von_mangoldt",
    ), "arith"),
    **dict.fromkeys((
        "CharacterGroup", "DirichletCharacter", "character_group",
    ), "characters"),
    **dict.fromkeys((
        "c1", "c2_general", "c2_pair", "c2_pair_forms", "s0_main", "s0c",
        "skip_coefficient",
    ), "constants"),
    **dict.fromkeys((
        "CTable", "CTableRow", "build_ctable", "tail_bound", "twin_product",
    ), "lfun"),
    **dict.fromkeys((
        "PredictionRow", "adaptive_gauss_legendre", "asymptotic_prediction",
        "integral_lower_limit", "integral_prediction", "li",
        "skip_prediction",
    ), "predict"),
    **dict.fromkeys((
        "CountTable", "SieveConfig", "count_patterns",
        "count_patterns_series", "stream_primes",
    ), "sieve"),
    **dict.fromkeys((
        "S0Sum", "SingularContext", "s0_brute",
    ), "singular"),
    # check-only routes, which no command loads
    **dict.fromkeys((
        "DensityTerms", "always_bias_difference", "c2_symmetric_sum",
        "character_sum", "conjugate_character", "density_terms_brute",
        "primitive_character", "principal_character",
        "quad_residue_sum_prediction", "reduce_c",
        "repeat_count", "sawtooth_B", "singular_pair", "singular_zero",
    ), "oracles"),
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__),
                    name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
