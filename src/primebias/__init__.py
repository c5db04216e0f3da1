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
        "canonical_residue", "epsilon_q", "pattern_epsilon", "prime_factors",
        "primes_upto", "sawtooth_B", "totient", "von_mangoldt",
    ), "arith"),
    **dict.fromkeys((
        "CharacterGroup", "DirichletCharacter", "character_group",
    ), "characters"),
    **dict.fromkeys((
        "c1", "c2_general", "c2_pair", "c2_pair_forms", "c2_symmetric_sum",
        "s0_main", "s0c", "skip_coefficient",
    ), "constants"),
    **dict.fromkeys((
        "CTable", "CTableRow", "a_q_chi", "build_ctable", "c_q_chi",
        "l_at_one", "l_at_zero", "reduce_c", "tail_bound",
    ), "lfun"),
    **dict.fromkeys((
        "DensityTerms", "PredictionRow", "adaptive_gauss_legendre",
        "always_bias_difference", "asymptotic_prediction",
        "density_terms_brute", "density_terms_semianalytic",
        "integral_lower_limit", "integral_prediction", "li",
        "quad_residue_sum_prediction", "skip_prediction",
    ), "predict"),
    **dict.fromkeys((
        "CountTable", "SieveConfig", "character_sum", "count_patterns",
        "count_patterns_series", "stream_primes",
    ), "sieve"),
    **dict.fromkeys((
        "S0Sum", "SingularContext", "s0_brute", "s0_moment_main",
        "singular_pair", "singular_pair_zero", "singular_zero",
    ), "singular"),
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
