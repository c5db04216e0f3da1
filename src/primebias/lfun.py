"""Dirichlet L-values at s = 0 and s = 1 and the correction products A.

For a non-principal character chi mod m the finite formulas

    L(0, chi) = -(1/m) sum_{a=1}^{m} chi(a) a
    L(1, chi) = -(1/m) sum_{a=1}^{m-1} chi(a) psi(a/m)

are exact, with psi the digamma function.  psi at the points a/m comes
from Gauss's digamma theorem,

    psi(a/m) = -gamma - log(2m) - (pi/2) cot(pi a/m)
               + sum_{n=1}^{m-1} cos(2 pi n a/m) log sin(pi n/m),

whose cosine sum is the real part of one FFT, so L(1, chi) needs numpy
only.  The Euler-type product

    A(q, chi) = prod_{p | q} (1 - chi(p)/p)
              * prod_{p !| q} (1 - (1 - chi(p))^2 / (p-1)^2)

converges absolutely; it is truncated at a bound P with the tail of the
log-product dominated by sum_{p > P} 4/(p-1)^2 <= 5 / (P log P).  The
combinations C(q, chi) = L(0,chi) L(1,chi) A(q,chi) vanish identically
for even chi and drive all the second-order bias constants.

chi may live on any modulus m dividing the ambient q (and for the
reduction identities also on moduli coprime to parts of q); chi(p) is
always evaluated with chi's own modulus.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import InternalConsistencyError, prime_factors, primes_upto
from .characters import DirichletCharacter, character_group

__all__ = [
    "DEFAULT_TRUNCATION",
    "l_at_zero",
    "l_at_one",
    "a_q_chi",
    "c_q_chi",
    "reduce_c",
    "tail_bound",
    "CTable",
    "build_ctable",
]

DEFAULT_TRUNCATION = 20_000_000

# Primes below EXACT_BOUND are multiplied exactly; above it the series for
# log(1 - u w_p), |u| <= 4, w_p = 1/(p-1)^2, stops after SERIES_TERMS
# powers.  The dropped part is at most sum_{p >= EXACT_BOUND}
# (4 w_p)^4 / (4 (1 - 4 w_p)) ~ 1e-21, far below double rounding.
EXACT_BOUND = 1000
SERIES_TERMS = 3


def tail_bound(truncation: int) -> float:
    """Upper bound for sum_{p > P} 4/(p-1)^2, the dropped log-product mass."""
    if truncation < 100:
        raise ValueError("truncation too small for the tail estimate")
    return 5.0 / (truncation * math.log(truncation))


def l_at_zero(chi: DirichletCharacter) -> complex:
    """L(0, chi) for non-principal chi; exactly 0 for even characters."""
    if chi.is_principal():
        raise ValueError("L(0, chi) requires a non-principal character")
    if not chi.is_odd():
        return 0j
    m = chi.modulus
    a = np.arange(1, m + 1)
    return complex(-(chi.values_table()[a % m] @ a) / m)


@lru_cache(maxsize=256)
def _digamma_at(m: int) -> np.ndarray:
    """psi(a/m) for a = 1..m-1 by Gauss's digamma theorem, read-only."""
    a = np.arange(1, m)
    # sin and cot from the angle folded into (0, pi/2], which keeps them
    # accurate near pi; cot changes sign under the fold
    angle = np.pi * np.minimum(a, m - a) / m
    log_sin = np.zeros(m)
    log_sin[1:] = np.log(np.sin(angle))
    cot = np.sign(m - 2 * a) / np.tan(angle)
    out = -np.euler_gamma - math.log(2 * m) - np.pi / 2 * cot
    out += np.fft.fft(log_sin).real[1:]
    out.flags.writeable = False
    return out


def l_at_one(chi: DirichletCharacter) -> complex:
    """L(1, chi) for non-principal chi via the digamma formula."""
    if chi.is_principal():
        raise ValueError("L(1, chi) requires a non-principal character")
    m = chi.modulus
    return complex(-(chi.values_table()[1:] @ _digamma_at(m)) / m)


@lru_cache(maxsize=64)
def _residue_power_sums(m: int, truncation: int) -> np.ndarray:
    """S[k-1, a] = sum of w_p^k over EXACT_BOUND <= p <= P, p = a mod m.

    w_p = 1/(p-1)^2 and k = 1..SERIES_TERMS; shape (SERIES_TERMS, m),
    read-only.  One pass over the primes per (modulus, truncation), after
    which every A(q, chi) with chi mod m costs O(SERIES_TERMS m).
    """
    primes = primes_upto(truncation)
    primes = primes[np.searchsorted(primes, EXACT_BOUND):]
    residues = primes % m
    w = primes - 1.0
    w *= w
    np.reciprocal(w, out=w)
    out = np.empty((SERIES_TERMS, m))
    wk = w
    for k in range(SERIES_TERMS):
        out[k] = np.bincount(residues, weights=wk, minlength=m)
        wk = wk * w
    out.flags.writeable = False
    return out


def a_q_chi(
    q: int, chi: DirichletCharacter, truncation: int = DEFAULT_TRUNCATION
) -> tuple[complex, float]:
    """Truncated A(q, chi) together with its tail bound.

    The ambient modulus q decides which primes sit in the "p | q" factor;
    chi keeps its own modulus.  Requires q <= truncation so every prime
    dividing q is inside the sieve range.

    Primes below EXACT_BOUND and primes dividing q are multiplied factor
    by factor.  For every other p <= P the logarithm of the factor,
    log(1 - u w_p) with u = (1 - chi(p))^2, is expanded to SERIES_TERMS
    powers of w_p; u depends on p mod m only, so the sum over those
    primes is a contraction of the per-residue sums of w_p^k.
    """
    q = int(q)
    if q < 1 or q > truncation:
        raise ValueError(f"need 1 <= q <= truncation, got q={q}")
    m = chi.modulus
    vals = chi.values_table()
    u = (1.0 - vals) ** 2

    small = primes_upto(min(truncation, EXACT_BOUND - 1))
    z = vals[small % m]
    factor = np.where(q % small == 0, 1.0 - z / small,
                      1.0 - (1.0 - z) ** 2 / (small - 1.0) ** 2)
    value = complex(np.prod(factor))

    # one pass over the primes serves every modulus dividing q
    base = math.lcm(q, m)
    sums = _residue_power_sums(base, truncation)
    sums = sums.reshape(SERIES_TERMS, base // m, m).sum(axis=1)
    uk = np.ones(m, dtype=np.complex128)
    log_rest = 0j
    for k in range(1, SERIES_TERMS + 1):
        uk = uk * u
        log_rest -= (uk @ sums[k - 1]) / k
    # primes dividing q beyond the exact bound leave the series for their
    # own (1 - chi(p)/p) factor
    for p in prime_factors(q):
        if p >= EXACT_BOUND:
            up, wp = u[p % m], 1.0 / (p - 1.0) ** 2
            log_rest += sum((up * wp) ** k / k for k in range(1, SERIES_TERMS + 1))
            value *= 1.0 - vals[p % m] / p
    return value * cmath.exp(log_rest), tail_bound(truncation)


@lru_cache(maxsize=8192)
def c_q_chi(
    q: int, chi: DirichletCharacter, truncation: int = DEFAULT_TRUNCATION
) -> complex:
    """C(q, chi) = L(0,chi) L(1,chi) A(q,chi); exactly 0 unless chi is odd."""
    if chi.is_principal() or not chi.is_odd():
        return 0j
    a_val, _ = a_q_chi(q, chi, truncation)
    return l_at_zero(chi) * l_at_one(chi) * a_val


def reduce_c(
    q: int, chi: DirichletCharacter, truncation: int = DEFAULT_TRUNCATION
) -> complex:
    """C(q, chi) via the reduction identities, cross-checked against the direct product.

    Route 1 (always): through the primitive character chi* of conductor f,
        C(q, chi) = C(q, chi*) prod_{p | m} (1 - chi*(p)).
    Route 2 (q even, chi of odd modulus): with q0 the odd part of q,
        C(q, chi) = (conj(chi)(2)/2) C(q0, chi).
    Both must agree with the direct evaluation; the identities are exact
    at any fixed truncation, so the tolerance is rounding-level.
    """
    direct = c_q_chi(q, chi, truncation)

    chi_star = chi.primitive()
    extra = 1.0 + 0j
    for p in prime_factors(chi.modulus):
        extra *= 1.0 - chi_star(p)
    via_primitive = c_q_chi(q, chi_star, truncation) * extra
    scale = max(abs(direct), 1.0)
    if abs(via_primitive - direct) > 1e-9 * scale:
        raise InternalConsistencyError(
            f"primitive reduction mismatch for q={q}, chi={chi.name()}: "
            f"{via_primitive} vs {direct}"
        )

    if q % 2 == 0 and chi.modulus % 2 == 1:
        q0 = q
        while q0 % 2 == 0:
            q0 //= 2
        via_dyadic = np.conj(chi(2)) / 2.0 * c_q_chi(q0, chi, truncation)
        if abs(via_dyadic - direct) > 1e-9 * scale:
            raise InternalConsistencyError(
                f"dyadic reduction mismatch for q={q}, chi={chi.name()}: "
                f"{via_dyadic} vs {direct}"
            )

    return via_primitive


@dataclass(frozen=True)
class CTableRow:
    name: str
    conductor: int
    parity: int
    l0: complex
    l1: complex
    a: complex
    c: complex
    tail: float


@dataclass(frozen=True)
class CTable:
    """L-value summary for the non-principal characters mod q."""

    q: int
    truncation: int
    rows: tuple[CTableRow, ...]


def build_ctable(q: int, truncation: int = DEFAULT_TRUNCATION) -> CTable:
    rows = []
    for chi in character_group(int(q)).characters():
        if chi.is_principal():
            continue
        a_val, tail = a_q_chi(q, chi, truncation)
        l0 = l_at_zero(chi)
        l1 = l_at_one(chi)
        rows.append(
            CTableRow(
                name=chi.name(),
                conductor=chi.conductor(),
                parity=chi.parity(),
                l0=l0,
                l1=l1,
                a=a_val,
                c=l0 * l1 * a_val if chi.is_odd() else 0j,
                tail=tail,
            )
        )
    return CTable(q=int(q), truncation=truncation, rows=tuple(rows))
