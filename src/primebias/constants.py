"""Bias constants for consecutive-prime residue patterns.

The expected count of a pattern (a_1, ..., a_r) mod q among primes up to x
has the shape

    li(x)/phi(q)^r * (1 + c1 loglog x / log x + c2 / log x + ...),

with c1 elementary and c2 built out of the Proposition constants S_0^c(q, v),
the sawtooth B_q, the discrepancy epsilon_q and the character combinations
C(q, chi).  For pairs, c2 admits several independent closed forms (the direct
sum over residue classes, the character double sum, the divisor-reduced form,
plus special shapes on the diagonal and for prime q); every call cross-checks
the applicable forms against each other and refuses to return a value they
disagree on.  Longer patterns and skip patterns reduce to the pair constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import (
    InternalConsistencyError,
    Modulus,
    canonical_residue,
    epsilon_q,
    moebius,
    prime_factors,
    sawtooth_B,
    totient,
    von_mangoldt,
)
from .characters import character_group
from .lfun import c_q_chi

__all__ = [
    "InternalConsistencyError",
    "s0c",
    "s0_main",
    "c1",
    "c2_pair",
    "c2_pair_forms",
    "c2_general",
    "c2_symmetric_sum",
    "skip_coefficient",
    "ConjectureConstants",
    "conjecture_constants",
]

# forms are algebraically identical at any fixed truncation, so disagreement
# beyond accumulated rounding indicates a real defect
FORM_AGREEMENT_TOL = 1e-8

_IMAG_TOL = 1e-9


def _real(z: complex, what: str) -> float:
    if abs(z.imag) > _IMAG_TOL * max(1.0, abs(z.real)):
        raise InternalConsistencyError(f"{what} has imaginary residue {z.imag!r}")
    return z.real


@lru_cache(maxsize=4096)
def s0c(q: int, v: int, truncation: int | None = None) -> float:
    """The Proposition constant S_0^c(q, v).

    For v = 0 mod q this is the constant term next to -(phi/2q) log H:
        (phi/2q)(log(q/2pi) - sum_{p|q} log p/(p-1)) + 1/2.
    For (v, q) = d < q:
        -(phi/2q) Lambda(q/d)/phi(q/d) - B_q(v)
        + (1/phi(q/d)) sum_{chi != chi0 mod q/d} conj(chi)(v/d) C(q, chi).
    """
    if q < 3:
        raise ValueError(f"modulus must be >= 3, got {q}")
    phi = totient(q)
    vc = v % q
    if vc == 0:
        tot = math.log(q / (2 * math.pi)) - sum(
            math.log(p) / (p - 1) for p in prime_factors(q)
        )
        return phi / (2 * q) * tot + 0.5
    d = math.gcd(vc, q)
    qd = q // d
    out: complex = -phi / (2 * q) * von_mangoldt(qd) / totient(qd) - sawtooth_B(q, vc)
    group = character_group(qd)
    acc = 0j
    for chi in group.characters():
        if chi.is_principal():
            continue
        acc += chi.conjugate()(vc // d) * c_q_chi(q, chi, truncation)
    out += acc / totient(qd)
    return _real(out, f"S_0^c({q},{v})")


def s0_main(q: int, v: int, H: float, truncation: int | None = None) -> float:
    """Main terms of S_0(q, v; H): the log H slope appears only for v = 0."""
    if H <= 0:
        raise ValueError("H must be positive")
    if v % q == 0:
        return -totient(q) / (2 * q) * math.log(H) + s0c(q, 0, truncation)
    return s0c(q, v, truncation)


def c1(q: int, classes: tuple[int, ...] | list[int]) -> float:
    """First-order coefficient (phi/2)((r-1)/phi - #adjacent repeats)."""
    mod = Modulus(q)
    canon = tuple(mod.canonical(a) for a in classes)
    for a in canon:
        if math.gcd(a, q) != 1:
            raise ValueError(f"class {a} not coprime to {q}")
    r = len(canon)
    if r < 2:
        raise ValueError("patterns need r >= 2")
    repeats = sum(1 for x, y in zip(canon, canon[1:]) if x == y)
    return mod.phi / 2 * ((r - 1) / mod.phi - repeats)


# ---------------------------------------------------------------------------
# the five closed forms for the pair constant c2(q; (a, b))
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def _shifted_s0c_sum(q: int, shift: int, truncation: int | None) -> float:
    """sum over v mod q with gcd(v + shift, q) = 1 of S_0^c(q, v)."""
    return sum(
        s0c(q, v, truncation)
        for v in range(1, q + 1)
        if math.gcd(v + shift, q) == 1
    )


@lru_cache(maxsize=128)
def _coprime_difference_sum(q: int, truncation: int | None) -> float:
    """sum over reduced v1, v2 of S_0^c(q, v2 - v1), grouped by difference."""
    classes = Modulus(q).classes
    counts: dict[int, int] = {}
    for v1 in classes:
        for v2 in classes:
            dd = canonical_residue(q, v2 - v1)
            counts[dd] = counts.get(dd, 0) + 1
    return sum(n * s0c(q, dd, truncation) for dd, n in counts.items())


def _c2_direct(q: int, a: int, b: int, truncation: int | None) -> float:
    """Direct class sum: every S_0^c(q, v) enters with its density weight."""
    phi = totient(q)
    t = -epsilon_q(q, a, b) / phi
    t += s0c(q, b - a, truncation) + sawtooth_B(q, b - a) - 1 / (2 * phi)
    t -= _shifted_s0c_sum(q, a % q, truncation) / phi
    t -= _shifted_s0c_sum(q, (-b) % q, truncation) / phi
    t += _coprime_difference_sum(q, truncation) / phi**2
    return q * t


@lru_cache(maxsize=128)
def _odd_character_kernels(q: int, truncation: int | None) -> tuple:
    """(d, K_d) for each divisor d > 1 of q that has odd characters.

    K_d(u) = sum over odd chi mod d of C(q, chi) conj(chi)(u), u = 0..d-1,
    so the character form's inner double sum is one dot product per d.
    """
    out = []
    for d in range(2, q + 1):
        if q % d:
            continue
        odd = [chi for chi in character_group(d).characters() if chi.is_odd()]
        if not odd:
            continue
        c_vals = np.array([c_q_chi(q, chi, truncation) for chi in odd])
        conj = np.array([chi.conjugate().values_table() for chi in odd])
        kernel = c_vals @ conj
        kernel.flags.writeable = False
        out.append((d, kernel))
    return tuple(out)


def _c2_character(q: int, a: int, b: int, truncation: int | None) -> float:
    """Character double sum over divisors d > 1 of q and odd chi mod d."""
    phi = totient(q)
    out: complex = math.log(2 * math.pi) / (2 * q)
    out += s0c(q, b - a, truncation) + sawtooth_B(q, b - a)
    for d, kernel in _odd_character_kernels(q, truncation):
        u = np.arange(d) * (q // d)
        # how many of u q/d + a and u q/d - b are coprime to q, per u mod d
        hits = (np.gcd(u + a, q) == 1).astype(float) + (np.gcd(u - b, q) == 1)
        out -= (kernel @ hits) / (phi * totient(d))
    return q * _real(out, f"c2 character form ({q};{a},{b})")


def _c2_reduced(q: int, a: int, b: int, truncation: int | None) -> float:
    """Divisor-reduced form: everything pushed to the odd part q0 of q."""
    q0 = q
    while q0 % 2 == 0:
        q0 //= 2
    out: complex = math.log(2 * math.pi) / 2
    out += q * s0c(q, b - a, truncation) + q * sawtooth_B(q, b - a)
    tail = 0j
    for d in range(1, q0 + 1):
        if q0 % d:
            continue
        mu = moebius(d)
        if mu == 0:
            continue
        group = character_group(d)
        inner = 0j
        for chi in group.characters():
            c_val = c_q_chi(q0, chi, truncation)
            if c_val == 0:
                continue
            conj = chi.conjugate()
            inner += c_val * (conj(b) - conj(a))
        tail += mu / totient(d) * inner
    out -= q0 / totient(q0) * tail
    return _real(out, f"c2 reduced form ({q};{a},{b})")


def _c2_diagonal(q: int, truncation: int | None) -> float:
    """Closed form on the diagonal a = b; no characters survive."""
    phi = totient(q)
    return (
        phi * math.log(q / (2 * math.pi)) + math.log(2 * math.pi)
    ) / 2 - phi / 2 * sum(math.log(p) / (p - 1) for p in prime_factors(q))


def _c2_prime(q: int, a: int, b: int, truncation: int | None) -> float:
    """Prime q, a != b: single character sum over the full group mod q."""
    phi = totient(q)
    group = character_group(q)
    acc = 0j
    v = canonical_residue(q, b - a)
    for chi in group.characters():
        if chi.is_principal():
            continue
        c_val = c_q_chi(q, chi, truncation)
        if c_val == 0:
            continue
        conj = chi.conjugate()
        acc += c_val * (conj(v) + (conj(b) - conj(a)) / phi)
    out = math.log(2 * math.pi / q) / 2 + q / phi * acc
    return _real(out, f"c2 prime form ({q};{a},{b})")


def c2_pair_forms(
    q: int, a: int, b: int, truncation: int | None = None
) -> dict[str, float]:
    """All applicable closed forms of c2(q; (a, b)), keyed by method tag."""
    mod = Modulus(q)
    a, b = mod.canonical(a), mod.canonical(b)
    if math.gcd(a, q) != 1 or math.gcd(b, q) != 1:
        raise ValueError(f"classes ({a},{b}) not reduced mod {q}")
    forms = {
        "direct": _c2_direct(q, a, b, truncation),
        "character": _c2_character(q, a, b, truncation),
        "reduced": _c2_reduced(q, a, b, truncation),
    }
    if a == b:
        forms["diagonal"] = _c2_diagonal(q, truncation)
    else:
        ps = prime_factors(q)
        if len(ps) == 1 and ps[0] == q:
            forms["prime_q"] = _c2_prime(q, a, b, truncation)
    return forms


def c2_pair(
    q: int, a: int, b: int, truncation: int | None = None
) -> float:
    """c2 for a pair, from the divisor-reduced form.

    Every other applicable form is computed as well, and any disagreement
    beyond FORM_AGREEMENT_TOL aborts the call.
    """
    forms = c2_pair_forms(q, a, b, truncation)
    ref = forms["reduced"]
    for tag, val in forms.items():
        if abs(val - ref) > FORM_AGREEMENT_TOL * max(1.0, abs(ref)):
            raise InternalConsistencyError(
                f"c2({q};({a},{b})) forms disagree: {tag}={val!r} vs reduced={ref!r}"
            )
    return ref


def c2_general(
    q: int,
    classes: tuple[int, ...] | list[int],
    truncation: int | None = None,
) -> float:
    """c2 for an r-tuple: adjacent pair constants plus the lag corrections.

    c2(q; a) = sum_i c2(q; (a_i, a_{i+1}))
             + (phi/2) sum_{j=1}^{r-2} (1/j) ((r-1-j)/phi - #{i : a_i = a_{i+j+1}}).
    """
    mod = Modulus(q)
    canon = tuple(mod.canonical(x) for x in classes)
    r = len(canon)
    if r < 2:
        raise ValueError("patterns need r >= 2")
    total = sum(
        c2_pair(q, canon[i], canon[i + 1], truncation) for i in range(r - 1)
    )
    phi = mod.phi
    for j in range(1, r - 1):
        lag = sum(1 for i in range(r - 1 - j) if canon[i] == canon[i + j + 1])
        total += phi / 2 / j * ((r - 1 - j) / phi - lag)
    return total


def c2_symmetric_sum(q: int, a: int, b: int) -> float:
    """Closed form of c2(q;(a,b)) + c2(q;(b,a)) for a != b mod q.

    Equals log 2pi - phi(q) Lambda(q/(q, b-a)) / phi(q/(q, b-a)); no
    character data enters, which makes it a sharp cross-check.
    """
    mod = Modulus(q)
    a, b = mod.canonical(a), mod.canonical(b)
    if a == b:
        raise ValueError("defined for distinct classes only")
    d = math.gcd(b - a, q)
    qd = q // d
    return math.log(2 * math.pi) - mod.phi * von_mangoldt(qd) / totient(qd)


def skip_coefficient(q: int, k: int, equal: bool) -> tuple[float, float]:
    """(c1, c2)-style coefficients for patterns of primes k apart in the sequence.

    The loglog term cancels after averaging over the intermediate classes;
    the 1/log x coefficient is 1/(2(k-1)) for a != b and -(phi-1)/(2(k-1))
    on the diagonal.
    """
    if k < 2:
        raise ValueError("skip distance must be >= 2")
    phi = totient(q)
    if equal:
        return 0.0, -(phi - 1) / (2 * (k - 1))
    return 0.0, 1 / (2 * (k - 1))


@dataclass(frozen=True)
class ConjectureConstants:
    """c1/c2 bundle for a pattern."""

    q: int
    classes: tuple[int, ...]
    c1: float
    c2: float
    c2_method: str


def conjecture_constants(
    q: int,
    classes: tuple[int, ...] | list[int],
    truncation: int | None = None,
) -> ConjectureConstants:
    mod = Modulus(q)
    canon = tuple(mod.canonical(x) for x in classes)
    if len(canon) == 2:
        c2_val = c2_pair(q, canon[0], canon[1], truncation)
    else:
        c2_val = c2_general(q, canon, truncation)
    return ConjectureConstants(
        q=q,
        classes=canon,
        c1=c1(q, canon),
        c2=c2_val,
        c2_method="reduced",
    )
