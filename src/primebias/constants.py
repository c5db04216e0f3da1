"""Bias constants for consecutive-prime residue patterns.

The expected count of a pattern (a_1, ..., a_r) mod q among primes up to x
has the shape

    li(x)/phi(q)^r * (1 + c1 loglog x / log x + c2 / log x + ...),

with c1 elementary and c2 built out of the Proposition constants S_0^c(q, v),
the sawtooth B_q, the discrepancy epsilon_q and the character combinations
C(q, chi), which enter through one kernel per divisor d of a modulus,
K(u) = sum over chi mod d of C(q, chi) conj(chi)(u).  Every closed form of
the pair constant has the shape c2(q; (a, b)) = F(b - a) + G(a) + H(b).  One
table per q holds them all, and no value is returned until every applicable
form agrees with the divisor-reduced one on every pair.  Longer patterns and
skip patterns reduce to the pair constants, for one pattern or a grid.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .arith import (
    InternalConsistencyError,
    Modulus,
    ResiduePattern,
    moebius,
    prime_factors,
    totient,
    von_mangoldt,
)
from .characters import character_group
from .lfun import c_q_chi

__all__ = [
    "InternalConsistencyError", "s0c", "s0c_vector", "s0_main", "c1",
    "c2_pair", "c2_pair_forms", "c2_general", "c2_symmetric_sum",
    "skip_coefficient",
]

# forms are algebraically identical at any fixed truncation, so disagreement
# beyond accumulated rounding indicates a real defect
FORM_AGREEMENT_TOL = 1e-8

_IMAG_TOL = 1e-9


def _real(z: np.ndarray, what: str) -> np.ndarray:
    """The real part of z, refusing any imaginary residue above rounding."""
    bad = np.abs(z.imag) > _IMAG_TOL * np.maximum(1.0, np.abs(z.real))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise InternalConsistencyError(
            f"{what} has imaginary residue {z.imag[i]!r} at {i}"
        )
    return z.real


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _sawtooth(q: int) -> np.ndarray:
    """B_q(v) for v = 0..q-1, with v = 0 read as q (see arith.sawtooth_B)."""
    return 0.5 - np.r_[q, 1:q] / q


@lru_cache(maxsize=1024)
def _kernel(q: int, d: int, truncation: int | None) -> np.ndarray:
    """K(u) = sum over chi mod d of C(q, chi) conj(chi)(u), u = 0..d-1.

    Only odd characters have C(q, chi) != 0.  They come in conjugate pairs
    with conjugate C values, so the kernel is real.
    """
    odd = [chi for chi in character_group(d).characters() if chi.is_odd()]
    c_vals = np.array([c_q_chi(q, chi, truncation) for chi in odd], dtype=complex)
    values = np.array([chi.values_table() for chi in odd]).reshape(len(odd), d)
    kernel = _real(c_vals @ values.conj(), f"K(q={q}, d={d})")
    kernel.flags.writeable = False
    return kernel


@lru_cache(maxsize=64)
def s0c_vector(q: int, truncation: int | None = None) -> np.ndarray:
    """The Proposition constants S_0^c(q, v) for v = 0..q-1, read-only.

    For v = 0 mod q this is the constant term next to -(phi/2q) log H:
        (phi/2q)(log(q/2pi) - sum_{p|q} log p/(p-1)) + 1/2.
    For (v, q) = d < q:
        -(phi/2q) Lambda(q/d)/phi(q/d) - B_q(v)
        + (1/phi(q/d)) sum_{chi != chi0 mod q/d} conj(chi)(v/d) C(q, chi).
    """
    phi = Modulus(q).phi  # validates q >= 3
    out = np.empty(q)
    out[0] = phi / (2 * q) * (
        math.log(q / (2 * math.pi))
        - sum(math.log(p) / (p - 1) for p in prime_factors(q))
    ) + 0.5
    sawtooth = _sawtooth(q)
    for d in _divisors(q)[:-1]:
        qd = q // d
        u = np.flatnonzero(np.gcd(np.arange(qd), qd) == 1)
        v = d * u
        phi_qd = totient(qd)
        out[v] = -phi / (2 * q) * von_mangoldt(qd) / phi_qd - sawtooth[v]
        out[v] += _kernel(q, qd, truncation)[u] / phi_qd
    out.flags.writeable = False
    return out


def s0c(q: int, v: int, truncation: int | None = None) -> float:
    """The Proposition constant S_0^c(q, v); see s0c_vector."""
    return float(s0c_vector(q, truncation)[v % q])


def s0_main(q: int, v: int, H: float, truncation: int | None = None) -> float:
    """Main terms of S_0(q, v; H): the log H slope appears only for v = 0."""
    if H <= 0:
        raise ValueError("H must be positive")
    if v % q == 0:
        return -totient(q) / (2 * q) * math.log(H) + s0c(q, 0, truncation)
    return s0c(q, v, truncation)


def _coincidences(classes, j: int):
    """#{i : a_i = a_{i+j+1}} for patterns as in _pattern_constants."""
    # sum() starts from the integer 0, so bool arrays add up as counts
    return sum(x == y for x, y in zip(classes, classes[j + 1:]))


def _pattern_c1(phi: int, classes):
    """c1 for patterns as in _pattern_constants."""
    if len(classes) < 2:
        raise ValueError("patterns need r >= 2")
    return phi / 2 * ((len(classes) - 1) / phi - _coincidences(classes, 0))


def c1(q: int, classes: tuple[int, ...] | list[int]) -> float:
    """First-order coefficient (phi/2)((r-1)/phi - #adjacent repeats)."""
    pat = ResiduePattern(q, tuple(classes))
    return float(_pattern_c1(pat.modulus.phi, pat.classes))


# ---------------------------------------------------------------------------
# the closed forms for the pair constant c2(q; (a, b)), one table per q
# ---------------------------------------------------------------------------


class _PairForm(NamedTuple):
    """c2(q; (a, b)) = f[(b - a) mod q] + g[a mod q] + h[b mod q]."""

    f: np.ndarray
    g: np.ndarray
    h: np.ndarray

    def at(self, q: int, a, b):
        """The value at (a, b); arrays of a and b broadcast to a grid."""
        return self.f[(b - a) % q] + self.g[a % q] + self.h[b % q]


def _reduced_form(q: int, f: np.ndarray, truncation: int | None) -> _PairForm:
    """Divisor-reduced form: the characters pushed to the odd part q0 of q.

    G(a) = -H(a) = (q0/phi(q0)) sum_{d | q0} mu(d)/phi(d) K_{q0,d}(a).
    """
    q0 = q // (q & -q)  # q & -q is the largest power of 2 dividing q
    residues = np.arange(q)
    k0 = np.zeros(q)
    for d in _divisors(q0):
        mu = moebius(d)
        if mu:
            k0 += mu / totient(d) * _kernel(q0, d, truncation)[residues % d]
    k0 *= q0 / totient(q0)
    return _PairForm(f, k0, -k0)


def _direct_form(q: int, s0: np.ndarray) -> _PairForm:
    """Direct class sum: every S_0^c(q, v) enters with its density weight.

    c2 = q (S(b-a) + B(b-a) - 1/(2 phi) + D/phi^2
            - (Sh(a) + Sh(-b) + epsilon_q(a, b)) / phi),
    with Sh(s) the sum of S(u - s) over units u, D = sum over units of Sh,
    and epsilon_q(a, b) = (U(b - 1) - phi b/q) - (U(a) - phi a/q), with U(n)
    the number of units in [1, n] and a, b read in [1, q].
    """
    phi = totient(q)
    units = np.array(Modulus(q).classes)
    residues = np.arange(q)
    sh = s0[(units[None, :] - residues[:, None]) % q].sum(axis=1)
    total = sh[units].sum()
    upto = np.cumsum(np.gcd(np.arange(q + 1), q) == 1)
    canon = np.r_[q, 1:q]
    eps_a = upto[canon] - phi * canon / q
    eps_b = upto[canon - 1] - phi * canon / q
    f = q * (s0 + _sawtooth(q) - 1 / (2 * phi) + total / phi**2)
    g = q * (eps_a - sh) / phi
    h = -q * (sh[(-residues) % q] + eps_b) / phi
    return _PairForm(f, g, h)


def _character_form(q: int, f: np.ndarray, truncation: int | None) -> _PairForm:
    """Character double sum over divisors d > 1 of q and odd chi mod d.

    G(a) = -q W(a) and H(b) = -q W(-b), where
    W(s) = sum_d sum_u K_{q,d}(u) [gcd(u q/d + s, q) = 1] / (phi phi(d)).
    """
    phi = totient(q)
    residues = np.arange(q)
    coprime = (np.gcd(residues, q) == 1).astype(float)
    w = np.zeros(q)
    for d in _divisors(q)[1:]:
        shifted = np.arange(d)[:, None] * (q // d) + residues[None, :]
        w += _kernel(q, d, truncation) @ coprime[shifted % q] / (phi * totient(d))
    return _PairForm(f, -q * w, -q * w[(-residues) % q])


def _prime_form(q: int, truncation: int | None) -> _PairForm:
    """Prime q, a != b: F(v) = log(2 pi/q)/2 + (q/phi) K_{q,q}(v), G = -H."""
    phi = q - 1
    k = q / phi * _kernel(q, q, truncation)
    return _PairForm(math.log(2 * math.pi / q) / 2 + k, -k / phi, k / phi)


def _c2_diagonal(q: int) -> float:
    """Closed form on the diagonal a = b; no characters survive."""
    phi = totient(q)
    return (
        phi * math.log(q / (2 * math.pi)) + math.log(2 * math.pi)
    ) / 2 - phi / 2 * sum(math.log(p) / (p - 1) for p in prime_factors(q))


# forms that apply only on (True) or only off (False) the diagonal a = b
_ON_DIAGONAL = {"diagonal": True, "prime_q": False}

_CHECK_BLOCK = 1 << 18  # pairs compared at once: a few MB at any q


def _check_forms(q: int, forms: Mapping[str, _PairForm]) -> None:
    """Compare every applicable form with the reduced one on every pair."""
    units = np.array(Modulus(q).classes)
    rows = max(1, _CHECK_BLOCK // len(units))
    for start in range(0, len(units), rows):
        a = units[start:start + rows, None]
        ref = forms["reduced"].at(q, a, units)
        tol = FORM_AGREEMENT_TOL * np.maximum(1.0, np.abs(ref))
        for tag, form in forms.items():
            got = form.at(q, a, units)
            bad = ~(np.abs(got - ref) <= tol)
            if tag in _ON_DIAGONAL:
                bad &= (a == units) == _ON_DIAGONAL[tag]
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise InternalConsistencyError(
                    f"c2({q};({a[i, 0]},{units[j]})) forms disagree: "
                    f"{tag}={got[i, j]!r} vs reduced={ref[i, j]!r}"
                )


@lru_cache(maxsize=16)
def _c2_table(q: int, truncation: int | None) -> Mapping[str, _PairForm]:
    """Every closed form of c2 mod q by method tag, checked entry by entry."""
    s0 = s0c_vector(q, truncation)
    f = math.log(2 * math.pi) / 2 + q * (s0 + _sawtooth(q))
    zeros = np.zeros(q)
    forms = {
        "direct": _direct_form(q, s0),
        "character": _character_form(q, f, truncation),
        "reduced": _reduced_form(q, f, truncation),
        "diagonal": _PairForm(np.full(q, _c2_diagonal(q)), zeros, zeros),
    }
    if prime_factors(q) == (q,):
        forms["prime_q"] = _prime_form(q, truncation)
    for form in forms.values():
        for vec in form:
            vec.flags.writeable = False
    _check_forms(q, forms)
    return MappingProxyType(forms)


def _pair_forms(q: int, a, b, truncation: int | None):
    """Yield (tag, values, applies) for every closed form, sorted by tag;
    applies marks the pairs (a, b) on which the form holds.  a and b are
    canonical classes or arrays of them that broadcast."""
    diagonal = np.equal(a, b)
    for tag, form in sorted(_c2_table(q, truncation).items()):
        yield tag, form.at(q, a, b), diagonal == _ON_DIAGONAL.get(tag, diagonal)


def c2_pair_forms(
    q: int, a: int, b: int, truncation: int | None = None
) -> dict[str, float]:
    """All applicable closed forms of c2(q; (a, b)), keyed by method tag."""
    a, b = ResiduePattern(q, (a, b)).classes
    return {tag: float(value)
            for tag, value, applies in _pair_forms(q, a, b, truncation)
            if applies}


def c2_pair(
    q: int, a: int, b: int, truncation: int | None = None
) -> float:
    """c2 for a pair, from the divisor-reduced form (checked in _c2_table)."""
    return c2_general(q, (a, b), truncation)


def _pattern_constants(q: int, classes, truncation: int | None):
    """c1 and c2 of the patterns (a_1, ..., a_r), entry by entry.

    classes holds r canonical reduced classes mod q, or arrays of them that
    broadcast together: np.ix_(*[Modulus(q).classes] * r) gives every
    pattern, in itertools.product order.  Only r >= 2 is checked.

    c2(q; a) = sum_i c2(q; (a_i, a_{i+1}))
             + (phi/2) sum_{j=1}^{r-2} (1/j) ((r-1-j)/phi - #{i : a_i = a_{i+j+1}}),
    summed in that order, so a pattern reads the same bits alone as in a grid.
    """
    phi, r = totient(q), len(classes)
    c1 = _pattern_c1(phi, classes)
    pair = _c2_table(q, truncation)["reduced"]
    c2 = pair.at(q, classes[0], classes[1])
    for x, y in zip(classes[1:], classes[2:]):
        c2 = c2 + pair.at(q, x, y)
    for j in range(1, r - 1):
        c2 = c2 + phi / 2 / j * ((r - 1 - j) / phi - _coincidences(classes, j))
    return c1, c2


def c2_general(
    q: int,
    classes: tuple[int, ...] | list[int],
    truncation: int | None = None,
) -> float:
    """c2 for an r-tuple: pair constants plus lag terms (_pattern_constants)."""
    canon = ResiduePattern(q, tuple(classes)).classes
    return float(_pattern_constants(q, canon, truncation)[1])


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
