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

converges absolutely, and by default it is taken in full.  Primes below
EXACT_BOUND = M and primes dividing q are multiplied exactly.  For every
other prime the logarithm of the factor is a power series in chi(p) and
1/p,

    log(1 - (1 - z)^2 / (p-1)^2) = sum_{s=2}^{K} sum_{l=0}^{s} c[s, l] z^l p^-s,

kept to K = SERIES_POWERS, so the sum over p >= M needs only the prime
sums P_M(s, psi) = sum_{p >= M} psi(p) p^-s for the powers psi = chi^l,
where chi^0 is 1 at every prime.  They come from Moebius inversion of
log L (H. Cohen, "High precision computation of Hardy-Littlewood
constants", 1998; P. Moree, Manuscripta Math. 101, 2000):

    P_M(s, psi) = sum_n mu(n)/n log L_M(ns, psi^n),
    L_M(t, psi) = L(t, psi) prod_{p < M} (1 - psi(p) p^-t),
    L(t, psi)   = m^-t sum_{a=1}^{m} psi(a) zeta(t, a/m),

with the Hurwitz zeta function from a short direct sum and an
Euler-Maclaurin tail.  log L_M(t, psi) is of size M^(1-t), so n stops at
ns <= K; tail_bound(None) bounds the dropped powers s > K (~3e-22).  An
explicit truncation P keeps the series and takes its prime sums over
M <= p <= P, one per residue mod m; its log-tail is dominated by
sum_{p > P} 4/(p-1)^2 <= 5 / (P log P) = tail_bound(P).  At chi(p) = 0
the series is that of the twin-prime factors 1 - 1/(p-1)^2, which the
singular series reads through large_prime_log, in full or truncated.
The combinations C(q, chi) = L(0,chi) L(1,chi) A(q,chi) vanish identically
for even chi and drive all the second-order bias constants.

chi may live on any modulus m dividing the ambient q, and also on moduli
coprime to parts of q; chi(p) is always evaluated with chi's own modulus.
Every value lives in one cached table per (q, m, truncation) that holds
L(0), L(1), A and C for all the characters mod m at once (_ctable;
build_ctable when m = q): one character's value is the entry at its row
of the group, and the table's tail is the tail bound of its A.  Each
sum over a, sum_a chi(a) f(a) for every chi mod m, is one unnormalised
inverse DFT over the unit group (CharacterGroup.transform; D. J. Platt,
Math. Comp. 85, 2016, takes the L-values of a modulus the same way):
L(0), L(1), the Hurwitz rows of log L and the truncated prime sums.  The
values chi(p) at the primes multiplied exactly are read from the labels
a block of characters at a time.  No phi(m) x m array is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import moebius, prime_factors, primes_upto
from .characters import CharacterGroup, character_group

__all__ = [
    "hurwitz_zeta",
    "large_prime_log",
    "tail_bound",
    "CTable",
    "build_ctable",
]

# Primes below EXACT_BOUND are multiplied exactly; the product expands
# the other factors, in full or up to a truncation, to p^-SERIES_POWERS.
EXACT_BOUND = 1000
SERIES_POWERS = 8


def tail_bound(truncation: int | None) -> float:
    """Bound on the log-product mass the evaluation of A(q, chi) drops.

    For a truncation P: sum_{p > P} 4/(p-1)^2 <= 5 / (P log P).  For
    None: the powers s > K = SERIES_POWERS of the expansion.  Summed over
    l, |c[s, l]| is at most 3^s / s (the series of log(1 - 4/(p-1)^2)),
    so the drop is at most sum_{p >= M} (3/p)^(K+1) / ((K+1)(1 - 3/p))
    <= 3^(K+1) / (K (K+1) (1 - 3/M) (M-1)^K), M = EXACT_BOUND.
    """
    if truncation is None:
        K, M = SERIES_POWERS, EXACT_BOUND
        return 3.0 ** (K + 1) / (K * (K + 1) * (1 - 3 / M) * (M - 1.0) ** K)
    if truncation < 100:
        raise ValueError("truncation too small for the tail estimate")
    return 5.0 / (truncation * math.log(truncation))


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


# Bernoulli numbers B_2, B_4, ..., B_12 for the Euler-Maclaurin tail
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)
HURWITZ_DIRECT = 12


def hurwitz_zeta(s, a) -> np.ndarray:
    """zeta(s, a) = sum_{n >= 0} (n + a)^-s for real s > 1 and a > 0.

    Elementwise over broadcast arrays.  The first HURWITZ_DIRECT terms
    are summed directly, smallest first, after the Euler-Maclaurin tail
    at y = a + HURWITZ_DIRECT through B_12; the first dropped term,
    |B_14|/14! s(s+1)...(s+12) y^(-s-13), is below 1e-16 for s <= 8.
    """
    s, a = np.broadcast_arrays(np.asarray(s, dtype=float),
                               np.asarray(a, dtype=float))
    y = a + HURWITZ_DIRECT
    out = y ** (1 - s) / (s - 1) + 0.5 * y ** -s
    # term_j = s(s+1)...(s+2j-2) / (2j)! y^(-s-2j+1)
    term = s * y ** (-s - 1) / 2
    for j, b in enumerate(_BERNOULLI, 1):
        out += b * term
        term = term * (s + 2 * j - 1) * (s + 2 * j) / (
            (2 * j + 1) * (2 * j + 2) * y * y)
    for n in range(HURWITZ_DIRECT - 1, -1, -1):
        out += (n + a) ** -s
    return out


def _log1p(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log(1 + x + iy), with small |x + iy| kept to relative precision."""
    return 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)


def _series_coefficients() -> np.ndarray:
    """c[s, l] with log(1 - (1-z)^2/(p-1)^2) = sum c[s, l] z^l p^-s.

    The logarithm is -sum_k (1-z)^(2k) / k * (p-1)^(-2k), and
    (p-1)^(-2k) = sum_{j >= 0} C(2k+j-1, j) p^(-2k-j); rows s < 2 are 0.
    """
    K = SERIES_POWERS
    c = [[Fraction(0)] * (K + 1) for _ in range(K + 1)]
    for s in range(2, K + 1):
        for k in range(1, s // 2 + 1):
            for l in range(2 * k + 1):
                c[s][l] -= Fraction((-1) ** l * math.comb(2 * k, l)
                                    * math.comb(s - 1, s - 2 * k), k)
    out = np.array(c, dtype=float)
    out.flags.writeable = False
    return out


_COEFFICIENTS = _series_coefficients()


def _power_rows(group: CharacterGroup) -> np.ndarray:
    """R[i, l], the row of chi_i^l for l = 1..SERIES_POWERS, and R[i, 0] =
    phi(m): the sums keep their column phi(m) for the function 1, which
    chi^0 is in the series even where chi vanishes."""
    powers = np.arange(SERIES_POWERS + 1)[:, None]
    rows = group.rows(group.labels[:, None, :] * powers)
    rows[:, 0] = group.phi
    return rows


@lru_cache(maxsize=64)
def _prime_sums(m: int, bound: int) -> np.ndarray:
    """S[s, j] = sum_{p >= bound} psi_j(p) p^-s for s = 2..SERIES_POWERS.

    psi_j runs over the characters mod m in label order, and the last
    column, j = phi(m), is the function 1 at every prime, whose L-function
    is zeta; rows 0 and 1 are 0.  Read-only.  One Hurwitz table serves
    every character and every t: for each residue r mod m it holds
    m^-t zeta(t, a_r/m), a_r the least positive member of r, except that
    the class of 1 starts at 1 + m, so one transform gives L(t, psi) - 1
    for every psi and log L stays accurate when it is small.
    """
    K = SERIES_POWERS
    group = character_group(m)

    t = np.arange(K + 1, dtype=float)[2:, None]
    start = np.arange(m, dtype=float)
    start[0] = m
    start[1 % m] += m
    hurwitz = m ** -t * hurwitz_zeta(t, start / m)
    # log L_M(t, psi) for t = 2..K, one row per t
    l_minus_1 = np.hstack([group.transform(hurwitz[:, group.units]),
                           hurwitz.sum(axis=1, keepdims=True)])
    log_l = _log1p(l_minus_1.real, l_minus_1.imag)
    small = primes_upto(bound - 1)
    r = -(1.0 / small) ** t
    log_l[:, -1] += _log1p(r, 0.0 * r).sum(axis=1)  # the function 1
    for rows, z in group.value_blocks(small):
        for i in range(K - 1):
            log_l[i, rows] += _log1p(z.real * r[i], z.imag * r[i]).sum(axis=1)

    powers = _power_rows(group)
    sums = np.zeros((K + 1, group.phi + 1), dtype=np.complex128)
    for s in range(2, K + 1):
        for n in range(K // s, 0, -1):
            mu = moebius(n)
            if mu:
                # psi^n; the function 1 stays 1
                rows = np.append(powers[:, n], group.phi)
                sums[s] += mu / n * log_l[n * s - 2, rows]
    sums.flags.writeable = False
    return sums


# passes over the primes kept for later folds: (modulus, truncation) ->
# sums, oldest dropped first
_passes: dict[tuple[int, int], np.ndarray] = {}
MAX_PASSES = 64


def _residue_power_sums(m: int, base: int, truncation: int) -> np.ndarray:
    """S[s, a] = sum of p^-s over EXACT_BOUND <= p <= P, p = a mod m.

    Rows s = 2..SERIES_POWERS as in _prime_sums; rows 0 and 1 are 0.  The
    sums mod m are folded from a pass over the primes mod a multiple of
    m: a kept pass when there is one, else a new pass mod `base` (itself
    a multiple of m), kept for later calls.  So one pass per truncation
    serves every modulus dividing one passed before, and a call then
    costs one fold, O(SERIES_POWERS b) for a pass mod b.
    """
    sums = next((s for (b, t), s in _passes.items()
                 if t == truncation and b % m == 0), None)
    if sums is None:
        primes = primes_upto(truncation)
        primes = primes[np.searchsorted(primes, EXACT_BOUND):]
        residues = primes % base
        power = inverse = 1.0 / primes
        sums = np.zeros((SERIES_POWERS + 1, base))
        for s in range(2, SERIES_POWERS + 1):
            power = power * inverse
            sums[s] = np.bincount(residues, weights=power, minlength=base)
        sums.flags.writeable = False
        if len(_passes) >= MAX_PASSES:
            del _passes[next(iter(_passes))]
        _passes[base, truncation] = sums
    return sums.reshape(SERIES_POWERS + 1, -1, m).sum(axis=1)


def large_prime_log(q: int, truncation: int | None = None) -> complex:
    """sum over primes p >= EXACT_BOUND, p <= P if given, p !| q, of
    log(1 - 1/(p-1)^2).

    These are the twin-prime factors, the series of A(q, chi) read at
    chi(p) = 0: every power p^-s, s <= SERIES_POWERS, is summed over the
    range from the sums of the function 1, and the primes dividing q are
    then taken out again.
    """
    if truncation is None:
        sums = _prime_sums(1, EXACT_BOUND)[:, -1]
    else:
        sums = _residue_power_sums(1, 1, truncation)[:, 0]
    out = complex(_COEFFICIENTS[:, 0] @ sums)
    for p in prime_factors(q):
        if p >= EXACT_BOUND and (truncation is None or p <= truncation):
            out -= math.log(1 - 1 / (p - 1) ** 2)
    return out


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


@dataclass(frozen=True, eq=False)
class CTable:
    """L(0), L(1), A(q, chi) and C(q, chi) for the characters mod m, one
    read-only entry per row of their group, and the tail bound of A.

    L reads nan at the principal character, where its formulas do not hold.
    """

    q: int
    truncation: int | None
    group: CharacterGroup
    l0: np.ndarray
    l1: np.ndarray
    a: np.ndarray
    c: np.ndarray
    tail: float

    @property
    def rows(self) -> tuple[CTableRow, ...]:
        """One row per non-principal character."""
        group = self.group
        columns = (x[1:].tolist() for x in (group.conductor, group.parity,
                                            self.l0, self.l1, self.a, self.c))
        return tuple(CTableRow(name, *v, self.tail)
                     for name, *v in zip(group.names(slice(1, None)), *columns))


@lru_cache(maxsize=256)
def _ctable(q: int, m: int, truncation: int | None) -> CTable:
    """Every L-value, A(q, chi) and C(q, chi) for the characters mod m.

    L(0) and L(1) are one transform over the unit group each.  The
    ambient modulus q decides which primes sit in the "p | q" factor of A.
    A truncation P needs q <= P, so every prime dividing q is inside the
    sieve range.

    Primes below EXACT_BOUND and primes dividing q are multiplied factor
    by factor, from chi(p) read a block of characters at a time.  For
    every other prime the logarithm of the factor is the power series
    sum_{s,l} c[s, l] chi(p)^l p^-s, and only its prime range depends on
    the truncation: over all p >= EXACT_BOUND through the prime sums of
    chi^l by default; up to P, where sum_{p = a mod m} p^-s is one sum
    per residue a, and sum_a chi^l(a) S_s(a) one transform.  Either way
    the coefficients are first contracted with the sums, one vector per
    power l, and the series of every character is the sum of those
    vectors at the rows of chi^l.
    """
    if q < 1 or (truncation is not None and q > truncation):
        raise ValueError(f"need 1 <= q <= truncation, got q={q}")
    group = character_group(m)
    odd = group.parity == -1

    # the weights at a = 0..m-1, read at the units
    weights = np.vstack([np.r_[m, 1:m], np.r_[0.0, _digamma_at(m)]])
    l0, l1 = group.transform(weights[:, group.units])
    l0 = np.where(odd, -l0 / m, 0)
    l1 = -l1 / m
    l0[0] = l1[0] = np.nan

    if truncation is None:
        sums = _prime_sums(m, EXACT_BOUND)
    else:
        # one pass over the primes serves every modulus dividing q
        power_sums = _residue_power_sums(m, math.lcm(q, m), truncation)
        sums = np.hstack([group.transform(power_sums[:, group.units]),
                          power_sums.sum(axis=1, keepdims=True)])
    # v[l] = sum_s c[s, l] sums[s], then one gather of v[l] per power
    v = _COEFFICIENTS.T @ sums
    rows = _power_rows(group)
    log_rest = sum(v[l, rows[:, l]] for l in range(SERIES_POWERS + 1))

    small = primes_upto(min(EXACT_BOUND - 1, truncation or math.inf))
    # primes dividing q beyond the exact bound leave the series for their
    # own (1 - chi(p)/p) factor
    large = np.array([p for p in prime_factors(q) if p >= EXACT_BOUND],
                     dtype=np.int64)
    exact = np.r_[small, large]
    divides = q % exact == 0
    a = np.empty(group.phi, dtype=np.complex128)
    for block, z in group.value_blocks(exact):
        a[block] = np.prod(np.where(divides, 1.0 - z / exact,
                                    1.0 - (1.0 - z) ** 2 / (exact - 1.0) ** 2),
                           axis=1)
        z = z[:, len(small):]
        log_rest[block] -= np.log(1.0 - (1.0 - z) ** 2
                                  / (large - 1.0) ** 2).sum(axis=1)
    a *= np.exp(log_rest)
    c = np.where(odd, l0 * l1 * a, 0)
    for array in (l0, l1, a, c):
        array.flags.writeable = False
    return CTable(q, truncation, group, l0, l1, a, c, tail_bound(truncation))


def build_ctable(q: int, truncation: int | None = None) -> CTable:
    """The table of the characters mod q."""
    return _ctable(int(q), int(q), truncation)
