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

converges absolutely, and by default it is taken in full.  p = 2 and 3
are multiplied exactly.  Every other prime below EXACT_BOUND = M or
dividing q takes log(1 - x chi(p)) = -sum_k x^k chi(p^k)/k at x = 1/p,
and for p !| q at x = 1/(2 - p) too, as the factor is (p - 2 + chi(p))
(p - chi(p))/(p - 1)^2.  For every other prime the logarithm of the
factor is a power series in chi(p) and 1/p,

    log(1 - (1 - z)^2 / (p-1)^2) = sum_{s=2}^{K} sum_{l=0}^{s} c[s, l] z^l p^-s,

kept to K = SERIES_POWERS, so the sum over p >= M, p !| q, needs only
the prime sums P_M(s, psi) = sum_{p >= M} psi(p) p^-s for the powers
psi = chi^l read as the characters they induce mod q, chi^0 the principal
one, which vanish at every p | q.  They come from Moebius inversion of
log L (H. Cohen, "High precision computation of Hardy-Littlewood
constants", 1998; P. Moree, Manuscripta Math. 101, 2000):

    P_M(s, psi) = sum_n mu(n)/n log L_M(ns, psi^n),
    L_M(t, psi) = L(t, psi) prod_{p < M} (1 - psi(p) p^-t),
    L(t, psi)   = m^-t sum_{a=1}^{m} psi(a) zeta(t, a/m),

with the Hurwitz zeta function from a short direct sum and an
Euler-Maclaurin tail.  log L_M(t, psi) is of size M^(1-t), so n stops at
ns <= K; tail_bound(None) bounds the dropped powers s > K (~3e-22).  An
explicit truncation P keeps the series and takes its prime sums over
M <= p <= P, one per residue mod q; its log-tail is dominated by
sum_{p > P} 4/(p-1)^2 <= 5 / (P log P) = tail_bound(P).  At chi(p) = 0
the series is that of the twin-prime factors 1 - 1/(p-1)^2: twin_product
gives the twin-prime product of the singular series the same way, in
full or truncated, with its own tail bound.
The combinations C(q, chi) = L(0,chi) L(1,chi) A(q,chi) vanish identically
for even chi and drive all the second-order bias constants.

chi may live on any modulus m dividing the ambient q.  Every value lives
in one cached table per (q, m, truncation) that holds L(0), L(1), A and C
for all the characters mod m at once (_ctable; build_ctable when m = q),
one entry per row of the group, with the tail bound of A.  The prime sums
are one table for the characters mod q, which the characters mod each
divisor read at the rows of the characters they induce.  Each sum over
a, sum_a chi(a) f(a) for every chi mod m, is one unnormalised inverse DFT
over the unit group (CharacterGroup.transform; D. J. Platt, Math. Comp.
85, 2016, takes the L-values of a modulus the same way): L(0), L(1), the
Hurwitz rows of log L, the truncated prime sums and the log series of
the primes below M, their terms laid at the residues p^k.  No phi(m) x m
array is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import _segments, moebius, prime_factors, primes_upto
from .characters import CharacterGroup, _powers, character_group

__all__ = [
    "hurwitz_zeta",
    "tail_bound",
    "twin_product",
    "CTable",
    "build_ctable",
]

# A(q, chi) takes primes below EXACT_BOUND and primes dividing q one by
# one, 2 and 3 exactly and the rest by LOG_TERMS terms of a log series,
# whose tail at |x| <= 1/3 is below 3^-40/82 < 2^-69; it expands the other
# factors, in full or up to a truncation, to p^-SERIES_POWERS.
EXACT_BOUND = 1000
SERIES_POWERS = 8
LOG_TERMS = 40


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


def _log_series(group: CharacterGroup, at: np.ndarray, x: np.ndarray):
    """-sum_j log(1 - x_j chi(p_j)) for every chi mod m, |x_j| <= 1/3, at[k-1,
    j] the grid index of p_j^k: its terms x_j^k chi(p_j^k)/k, k <= LOG_TERMS,
    on the grid (non-units dropped) through one bincount and transform."""
    k = np.arange(1, LOG_TERMS + 1)[:, None]
    terms = np.cumprod(np.broadcast_to(x, at.shape), axis=0) / k
    units = at >= 0
    return group.transform(np.bincount(at[units], terms[units],
                                       minlength=group.phi))


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
    """R[i, l], the row of chi_i^l for l = 0..SERIES_POWERS; R[i, 0] = 0,
    the principal character."""
    powers = np.arange(SERIES_POWERS + 1)[:, None]
    return group.rows(group.labels[:, None, :] * powers)


@lru_cache(maxsize=64)
def _prime_sums(m: int) -> np.ndarray:
    """S[s, j] = sum_{p >= EXACT_BOUND} psi_j(p) p^-s, s = 2..SERIES_POWERS.

    psi_j runs over the characters mod m in label order; rows 0 and 1 are
    0.  Read-only.  One Hurwitz table serves every character and every t:
    for each residue r mod m it holds m^-t zeta(t, a_r/m), a_r the least
    positive member of r, except that the class of 1 starts at 1 + m, so
    one transform gives L(t, psi) - 1 for every psi and log L stays
    accurate when it is small; one _log_series per t takes out p < M.
    """
    K = SERIES_POWERS
    group = character_group(m)

    t = np.arange(K + 1, dtype=float)[2:, None]
    start = np.arange(m, dtype=float)
    start[0] = m
    start[1 % m] += m
    hurwitz = m ** -t * hurwitz_zeta(t, start / m)
    # log L_M(t, psi) for t = 2..K, one row per t
    l_minus_1 = group.transform(hurwitz[:, group.units])
    log_l = _log1p(l_minus_1.real, l_minus_1.imag)
    small = primes_upto(EXACT_BOUND - 1)
    at = group.index[_powers(small % m, LOG_TERMS + 1, m)[1:]]
    for i, x in enumerate((1.0 / small) ** t):
        log_l[i] -= _log_series(group, at, x)

    powers = _power_rows(group)
    sums = np.zeros((K + 1, group.phi), dtype=np.complex128)
    for s in range(2, K + 1):
        for n in range(K // s, 0, -1):
            mu = moebius(n)
            if mu:
                sums[s] += mu / n * log_l[n * s - 2, powers[:, n]]
    sums.flags.writeable = False
    return sums


# passes over the primes kept for later folds: (modulus, truncation) ->
# sums, oldest dropped first
_passes: dict[tuple[int, int], np.ndarray] = {}
MAX_PASSES = 64


def _residue_power_sums(m: int, truncation: int) -> np.ndarray:
    """S[s, a] = sum of p^-s over EXACT_BOUND <= p <= P, p = a mod m.

    Rows s = 2..SERIES_POWERS as in _prime_sums; rows 0 and 1 are 0.  The
    sums mod m are folded from a kept pass over the primes mod a multiple
    of m when there is one, else from a new pass mod m, kept for later
    calls.  So one pass per truncation serves every modulus dividing one
    passed before, and a call then costs one fold, O(SERIES_POWERS b) for
    a pass mod b.

    A pass adds the kernel's segments into the running sums in prime
    order, so they hold the bits of one bincount over every prime in the
    range without an array of them; the kernel refuses a P past its budget.
    """
    sums = next((s for (b, t), s in _passes.items()
                 if t == truncation and b % m == 0), None)
    if sums is None:
        sums = np.zeros((SERIES_POWERS + 1, m))
        for low, pos in _segments(EXACT_BOUND, truncation + 1):
            primes = low + 2 * pos
            residues = primes % m
            power = inverse = 1.0 / primes
            for s in range(2, SERIES_POWERS + 1):
                power = power * inverse
                np.add.at(sums[s], residues, power)
        sums.flags.writeable = False
        if len(_passes) >= MAX_PASSES:
            del _passes[next(iter(_passes))]
        _passes[m, truncation] = sums
    return sums.reshape(SERIES_POWERS + 1, -1, m).sum(axis=1)


def _series_sums(q: int, m: int, truncation: int | None) -> np.ndarray:
    """S[s, j] = sum of psi_j(p) p^-s over the primes p !| q the series
    covers, psi_j the characters mod m | q in label order: one table for
    the characters mod q, read at the rows of the characters they induce.

    By default the range is every p >= EXACT_BOUND.  Up to a truncation P
    it is EXACT_BOUND <= p <= P, where sum_{p = a mod q} p^-s is one sum
    per residue a and sum_a chi(a) S_s(a) one transform; one pass over
    the primes serves every modulus dividing q.
    """
    group = character_group(q)
    if truncation is None:
        table = _prime_sums(q)
    else:
        power_sums = _residue_power_sums(q, truncation)
        table = group.transform(power_sums[:, group.units])
    return table[:, group.induced_rows(m)]


def twin_product(q: int, truncation: int | None = None) -> tuple[float, float]:
    """The product over odd p !| q, p <= P if given, of 1 - 1/(p-1)^2, and
    the bound on the log-product mass it drops: tail_bound(None) in full,
    sum_{p > P} 1/(p-1)^2 <= 2 / (P log P) truncated.

    Odd primes below EXACT_BOUND are multiplied exactly, the rest through
    the series of A(q, chi) at chi(p) = 0, from the sums of the character
    mod 1 (truncated, folded from any pass kept at P); the prime divisors
    of q are then taken out of it again.
    """
    bound = tail_bound(truncation)  # refuses a P below 100
    if truncation is not None:
        bound = 2.0 / (truncation * math.log(truncation))
    primes = primes_upto(min(EXACT_BOUND - 1, truncation or math.inf))
    odd = primes[(primes > 2) & (q % primes != 0)]
    product = float(np.prod(1.0 - 1.0 / (odd - 1.0) ** 2))
    log = complex(_COEFFICIENTS[:, 0] @ _series_sums(1, 1, truncation)[:, 0])
    for p in prime_factors(q):
        if p >= EXACT_BOUND and (truncation is None or p <= truncation):
            log -= math.log(1 - 1 / (p - 1) ** 2)
    return product * math.exp(log.real), bound


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
    ambient modulus q, a multiple of m, decides which primes sit in the
    "p | q" factor of A.  A truncation P needs q <= P, so every prime
    dividing q is inside the sieve range.

    p = 2 and 3 are multiplied exactly, from chi(p) read a block of
    characters at a time; other primes below EXACT_BOUND or dividing q
    are one _log_series, and the rest are in the series sum_{s,l} c[s, l]
    chi(p)^l p^-s of the log of their factors, whose prime sums
    _series_sums reads at the characters mod q that the chi^l induce.
    The coefficients are first contracted with the sums, one vector per
    power l, and each character's series sums them at the rows of chi^l.
    """
    if q < 1 or (truncation is not None and q > truncation):
        bound = "q >= 1" if q < 1 else f"q <= truncation = {truncation}"
        raise ValueError(f"need {bound}, got q={q}")
    if q % m:
        raise ValueError(f"need m | q, got characters mod {m} and q={q}")
    group = character_group(m)
    odd = group.parity == -1

    # the weights at a = 0..m-1, read at the units
    weights = np.vstack([np.r_[m, 1:m], np.r_[0.0, _digamma_at(m)]])
    l0, l1 = group.transform(weights[:, group.units])
    l0 = np.where(odd, -l0 / m, 0)
    l1 = -l1 / m
    l0[0] = l1[0] = np.nan

    # v[l] = sum_s c[s, l] sums[s], then one gather of v[l] per power
    v = _COEFFICIENTS.T @ _series_sums(q, m, truncation)
    rows = _power_rows(group)
    log_rest = sum(v[l, rows[:, l]] for l in range(SERIES_POWERS + 1))

    # at 3 the factor (1 + z)(3 - z)/4 is 0 at z = -1: no log series
    exact = np.array([2, 3])
    divides = q % exact == 0
    a = np.empty(group.phi, dtype=np.complex128)
    for block, z in group.value_blocks(exact):
        a[block] = np.prod(np.where(divides, 1.0 - z / exact,
                                    1.0 - (1.0 - z) ** 2 / (exact - 1.0) ** 2),
                           axis=1)
    small = primes_upto(min(EXACT_BOUND - 1, truncation or math.inf))[2:]
    large = [p for p in prime_factors(q) if p >= EXACT_BOUND]
    primes = np.r_[small, np.array(large, dtype=np.int64)]
    coprime = primes[q % primes != 0]
    at = group.index[_powers(primes % m, LOG_TERMS + 1, m)[1:]]
    log_rest -= _log_series(group, np.hstack([at, at[:, q % primes != 0]]),
                            np.r_[1.0 / primes, 1.0 / (2.0 - coprime)])
    a *= np.exp(log_rest + np.log1p(-1.0 / (coprime - 1.0) ** 2).sum())
    c = np.where(odd, l0 * l1 * a, 0)
    for array in (l0, l1, a, c):
        array.flags.writeable = False
    return CTable(q, truncation, group, l0, l1, a, c, tail_bound(truncation))


def build_ctable(q: int, truncation: int | None = None) -> CTable:
    """The table of the characters mod q."""
    return _ctable(int(q), int(q), truncation)
