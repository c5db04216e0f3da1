"""Elementary arithmetic helpers shared across the package.

Everything here is exact integer / rational arithmetic: totients, prime
factorisations, the Moebius and von Mangoldt functions, the centered
sawtooth B_q, and the coprime-count discrepancy epsilon_q that measures how
many integers in a gap land on residues coprime to q relative to the
expected density phi(q)/q.  These are the raw ingredients for the bias
constants; nothing in this module knows about primes beyond trial division
and a plain sieve.  InternalConsistencyError, raised wherever two
independent routes disagree, lives here so every module can raise it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "InternalConsistencyError",
    "Modulus",
    "ResiduePattern",
    "totient",
    "prime_factors",
    "moebius",
    "primes_upto",
    "von_mangoldt",
    "sawtooth_B",
    "epsilon_q",
    "pattern_epsilon",
    "canonical_residue",
    "MAX_PATTERNS",
    "check_pattern_budget",
]

MAX_PATTERNS = 1 << 24  # phi(q)**r: the most patterns any command enumerates


class InternalConsistencyError(AssertionError):
    """Raised when two independent routes to the same quantity disagree.

    Always raised explicitly, never through `assert`, so `python -O`
    cannot strip the check; the command line maps it to exit code 3.
    """


def prime_factors(n: int) -> tuple[int, ...]:
    """Sorted distinct prime divisors of n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def totient(n: int) -> int:
    """Euler's phi via the distinct prime divisors."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    num = n
    for p in prime_factors(n):
        num //= p
        num *= p - 1
    return num


def moebius(n: int) -> int:
    """mu(n): 0 unless n is squarefree, else (-1)^(number of prime factors)."""
    ps = prime_factors(n)
    for p in ps:
        if n % (p * p) == 0:
            return 0
    return -1 if len(ps) % 2 else 1


@lru_cache(maxsize=32)
def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (odd-only plain sieve, cached).

    Entry i of the mask stands for the odd number 2i + 1, except entry 0,
    which stands for 2.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_p = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if is_p[i]:
            p = 2 * i + 1
            is_p[p * p // 2 :: p] = False
    out = np.flatnonzero(is_p)
    out *= 2
    out += 1
    out[0] = 2
    return out


def von_mangoldt(n: int) -> float:
    """Lambda(n): log p when n is a power of a single prime p, else 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0.0
    ps = prime_factors(n)
    if len(ps) == 1:
        return math.log(ps[0])
    return 0.0


@lru_cache(maxsize=256)
def _reduced_residues(q: int) -> tuple[int, ...]:
    """The classes a in [1, q] with gcd(a, q) = 1."""
    return tuple(a for a in range(1, q + 1) if math.gcd(a, q) == 1)


def check_pattern_budget(q: int, r: int) -> None:
    """Refuse phi(q)^r > MAX_PATTERNS patterns before any is enumerated.

    The power is built one factor at a time, so a huge r costs nothing.
    """
    phi = totient(q)
    n = 1
    for _ in range(r):
        n *= phi
        if n > MAX_PATTERNS:
            raise ValueError(
                f"phi({q})^{r} = {phi}^{r} patterns exceed the budget of "
                f"{MAX_PATTERNS}"
            )


def canonical_residue(q: int, v: int) -> int:
    """Representative of v mod q inside [1, q]; 0 maps to q."""
    return (v - 1) % q + 1


@dataclass(frozen=True)
class Modulus:
    """A pattern modulus q >= 3 with its reduced residue system.

    Residue classes are always represented inside [1, q]; this keeps
    a - b and -a unambiguous when they feed the sawtooth and the
    character sums.
    """

    q: int
    phi: int = field(init=False)
    classes: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.q < 3:
            raise ValueError(f"modulus must be >= 3, got {self.q}")
        object.__setattr__(self, "phi", totient(self.q))
        object.__setattr__(self, "classes", _reduced_residues(self.q))

    def canonical(self, v: int) -> int:
        return canonical_residue(self.q, v)

    def __int__(self) -> int:
        return self.q


@dataclass(frozen=True)
class ResiduePattern:
    """An r-tuple of reduced residue classes mod q, canonicalised to [1, q]."""

    modulus: Modulus
    classes: tuple[int, ...]

    def __post_init__(self):
        if isinstance(self.modulus, int):
            object.__setattr__(self, "modulus", Modulus(self.modulus))
        if len(self.classes) < 1:
            raise ValueError("pattern needs at least one class")
        canon = tuple(self.modulus.canonical(a) for a in self.classes)
        for a in canon:
            if math.gcd(a, self.modulus.q) != 1:
                raise ValueError(f"class {a} is not coprime to {self.modulus.q}")
        object.__setattr__(self, "classes", canon)

    @property
    def r(self) -> int:
        return len(self.classes)

    def repeat_count(self) -> int:
        """#{i : a_i = a_{i+1}} over adjacent positions."""
        return sum(1 for x, y in zip(self.classes, self.classes[1:]) if x == y)


def _coprime_shift_count(q: int, a: int, h: int) -> int:
    """#{0 < t < h : gcd(t + a, q) = 1} by direct enumeration."""
    return sum(1 for t in range(1, h) if math.gcd(t + a, q) == 1)


def epsilon_q(q: int, a: int, b: int) -> float:
    """Discrepancy in the count of coprime shifts across a gap from a to b.

    For any h > 0 with h = b - a (mod q),
        #{0 < t < h : gcd(t+a, q) = 1} = phi(q) h / q + epsilon_q(a, b),
    and the left side minus the density term is independent of h.  The
    value is a rational with denominator dividing q (it is not an integer
    in general: q=3, a=1, b=2 gives -2/3).  Computed exactly at the least
    h and re-checked one period later.
    """
    mod = Modulus(q)
    a = mod.canonical(a)
    h0 = canonical_residue(q, b - a)
    phi = mod.phi
    num0 = q * _coprime_shift_count(q, a, h0) - phi * h0
    num1 = q * _coprime_shift_count(q, a, h0 + q) - phi * (h0 + q)
    if num0 != num1:
        raise InternalConsistencyError(
            f"epsilon_q not period-stable for q={q}, a={a}, b={b}"
        )
    return float(Fraction(num0, q))


def pattern_epsilon(q: int, classes: tuple[int, ...] | list[int]) -> float:
    """Sum of epsilon_q over adjacent pairs of the pattern."""
    pat = ResiduePattern(Modulus(q), tuple(classes))
    cs = pat.classes
    return sum(epsilon_q(q, cs[i], cs[i + 1]) for i in range(len(cs) - 1))


def sawtooth_B(q: int, v: int) -> float:
    """B_q(v) = 1/2 - v/q with v reduced to [1, q]; period q in v.

    Summing over a full period gives exactly -1/2.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    vc = canonical_residue(q, v)
    return 0.5 - vc / q
