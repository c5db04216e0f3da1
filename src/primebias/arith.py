"""Elementary arithmetic helpers shared across the package.

Everything here is exact integer / rational arithmetic: totients, prime
factorisations, the Moebius and von Mangoldt functions, and the
coprime-count discrepancy epsilon_q that measures how many integers in a
gap land on residues coprime to q relative to the expected density
phi(q)/q.  These are the raw ingredients for the bias constants.  The
one prime sieve of the package lives here too: _segments picks its base
primes and refuses a range past the budget MAX_SIEVE_LIMIT, and every
prime array, stream, count and truncated product reads it.  So do the
up-front input checks and InternalConsistencyError, raised wherever two
independent routes disagree, so every module can use them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "InternalConsistencyError",
    "Modulus",
    "PatternGrid",
    "ResiduePattern",
    "totient",
    "prime_factors",
    "moebius",
    "primes_upto",
    "von_mangoldt",
    "epsilon_q",
    "canonical_residue",
    "MAX_PATTERNS",
    "MAX_CHARACTER_ENTRIES",
    "MAX_GROUP_MODULUS",
    "MAX_SIEVE_LIMIT",
    "check_pattern_budget",
    "check_sieve_limit",
    "check_rel_tol",
]

# phi(q)**r, each command's patterns, walked a block at a time: constants
# --q 3 --r 24 peaks at 54 MiB, count --q 257 --r 3 --x 1e6 at 297 MiB
MAX_PATTERNS = 1 << 24
# phi(m) * m values of a dump-characters table, every chi(n) for n < m
# (16 bytes each were it held at once; it is written a block of rows at a
# time); no other command builds a phi(m) x m array
MAX_CHARACTER_ENTRIES = 1 << 27
# the largest modulus of a character group: a group is O(m), and
# dump-lvalues --q 524287, the largest prime admitted, peaks at 386 MiB
MAX_GROUP_MODULUS = 1 << 19
MAX_SIEVE_LIMIT = 50_000_000_000  # the sieve budget: no range reaches past it
DEFAULT_SEGMENT_SIZE = 1 << 20  # odd numbers per segment: a 1 MB mask
TILE_PRIMES = (3, 5, 7, 11, 13, 17)
TILE_PERIOD = 255255  # product of TILE_PRIMES, in odd numbers


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


@lru_cache(maxsize=4)
def _tile(segment_size: int) -> np.ndarray:
    """Entry j stands for the odd number 2j + 1; multiples of TILE_PRIMES
    (the primes themselves included) are cleared.  Long enough that any
    segment is one slice of it."""
    tile = np.ones(TILE_PERIOD + segment_size, dtype=bool)
    for p in TILE_PRIMES:
        tile[p // 2 :: p] = False
    tile.flags.writeable = False
    return tile


def _segments(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE):
    """Yield (low, pos) for consecutive segments covering the odd numbers in
    [lo, hi): the primes of a segment are low + 2*pos, in order.

    Each segment's mask starts as a slice of the tile, then every larger
    base prime clears its multiples with one strided store; a 2**20-entry
    mask stays in L2 cache while they run.  The base primes, up to
    isqrt(hi), come from this same kernel; a range past MAX_SIEVE_LIMIT is
    refused before the first segment.
    """
    check_sieve_limit(hi - 1)
    base = primes_upto(math.isqrt(hi))
    base = base[np.searchsorted(base, TILE_PRIMES[-1], side="right"):]
    tile = _tile(segment_size)
    # every segment's mask, then room to pad it (see below), in one buffer
    buf = np.empty(segment_size + segment_size // 9 + 1, dtype=bool)
    low = lo | 1
    while low < hi:
        n = min(segment_size, (hi - low + 1) // 2)
        high = low + 2 * n
        start = (low // 2) % TILE_PERIOD
        mask = buf[:n]
        mask[:] = tile[start : start + n]
        if low <= TILE_PRIMES[-1]:
            for p in TILE_PRIMES:
                if low <= p < high:
                    mask[(p - low) // 2] = True
            if low == 1:
                mask[0] = False
        ps = base[: np.searchsorted(base, math.isqrt(high - 1), side="right")]
        # first odd multiple of p that is >= max(low, p*p); a short segment
        # skips the many base primes that have none inside it
        first = (np.maximum(-(-low // ps) | 1, ps) * ps - low) >> 1
        hit = first < n
        for p, i in zip(ps[hit].tolist(), first[hit].tolist()):
            mask[i::p] = False
        # numpy finds nonzero entries branch-free, about 3x faster, only
        # above a density of 1/10; primes above e**20 are sparser than that,
        # so pad with set entries past the end, then drop their positions
        k = int(np.count_nonzero(mask))
        pad = max(0, (n - 10 * k) // 9 + 1)
        buf[n : n + pad] = True
        yield low, np.flatnonzero(buf[: n + pad])[:k]
        low = high


@lru_cache(maxsize=32)
def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (segment kernel, cached)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    odd = [low + 2 * pos for low, pos in _segments(3, limit + 1)]
    return np.concatenate([np.array([2], dtype=np.int64), *odd])


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
    """Refuse r < 2, or phi(q)^r > MAX_PATTERNS patterns, before any
    pattern is enumerated.

    The power is built one factor at a time, so a huge r costs nothing.
    """
    if r < 2:
        raise ValueError(f"patterns need r >= 2, got r={r}")
    phi = totient(q)
    n = 1
    for _ in range(r):
        n *= phi
        if n > MAX_PATTERNS:
            raise ValueError(
                f"phi({q})^{r} = {phi}^{r} patterns exceed the budget of "
                f"{MAX_PATTERNS}"
            )


def check_sieve_limit(limit: int) -> None:
    """Refuse a sieve range that reaches past MAX_SIEVE_LIMIT."""
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(f"sieve range {limit:.3e} exceeds the configured "
                         f"budget {MAX_SIEVE_LIMIT:.1e}; raise MAX_SIEVE_LIMIT"
                         " only with the memory and hours to match")


def check_rel_tol(rel_tol: float) -> float:
    """Return a quadrature tolerance in [1e-15, 1), or refuse it: below
    that no panel can converge in double precision, and every branch would
    bisect to the depth cap."""
    if not 1e-15 <= rel_tol < 1:
        raise ValueError(f"rel_tol must lie in [1e-15, 1), got {rel_tol}")
    return rel_tol


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


class PatternGrid:
    """The patterns over axes, the classes each position runs over, in the
    order of itertools.product(*axes): the one owner of the code by which
    every table of patterns is indexed.  The pattern whose j-th class is
    axes[j][i_j] has code sum_j i_j * prod_{k>j} len(axes[k])."""

    def __init__(self, axes):
        self.axes = tuple(map(tuple, axes))
        self.shape = tuple(map(len, self.axes))
        self.size = math.prod(self.shape)

    def listing(self, rows: int):
        """Yield every code, `rows` at a time, each block its own arange."""
        for start in range(0, self.size, rows):
            yield np.arange(start, min(start + rows, self.size))

    def classes(self, codes) -> list[np.ndarray]:
        """The classes of each code, one array per position."""
        return [np.take(axis, i) for axis, i in
                zip(self.axes, np.unravel_index(codes, self.shape))]

    @cached_property
    def _key_tables(self):
        half = (len(self.axes) + 1) // 2
        return [np.array([";".join(map(str, c)) + end
                          for c in itertools.product(*part)], dtype=object)
                for part, end in ((self.axes[:half], ";"),
                                  (self.axes[half:], ""))]

    def keys(self, codes) -> np.ndarray:
        """The key of each code, such as 1;7;11: a head of the first
        ceil(r/2) classes and a tail of the rest, from two small tables."""
        heads, tails = self._key_tables
        return heads[codes // len(tails)] + tails[codes % len(tails)]

    def code(self, classes) -> int | None:
        """One pattern's code, or None when it is not on the grid."""
        try:
            index = [axis.index(c)
                     for axis, c in zip(self.axes, classes, strict=True)]
        except ValueError:
            return None
        return int(np.ravel_multi_index(index, self.shape))


def epsilon_q(q: int, a: int, b: int) -> float:
    """Discrepancy in the count of coprime shifts across a gap from a to b.

    For any h > 0 with h = b - a (mod q),
        #{0 < t < h : gcd(t+a, q) = 1} = phi(q) h / q + epsilon_q(a, b),
    and the left side minus the density term is independent of h.  The
    value is a rational with denominator dividing q (q=3, a=1, b=2 gives
    -2/3).  With a and h0 = b - a read in [1, q] and U(n) the number of
    units in [1, n], the count is U(a + h0 - 1) - U(a); it is taken exactly
    at h0 and re-checked one period later.  a and b may be arrays; the cost
    is O(q) plus O(1) per pair.
    """
    phi = Modulus(q).phi  # validates q >= 3
    units = np.cumsum(np.gcd(np.arange(3 * q), q) == 1)  # U(n), n < 3q
    a = (np.asarray(a) - 1) % q + 1
    h0 = (np.asarray(b) - a - 1) % q + 1
    num = q * (units[a + h0 - 1] - units[a]) - phi * h0
    again = q * (units[a + h0 + q - 1] - units[a]) - phi * (h0 + q)
    if not np.array_equal(num, again):
        raise InternalConsistencyError(f"epsilon_q not period-stable for q={q}")
    return num / q
