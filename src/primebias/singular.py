"""Two-term singular series mod q and their class sums, by brute force.

For a pair {0, h} the Hardy-Littlewood singular series restricted away
from primes dividing q is

    S_q({0,h}) = prod_{p !| q} (1 - #({0,h} mod p)/p) (1 - 1/p)^{-2},

which factors as  [2 if q odd]  *  prod_{odd p !| q} (1 - 1/(p-1)^2)
                 *  prod_{odd p | h, p !| q} (p-1)/(p-2),

and vanishes for odd h when q is odd (the p = 2 factor dies).  The
zero-mean variant on pairs is S_{q,0}({0,h}) = S_q({0,h}) - 1.  A
SingularContext freezes q and the twin-type product over odd p !| q,
in full or truncated at P (lfun.twin_product); the h-dependent
corrections are applied exactly, by sieving, never by per-h full
products: the primes above sqrt(cutoff) stream from the segments of
arith's sieve kernel, each multiplied into its multiples once.  Every
odd prime p !| q dividing h multiplies by (p-1)/(p-2).
An odd p | h above a truncation P multiplies by p/(p-1) instead: that
is (p-1)/(p-2) times the factor 1 - 1/(p-1)^2 the truncated product
leaves out, so the primes dividing h are exact at any P.

s0_brute computes S_0^k(q, v; H) = sum over h = v mod q of
h^k S_{q,0}({0,h}) e^{-h/H}, truncated where the weight is ~e^{-50}.
Its main terms are constants.s0_main.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import _segments, canonical_residue, primes_upto, totient
from .lfun import twin_product

__all__ = ["SingularContext", "S0Sum", "s0_brute"]

# the longest pair_values table: 0.8 GB (763 MiB) of float64 values; a
# process building it peaks at 805 MiB resident (x86-64, numpy 2.4)
MAX_PAIR_CUTOFF = 10**8


class SingularContext:
    """q plus the twin-type product, in full or truncated at P."""

    def __init__(self, q: int, truncation: int | None = None):
        if q < 3:
            raise ValueError(f"modulus must be >= 3, got {q}")
        self.q = q
        self.phi = totient(q)
        self.truncation = truncation
        self.twin_tail, self.tail_bound = twin_product(q, truncation)
        # S_q({0, h}) before the factors of the odd primes dividing h
        self.base = 2.0 * self.twin_tail if q % 2 else self.twin_tail
        self._pair_cache: np.ndarray | None = None

    def h_factor(self, p):
        """The factor S_q({0,h}) takes from an odd prime p !| q dividing h;
        elementwise for an array of such primes."""
        full = (p - 1.0) / (p - 2.0)
        if self.truncation is None:
            return full
        return np.where(p > self.truncation, p / (p - 1.0), full)

    def pair_values(self, cutoff: int) -> np.ndarray:
        """S_q({0,h}) for h = 0..cutoff (index 0 is NaN); grown as needed
        up to MAX_PAIR_CUTOFF."""
        if cutoff > MAX_PAIR_CUTOFF:
            raise ValueError(f"pair cutoff {cutoff:,} exceeds the limit "
                             f"{MAX_PAIR_CUTOFF:,} (a 0.8 GB table)")
        if self._pair_cache is not None and len(self._pair_cache) > cutoff:
            return self._pair_cache[: cutoff + 1]
        vals = np.full(cutoff + 1, self.base)
        vals[0] = np.nan
        if self.q % 2:
            vals[1::2] = 0.0
        root = math.isqrt(cutoff)
        for p in primes_upto(root).tolist():
            if p > 2 and self.q % p:
                vals[p::p] *= self.h_factor(p)
        # a larger prime divides an h <= cutoff at most once, as its largest
        # prime factor, so it comes last in h's product either way: stream
        # them from the kernel and multiply each in once per multiple j*p
        for low, pos in _segments(root + 1, cutoff + 1):
            large = low + 2 * pos
            large = large[self.q % large != 0]
            factor = self.h_factor(large)
            for j in range(1, cutoff // low + 1):
                n = np.searchsorted(large, cutoff // j, side="right")
                vals[j * large[:n]] *= factor[:n]
        self._pair_cache = vals
        return vals


@dataclass(frozen=True)
class S0Sum:
    q: int
    v: int
    H: float
    k: int
    value: float
    cutoff: int
    method: str


def s0_brute(ctx: SingularContext, v: int, H: float, k: int = 0) -> S0Sum:
    """Truncated S_0^k(q, v; H); the tail beyond 50 H (k+1) is ~e^{-50}."""
    if not 0 < H < math.inf:
        raise ValueError(f"H must be positive and finite, got {H}")
    if k < 0:
        raise ValueError("k must be >= 0")
    cutoff = math.ceil(50.0 * H * (k + 1))
    vals = ctx.pair_values(cutoff)
    start = canonical_residue(ctx.q, v)
    sig0 = vals[start::ctx.q] - 1.0
    hf = np.arange(start, cutoff + 1, ctx.q, dtype=float)
    weights = np.exp(-hf / H)
    if k:
        weights = weights * hf**k
    return S0Sum(
        q=ctx.q, v=v % ctx.q, H=float(H), k=k,
        value=float(np.sum(sig0 * weights)), cutoff=cutoff, method="brute",
    )

