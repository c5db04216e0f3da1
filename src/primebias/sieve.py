"""Exact pattern counts over consecutive primes by segmented sieve.

Primes are produced in order by an odd-only segmented sieve of
Eratosthenes (numpy masks, one strided store per base prime per
segment).  Window starts are the primes strictly greater than q, so
every window member is coprime to q and consecutive streamed primes are
consecutive primes; a window of r streamed primes, stepping `skip` positions
between pattern members, is attributed to the residue tuple of those
members.  Counting is a bincount over radix-phi codes, segment by
segment, with a short carry across boundaries.

With threads > 1 the segments are sieved concurrently but consumed in
submission order, so counts do not depend on the thread count.  Limits
are bounded up front: a request that would need more than ~5e10 of sieve
range is refused with a message instead of thrashing.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .arith import InternalConsistencyError, Modulus, prime_factors

__all__ = [
    "SieveConfig",
    "CountTable",
    "stream_primes",
    "count_patterns",
    "count_patterns_series",
    "character_sum",
    "nth_prime_upper_bound",
]

DEFAULT_SEGMENT_SIZE = 1 << 22  # odd-wheel entries per segment
MAX_SIEVE_LIMIT = 50_000_000_000


@dataclass(frozen=True)
class SieveConfig:
    q: int
    r: int = 2
    skip: int = 1
    x: int | None = None
    count: int | None = None
    threads: int = 1
    segment_size: int = DEFAULT_SEGMENT_SIZE

    def __post_init__(self):
        Modulus(self.q)  # validates q >= 3
        if self.r < 2:
            raise ValueError("window length r must be >= 2")
        if self.skip < 1:
            raise ValueError("skip must be >= 1")
        if (self.x is None) == (self.count is None):
            raise ValueError("exactly one of x / count must be given")
        if self.x is not None and self.x < 2:
            raise ValueError("x must be >= 2")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.segment_size < 1024 or self.segment_size % 2:
            raise ValueError("segment_size must be a positive even count >= 1024")


@dataclass(frozen=True)
class CountTable:
    q: int
    r: int
    skip: int
    mode: str
    limit: int
    counts: dict[tuple[int, ...], int] = field(repr=False)
    primes_seen: int
    largest_prime: int

    def count(self, classes: tuple[int, ...]) -> int:
        mod = Modulus(self.q)
        return self.counts.get(tuple(mod.canonical(c) for c in classes), 0)

    def total(self) -> int:
        return sum(self.counts.values())


def nth_prime_upper_bound(n: int) -> int:
    """p_n < n (ln n + ln ln n) for n >= 6; padded for small n."""
    if n < 6:
        return 15
    ln = math.log(n)
    return int(n * (ln + math.log(ln))) + 10


def _base_primes(limit: int) -> np.ndarray:
    top = math.isqrt(limit) + 1
    is_p = np.ones(top + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(top) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p).astype(np.int64)


def _segment_primes(low: int, odd_count: int, base_odd: np.ndarray) -> np.ndarray:
    """Primes in [low, low + 2*odd_count), low odd, as a sorted int64 array."""
    high = low + 2 * odd_count
    mask = np.ones(odd_count, dtype=bool)
    for p in base_odd:
        p = int(p)
        if p * p >= high:
            break
        start = max(p * p, ((low + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start >= high:
            continue
        mask[(start - low) // 2 :: p] = False
    if low == 1:
        mask[0] = False  # 1 is not prime
    return low + 2 * np.flatnonzero(mask).astype(np.int64)


def stream_primes(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE,
                  threads: int = 1):
    """Yield ordered int64 arrays that together hold every prime <= limit."""
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(
            f"sieve range {limit:.3e} exceeds the configured budget "
            f"{MAX_SIEVE_LIMIT:.1e}; raise MAX_SIEVE_LIMIT only with the "
            "memory and hours to match"
        )
    if limit < 2:
        return
    base = _base_primes(limit)
    base_odd = base[1:]
    yield np.array([2], dtype=np.int64)
    lows = range(1, limit + 1, 2 * segment_size)

    def job(low: int) -> np.ndarray:
        odd_count = min(segment_size, (limit - low) // 2 + 1)
        return _segment_primes(low, odd_count, base_odd)

    if threads == 1:
        for low in lows:
            yield job(low)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        it = iter(lows)
        for low in it:
            pending.append(pool.submit(job, low))
            if len(pending) >= threads + 2:
                break
        while pending:
            yield pending.popleft().result()
            for low in it:
                pending.append(pool.submit(job, low))
                break


def _pattern_counter(config: SieveConfig, checkpoints: list[int] | None):
    """Shared engine behind count_patterns and count_patterns_series."""
    q, r, skip = config.q, config.r, config.skip
    mod = Modulus(q)
    phi = mod.phi
    span = (r - 1) * skip

    if config.count is not None:
        overall = config.count + span + q + 16
        limit = nth_prime_upper_bound(overall)
        remaining = config.count
        xs = [None]
    else:
        limit = int(config.x)
        remaining = None
        xs = sorted(set(checkpoints or [limit]))
        if xs[-1] != limit:
            raise ValueError("checkpoints must end at x")

    class_index = np.full(q, -1, dtype=np.int64)
    for i, a in enumerate(mod.classes):
        class_index[a % q] = i
    radix = phi ** np.arange(r - 1, -1, -1, dtype=np.int64)

    counts = np.zeros(phi**r, dtype=np.int64)
    buf_idx = np.empty(0, dtype=np.int64)
    buf_p = np.empty(0, dtype=np.int64)
    primes_seen = 0
    largest = 0
    snapshots: list[CountTable] = []
    xs_pending = list(xs)

    def snapshot(mode: str, lim: int) -> CountTable:
        table: dict[tuple[int, ...], int] = {}
        for code in range(phi**r):
            c = int(counts[code])
            if r <= 3 or c:
                digits = []
                rest = code
                for _ in range(r):
                    digits.append(mod.classes[rest % phi])
                    rest //= phi
                table[tuple(reversed(digits))] = c
        return CountTable(
            q=q, r=r, skip=skip, mode=mode, limit=lim, counts=table,
            primes_seen=primes_seen, largest_prime=largest,
        )

    def consume(m: int):
        nonlocal counts, buf_idx, buf_p, largest
        if m <= 0:
            return
        code = np.zeros(m, dtype=np.int64)
        for i in range(r):
            code += buf_idx[i * skip : i * skip + m] * radix[i]
        counts += np.bincount(code, minlength=phi**r)
        largest = int(buf_p[m - 1 + span])
        buf_idx = buf_idx[m:]
        buf_p = buf_p[m:]

    done = False
    # sieve past x so windows starting at primes <= x can close; 4096 per
    # window step dwarfs every prime gap below MAX_SIEVE_LIMIT
    for seg in stream_primes(limit + 4096 * (span + 1),
                             config.segment_size, config.threads):
        if done:
            break
        if len(seg) and seg[0] <= q:
            seg = seg[seg > q]
        if not len(seg):
            continue
        primes_seen += len(seg)
        buf_p = np.concatenate([buf_p, seg])
        buf_idx = np.concatenate([buf_idx, class_index[seg % q]])
        closable = len(buf_p) - span
        if closable <= 0:
            continue
        if remaining is not None:
            m = min(closable, remaining)
            consume(m)
            remaining -= m
            if remaining == 0:
                snapshots.append(snapshot("by_count", config.count))
                done = True
        else:
            while xs_pending:
                x_c = xs_pending[0]
                total_le = int(np.searchsorted(buf_p, x_c, side="right"))
                if total_le <= closable:
                    # every start <= x_c is buffered with its window intact
                    consume(total_le)
                    closable -= total_le
                    snapshots.append(snapshot("by_x", x_c))
                    xs_pending.pop(0)
                else:
                    consume(closable)
                    closable = 0
                    break
            if not xs_pending:
                done = True
    if not done:
        raise InternalConsistencyError("prime stream ended before the window closed")
    return snapshots


def count_patterns(config: SieveConfig) -> CountTable:
    """Count residue patterns of consecutive primes under the given config."""
    if config.count is not None:
        return _pattern_counter(config, None)[0]
    return _pattern_counter(config, [int(config.x)])[0]


def count_patterns_series(config: SieveConfig, checkpoints: list[int]) -> list[CountTable]:
    """One sieve pass, a CountTable per checkpoint (by_x configs only)."""
    if config.x is None:
        raise ValueError("checkpoints need a by_x config")
    xs = sorted(set(int(c) for c in checkpoints) | {int(config.x)})
    return _pattern_counter(config, xs)


def character_sum(table: CountTable) -> int:
    """sum_{a,b} (a|q)(b|q) * count(a,b) for odd prime q, from an r=2 table."""
    q = table.q
    if q % 2 == 0 or prime_factors(q) != (q,):
        raise ValueError("character sums need an odd prime modulus")
    if table.r != 2:
        raise ValueError("character sums are defined for pair tables")

    def legendre(a: int) -> int:
        t = pow(a, (q - 1) // 2, q)
        return 1 if t == 1 else -1

    return sum(
        legendre(a) * legendre(b) * n for (a, b), n in table.counts.items()
    )
