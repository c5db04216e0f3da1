"""Exact pattern counts over consecutive primes by segmented sieve.

Primes come from an odd-only segmented sieve of Eratosthenes.  Each
segment's mask starts as a slice of a cached tile already sieved by
3, 5, ..., 17 (the tile repeats every 3*5*7*11*13*17 = 255255 odd
numbers); every larger base prime then clears its multiples with one
strided store.  A segment holds 2**20 odd numbers, so its mask stays in
L2 cache while the stores run.

Window starts are the primes strictly greater than q, so every window
member is coprime to q and consecutive sieved primes are consecutive
primes; a window of r primes, stepping `skip` positions between pattern
members, is attributed to the residue tuple of those members and counted
as a bincount over radix-phi(q) codes.

The range is cut into chunks.  A chunk sieves and counts on its own: the
windows that lie wholly inside it, plus its first and last `span` primes
(span = (r-1)*skip) and its prime count.  A merge, run in chunk order,
counts the windows that cross chunk boundaries from those edge primes,
however few primes a chunk holds.  Checkpoints are chunk boundaries, so
each checkpoint's table is a running sum; in by-count mode only the chunk
holding the N-th window start is counted again, cut short.

With threads > 1 the chunks run on that many worker processes (at most
the machine's core count), and results are merged in chunk order, so
counts never depend on the worker count or the chunking.  Limits are
bounded up front: a request that would need more than ~5e10 of sieve
range, or more than 2**24 residue patterns, is refused with a message.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
from bisect import bisect_left
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import (
    InternalConsistencyError,
    Modulus,
    check_pattern_budget,
    prime_factors,
    primes_upto,
)
from .characters import character_group

__all__ = [
    "SieveConfig",
    "CountTable",
    "stream_primes",
    "count_patterns",
    "count_patterns_series",
    "character_sum",
    "nth_prime_upper_bound",
    "effective_workers",
]

DEFAULT_SEGMENT_SIZE = 1 << 20  # odd numbers per segment: a 1 MB mask
CHUNK_SIZE = 1 << 25  # integers per chunk, the unit of work of one worker
MAX_SIEVE_LIMIT = 50_000_000_000
TILE_PRIMES = (3, 5, 7, 11, 13, 17)
TILE_PERIOD = 255255  # product of TILE_PRIMES, in odd numbers
# windows starting at primes <= x close before x + GAP_PAD * (span + 1):
# every prime gap below MAX_SIEVE_LIMIT is far shorter than GAP_PAD
GAP_PAD = 4096


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
        check_pattern_budget(self.q, self.r)  # r >= 2; one int64 per pattern


@dataclass(frozen=True)
class CountTable:
    q: int
    r: int
    skip: int
    mode: str
    limit: int
    counts: dict[tuple[int, ...], int] = field(repr=False)
    primes_seen: int  # primes > q up to and including largest_prime
    largest_prime: int  # last member of the last window counted, 0 if none

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


def effective_workers(threads: int, cpus: int | None = None) -> int:
    """The worker processes a run with `threads` uses: at most one per core.

    cpus defaults to os.cpu_count().
    """
    if cpus is None:
        cpus = os.cpu_count() or 1
    return max(1, min(threads, cpus))


def _check_limit(limit: int) -> None:
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(
            f"sieve range {limit:.3e} exceeds the configured budget "
            f"{MAX_SIEVE_LIMIT:.1e}; raise MAX_SIEVE_LIMIT only with the "
            "memory and hours to match"
        )


# ------------------------------------------------------------ segment kernel


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


def _segments(lo: int, hi: int, segment_size: int, root: int):
    """Yield (low, pos) for consecutive segments covering the odd numbers in
    [lo, hi): the primes of a segment are low + 2*pos, in order.

    root >= isqrt(hi - 1) bounds the base primes.
    """
    base = primes_upto(root)
    base = base[np.searchsorted(base, TILE_PRIMES[-1], side="right"):]
    tile = _tile(segment_size)
    low = lo | 1
    while low < hi:
        n = min(segment_size, (hi - low + 1) // 2)
        high = low + 2 * n
        start = (low // 2) % TILE_PERIOD
        # the mask, then room to pad it (see below)
        buf = np.empty(n + n // 9 + 1, dtype=bool)
        mask = buf[:n]
        mask[:] = tile[start : start + n]
        if low <= TILE_PRIMES[-1]:
            for p in TILE_PRIMES:
                if low <= p < high:
                    mask[(p - low) // 2] = True
            if low == 1:
                mask[0] = False
        ps = base[: np.searchsorted(base, math.isqrt(high - 1), side="right")]
        # first odd multiple of p that is >= max(low, p*p)
        first = np.maximum(-(-low // ps) | 1, ps) * ps
        for p, i in zip(ps.tolist(), ((first - low) >> 1).tolist()):
            mask[i::p] = False
        # numpy finds nonzero entries branch-free, about 3x faster, only
        # above a density of 1/10; primes above e**20 are sparser than that,
        # so pad with set entries past the end, then drop their positions
        k = int(np.count_nonzero(mask))
        pad = max(0, (n - 10 * k) // 9 + 1)
        buf[n : n + pad] = True
        yield low, np.flatnonzero(buf[: n + pad])[:k]
        low = high


def stream_primes(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE,
                  threads: int = 1):
    """Yield ordered int64 arrays that together hold every prime <= limit.

    The primes are sieved in this process whatever `threads` says: moving
    every prime from a worker process costs more than sieving it here.
    """
    _check_limit(limit)
    if limit < 2:
        return
    yield np.array([2], dtype=np.int64)
    for low, pos in _segments(3, limit + 1, segment_size, math.isqrt(limit)):
        yield low + 2 * pos


# -------------------------------------------------------------- chunk engine


def _ordered(fn, jobs, workers: int):
    """Yield fn(*job) for each job, in job order.

    With workers > 1 the calls run in that many spawned processes, at most
    workers + 2 ahead of the consumer, so a consumer that stops early
    leaves little work behind; closing the generator cancels the rest.
    """
    if workers == 1:
        for job in jobs:
            yield fn(*job)
        return
    jobs = iter(jobs)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=ctx) as pool:
        pending = deque(pool.submit(fn, *job)
                        for job in itertools.islice(jobs, workers + 2))
        try:
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(fn, *job)
                               for job in itertools.islice(jobs, 1))
                yield result
        finally:
            for fut in pending:
                fut.cancel()


def _edges(end: int, chunk_size: int, cuts=()) -> list[int]:
    """Chunk boundaries from 0 to end: multiples of chunk_size, plus cuts."""
    return sorted(set(range(0, end, chunk_size)).union(cuts)) + [end]


class _Chunk(NamedTuple):
    counts: np.ndarray  # windows wholly inside the chunk, by code
    head: np.ndarray  # its first min(span, n) primes
    tail: np.ndarray  # its last min(span, n) primes
    n: int  # its primes > q


def _class_index(mod: Modulus, dtype) -> np.ndarray:
    """Entry a: the index of a in mod.classes, -1 when gcd(a, q) > 1."""
    index = np.full(mod.q, -1, dtype=dtype)
    index[list(mod.classes)] = np.arange(mod.phi)
    return index


@lru_cache(maxsize=4)
def _class_table(q: int, segment_size: int) -> np.ndarray:
    """Entry j: the class index of the odd number 2j + 1.  Periodic with
    period q, and long enough that a segment's entries are one slice."""
    odd = 2 * np.arange(q + segment_size, dtype=np.int64) + 1
    table = _class_index(Modulus(q), np.int16)[odd % q]
    table.flags.writeable = False
    return table


def _codes(cls: np.ndarray, radix: np.ndarray, skip: int, m: int) -> np.ndarray:
    """Radix-phi code of each of the m windows starting at cls[0..m-1]."""
    codes = np.multiply(cls[:m], radix[0], dtype=np.int64)
    for i in range(1, len(radix)):
        codes += np.multiply(cls[i * skip : i * skip + m], radix[i],
                             dtype=np.int64)
    return codes


def _radix(phi: int, r: int) -> np.ndarray:
    return phi ** np.arange(r - 1, -1, -1, dtype=np.int64)


def _count_chunk(config: SieveConfig, lo: int, hi: int, root: int,
                 cap: int | None = None) -> _Chunk:
    """Sieve [lo, hi) and count the windows of its primes > q inside it.

    With cap, the chunk is taken to end at its (cap + span)-th prime, so
    only windows starting at its first cap primes are counted.
    """
    q, r, skip = config.q, config.r, config.skip
    span = (r - 1) * skip
    phi = Modulus(q).phi
    radix = _radix(phi, r)
    keep = None if cap is None else cap + span
    table = _class_table(q, config.segment_size)
    counts = np.zeros(phi**r, dtype=np.int64)
    head = []
    tail = np.empty(0, dtype=np.int64)
    cls = np.empty(0, dtype=table.dtype)  # class indices, from the last span primes on
    n = 0
    for low, pos in _segments(max(lo, q + 1), hi, config.segment_size, root):
        if keep is not None:
            pos = pos[: keep - n]
        if not len(pos):
            continue
        j = (low // 2) % q
        cls = np.concatenate([cls[-span:], table[j:][pos]])
        if len(cls) > span:
            counts += np.bincount(_codes(cls, radix, skip, len(cls) - span),
                                  minlength=phi**r)
        if n < span:
            head.append(low + 2 * pos[: span - n])
        tail = np.concatenate([tail, low + 2 * pos[-span:]])[-span:]
        n += len(pos)
        if n == keep:
            break
    head = np.concatenate(head) if head else np.empty(0, dtype=np.int64)
    return _Chunk(counts, head, tail, n)


def _tables(config: SieveConfig, xs: list[int] | None,
            chunk_size: int = CHUNK_SIZE) -> list[CountTable]:
    """The counting engine: one CountTable per checkpoint in xs (by_x), or
    the single by_count table when xs is None."""
    q, r, skip = config.q, config.r, config.skip
    mod = Modulus(q)
    phi, span = mod.phi, (r - 1) * skip
    radix = _radix(phi, r)
    by_count = config.count is not None
    if by_count:
        top = nth_prime_upper_bound(config.count + span + q + 16)
        bounds = [config.count]  # window starts per table, when known
        cuts = set()
    else:
        top = xs[-1]
        bounds = []
        cuts = {x + 1 for x in xs}
    n_tables = 1 if by_count else len(xs)
    end = top + GAP_PAD * (span + 1) + 1
    _check_limit(end - 1)
    edges = _edges(end, chunk_size, cuts)
    chunks = list(zip(edges, edges[1:]))
    root = math.isqrt(end - 1)
    class_index = _class_index(mod, np.int64)
    keys = list(itertools.product(mod.classes, repeat=r)) if r <= 3 else None

    def table_of(starts: np.ndarray, first: int) -> np.ndarray:
        """The table each window start belongs to (n_tables for none);
        starts are prime values, first is the number of primes before."""
        if by_count:
            return (first + np.arange(len(starts)) >= config.count).astype(int)
        return np.searchsorted(xs, starts)

    totals = np.zeros(phi**r, dtype=np.int64)
    deltas: dict[int, np.ndarray] = {}  # counts of tables not yet complete
    tables: list[CountTable] = []
    carry = np.empty(0, dtype=np.int64)  # the last min(span, seen) primes
    seen = 0
    jobs = [(config, lo, hi, root) for lo, hi in chunks]
    workers = effective_workers(config.threads)
    with closing(_ordered(_count_chunk, jobs, workers)) as results:
        for (lo, hi), res in zip(chunks, results):
            if by_count and seen < config.count < seen + res.n - span:
                res = _count_chunk(config, lo, hi, root, cap=config.count - seen)
            b = int(seen >= config.count) if by_count else bisect_left(xs, hi - 1)
            if b in deltas:
                deltas[b] += res.counts
            elif b < n_tables:
                deltas[b] = res.counts
            # windows that start in earlier chunks and end in this one
            both = np.concatenate([carry, res.head])
            m = min(len(carry), len(both) - span)
            if m > 0:
                codes = _codes(class_index[both % q], radix, skip, m)
                owners = table_of(both[:m], seen - len(carry))
                for code, owner in zip(codes.tolist(), owners.tolist()):
                    if owner < n_tables:
                        if owner not in deltas:
                            deltas[owner] = np.zeros(phi**r, dtype=np.int64)
                        deltas[owner][code] += 1
            carry = res.tail if res.n >= span else both[-span:]
            before, seen = seen, seen + res.n
            if hi in cuts:
                bounds.append(seen)
            # a table is complete once span primes follow its last start
            while len(tables) < len(bounds):
                g = bounds[len(tables)]
                if g and seen < g + span:
                    break
                largest = 0
                if g:
                    last = g - 1 + span - before  # index in this chunk
                    if 0 <= last < len(res.head):
                        largest = int(res.head[last])
                    elif res.n - len(res.tail) <= last < res.n:
                        largest = int(res.tail[last - res.n])
                    else:
                        raise InternalConsistencyError(
                            "last window member outside the chunk edges")
                b = len(tables)
                if b in deltas:
                    totals += deltas.pop(b)
                tables.append(CountTable(
                    q=q, r=r, skip=skip,
                    mode="by_count" if by_count else "by_x",
                    limit=config.count if by_count else xs[b],
                    counts=_decode(totals, mod, r, keys),
                    primes_seen=g + span if g else 0, largest_prime=largest,
                ))
            if len(tables) == n_tables:
                return tables
    raise InternalConsistencyError("prime stream ended before the window closed")


def _decode(counts: np.ndarray, mod: Modulus, r: int, keys) -> dict:
    """{classes: count}: every pattern when keys (all of them, in code
    order) are given, else only the patterns counted at least once."""
    if keys is not None:
        return dict(zip(keys, counts.tolist()))
    nz = np.flatnonzero(counts)
    classes = np.array(mod.classes, dtype=np.int64)
    digits = np.unravel_index(nz, (mod.phi,) * r)
    return dict(zip(zip(*(classes[d].tolist() for d in digits)),
                    counts[nz].tolist()))


def count_patterns(config: SieveConfig) -> CountTable:
    """Count residue patterns of consecutive primes under the given config."""
    if config.count is not None:
        return _tables(config, None)[0]
    return _tables(config, [int(config.x)])[0]


def count_patterns_series(config: SieveConfig, checkpoints: list[int]) -> list[CountTable]:
    """One sieve pass, a CountTable per checkpoint (by_x configs only)."""
    if config.x is None:
        raise ValueError("checkpoints need a by_x config")
    xs = sorted(set(int(c) for c in checkpoints) | {int(config.x)})
    if xs[-1] != int(config.x):
        raise ValueError("checkpoints must end at x")
    return _tables(config, xs)


def character_sum(table: CountTable) -> int:
    """sum_{a,b} (a|q)(b|q) * count(a,b) for odd prime q, from an r=2 table."""
    q = table.q
    if q % 2 == 0 or prime_factors(q) != (q,):
        raise ValueError("character sums are defined for an odd prime modulus")
    if table.r != 2:
        raise ValueError("character sums are defined for pair tables")

    # the Legendre symbol: the character sending the primitive root to -1;
    # its values are exactly +-1 on units
    chi = character_group(q).character(((q - 1) // 2,))
    legendre = [round(z.real) for z in chi.values_table().tolist()]
    return sum(
        legendre[a] * legendre[b] * n for (a, b), n in table.counts.items()
    )
