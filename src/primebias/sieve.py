"""Exact pattern counts over consecutive primes by segmented sieve.

Primes come from the odd-only segmented sieve of arith._segments, the
one prime sieve of the package: 2**20 odd numbers per segment, each mask
a slice of a tile pre-sieved by 3..17 before the strided stores of the
larger base primes.

Window starts are the primes strictly greater than q, so every window
member is coprime to q and consecutive sieved primes are consecutive
primes; a window of r primes, stepping `skip` positions between pattern
members, is attributed to the residue tuple of those members and counted
as a bincount over radix-phi(q) codes.

The range is cut into chunks, and each window belongs to the chunk that
holds its first prime.  A chunk sieves and counts on its own: it counts
the windows starting in it, sieving on past its end until the last of
them closes (span = (r-1)*skip primes later, always within GAP_PAD *
(span + 1) integers), and returns their counts, their number and the
last member of the last one.  Checkpoints are chunk boundaries, so each
checkpoint's table is a running sum in chunk order; in by-count mode
only the chunk holding the N-th window start is counted again, cut
short.

With threads > 1 the chunks run on that many worker processes (at most
the machine's core count), and results are summed in chunk order, so
counts never depend on the worker count or the chunking.  Limits are
bounded up front: a request that would need more than ~5e10 of sieve
range, or more than 2**24 residue patterns, is refused with a message.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .arith import (  # noqa: F401  (the kernel's names resolve here too)
    DEFAULT_SEGMENT_SIZE, TILE_PERIOD, TILE_PRIMES, InternalConsistencyError,
    Modulus, _segments, _tile, check_pattern_budget,
)

__all__ = [
    "SieveConfig",
    "CountTable",
    "stream_primes",
    "count_patterns",
    "count_patterns_series",
    "nth_prime_upper_bound",
    "nth_prime_lower_bound",
    "effective_workers",
]

CHUNK_SIZE = 1 << 25  # integers per chunk, the unit of work of one worker
MAX_SIEVE_LIMIT = 50_000_000_000
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


@dataclass(frozen=True, eq=False)
class CountTable:
    """Window counts by pattern.

    `array` holds the count of every pattern by code, read-only: entry
    sum_j i_j * phi**(r-1-j) counts the pattern whose j-th class is
    Modulus(q).classes[i_j], so code order is the sorted order of the
    pattern tuples.  `counts` is derived from it on first use.
    """

    q: int
    r: int
    skip: int
    mode: str
    limit: int
    array: np.ndarray = field(repr=False, compare=False)
    primes_seen: int  # primes > q up to and including largest_prime
    largest_prime: int  # last member of the last window counted, 0 if none

    def __post_init__(self):
        self.array.flags.writeable = False

    @cached_property
    def counts(self) -> dict[tuple[int, ...], int]:
        """{classes: count}: every pattern for r <= 3, else only the
        patterns counted at least once."""
        return _decode(self.array, Modulus(self.q), self.r)

    def count(self, classes: tuple[int, ...]) -> int:
        mod = Modulus(self.q)
        try:
            index = tuple(mod.classes.index(mod.canonical(c)) for c in classes)
        except ValueError:  # a class not coprime to q
            return 0
        if len(index) != self.r:
            return 0
        return int(self.array.reshape((mod.phi,) * self.r)[index])

    def total(self) -> int:
        return int(self.array.sum())

    def __eq__(self, other):
        # the generated __eq__ would compare the arrays elementwise
        if not isinstance(other, CountTable):
            return NotImplemented
        same = all(getattr(self, f.name) == getattr(other, f.name)
                   for f in fields(self) if f.compare)
        return same and np.array_equal(self.array, other.array)


def nth_prime_upper_bound(n: int) -> int:
    """p_n < n (ln n + ln ln n) for n >= 6, padded for small n; for
    n >= 39017, p_n <= n (ln n + ln ln n - 0.9484) (Dusart, Math. Comp.
    68, 1999)."""
    if n < 6:
        return 15
    ln = math.log(n)
    return int(n * (ln + math.log(ln) - (0.9484 if n >= 39017 else 0))) + 10


def nth_prime_lower_bound(n: int) -> int:
    """p_n >= n (ln n + ln ln n - 1) for n >= 2 (Dusart, as above)."""
    if n < 2:
        return 2
    ln = math.log(n)
    return max(2, int(n * (ln + math.log(ln) - 1)))


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
    # only runs with workers load the process machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

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
    """Chunk boundaries from 0 to end: multiples of chunk_size, plus cuts
    (at most end)."""
    return sorted(set(range(0, end, chunk_size)).union(cuts, [end]))


class _Chunk(NamedTuple):
    counts: np.ndarray  # windows starting in the chunk, by code
    n: int  # how many
    largest: int  # last member of the last one, 0 if none


@lru_cache(maxsize=4)
def _class_table(q: int, segment_size: int) -> np.ndarray:
    """Entry j: the class index of the odd number 2j + 1, -1 when it is not
    coprime to q.  Periodic with period q, and long enough that a segment's
    entries are one slice."""
    mod = Modulus(q)
    index = np.full(q, -1, dtype=np.int16)
    index[list(mod.classes)] = np.arange(mod.phi)
    odd = 2 * np.arange(q + segment_size, dtype=np.int64) + 1
    table = index[odd % q]
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
    """Count the windows starting at primes > q in [lo, hi), or at the
    first cap of them.

    Sieving goes on past hi, by at most GAP_PAD * (span + 1) integers,
    until the last of those windows closes.
    """
    q, r, skip = config.q, config.r, config.skip
    span = (r - 1) * skip
    phi = Modulus(q).phi
    radix = _radix(phi, r)
    table = _class_table(q, config.segment_size)
    counts = np.zeros(phi**r, dtype=np.int64)
    cls = np.empty(0, dtype=table.dtype)  # class indices, from the last span primes on
    starts = cap  # windows to count: cap, or known once a prime >= hi shows
    n = largest = 0  # primes taken; the last member of the last window
    for low, pos in _segments(max(lo, q + 1), hi + GAP_PAD * (span + 1),
                              config.segment_size, root):
        if starts is None:
            below = int(np.searchsorted(pos, (hi - low + 1) // 2))
            if below < len(pos):
                starts = n + below
        if starts == 0:
            break
        if starts is not None:
            pos = pos[: starts + span - n]
        j = (low // 2) % q
        cls = np.concatenate([cls[-span:], table[j:][pos]])
        if len(cls) > span:
            counts += np.bincount(_codes(cls, radix, skip, len(cls) - span),
                                  minlength=phi**r)
        n += len(pos)
        if n - span == starts:
            largest = low + 2 * int(pos[-1])
            break
    if n and not largest:
        raise InternalConsistencyError("prime stream ended before the window closed")
    return _Chunk(counts, max(n - span, 0), largest)


def _tables(config: SieveConfig, xs: list[int] | None,
            chunk_size: int = CHUNK_SIZE) -> list[CountTable]:
    """The counting engine: one CountTable per checkpoint in xs (by_x), or
    the single by_count table when xs is None.

    Each table is the running sum, in chunk order, of the chunks below it.
    """
    q, r, skip = config.q, config.r, config.skip
    phi, span = Modulus(q).phi, (r - 1) * skip
    by_count = config.count is not None
    if by_count:
        top = nth_prime_upper_bound(config.count + span + q + 16)
        # the N-th window start lies above this edge, so the chunk counted
        # again with a cap is about as wide as the gap between the bounds
        cuts = {nth_prime_lower_bound(config.count)}
    else:
        top = xs[-1]
        cuts = {x + 1 for x in xs}  # a table is complete where its chunk ends
    reach = top + GAP_PAD * (span + 1)  # the furthest a chunk sieves
    _check_limit(reach)
    edges = _edges(top + 1, chunk_size, cuts)
    chunks = list(zip(edges, edges[1:]))
    root = math.isqrt(reach)

    totals = np.zeros(phi**r, dtype=np.int64)
    tables: list[CountTable] = []
    seen = largest = 0
    jobs = [(config, lo, hi, root) for lo, hi in chunks]
    workers = effective_workers(config.threads)
    with closing(_ordered(_count_chunk, jobs, workers)) as results:
        for (lo, hi), res in zip(chunks, results):
            if by_count and seen + res.n > config.count:
                res = _count_chunk(config, lo, hi, root, cap=config.count - seen)
            totals += res.counts
            seen += res.n
            largest = res.largest or largest
            if seen == config.count if by_count else hi in cuts:
                tables.append(CountTable(
                    q=q, r=r, skip=skip,
                    mode="by_count" if by_count else "by_x",
                    limit=config.count if by_count else xs[len(tables)],
                    array=totals.copy(),
                    primes_seen=seen + span if seen else 0,
                    largest_prime=largest,
                ))
                if by_count or len(tables) == len(xs):
                    return tables
    raise InternalConsistencyError("prime stream ended before the N-th window start")


def _listed_codes(array: np.ndarray, r: int) -> np.ndarray:
    """The codes a table lists, in order: every code for r <= 3, else the
    codes counted at least once."""
    return np.arange(len(array)) if r <= 3 else np.flatnonzero(array)


def _code_classes(codes: np.ndarray, mod: Modulus, r: int) -> np.ndarray:
    """An (r, len(codes)) array: row j holds the j-th class of each code."""
    classes = np.array(mod.classes, dtype=np.int64)
    return classes[np.stack(np.unravel_index(codes, (mod.phi,) * r))]


def _decode(array: np.ndarray, mod: Modulus, r: int) -> dict:
    """{classes: count} over the codes the table lists."""
    codes = _listed_codes(array, r)
    return dict(zip(zip(*_code_classes(codes, mod, r).tolist()),
                    array[codes].tolist()))


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
    if xs[0] < 2:
        raise ValueError("checkpoints must be >= 2")
    if xs[-1] != int(config.x):
        raise ValueError("checkpoints must end at x")
    return _tables(config, xs)
