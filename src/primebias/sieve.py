"""Exact pattern counts over consecutive primes by segmented sieve.

Primes come from the odd-only segmented sieve of arith._segments, the
one prime sieve of the package: 2**20 odd numbers per segment, each mask
a slice of a tile pre-sieved by 3..17 before the strided stores of the
larger base primes, which the kernel picks for the range it is given.

Window starts are the primes strictly greater than q, so every window
member is coprime to q and consecutive sieved primes are consecutive
primes; a window of r primes, stepping `skip` positions between pattern
members, is attributed to the residue tuple of those members and counted
by its radix-phi(q) code.  A process holds one int16 class table, q +
segment_size entries built from one period, and one count array per
chunk; a segment adds its windows to that array by one bincount, or in
place when the code space outnumbers them, so no segment allocates an
array of phi(q)**r counts.  A chunk returns only the codes it counted
and their counts, which are added into one running sum that the last
table takes without a copy.

The range is cut into chunks, and each window belongs to the chunk that
holds its first prime.  A chunk sieves and counts on its own: it counts
the windows starting in it, sieving on past its end until the last of
them closes (span = (r-1)*skip primes later, always within GAP_PAD *
(span + 1) integers), and returns the codes counted with their counts,
the number of windows and the last member of the last one.  Checkpoints
are chunk boundaries, so each checkpoint's table is a running sum in
chunk order; in by-count mode only the chunk holding the N-th window
start is counted again, cut short.

With threads > 1 the chunks run on that many worker processes (at most
one per core the process may run on), and results are summed in chunk
order, so counts never depend on the worker count or the chunking.
Limits are bounded up front: a request for more than 2**24 residue
patterns, or one that would sieve past arith.MAX_SIEVE_LIMIT (5e10; the
kernel checks every range, and _tables once before any chunk), is refused.
"""

from __future__ import annotations

import itertools
import math
import os
from contextlib import closing
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .arith import (DEFAULT_SEGMENT_SIZE, InternalConsistencyError, Modulus,
                    _segments, check_pattern_budget, check_sieve_limit)

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
# windows starting at primes <= x close before x + GAP_PAD * (span + 1):
# every prime gap below arith.MAX_SIEVE_LIMIT is far shorter than GAP_PAD
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
    pattern tuples.  `listing` yields the codes a table lists, a block
    at a time, and `counts` decodes them into classes on first use.
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

    def listing(self, rows: int):
        """Yield the codes the table lists, in code order, `rows` codes
        at a time: every code for r <= 3, each block its own arange, else
        the codes counted at least once."""
        if self.r > 3:
            codes = np.flatnonzero(self.array)
            for start in range(0, len(codes), rows):
                yield codes[start:start + rows]
            return
        for start in range(0, len(self.array), rows):
            yield np.arange(start, min(start + rows, len(self.array)))

    @cached_property
    def counts(self) -> dict[tuple[int, ...], int]:
        """{classes: count} over the patterns the table lists."""
        classes = np.array(Modulus(self.q).classes)
        for codes in self.listing(len(self.array)):  # one block, or none
            patterns = classes[np.stack(
                np.unravel_index(codes, (len(classes),) * self.r))]
            return dict(zip(zip(*patterns.tolist()), self.array[codes].tolist()))
        return {}

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
    """The worker processes a run with `threads` uses: at most one per core
    this process may run on.

    cpus defaults to the size of the process's CPU affinity mask, so a run
    pinned to one core (taskset, a cpuset) counts one; os.cpu_count() where
    the platform has no such mask.
    """
    if cpus is None:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    return max(1, min(threads, cpus))


def stream_primes(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE,
                  threads: int = 1):
    """Yield ordered int64 arrays that together hold every prime <= limit.

    The primes are sieved in this process whatever `threads` says: moving
    every prime from a worker process costs more than sieving it here.
    """
    if limit < 2:
        return
    yield np.array([2], dtype=np.int64)
    for low, pos in _segments(3, limit + 1, segment_size):
        yield low + 2 * pos


# -------------------------------------------------------------- chunk engine


def _ordered(fn, jobs, workers: int):
    """Yield fn(*job) for each job, in job order.

    With workers > 1 the calls run in that many spawned processes through
    the executor's ordered map: no worker waits for the consumer, the
    executor's call queue bounds the work started ahead of it, and closing
    the generator cancels every job not yet started.
    """
    if workers == 1:
        yield from itertools.starmap(fn, jobs)
        return
    # only runs with workers load the process machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("spawn"))
    try:
        yield from pool.map(fn, *zip(*jobs))
    finally:
        pool.shutdown(cancel_futures=True)


def _edges(end: int, chunk_size: int, cuts=()) -> list[int]:
    """Chunk boundaries from 0 to end: multiples of chunk_size, plus cuts
    (at most end)."""
    return sorted(set(range(0, end, chunk_size)).union(cuts, [end]))


class _Chunk(NamedTuple):
    codes: np.ndarray  # the codes of the windows starting in the chunk
    counts: np.ndarray  # how many start there with each code, all > 0
    n: int  # how many windows in all
    largest: int  # last member of the last one, 0 if none


@lru_cache(maxsize=4)
def _class_table(q: int, segment_size: int) -> np.ndarray:
    """Entry j: the class index of the odd number 2j + 1, -1 when it is not
    coprime to q.  Periodic with period q, and long enough that a segment's
    entries are one slice.

    One period is laid down and copied forward by doubling, all in int16,
    so the build holds little beyond the table itself.
    """
    mod = Modulus(q)
    index = np.full(q, -1, dtype=np.int16)
    index[np.array(mod.classes)] = np.arange(mod.phi, dtype=np.int16)
    table = np.empty(q + segment_size, dtype=np.int16)
    # 2j + 1 runs over the odd residues below q, then on past q over the
    # even ones when q is odd, or over the odd ones again when q is even
    half = q // 2
    table[:half] = index[1::2]
    table[half:q] = index[(q + 1) % 2::2]
    n = q
    while n < len(table):  # n is a multiple of q until the last copy
        k = min(n, len(table) - n)
        table[n:n + k] = table[:k]
        n += k
    table.flags.writeable = False
    return table


def _codes(cls: np.ndarray, phi: int, r: int, skip: int,
           out: np.ndarray) -> np.ndarray:
    """Radix-phi code of each of the len(out) windows starting at cls[0],
    cls[1], ..., by Horner's rule in out."""
    m = len(out)
    out[:] = cls[:m]
    for i in range(1, r):
        out *= phi
        out += cls[i * skip : i * skip + m]
    return out


def _tally(counts: np.ndarray, codes: np.ndarray) -> None:
    """Add one to counts[c] for each code c.

    With fewer codes than counts a dense bincount would cost more than the
    windows, so those are added in place; otherwise one bincount is
    cheaper.
    """
    if len(codes) < len(counts):
        np.add.at(counts, codes, 1)
    else:
        counts += np.bincount(codes, minlength=len(counts))


def _count_chunk(config: SieveConfig, lo: int, hi: int,
                 cap: int | None = None) -> _Chunk:
    """Count the windows starting at primes > q in [lo, hi), or at the
    first cap of them.

    Sieving goes on past hi, by at most GAP_PAD * (span + 1) integers,
    until the last of those windows closes.
    """
    q, r, skip = config.q, config.r, config.skip
    span = (r - 1) * skip
    phi = Modulus(q).phi
    table = _class_table(q, config.segment_size)
    counts = np.zeros(phi**r, dtype=np.int64)
    # one buffer each for the class indices, those of the last span primes
    # first, and for the codes of the windows they start: a segment adds
    # no array of its size to the sieve's but a small code space's bincount
    cls = np.empty(span + config.segment_size, dtype=table.dtype)
    codes = np.empty(config.segment_size, dtype=np.int64)
    held = 0  # class indices in cls
    starts = cap  # windows to count: cap, or known once a prime >= hi shows
    n = largest = 0  # primes taken; the last member of the last window
    for low, pos in _segments(max(lo, q + 1), hi + GAP_PAD * (span + 1),
                              config.segment_size):
        if starts is None:
            below = int(np.searchsorted(pos, (hi - low + 1) // 2))
            if below < len(pos):
                starts = n + below
        if starts == 0:
            break
        if starts is not None:
            pos = pos[: starts + span - n]
        j = (low // 2) % q
        np.take(table[j:], pos, out=cls[held:held + len(pos)])
        held += len(pos)
        if held > span:
            m = held - span
            _tally(counts, _codes(cls, phi, r, skip, codes[:m]))
            cls[:span] = cls[m:held]  # the members of the next windows
            held = span
        n += len(pos)
        if n - span == starts:
            largest = low + 2 * int(pos[-1])
            break
    if n and not largest:
        raise InternalConsistencyError("prime stream ended before the window closed")
    # only what was counted goes back: few of a large code space's entries
    codes = np.flatnonzero(counts)
    return _Chunk(codes, counts[codes], max(n - span, 0), largest)


def _tables(config: SieveConfig, xs: list[int] | None,
            chunk_size: int = CHUNK_SIZE) -> list[CountTable]:
    """The counting engine: one CountTable per checkpoint in xs (by_x), or
    the single by_count table when xs is None.

    Each table is the running sum, in chunk order, of the chunks below it.
    """
    q, r, skip = config.q, config.r, config.skip
    span = (r - 1) * skip
    by_count = config.count is not None
    if by_count:
        top = nth_prime_upper_bound(config.count + span + q + 16)
        # the N-th window start lies above this edge, so the chunk counted
        # again with a cap is about as wide as the gap between the bounds
        cuts = {nth_prime_lower_bound(config.count)}
    else:
        top = xs[-1]
        cuts = {x + 1 for x in xs}  # a table is complete where its chunk ends
    check_sieve_limit(top + GAP_PAD * (span + 1))  # as far as a chunk sieves
    edges = _edges(top + 1, chunk_size, cuts)
    chunks = list(zip(edges, edges[1:]))

    totals = np.zeros(Modulus(q).phi ** r, dtype=np.int64)
    tables: list[CountTable] = []
    seen = largest = 0
    jobs = [(config, lo, hi) for lo, hi in chunks]
    workers = effective_workers(config.threads)
    with closing(_ordered(_count_chunk, jobs, workers)) as results:
        for (lo, hi), res in zip(chunks, results):
            if by_count and seen + res.n > config.count:
                res = _count_chunk(config, lo, hi, cap=config.count - seen)
            totals[res.codes] += res.counts
            seen += res.n
            largest = res.largest or largest
            if seen == config.count if by_count else hi in cuts:
                last = by_count or len(tables) + 1 == len(xs)
                tables.append(CountTable(
                    q=q, r=r, skip=skip,
                    mode="by_count" if by_count else "by_x",
                    limit=config.count if by_count else xs[len(tables)],
                    # the last table takes the running sum itself
                    array=totals if last else totals.copy(),
                    primes_seen=seen + span if seen else 0,
                    largest_prime=largest,
                ))
                if last:
                    return tables
    raise InternalConsistencyError("prime stream ended before the N-th window start")


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
        raise ValueError(f"checkpoint {xs[-1]} exceeds x = {int(config.x)}")
    return _tables(config, xs)
