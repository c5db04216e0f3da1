"""Segmented counting engine against small hand counts and a slow oracle."""

import dataclasses
import itertools
import math
import os
import random
import tracemalloc
from contextlib import closing

import numpy as np
import pytest

from primebias import (
    CountTable,
    Modulus,
    SieveConfig,
    character_sum,
    count_patterns,
    count_patterns_series,
    primes_upto,
    stream_primes,
)
from primebias import arith, build_ctable, sieve
from primebias.arith import MAX_SIEVE_LIMIT, InternalConsistencyError
from primebias.sieve import (
    CHUNK_SIZE,
    effective_workers,
    nth_prime_lower_bound,
    nth_prime_upper_bound,
)
from primebias.singular import SingularContext

import ordered_jobs  # beside this file, so spawned workers import it too


def windows(q, r=2, skip=1, x=None, count=None, prime_limit=3_000_000):
    """Slow reference count: plain python loop over a precomputed list.

    Returns the table and the last member of the last window counted.
    """
    ps = [int(p) for p in primes_upto(prime_limit) if p > q]
    span = (r - 1) * skip
    table = {}
    done = 0
    last = 0
    for i in range(len(ps) - span):
        p = ps[i]
        if x is not None and p > x:
            break
        if count is not None and done >= count:
            break
        w = tuple(ps[i + j * skip] % q for j in range(r))
        table[w] = table.get(w, 0) + 1
        done += 1
        last = ps[i + span]
    return table, last


def window_table(q, r=2, skip=1, x=None, count=None, prime_limit=3_000_000):
    return windows(q, r, skip, x, count, prime_limit)[0]


def full_table(q, r, table):
    """The oracle's table with every pattern present, as tables for r <= 3
    are."""
    classes = Modulus(q).classes
    return {k: table.get(k, 0) for k in itertools.product(classes, repeat=r)}


def test_hand_count_q3_to_100():
    # windows: 31-37, 61-67, 73-79 give (1,1); totals check against pi(100)
    t = count_patterns(SieveConfig(q=3, x=100))
    assert t.counts == {(1, 1): 3, (1, 2): 8, (2, 1): 8, (2, 2): 4}
    assert t.total() == 23
    assert t.mode == "by_x"


def _byte_sieve(limit):
    """Primes <= limit: a mask entry per integer, the plain loop over p;
    independent of the segment kernel behind primes_upto."""
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p)


def test_stream_primes_matches_simple_sieve():
    got = np.concatenate(list(stream_primes(200_000, segment_size=4096)))
    assert got.dtype == np.int64
    assert got.tolist() == _byte_sieve(200_000).tolist()


def _plain_primes(lo, hi):
    """Primes in [lo, hi): a mask entry per integer, every base prime."""
    mask = np.ones(hi - lo, dtype=bool)
    for p in _byte_sieve(math.isqrt(hi - 1)).tolist():
        start = max(p * p, -(-lo // p) * p)
        mask[start - lo :: p] = False
    mask[: max(0, 2 - lo)] = False
    return lo + np.flatnonzero(mask)


def test_segment_kernel_fuzz():
    # odd lows from 1 up, so segments start at and just past the tile
    # primes 3..17; lows near 1e10 have primes sparser than 1/10 of the
    # odd numbers, the kernel's padded path
    rng = random.Random(20161)
    cases = ([(lo, rng.choice([1024, 2048, 3000])) for lo in range(1, 41, 2)]
             + [(rng.randrange(1, 10**6) | 1, rng.choice([1024, 4096, 1 << 14]))
                for _ in range(60)]
             + [(rng.randrange(10**10, 2 * 10**10) | 1, rng.choice([1024, 1 << 13]))
                for _ in range(8)])
    for lo, seg in cases:
        hi = lo + rng.randrange(1, 6 * seg)
        got = [low + 2 * pos for low, pos in
               sieve._segments(lo, hi, seg)]
        got = np.concatenate(got) if got else np.empty(0, dtype=np.int64)
        want = _plain_primes(lo, hi)
        assert got.tolist() == want[want != 2].tolist(), (lo, hi, seg)


def test_stream_primes_budget_refusal():
    with pytest.raises(ValueError):
        list(stream_primes(MAX_SIEVE_LIMIT * 2))


def test_one_sieve_budget_bounds_every_route(monkeypatch):
    # the kernel checks its range before its first segment, so the prime
    # arrays, the stream and the truncated Euler products share one budget
    monkeypatch.setattr(arith, "MAX_SIEVE_LIMIT", 10**6)
    L = 2_000_003  # no other test's limit: no cached array or pass
    routes = {
        "primes_upto": lambda: primes_upto(L),
        "build_ctable": lambda: build_ctable(5, truncation=L),
        "SingularContext": lambda: SingularContext(5, truncation=L),
        "stream_primes": lambda: list(stream_primes(L)),
    }
    for name, route in routes.items():
        with pytest.raises(ValueError, match="exceeds the configured budget"):
            route()


def test_nth_prime_bounds_hold_below_2e7():
    ps = primes_upto(20_000_000).tolist()
    for n, p in enumerate(ps, start=1):
        assert nth_prime_lower_bound(n) <= p < nth_prime_upper_bound(n), n


@pytest.mark.parametrize("q", [3, 4, 5, 8, 10, 12])
def test_by_x_against_oracle(q):
    want = window_table(q, x=10**6)
    got = count_patterns(SieveConfig(q=q, x=10**6))
    assert {k: v for k, v in got.counts.items() if v} == want


def test_by_count_against_oracle():
    want = window_table(5, count=10_000)
    got = count_patterns(SieveConfig(q=5, count=10_000))
    assert {k: v for k, v in got.counts.items() if v} == want
    assert got.total() == 10_000


def test_row_sum_identity():
    # every included start is counted exactly once
    x = 10**6
    t = count_patterns(SieveConfig(q=8, x=x))
    pi_x = len(primes_upto(x))
    pi_q = len(primes_upto(8))
    assert t.total() == pi_x - pi_q


def test_triples_against_oracle():
    want = window_table(3, r=3, x=200_000)
    got = count_patterns(SieveConfig(q=3, r=3, x=200_000))
    assert {k: v for k, v in got.counts.items() if v} == want


def test_skip_windows_against_oracle():
    want = window_table(5, r=2, skip=3, x=200_000)
    got = count_patterns(SieveConfig(q=5, skip=3, x=200_000))
    assert {k: v for k, v in got.counts.items() if v} == want


def test_checkpoint_series_matches_individual_runs():
    xs = [10**4, 10**5, 10**6]
    series = count_patterns_series(SieveConfig(q=3, x=10**6), xs)
    assert [t.limit for t in series] == xs
    for t, x in zip(series, xs):
        single = count_patterns(SieveConfig(q=3, x=x))
        assert t.counts == single.counts, x


ENGINE_CASES = [(3, 2, 1), (10, 2, 1), (5, 3, 1), (8, 2, 2), (7, 3, 2)]


@pytest.mark.parametrize("chunk_size", [2, 7, 64, 1000, CHUNK_SIZE])
@pytest.mark.parametrize("q,r,skip", ENGINE_CASES)
def test_chunked_checkpoints_match_oracle(q, r, skip, chunk_size):
    # chunks of 2 or 7 integers hold fewer primes than a window spans;
    # checkpoints at or below 17, odd and even, fall where the tile primes do
    xs = [10, 11, 13, 17, 100, 5000]
    cfg = SieveConfig(q=q, r=r, skip=skip, x=xs[-1], segment_size=1024)
    tables = sieve._tables(cfg, xs, chunk_size=chunk_size)
    assert [t.limit for t in tables] == xs
    for t, x in zip(tables, xs):
        want, last = windows(q, r, skip, x=x, prime_limit=100_000)
        assert t.counts == full_table(q, r, want), x
        assert t.largest_prime == last, x
        assert t.mode == "by_x"


def _starts_below(q, x):
    """Window starts (primes > q) below x."""
    ps = primes_upto(x - 1)
    return int(np.count_nonzero(ps > q))


@pytest.mark.parametrize("q,r,skip", ENGINE_CASES)
def test_chunked_by_count_cuts_match_oracle(q, r, skip):
    span = (r - 1) * skip
    chunk = 1000
    at_edge = _starts_below(q, 3 * chunk)  # the N-th start ends a chunk
    # the last window ends one prime before the chunk's last prime, on it,
    # or crosses into the next chunk
    cuts = [1, at_edge - span - 1, at_edge - span, at_edge - span + 1,
            at_edge - 1, at_edge, at_edge + 1]
    for n in cuts:
        want, last = windows(q, r, skip, count=n, prime_limit=100_000)
        for size in (chunk, 7, CHUNK_SIZE):
            cfg = SieveConfig(q=q, r=r, skip=skip, count=n, segment_size=1024)
            (t,) = sieve._tables(cfg, None, chunk_size=size)
            assert t.counts == full_table(q, r, want), (n, size)
            assert t.largest_prime == last and t.total() == n, (n, size)
            assert t.primes_seen == n + span


@pytest.mark.parametrize("xs,count", [([1000, 5000], None), (None, 500)])
def test_window_that_outruns_the_gap_pad_is_an_internal_error(
        monkeypatch, xs, count):
    # each chunk closes its last windows within GAP_PAD * (span + 1)
    # integers past its end; a pad shorter than the prime gaps there fails
    # loudly instead of dropping windows
    monkeypatch.setattr(sieve, "GAP_PAD", 1)
    x = None if xs is None else xs[-1]
    cfg = SieveConfig(q=3, r=3, x=x, count=count, segment_size=1024)
    with pytest.raises(InternalConsistencyError):
        sieve._tables(cfg, xs, chunk_size=1000)


def test_chunked_counts_independent_of_workers():
    cases = [(SieveConfig(q=7, r=3, skip=2, x=300_000, threads=th,
                          segment_size=1024), [17, 100_000, 300_000])
             for th in (1, 2)]
    cases += [(SieveConfig(q=10, count=20_000, threads=th,
                           segment_size=1024), None) for th in (1, 2)]
    got = [[(t.counts, t.largest_prime, t.primes_seen)
            for t in sieve._tables(cfg, xs, chunk_size=4099)]
           for cfg, xs in cases]
    assert got[0] == got[1]
    assert got[2] == got[3]
    want, last = windows(7, 3, 2, x=300_000, prime_limit=400_000)
    assert got[0][-1][:2] == (full_table(7, 3, want), last)


def test_tables_independent_of_chunk_size_and_workers():
    # sparse results through the worker pipe, added into one running sum
    cfg = SieveConfig(q=7, r=4, x=300_000, segment_size=1024)
    xs = [17, 100_000, 300_000]
    want = sieve._tables(cfg, xs)
    for chunk_size in (997, 4099, 65_536):
        for threads in (1, 2):
            got = sieve._tables(dataclasses.replace(cfg, threads=threads), xs,
                                chunk_size=chunk_size)
            assert got == want, (chunk_size, threads)


def test_closing_the_chunk_engine_cancels_the_jobs_not_started(tmp_path):
    # the first job returns at once and the rest outlast the close; each
    # job run leaves a file.  Two workers run theirs, the executor's call
    # queue holds workers + 1 more (refilled once as the first returns),
    # and closing cancels the other jobs
    jobs = [(str(tmp_path), 0, 0.0)]
    jobs += [(str(tmp_path), i, 0.5) for i in range(1, 40)]
    with closing(sieve._ordered(ordered_jobs.mark, jobs, 2)) as results:
        assert next(results) == 0
    assert 2 <= len(list(tmp_path.iterdir())) <= 2 * 2 + 2


@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_engine_keeps_job_order_behind_a_slow_first_job(workers,
                                                              tmp_path):
    jobs = [(str(tmp_path), 0, 0.5)]
    jobs += [(str(tmp_path), i, 0.0) for i in range(1, 12)]
    assert list(sieve._ordered(ordered_jobs.mark, jobs, workers)) == list(range(12))
    assert len(list(tmp_path.iterdir())) == 12


def test_four_prime_windows_list_only_counted_patterns():
    t = count_patterns(SieveConfig(q=5, r=4, x=50_000, segment_size=1024))
    want, last = windows(5, r=4, x=50_000, prime_limit=100_000)
    assert t.counts == want
    assert t.largest_prime == last


def test_worker_count_is_capped_at_cores():
    assert effective_workers(1, cpus=8) == 1
    assert effective_workers(64, cpus=2) == 2
    assert effective_workers(3, cpus=3) == 3
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    assert effective_workers(5) == min(5, usable)


def test_worker_count_reads_the_affinity_mask(monkeypatch):
    # a run pinned to one core of many spawns one worker
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert effective_workers(8) == 1
    # a platform without affinity masks falls back to the core count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert effective_workers(8) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert effective_workers(8) == 1


@pytest.mark.parametrize("segment_size", [1024, 1 << 20])
@pytest.mark.parametrize("q", [3, 10, 210, 9240])
def test_class_table_is_one_period_tiled(q, segment_size):
    mod = Modulus(q)  # its classes are cached, and shared by every build
    index = np.full(q, -1, dtype=np.int16)
    index[list(mod.classes)] = np.arange(mod.phi)
    want = index[(2 * np.arange(q + segment_size, dtype=np.int64) + 1) % q]
    sieve._class_table.cache_clear()
    tracemalloc.start()
    try:
        table = sieve._class_table(q, segment_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int16 and not table.flags.writeable
    assert np.array_equal(table, want)
    # the old build held two int64 arrays of the table's length
    assert peak <= 2 * table.nbytes, peak / table.nbytes


def test_code_space_of_2_to_the_24_counts_in_place():
    # phi(60)**6 = 2**24 codes, far more than any segment's windows
    x = 300_000
    want, last = windows(60, r=6, x=x, prime_limit=400_000)
    for threads in (1, 2):
        t = count_patterns(SieveConfig(q=60, r=6, x=x, threads=threads,
                                       segment_size=1 << 14))
        assert len(t.array) == 1 << 24
        assert t.counts == want and t.largest_prime == last, threads
    cfg = SieveConfig(q=60, r=6, x=x, segment_size=1 << 14)
    job = (cfg, 0, x + 1)
    sieve._count_chunk(*job)  # the class table and tile are cached
    tracemalloc.start()
    try:
        chunk = sieve._count_chunk(*job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense = np.zeros_like(t.array)
    dense[chunk.codes] = chunk.counts
    assert np.array_equal(dense, t.array)
    # a dense bincount per segment would hold a second array of counts
    assert peak < 1.1 * t.array.nbytes, peak / t.array.nbytes


@pytest.mark.parametrize("q,r,skip,x", [
    (7, 2, 1, 10**5), (5, 3, 2, 10**5), (7, 4, 1, 10**5), (7, 6, 1, 10**5),
    (23, 2, 1, 20),  # no window starts in [6, 10): no code
])
def test_chunk_returns_only_the_codes_it_counted(q, r, skip, x):
    cfg = SieveConfig(q=q, r=r, skip=skip, x=x, segment_size=1024)
    lo, hi = x // 3, x // 2
    # the windows starting in [lo, hi): those by hi - 1 less those by lo - 1
    below, by_hi = count_patterns_series(
        dataclasses.replace(cfg, x=hi - 1), [lo - 1])
    chunk = sieve._count_chunk(cfg, lo, hi)
    assert chunk.codes.dtype == chunk.counts.dtype == np.int64
    assert np.all(np.diff(chunk.codes) > 0) and np.all(chunk.counts > 0)
    assert int(chunk.counts.sum()) == chunk.n == by_hi.total() - below.total()
    array = np.zeros_like(by_hi.array)
    array[chunk.codes] = chunk.counts
    assert np.array_equal(array, by_hi.array - below.array)


@pytest.mark.parametrize("q,r,skip", [(10, 2, 1), (7, 3, 2), (5, 4, 1),
                                      (7, 6, 1)])
def test_listing_blocks_join_to_counts(q, r, skip):
    x = 20_000
    t = count_patterns(SieveConfig(q=q, r=r, skip=skip, x=x,
                                   segment_size=1024))
    want = window_table(q, r, skip, x=x, prime_limit=30_000)
    want = full_table(q, r, want) if r <= 3 else want
    assert t.counts == want
    # the codes of the listed patterns, in code order
    mod = Modulus(q)
    listed = [sum(mod.classes.index(c) * mod.phi**(r - 1 - j)
                  for j, c in enumerate(pattern)) for pattern in sorted(want)]
    for rows in (1, 7, 1 << 14):
        blocks = list(t.listing(rows))
        assert all(len(codes) == rows for codes in blocks[:-1])
        assert 0 < len(blocks[-1]) <= rows
        codes = np.concatenate(blocks)
        assert codes.tolist() == listed, rows
        assert t.array[codes].tolist() == list(t.counts.values()), rows


def test_listing_allocates_a_block_at_a_time():
    # 100**3 codes; the listing once took an arange of all 8 MB up front
    t = CountTable(q=101, r=3, skip=1, mode="by_x", limit=2,
                   array=np.zeros(100**3, dtype=np.int64), primes_seen=0,
                   largest_prime=0)
    tracemalloc.start()
    try:
        n = sum(len(codes) for codes in t.listing(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 100**3
    assert peak < 1 << 20, peak


def test_thread_determinism_small():
    tables = [count_patterns(SieveConfig(q=12, x=2_000_000, threads=th,
                                         segment_size=4096))
              for th in (1, 3, 7)]
    assert tables[0].counts == tables[1].counts == tables[2].counts


def test_segment_size_invariance():
    a = count_patterns(SieveConfig(q=5, x=500_000, segment_size=2048))
    b = count_patterns(SieveConfig(q=5, x=500_000))
    assert a.counts == b.counts


def test_count_table_lookup_canonicalises():
    t = count_patterns(SieveConfig(q=3, x=100))
    assert t.count((4, 5)) == t.counts[(1, 2)]
    assert t.count((1, 2)) == 8


@pytest.mark.parametrize("r, x", [(3, 20_000), (4, 20_000)])
def test_counts_count_and_total_read_the_array(r, x):
    t = count_patterns(SieveConfig(q=5, r=r, x=x, segment_size=1024))
    classes = Modulus(5).classes
    patterns = list(itertools.product(classes, repeat=r))  # code order
    assert t.array.dtype == np.int64 and len(t.array) == len(patterns)
    by_code = dict(zip(patterns, t.array.tolist()))
    # r <= 3 lists every pattern, r >= 4 only those counted
    assert t.counts == (by_code if r <= 3
                        else {k: n for k, n in by_code.items() if n})
    want = window_table(5, r, x=x, prime_limit=30_000)
    assert t.counts == (full_table(5, r, want) if r <= 3 else want)
    for pat, n in by_code.items():
        assert t.count(pat) == n
        assert t.count(tuple(c + 5 for c in pat)) == n
    assert t.count((5,) * r) == 0  # not coprime to q
    assert t.count((1,) * (r + 1)) == 0  # not an r-pattern
    assert t.total() == int(t.array.sum()) == sum(t.counts.values())


def test_count_table_array_is_read_only():
    t = count_patterns(SieveConfig(q=3, x=1000))
    assert not t.array.flags.writeable
    with pytest.raises(ValueError):
        t.array[0] = 0
    # the array handed in is frozen too, so no table is built writable
    u = dataclasses.replace(t, array=np.zeros(4, dtype=np.int64))
    assert not u.array.flags.writeable


def test_count_tables_compare_by_counts():
    cfg = SieveConfig(q=3, x=1000)
    t = count_patterns(cfg)
    assert t == count_patterns(cfg)
    assert t == dataclasses.replace(t, array=t.array.copy())
    bumped = t.array.copy()
    bumped[1] += 1
    assert t != dataclasses.replace(t, array=bumped)
    assert t != dataclasses.replace(t, limit=999)
    assert t != count_patterns(SieveConfig(q=3, x=2000))


def test_config_validation():
    with pytest.raises(ValueError):
        SieveConfig(q=3)  # neither x nor count
    with pytest.raises(ValueError):
        SieveConfig(q=3, x=100, count=5)
    with pytest.raises(ValueError):
        SieveConfig(q=2, x=100)
    with pytest.raises(ValueError):
        SieveConfig(q=3, x=100, r=1)
    with pytest.raises(ValueError):
        SieveConfig(q=3, x=100, skip=0)
    with pytest.raises(ValueError, match="checkpoints must be >= 2"):
        count_patterns_series(SieveConfig(q=3, x=1000), [-5, 100])
    with pytest.raises(ValueError, match="by_x"):
        count_patterns_series(SieveConfig(q=3, count=1000), [100])
    with pytest.raises(ValueError, match="patterns exceed"):
        SieveConfig(q=100, r=6, x=10**6)  # 40**6 counts, 33 GB
    SieveConfig(q=210, r=3, x=10**6)  # 48**3 counts


def test_character_sum_legendre_oracle():
    # q = 3: residue 1 is the square, 2 is not
    t = count_patterns(SieveConfig(q=3, x=10**6))
    want = (t.counts[(1, 1)] + t.counts[(2, 2)]
            - t.counts[(1, 2)] - t.counts[(2, 1)])
    assert character_sum(t) == want
    with pytest.raises(ValueError):
        character_sum(count_patterns(SieveConfig(q=4, x=1000)))


def test_character_sum_is_negative_early():
    # the diagonal deficit makes the paired Legendre sum negative
    t = count_patterns(SieveConfig(q=5, x=10**6))
    assert character_sum(t) < 0
