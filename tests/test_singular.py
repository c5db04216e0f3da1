"""Twin-style singular series values and truncated exponential sums."""

import math
import tracemalloc

import numpy as np
import pytest

from primebias import (
    SingularContext,
    prime_factors,
    primes_upto,
    s0_brute,
    s0_main,
    singular_pair,
    singular_zero,
)
from primebias import lfun
from primebias.singular import MAX_PAIR_CUTOFF


def direct_product(q, h, P):
    """Transcribe the defining product with plain loops (the oracle)."""
    if q % 2 == 1 and h % 2 == 1:
        return 0.0
    value = 2.0 if q % 2 == 1 else 1.0
    for p in range(3, P + 1):
        if any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
            continue
        if q % p == 0:
            continue
        if h % p == 0:
            value *= (p - 1.0) / (p - 2.0)
        value *= 1 - 1.0 / (p - 1.0) ** 2
    return value


def test_twin_constant_q4():
    # h = 1 with an even modulus: no parity obstruction, bare twin constant
    ctx = SingularContext(4, truncation=10**7)
    assert singular_pair(ctx, 1) == pytest.approx(0.6601618158, abs=1e-6)


def test_pair_value_q3_h2():
    # twin constant with the p = 3 factor stripped, times the parity 2
    ctx = SingularContext(3, truncation=10**7)
    assert singular_pair(ctx, 2) == pytest.approx(2 * 0.6601618158 / 0.75, abs=1e-6)


def test_odd_h_vanishes_for_odd_q():
    ctx = SingularContext(3, truncation=10**5)
    for h in (1, 3, 5, 7, 9):
        assert singular_pair(ctx, h) == 0.0


def test_pair_against_direct_product():
    P = 5000
    for q in (3, 4, 10, 12):
        ctx = SingularContext(q, truncation=P)
        for h in (1, 2, 3, 4, 6, 9, 30, 49, 1024):
            assert singular_pair(ctx, h) == pytest.approx(
                direct_product(q, h, P), rel=1e-12)


def test_pair_array_matches_scalar():
    for q in (3, 10):
        ctx = SingularContext(q, truncation=10**5)
        vals = ctx.pair_values(500)
        for h in range(1, 500):
            assert vals[h] == pytest.approx(singular_pair(ctx, h), rel=1e-12)
        assert np.isnan(vals[0])


def test_large_prime_correction_factor():
    # beyond the truncation the h-dependent factor is p/(p-1), not
    # (p-1)/(p-2): both are 1 + 1/p + O(1/p^2) but only the former pairs
    # with the missing quadratic factor
    P = 10000
    ctx = SingularContext(3, truncation=P)
    big = 10007  # prime above the cutoff
    ratio = singular_pair(ctx, 2 * big) / singular_pair(ctx, 2)
    assert ratio == pytest.approx(big / (big - 1.0), rel=1e-12)


def test_random_pairs_against_tail_bound():
    rng = np.random.default_rng(20260817)
    base = SingularContext(3, truncation=10**7)
    for _ in range(200):
        q = int(rng.integers(3, 31))
        h = int(rng.integers(1, 100_000))
        lo = SingularContext(q, truncation=10**5)
        hi = SingularContext(q, truncation=10**7)
        a, b = singular_pair(lo, h), singular_pair(hi, h)
        assert abs(a - b) <= 10 * lo.tail_bound * max(1.0, abs(b))
    assert base.tail_bound < 1e-7


def test_zero_variant_subtracts_one():
    ctx = SingularContext(3, truncation=10**6)
    for h in (2, 4, 6, 100):
        assert singular_zero(ctx, (0, h)) == pytest.approx(
            singular_pair(ctx, h) - 1.0, rel=1e-12)


def test_zero_sets_small_cases():
    ctx = SingularContext(3, truncation=10**6)
    assert singular_zero(ctx, ()) == 1.0
    assert singular_zero(ctx, (4,)) == 0.0
    assert singular_zero(ctx, (2, 2)) == 0.0  # a set, not a multiset
    assert singular_zero(ctx, (0, 2)) == pytest.approx(
        singular_pair(ctx, 2) - 1.0, rel=1e-12)
    assert singular_zero(ctx, (3, 5)) == pytest.approx(
        singular_pair(ctx, 2) - 1.0, rel=1e-12)


def test_s0_brute_v0_has_log_main_term():
    """S_0(q, 0; H) = -(phi/2q) log H + const + o(1) as H grows."""
    ctx = SingularContext(3, truncation=10**6)
    h1, h2 = 300.0, 3000.0
    s1 = s0_brute(ctx, 0, h1).value
    s2 = s0_brute(ctx, 0, h2).value
    slope = (s2 - s1) / (math.log(h2) - math.log(h1))
    assert slope == pytest.approx(-2.0 / 6.0, abs=0.02)


def test_s0_refuses_runaway_H():
    ctx = SingularContext(5)
    for H in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            s0_brute(ctx, 0, H)
    # the limit is checked before any table is allocated
    with pytest.raises(ValueError, match="100,000,000"):
        ctx.pair_values(MAX_PAIR_CUTOFF + 1)
    with pytest.raises(ValueError, match="100,000,000"):
        s0_brute(ctx, 0, 1e9)
    assert ctx._pair_cache is None


def test_s0_moment_main_formula():
    # k-th moment of the geometric weight: Gamma(k) H^k times the slope
    for q, k, H in ((3, 1, 1000.0), (3, 2, 1000.0), (5, 1, 500.0)):
        phi = 2 if q == 3 else 4
        want = -(phi / (2.0 * q)) * math.factorial(k - 1) * H**k
        assert s0_main(q, 0, H, k=k) == pytest.approx(want, rel=1e-12)


def test_s0_brute_moments_near_main_term():
    ctx = SingularContext(3, truncation=2 * 10**6)
    H = 1000.0
    for k in (1, 2):
        got = s0_brute(ctx, 0, H, k=k).value
        want = s0_main(3, 0, H, k=k)
        assert abs(got - want) <= H ** (k - 0.4)


def test_s0_brute_offclass_moments_bounded():
    ctx = SingularContext(3, truncation=2 * 10**6)
    H = 1000.0
    for k in (1, 2):
        for v in (1, 2):
            got = s0_brute(ctx, v, H, k=k).value
            assert abs(got) <= H ** (k - 0.4)


def test_s0_brute_matches_a_compensated_sum():
    # the class sum never goes through a BLAS dot product, whose threads
    # split the sum and leave its last digits to the host's core count
    ctx = SingularContext(5)
    H = 1e5
    for v in range(5):
        got = s0_brute(ctx, v, H)
        vals = ctx.pair_values(got.cutoff)
        hs = np.arange(v or 5, got.cutoff + 1, 5)
        want = math.fsum((vals[hs] - 1.0) * np.exp(-hs / H))
        assert abs(got.value / want - 1) <= 1e-12, (v, got.value, want)


def test_s0_cutoff_insensitivity():
    # doubling the brute cutoff moves nothing at double precision
    ctx = SingularContext(4, truncation=10**6)
    H = 50.0
    base = s0_brute(ctx, 1, H)
    vals = ctx.pair_values(4 * base.cutoff)
    hs = np.arange(1, 4 * base.cutoff)
    sel = hs[hs % 4 == 1]
    doubled = float(np.sum((vals[sel] - 1.0) * np.exp(-sel / H)))
    assert doubled == pytest.approx(base.value, abs=1e-12)


def test_twin_prime_constant_untruncated():
    # prod_{p >= 3} (1 - 1/(p-1)^2) = 0.66016181584686957392...
    ctx = SingularContext(4)
    assert abs(ctx.twin_tail - 0.6601618158468695739) < 1e-14
    assert ctx.truncation is None and ctx.tail_bound < 1e-21


def test_untruncated_twin_tail_takes_out_large_prime_divisors():
    # 2018 = 2 * 1009 leaves out the factor of 1009, above the exact bound
    got = SingularContext(2018).twin_tail / SingularContext(4).twin_tail
    assert got == pytest.approx(1 / (1 - 1 / 1008**2), rel=1e-15)


@pytest.mark.parametrize("P", [10**5, 10**7])
@pytest.mark.parametrize("q", [3, 5, 2018])
def test_truncated_twin_tail_matches_a_compensated_log_sum(q, P):
    # the reference sums log(1 - 1/(p-1)^2) over the odd p !| q up to P
    # with math.fsum; a plain product of the factors drifts by ~3e-13 at
    # P = 10^7
    primes = primes_upto(P)
    primes = primes[(primes > 2) & (q % primes != 0)]
    logs = np.log1p(-1.0 / (primes - 1.0) ** 2)
    want = math.exp(math.fsum(logs))
    got = SingularContext(q, truncation=P).twin_tail
    assert abs(got / want - 1) <= 2e-15, (got, want)
    # the series part alone, over every prime EXACT_BOUND <= p <= P
    large = primes_upto(P)
    large = large[large >= lfun.EXACT_BOUND]
    want = math.fsum(np.log1p(-1.0 / (large - 1.0) ** 2))
    series = lfun._COEFFICIENTS[:, 0] @ lfun._series_sums(1, 1, P)[:, -1]
    assert abs(series - want) <= 1e-16


def test_untruncated_within_tail_of_truncated():
    for q in (3, 4, 5, 12, 30):
        full = SingularContext(q).twin_tail
        cut = SingularContext(q, truncation=10**6)
        assert abs(full - cut.twin_tail) <= cut.twin_tail * math.expm1(cut.tail_bound)


@pytest.mark.parametrize("q", [3, 4, 5, 12])
def test_untruncated_pair_values_against_trial_division(q):
    # untruncated, every odd p !| q dividing h contributes (p-1)/(p-2),
    # however large
    ctx = SingularContext(q)
    vals = ctx.pair_values(10**4)
    for h in range(1, 10**4 + 1):
        want = 0.0 if q % 2 and h % 2 else ctx.base
        for p in prime_factors(h):
            if p > 2 and q % p:
                want *= (p - 1.0) / (p - 2.0)
        assert singular_pair(ctx, h) == pytest.approx(want, rel=1e-13), h
        assert vals[h] == pytest.approx(want, rel=1e-13), h


def loop_pair_values(ctx, cutoff):
    """pair_values as one strided product per prime, in prime order."""
    vals = np.full(cutoff + 1, ctx.base)
    vals[0] = np.nan
    if ctx.q % 2:
        vals[1::2] = 0.0
    for p in primes_upto(cutoff).tolist():
        if p > 2 and ctx.q % p:
            above = ctx.truncation is not None and p > ctx.truncation
            vals[p::p] *= p / (p - 1.0) if above else (p - 1.0) / (p - 2.0)
    return vals


@pytest.mark.parametrize("q", [3, 4, 5, 12, 30])
@pytest.mark.parametrize("truncation", [None, 100])
def test_pair_values_bit_identical_to_a_per_prime_loop(q, truncation):
    # primes above isqrt(cutoff) stream from the sieve kernel; squares put
    # a prime at isqrt(cutoff) itself, and P = 100 runs the p/(p-1)
    # branch at the larger cutoffs
    for cutoff in (1, 2, 3, 4, 9, 25, 100, 12_345, 500_000):
        ctx = SingularContext(q, truncation=truncation)
        got = ctx.pair_values(cutoff)
        want = loop_pair_values(ctx, cutoff)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), cutoff


@pytest.mark.parametrize("q", [5, 12, 30])
@pytest.mark.parametrize("truncation", [None, 100])
def test_pair_values_bit_identical_across_kernel_segments(q, truncation):
    # 5e6 spans three 2**20-odd-number kernel segments, so the large primes
    # of several segments are multiplied in, each once per multiple
    ctx = SingularContext(q, truncation=truncation)
    got = ctx.pair_values(5_000_000)
    want = loop_pair_values(ctx, 5_000_000)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_pair_values_peak_memory_under_five_quarters_of_the_table():
    # the large primes stream from the sieve kernel: no array of every
    # prime up to the cutoff, only the kernel's base primes (cached here)
    cutoff = 10**7
    primes_upto(math.isqrt(cutoff))
    ctx = SingularContext(5)
    tracemalloc.start()
    try:
        vals = ctx.pair_values(cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * vals.nbytes, peak / vals.nbytes


def test_s0_brute_reads_its_class_as_a_strided_view():
    # no int64 index array and no gathered copy: the class's values, the
    # h's, and the weights with one temporary, four floats per h at most
    ctx = SingularContext(5)
    ctx.pair_values(10**7)
    length = len(range(1, 10**7 + 1, 5))
    tracemalloc.start()
    try:
        s0_brute(ctx, 1, 2e5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * length, peak / (8 * length)
