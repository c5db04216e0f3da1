"""Exact integer helpers: factorization, totient, epsilon, sawtooth."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from primebias import (
    Modulus,
    PatternGrid,
    ResiduePattern,
    canonical_residue,
    epsilon_q,
    prime_factors,
    primes_upto,
    repeat_count,
    sawtooth_B,
    totient,
    von_mangoldt,
)
from primebias.arith import moebius


def test_prime_factors_small():
    assert prime_factors(12) == (2, 3)
    assert prime_factors(97) == (97,)
    assert prime_factors(360) == (2, 3, 5)
    assert prime_factors(1) == ()


def test_totient_gcd_oracle():
    # definition as a count, no multiplicativity shortcut
    for n in (1, 2, 3, 10, 36, 97, 100, 210):
        direct = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert totient(n) == direct
    assert totient(100) == 40


def test_primes_upto_trial_division():
    got = list(primes_upto(500))
    want = []
    for n in range(2, 501):
        if all(n % p for p in range(2, int(math.isqrt(n)) + 1)):
            want.append(n)
    assert got == want


def _byte_sieve(limit):
    """Reference: one mask entry per integer, the plain loop over p."""
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p)


# the segment (2**20 odd numbers, 2**21 integers) and tile (255255 odd
# numbers) edges of the kernel behind primes_upto
SEGMENT, TILE = 1 << 21, 2 * 255255


@pytest.mark.parametrize("limit", list(range(21)) + [
    10**6, SEGMENT - 2, SEGMENT - 1, SEGMENT, SEGMENT + 1, SEGMENT + 2,
    2 * SEGMENT + 1, 3 * SEGMENT + 7, TILE - 1, TILE, TILE + 1, 10**7 + 19])
def test_primes_upto_odd_sieve_matches_byte_sieve(limit):
    got = primes_upto(limit)
    assert got.dtype == np.int64
    assert got.tolist() == _byte_sieve(limit).tolist()


def test_primes_upto_pi_of_default_truncation():
    assert len(primes_upto(2 * 10**7)) == 1270607


def test_moebius_values_and_inversion():
    assert [moebius(n) for n in range(1, 13)] == [
        1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    # sum over d | n of mu(d) is 1 for n = 1 and 0 otherwise
    for n in range(1, 200):
        total = sum(moebius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)


def test_von_mangoldt_values():
    assert von_mangoldt(8) == pytest.approx(math.log(2))
    assert von_mangoldt(9) == pytest.approx(math.log(3))
    assert von_mangoldt(7) == pytest.approx(math.log(7))
    assert von_mangoldt(12) == 0.0
    assert von_mangoldt(1) == 0.0


def test_canonical_residue_window():
    for q in (3, 4, 12):
        for v in range(-2 * q, 2 * q + 1):
            c = canonical_residue(q, v)
            assert 1 <= c <= q
            assert (c - v) % q == 0
    assert canonical_residue(3, 0) == 3
    assert canonical_residue(3, 3) == 3


def test_modulus_reduced_classes():
    assert Modulus(12).classes == (1, 5, 7, 11)
    assert Modulus(3).phi == 2
    assert Modulus(8).classes == (1, 3, 5, 7)
    with pytest.raises(ValueError):
        Modulus(2)


def test_pattern_canonicalisation_and_coprimality():
    assert ResiduePattern(3, (4, 2)).classes == (1, 2)
    assert ResiduePattern(3, (1, 2)).r == 2
    with pytest.raises(ValueError):
        ResiduePattern(4, (2, 1))


def test_repeat_count():
    assert repeat_count(ResiduePattern(5, (1, 1, 2))) == 1
    assert repeat_count(ResiduePattern(5, (1, 2, 1))) == 0
    assert repeat_count(ResiduePattern(5, (3, 3, 3))) == 2


def epsilon_oracle(q, a, b, h_mult=7):
    """Recompute epsilon from the defining count at an unrelated h."""
    h = canonical_residue(q, b - a) + h_mult * q
    count = sum(1 for t in range(1, h) if math.gcd(t + a, q) == 1)
    return Fraction(q * count - totient(q) * h, q)


@pytest.mark.parametrize("q,a,b,want", [
    (3, 1, 1, Fraction(-1)),
    (3, 2, 2, Fraction(-1)),
    (3, 1, 2, Fraction(-2, 3)),
    (3, 2, 1, Fraction(-4, 3)),
    (4, 1, 3, Fraction(-1)),
    (5, 1, 1, Fraction(-1)),
])
def test_epsilon_known_values(q, a, b, want):
    assert epsilon_q(q, a, b) == pytest.approx(float(want), abs=1e-15)


def test_epsilon_matches_count_oracle():
    for q in (3, 4, 5, 8, 12, 15):
        mod = Modulus(q)
        for a in mod.classes:
            for b in mod.classes:
                want = epsilon_oracle(q, a, b)
                assert epsilon_q(q, a, b) == pytest.approx(float(want), abs=1e-14)


def test_epsilon_reflection_symmetry():
    # counting backwards across the gap swaps (a, b) for (-b, -a)
    for q in (5, 8, 12):
        mod = Modulus(q)
        for a in mod.classes:
            for b in mod.classes:
                assert epsilon_q(q, a, b) == pytest.approx(
                    epsilon_q(q, -b, -a), abs=1e-15)


def test_pattern_epsilon_is_pair_sum():
    # the coprime integers strictly inside a window, members excluded, are
    # phi/q of its length plus the sum of epsilon_q over adjacent pairs
    for q, pattern in ((5, (1, 2, 4)), (12, (7, 1, 1, 11)), (15, (2, 14, 8))):
        gaps = [canonical_residue(q, b - a)
                for a, b in zip(pattern, pattern[1:])]
        length = sum(gaps)
        members = set(itertools.accumulate(gaps))
        count = sum(1 for t in range(1, length) if t not in members
                    and math.gcd(t + pattern[0], q) == 1)
        want = Fraction(q * count - totient(q) * length, q)
        got = sum(epsilon_q(q, a, b) for a, b in zip(pattern, pattern[1:]))
        assert got == pytest.approx(float(want), abs=1e-14), (q, pattern)


def test_sawtooth_values_and_mean():
    assert sawtooth_B(3, 1) == pytest.approx(0.5 - 1.0 / 3)
    assert sawtooth_B(3, 3) == pytest.approx(-0.5)
    assert sawtooth_B(3, 4) == pytest.approx(sawtooth_B(3, 1))
    for q in (3, 4, 5, 12):
        total = sum(sawtooth_B(q, v) for v in range(1, q + 1))
        assert total == pytest.approx(-0.5, abs=1e-12)


def test_modulus_classes_shared():
    assert Modulus(60).classes is Modulus(60).classes
    assert Modulus(60).classes == tuple(
        a for a in range(1, 61) if math.gcd(a, 60) == 1)


@pytest.mark.parametrize("axes", [
    [Modulus(3).classes] * 2,
    [Modulus(5).classes] * 3,
    [Modulus(7).classes] * 4,
    [(5,), (7,), (11,)],  # the grid of one --classes pattern
], ids=["q3-r2", "q5-r3", "q7-r4", "classes"])
def test_pattern_grid_round_trip(axes):
    grid = PatternGrid(axes)
    patterns = list(itertools.product(*axes))  # code order
    assert grid.size == len(patterns)
    blocks = list(grid.listing(7))
    assert all(len(codes) == 7 for codes in blocks[:-1])
    codes = np.concatenate(blocks)
    assert codes.tolist() == list(range(len(patterns)))
    classes = grid.classes(codes)
    assert len(classes) == len(axes)
    assert list(zip(*(c.tolist() for c in classes))) == patterns
    assert grid.keys(codes).tolist() == [";".join(map(str, p))
                                         for p in patterns]
    assert [grid.code(p) for p in patterns] == codes.tolist()
    # a class off its axis, or a pattern of another length, has no code
    assert grid.code((0,) * len(axes)) is None
    assert grid.code(patterns[-1][:-1]) is None
    assert grid.code(patterns[-1] + patterns[-1][:1]) is None
