"""L-values at s = 0 and 1, Euler-product factors, reduction identities.

The closed forms for quadratic characters (L(1, chi_-4) = pi/4 and
friends) pin the normalisation; an alternating / cyclotomic partial sum
with its own tail control cross-checks a complex character.
"""

import math

import numpy as np
import pytest

from primebias import (
    InternalConsistencyError,
    a_q_chi,
    build_ctable,
    c2_general,
    c_q_chi,
    character_group,
    conjugate_character,
    l_at_one,
    l_at_zero,
    primes_upto,
    reduce_c,
    tail_bound,
)
from primebias import lfun


def quadratic_character(m):
    """The unique real non-principal character for m in {3, 4}."""
    chis = [c for c in character_group(m).characters()
            if c.is_odd() and c.order() == 2]
    assert len(chis) == 1
    return chis[0]


def test_l_one_chi4_closed_form():
    chi = quadratic_character(4)
    assert l_at_one(chi) == pytest.approx(math.pi / 4, abs=1e-12)


def test_l_zero_chi4_closed_form():
    chi = quadratic_character(4)
    assert l_at_zero(chi) == pytest.approx(0.5, abs=1e-14)


def test_l_one_chi3_closed_form():
    chi = quadratic_character(3)
    assert l_at_one(chi) == pytest.approx(math.pi / (3 * math.sqrt(3)), abs=1e-12)


def test_l_zero_chi3_closed_form():
    chi = quadratic_character(3)
    assert l_at_zero(chi) == pytest.approx(1.0 / 3, abs=1e-14)


GAMMA = 0.5772156649015329
R3 = math.sqrt(3)


@pytest.mark.parametrize("a, m, want", [
    (1, 2, -GAMMA - 2 * math.log(2)),
    (1, 3, -GAMMA - math.pi / (2 * R3) - 1.5 * math.log(3)),
    (2, 3, -GAMMA + math.pi / (2 * R3) - 1.5 * math.log(3)),
    (1, 4, -GAMMA - math.pi / 2 - 3 * math.log(2)),
    (3, 4, -GAMMA + math.pi / 2 - 3 * math.log(2)),
    (1, 6, -GAMMA - R3 * math.pi / 2 - 2 * math.log(2) - 1.5 * math.log(3)),
    (5, 6, -GAMMA + R3 * math.pi / 2 - 2 * math.log(2) - 1.5 * math.log(3)),
])
def test_digamma_closed_forms(a, m, want):
    assert lfun._digamma_at(m)[a - 1] == pytest.approx(want, abs=1e-14)


def test_digamma_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for m in [*range(1, 301), 1009, 2018]:
        got = lfun._digamma_at(m)
        assert len(got) == m - 1
        assert not got.flags.writeable
        if m > 1:
            want = special.digamma(np.arange(1, m) / m)
            assert np.abs(got - want).max() < 1e-12, m


def real_primitive_character(m, parity):
    """The unique real primitive character mod m with the given parity."""
    chis = [c for c in character_group(m).characters()
            if c.order() == 2 and c.conductor() == m and c.parity() == parity]
    assert len(chis) == 1
    return chis[0]


@pytest.mark.parametrize("m, parity, want", [
    (5, 1, 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)),
    (8, 1, math.log(1 + math.sqrt(2)) / math.sqrt(2)),
    (12, 1, math.log(2 + math.sqrt(3)) / math.sqrt(3)),
    (7, -1, math.pi / math.sqrt(7)),
    (8, -1, math.pi / (2 * math.sqrt(2))),
])
def test_l_one_class_number_formula(m, parity, want):
    # h = 1 for Q(sqrt 5), Q(sqrt 2), Q(sqrt 3), Q(sqrt -7) and Q(sqrt -2)
    chi = real_primitive_character(m, parity)
    assert abs(l_at_one(chi) - want) < 1e-13


def test_l_one_partial_sum_oracle():
    # sum chi(n)/n, grouped over full periods for O(1/N) tails
    for m in (5, 7):
        for chi in character_group(m).characters():
            if chi.is_principal():
                continue
            n = np.arange(1, 200_001)
            vals = chi.values_table()[n % m]
            partial = np.sum(vals / n)
            assert abs(l_at_one(chi) - partial) < 1e-4


def test_l_zero_finite_sum_definition():
    # independent transcription of the finite character sum
    for m in (5, 8, 12):
        for chi in character_group(m).characters():
            if chi.is_principal():
                continue
            direct = -sum(chi(a) * a for a in range(1, m + 1)) / m
            if not chi.is_odd():
                direct = 0j
            assert l_at_zero(chi) == pytest.approx(direct, abs=1e-12)


def test_l_values_conjugate_symmetry():
    for chi in character_group(5).characters():
        if chi.is_principal():
            continue
        bar = conjugate_character(chi)
        assert l_at_one(bar) == pytest.approx(l_at_one(chi).conjugate(), abs=1e-12)
        assert l_at_zero(bar) == pytest.approx(l_at_zero(chi).conjugate(), abs=1e-12)


def test_even_character_l_zero_vanishes():
    for m in (5, 12, 16):
        for chi in character_group(m).characters():
            if not chi.is_principal() and not chi.is_odd():
                assert l_at_zero(chi) == 0j


def test_a_factor_truncation_convergence():
    chi = quadratic_character(3)
    a6, _ = a_q_chi(12, chi, truncation=10**6)
    a7, tail7 = a_q_chi(12, chi, truncation=10**7)
    assert abs(a6 - a7) <= tail_bound(10**6)
    assert tail7 < tail_bound(10**6)


def test_a_factor_known_value_mod12():
    # quadratic character mod 3 lifted into the Euler product over p
    # coprime to 12: 1.0356 to three decimals
    chi = quadratic_character(3)
    a, _ = a_q_chi(12, chi, truncation=10**7)
    assert a.imag == pytest.approx(0.0, abs=1e-12)
    assert a.real == pytest.approx(1.036, abs=1e-3)


def test_a_factor_direct_product_oracle():
    # small truncation, recomputed with plain python loops
    P = 2000
    primes = [p for p in range(2, P + 1)
              if all(p % d for d in range(2, int(math.isqrt(p)) + 1))]
    for q, m in ((12, 3), (12, 12), (8, 8)):
        for chi in character_group(m).characters():
            if chi.is_principal():
                continue
            want = 1.0 + 0j
            for p in primes:
                if q % p == 0:
                    want *= 1 - chi(p) / p
                else:
                    want *= 1 - (1 - chi(p)) ** 2 / (p - 1) ** 2
            got, _ = a_q_chi(q, chi, truncation=P)
            assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("q", [12, 60, 97, 2018])
def test_a_factor_per_prime_product_oracle(q):
    """The residue-class series kernel against a plain per-prime product.

    2018 = 2 * 1009 puts a prime divisor of q above the exact bound, so
    that prime leaves the series for its own (1 - chi(p)/p) factor.  That
    path is the same for every character, so for 2018 a stride of the
    1008 characters mod 1009 and mod 2018 keeps the test short.
    """
    P = 10**6
    stride = 12 if q == 2018 else 1
    primes = primes_upto(P)
    divides = q % primes == 0
    w = 1.0 / (primes - 1.0) ** 2
    for m in range(2, q + 1):
        if q % m:
            continue
        residues = primes % m
        # index 0 is the principal character
        for chi in character_group(m).characters()[1::stride]:
            z = chi.values_table()[residues]
            factor = np.where(divides, 1.0 - z / primes, 1.0 - (1.0 - z) ** 2 * w)
            want = complex(np.prod(factor))
            got, _ = a_q_chi(q, chi, truncation=P)
            assert abs(got - want) <= 1e-12 * abs(want), (chi.name(), got, want)


def test_a_factor_series_remainder_below_rounding():
    # the first dropped term of log(1 - u w_p), |u| <= 4, times the
    # geometric factor 1/(1 - 4 w_p) bounds the whole dropped part; primes
    # up to 10^6 are summed, the rest bounded by an integral over all t
    primes = primes_upto(10**6)
    primes = primes[primes >= lfun.EXACT_BOUND]
    x = 4.0 / (primes - 1.0) ** 2
    k = lfun.SERIES_TERMS + 1
    dropped = np.sum(x**k / k / (1.0 - x))
    dropped += 4.0**k / (k * (2 * k - 1)) * (10**6 - 1.0) ** (1 - 2 * k)
    assert dropped < 1e-17


def test_power_sums_folded_from_a_multiple_match_a_direct_pass(monkeypatch):
    P = 200_000
    direct = {}
    for m in (3, 4, 15, 20, 60):
        monkeypatch.setattr(lfun, "_passes", {})
        direct[m] = lfun._residue_power_sums(m, m, P)
    monkeypatch.setattr(lfun, "_passes", {})
    lfun._residue_power_sums(60, 60, P)
    for m, want in direct.items():
        got = lfun._residue_power_sums(m, m, P)
        # only the summation order differs
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    assert list(lfun._passes) == [(60, P)]


def test_one_power_sum_pass_per_constants_run(monkeypatch):
    # c2 for q = 60 reaches A(60, chi) and, through the reduced form, A(15,
    # chi); the base-15 sums fold from the base-60 pass
    monkeypatch.setattr(lfun, "_passes", {})
    P = 123_457  # a truncation no other test uses, so no C value is cached
    c2_general(60, (1, 7), truncation=P)
    assert list(lfun._passes) == [(60, P)]


def test_reduce_c_route_mismatch_raises(monkeypatch):
    chi = next(c for c in character_group(12).characters()
               if c.is_odd() and c.conductor() == 3)
    exact = lfun.c_q_chi

    def skewed(q, c, truncation=None):
        value = exact(q, c, truncation)
        return value * (1 + 1e-6) if c.modulus == 3 else value

    monkeypatch.setattr(lfun, "c_q_chi", skewed)
    with pytest.raises(InternalConsistencyError, match="primitive reduction"):
        reduce_c(12, chi, truncation=10**4)


def test_c_vanishes_for_even_characters():
    for chi in character_group(12).characters():
        if chi.is_principal():
            continue
        if not chi.is_odd():
            assert c_q_chi(12, chi, truncation=10**4) == 0j


def test_c_factor_can_vanish_identically():
    # chi(3) = -1 with 3 coprime to q makes the p = 3 Euler factor zero
    chi = quadratic_character(4)
    assert chi(3) == pytest.approx(-1.0, abs=1e-14)
    for P in (10**4, None):
        a, _ = a_q_chi(4, chi, truncation=P)
        assert abs(a) < 1e-14
        assert abs(c_q_chi(4, chi, truncation=P)) < 1e-14


@pytest.mark.parametrize("q", [6, 9, 12, 15, 18, 20, 21, 24, 30])
def test_reduction_identities(q):
    """Primitive-character and dyadic reductions agree with the direct value."""
    P = 50_000
    for d in range(3, q + 1):
        if q % d:
            continue
        for chi in character_group(d).characters():
            if chi.is_principal():
                continue
            direct = c_q_chi(q, chi, truncation=P)
            routed = reduce_c(q, chi, truncation=P)
            assert abs(direct - routed) < 1e-9 * (1 + abs(direct))


def test_ctable_rows():
    table = build_ctable(12, truncation=10**5)
    names = [row.name for row in table.rows]
    assert len(names) == 3  # non-principal characters only
    for row in table.rows:
        assert row.tail == pytest.approx(tail_bound(10**5))
        if row.parity == 1:
            assert row.c == 0j


# ---------------------------------------------------------------- the full product


def test_hurwitz_zeta_matches_scipy():
    special = pytest.importorskip("scipy.special")
    a = np.concatenate([np.linspace(1e-3, 1.0, 400),
                        1.0 / np.arange(1, 200), [1e-6, 0.5, 1.0]])
    for t in range(2, lfun.SERIES_POWERS + 1):
        got = lfun.hurwitz_zeta(t, a)
        want = special.zeta(t, a)
        assert np.abs(got / want - 1).max() < 1e-14, t


def test_hurwitz_zeta_closed_forms():
    # zeta(2, 1) = pi^2/6, zeta(2, 1/2) = pi^2/2, zeta(4, 1) = pi^4/90
    got = lfun.hurwitz_zeta([2, 2, 4], [1.0, 0.5, 1.0])
    want = [math.pi**2 / 6, math.pi**2 / 2, math.pi**4 / 90]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_series_coefficients_reproduce_the_factor():
    # the power series in z and 1/p against the logarithm itself, ~4e-6
    # here; the first dropped power is ~ 3^9 / 9 * p^-9 ~ 2e-24
    p = 997.0
    for z in (1.0, -1.0, 0.0, 1j, np.exp(2j * np.pi / 5)):
        series = sum(lfun._COEFFICIENTS[s, l] * z**l * p**-s
                     for s in range(lfun.SERIES_POWERS + 1)
                     for l in range(lfun.SERIES_POWERS + 1))
        w = -(1 - z) ** 2 / (p - 1) ** 2 + 0j
        exact = lfun._log1p(w.real, w.imag)
        assert abs(series - exact) < 1e-20


def test_full_product_known_value_mod12():
    # A(12, chi_3) = (3/2) prod_{p = 2 mod 3, p >= 5} (1 - 4/(p-1)^2); the
    # reference 1.035553910000536729... is the same series evaluated with
    # 40-digit arithmetic to K = 30 powers
    chi = quadratic_character(3)
    a, tail = a_q_chi(12, chi)
    assert abs(a - 1.0355539100005367) < 1e-14
    assert tail == tail_bound(None) < 1e-21
    assert a.real == pytest.approx(1.036, abs=1e-3)


@pytest.mark.parametrize("P", [10**5, 10**6])
def test_full_product_within_tail_of_truncated(P):
    # tail_bound(P) bounds the dropped log-mass, so the products differ by
    # at most |A_P| (exp(tail_bound(P)) - 1)
    for q in range(1, 31):
        for chi in character_group(q).characters():
            full, _ = a_q_chi(q, chi)
            cut, tail = a_q_chi(q, chi, truncation=P)
            assert abs(full - cut) <= abs(cut) * math.expm1(tail), (q, chi.name())


def test_full_product_within_tail_of_truncated_2e7():
    chi = quadratic_character(3)
    full, _ = a_q_chi(12, chi)
    cut, tail = a_q_chi(12, chi, truncation=2 * 10**7)
    assert abs(full - cut) <= abs(cut) * math.expm1(tail)
    # and far inside it: the truncated product is missing about 5.8e-9
    assert abs(full - cut) == pytest.approx(5.83e-9, rel=0.01)


def test_full_product_independent_of_exact_bound(monkeypatch):
    chis = [(q, chi) for q in (7, 12, 30, 60, 97, 2018)
            for chi in character_group(q).characters()[1::7]]
    chis.append((12, quadratic_character(3)))
    full = [a_q_chi(q, chi)[0] for q, chi in chis]
    monkeypatch.setattr(lfun, "EXACT_BOUND", 100)
    for (q, chi), want in zip(chis, full):
        got, tail = a_q_chi(q, chi)
        assert abs(got - want) <= 1e-13, (q, chi.name(), got - want)
        assert tail < 1e-13  # the s > K powers at M = 100


def test_large_prime_log_leaves_out_prime_divisors_of_q():
    # 1009 is the first prime above the exact bound: q = 2018 takes it out
    # of the series, so the two logs differ by exactly its factor
    chi = character_group(1009).characters()[5]
    assert chi(1009) == 0
    gap = lfun.large_prime_log(1009, chi) - lfun.large_prime_log(1, chi)
    assert gap == pytest.approx(-math.log(1 - 1 / 1008**2), abs=1e-18)
    gap = lfun.large_prime_log(2018, None) - lfun.large_prime_log(2, None)
    assert gap == pytest.approx(-math.log(1 - 1 / 1008**2), abs=1e-18)


@pytest.mark.parametrize("q", range(3, 31))
def test_reduction_identities_untruncated(q):
    for d in range(3, q + 1):
        if q % d:
            continue
        for chi in character_group(d).characters():
            if chi.is_principal():
                continue
            direct = c_q_chi(q, chi)
            routed = reduce_c(q, chi)
            assert abs(direct - routed) < 1e-9 * (1 + abs(direct))
