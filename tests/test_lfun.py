"""L-values at s = 0 and 1, Euler-product factors, reduction identities.

The closed forms for quadratic characters (L(1, chi_-4) = pi/4 and
friends) pin the normalisation; an alternating / cyclotomic partial sum
with its own tail control cross-checks a complex character.
"""

import cmath
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from primebias import (
    InternalConsistencyError,
    build_ctable,
    c2_general,
    character_group,
    conjugate_character,
    primes_upto,
    reduce_c,
    tail_bound,
)
from primebias import characters, constants, lfun
from primebias.oracles import ctable_by_matrix, value_matrix


def values(chi):
    """chi(n) for n = 0..m-1, a row of the oracle's value matrix."""
    return value_matrix(chi.group)[chi.index]


def real_character(m, odd=True, primitive=False):
    """The unique real non-principal character mod m of that parity,
    primitive if asked."""
    group = character_group(m)
    found = (group.character_orders(slice(None)) == 2) & (
        group.parity == (-1 if odd else 1))
    if primitive:
        found &= group.conductor == m
    (row,) = np.flatnonzero(found)
    return group.characters()[row]


def test_l_one_chi4_closed_form():
    chi = real_character(4)
    assert build_ctable(4).l1[chi.index] == pytest.approx(math.pi / 4, abs=1e-12)


def test_l_zero_chi4_closed_form():
    chi = real_character(4)
    assert build_ctable(4).l0[chi.index] == pytest.approx(0.5, abs=1e-14)


def test_l_one_chi3_closed_form():
    chi = real_character(3)
    assert build_ctable(3).l1[chi.index] == pytest.approx(
        math.pi / (3 * math.sqrt(3)), abs=1e-12)


def test_l_zero_chi3_closed_form():
    chi = real_character(3)
    assert build_ctable(3).l0[chi.index] == pytest.approx(1.0 / 3, abs=1e-14)


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


@pytest.mark.parametrize("m, parity, want", [
    (5, 1, 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)),
    (8, 1, math.log(1 + math.sqrt(2)) / math.sqrt(2)),
    (12, 1, math.log(2 + math.sqrt(3)) / math.sqrt(3)),
    (7, -1, math.pi / math.sqrt(7)),
    (8, -1, math.pi / (2 * math.sqrt(2))),
])
def test_l_one_class_number_formula(m, parity, want):
    # h = 1 for Q(sqrt 5), Q(sqrt 2), Q(sqrt 3), Q(sqrt -7) and Q(sqrt -2)
    chi = real_character(m, odd=parity == -1, primitive=True)
    assert abs(build_ctable(m).l1[chi.index] - want) < 1e-13


def test_l_one_partial_sum_oracle():
    # sum chi(n)/n, grouped over full periods for O(1/N) tails
    for m in (5, 7):
        l1 = build_ctable(m).l1
        for chi in character_group(m).characters()[1:]:
            n = np.arange(1, 200_001)
            vals = values(chi)[n % m]
            partial = np.sum(vals / n)
            assert abs(l1[chi.index] - partial) < 1e-4


def test_l_zero_finite_sum_definition():
    # independent transcription of the finite character sum
    for m in (5, 8, 12):
        table = build_ctable(m)
        for chi in table.group.characters()[1:]:
            direct = -sum(chi(a) * a for a in range(1, m + 1)) / m
            if table.group.parity[chi.index] == 1:
                direct = 0j
            assert table.l0[chi.index] == pytest.approx(direct, abs=1e-12)


def test_l_values_conjugate_symmetry():
    table = build_ctable(5)
    for chi in table.group.characters()[1:]:
        i, j = chi.index, conjugate_character(chi).index
        assert table.l1[j] == pytest.approx(table.l1[i].conjugate(), abs=1e-12)
        assert table.l0[j] == pytest.approx(table.l0[i].conjugate(), abs=1e-12)


def test_even_character_l_zero_vanishes():
    for m in (5, 12, 16):
        table = build_ctable(m)
        even = table.group.parity[1:] == 1
        assert even.any()
        assert (table.l0[1:][even] == 0j).all()


def test_a_factor_truncation_convergence():
    chi = real_character(3)
    a6 = lfun._ctable(12, 3, 10**6).a[chi.index]
    table7 = lfun._ctable(12, 3, 10**7)
    assert abs(a6 - table7.a[chi.index]) <= tail_bound(10**6)
    assert table7.tail < tail_bound(10**6)


def test_a_factor_known_value_mod12():
    # quadratic character mod 3 lifted into the Euler product over p
    # coprime to 12: 1.0356 to three decimals
    chi = real_character(3)
    a = lfun._ctable(12, 3, 10**7).a[chi.index]
    assert a.imag == pytest.approx(0.0, abs=1e-12)
    assert a.real == pytest.approx(1.036, abs=1e-3)


def test_a_factor_direct_product_oracle():
    # small truncation, recomputed with plain python loops
    P = 2000
    primes = [p for p in range(2, P + 1)
              if all(p % d for d in range(2, int(math.isqrt(p)) + 1))]
    for q, m in ((12, 3), (12, 12), (8, 8)):
        table = lfun._ctable(q, m, P)
        for chi in character_group(m).characters()[1:]:
            want = 1.0 + 0j
            for p in primes:
                if q % p == 0:
                    want *= 1 - chi(p) / p
                else:
                    want *= 1 - (1 - chi(p)) ** 2 / (p - 1) ** 2
            assert table.a[chi.index] == pytest.approx(want, abs=1e-12)


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
        table = lfun._ctable(q, m, P)
        # index 0 is the principal character
        for chi in character_group(m).characters()[1::stride]:
            z = values(chi)[residues]
            factor = np.where(divides, 1.0 - z / primes, 1.0 - (1.0 - z) ** 2 * w)
            want = complex(np.prod(factor))
            got = table.a[chi.index]
            assert abs(got - want) <= 1e-12 * abs(want), (m, chi.index, got, want)


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
    group = character_group(12)
    (row,) = np.flatnonzero((group.parity == -1) & (group.conductor == 3))
    chi = group.characters()[row]
    exact = lfun._ctable

    def skewed(q, m, truncation):
        table = exact(q, m, truncation)
        return (dataclasses.replace(table, c=table.c * (1 + 1e-6)) if m == 3
                else table)

    monkeypatch.setattr(lfun, "_ctable", skewed)
    with pytest.raises(InternalConsistencyError, match="primitive reduction"):
        reduce_c(12, chi, truncation=10**4)


def test_c_vanishes_for_even_characters():
    table = lfun._ctable(12, 12, 10**4)
    even = table.group.parity[1:] == 1
    assert even.any()
    assert (table.c[1:][even] == 0j).all()


def test_c_factor_can_vanish_identically():
    # chi(3) = -1 with 3 coprime to q makes the p = 3 Euler factor zero
    chi = real_character(4)
    assert chi(3) == pytest.approx(-1.0, abs=1e-14)
    for P in (10**4, None):
        table = lfun._ctable(4, 4, P)
        assert abs(table.a[chi.index]) < 1e-14
        assert abs(table.c[chi.index]) < 1e-14


@pytest.mark.parametrize("q", [6, 9, 12, 15, 18, 20, 21, 24, 30])
def test_reduction_identities(q):
    """Primitive-character and dyadic reductions agree with the direct value."""
    P = 50_000
    for d in range(3, q + 1):
        if q % d:
            continue
        c = lfun._ctable(q, d, P).c
        for chi in character_group(d).characters()[1:]:
            direct = c[chi.index]
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


def test_ctable_rows_are_named_from_labels(monkeypatch):
    # mod 60 = 4 * 3 * 5 the generators have orders 2, 2 and 4; each row's
    # name, conductor and parity come from the group's vectors, and no
    # character is made to read them
    def refuse(*args):
        raise AssertionError("CTable.rows made a character")
    monkeypatch.setattr(characters.DirichletCharacter, "__post_init__", refuse)
    monkeypatch.setattr(characters.CharacterGroup, "characters", refuse)
    table = build_ctable(60)
    rows = table.rows
    labels = itertools.product(range(2), range(2), range(4))
    assert [row.name for row in rows] == [
        "mod60:%d.%d.%d" % k for k in labels][1:]
    assert [row.conductor for row in rows] == table.group.conductor[1:].tolist()
    assert [row.parity for row in rows] == table.group.parity[1:].tolist()
    assert [row.c for row in rows] == table.c[1:].tolist()


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
    table = lfun._ctable(12, 3, None)
    a, tail = table.a[real_character(3).index], table.tail
    assert abs(a - 1.0355539100005367) < 1e-14
    assert tail == tail_bound(None) < 1e-21
    assert a.real == pytest.approx(1.036, abs=1e-3)


@pytest.mark.parametrize("P", [10**5, 10**6])
def test_full_product_within_tail_of_truncated(P):
    # tail_bound(P) bounds the dropped log-mass, so the products differ by
    # at most |A_P| (exp(tail_bound(P)) - 1)
    for q in range(1, 31):
        full, cut = build_ctable(q).a, build_ctable(q, P)
        outside = ~(abs(full - cut.a) <= abs(cut.a) * math.expm1(cut.tail))
        assert not outside.any(), cut.group.names(np.flatnonzero(outside))


def test_full_product_within_tail_of_truncated_2e7():
    i = real_character(3).index
    full = lfun._ctable(12, 3, None).a[i]
    table = lfun._ctable(12, 3, 2 * 10**7)
    cut, tail = table.a[i], table.tail
    assert abs(full - cut) <= abs(cut) * math.expm1(tail)
    # and far inside it: the truncated product is missing about 5.8e-9
    assert abs(full - cut) == pytest.approx(5.83e-9, rel=0.01)


def test_full_product_independent_of_exact_bound(monkeypatch):
    # (q, the modulus of the character, its row)
    chis = [(q, q, i) for q in (7, 12, 30, 60, 97, 2018)
            for i in range(1, character_group(q).phi, 7)]
    chis.append((12, 3, real_character(3).index))
    full = [lfun._ctable(q, m, None).a[i] for q, m, i in chis]
    monkeypatch.setattr(lfun, "EXACT_BOUND", 100)
    # a fresh table cache, so no table built at the old bound is read
    monkeypatch.setattr(lfun, "_ctable", functools.lru_cache(lfun._ctable.__wrapped__))
    for (q, m, i), want in zip(chis, full):
        table = lfun._ctable(q, m, None)
        got = table.a[i]
        assert abs(got - want) <= 1e-13, (q, m, i, got - want)
        assert table.tail < 1e-13  # the s > K powers at M = 100


def test_large_prime_log_leaves_out_prime_divisors_of_q():
    # 1009 is the first prime above the exact bound: q = 1009 takes it out
    # of the series, and chi(1009) = 0 makes its own factor 1, so the two
    # products differ by exactly its factor
    chi = character_group(1009).characters()[5]
    assert chi(1009) == 0
    ratio = (lfun._ctable(1009, 1009, None).a[chi.index]
             / lfun._ctable(1, 1009, None).a[chi.index])
    assert ratio == pytest.approx(1 / (1 - 1 / 1008**2), rel=1e-15, abs=0)
    gap = lfun.large_prime_log(2018) - lfun.large_prime_log(2)
    assert gap == pytest.approx(-math.log(1 - 1 / 1008**2), abs=1e-18)


@pytest.mark.parametrize("q", range(3, 31))
def test_reduction_identities_untruncated(q):
    for d in range(3, q + 1):
        if q % d:
            continue
        c = lfun._ctable(q, d, None).c
        for chi in character_group(d).characters()[1:]:
            direct = c[chi.index]
            routed = reduce_c(q, chi)
            assert abs(direct - routed) < 1e-9 * (1 + abs(direct))


# ------------------------------------------------ the per-character oracle


def oracle_l0(chi):
    """L(0, chi) as the direct sum -(1/m) sum_{a=1}^{m} chi(a) a."""
    m = chi.group.m
    if chi.group.parity[chi.index] == 1:
        return 0j
    a = np.arange(1, m + 1)
    return complex(-(values(chi)[a % m] @ a) / m)


def oracle_l1(chi):
    """L(1, chi) = -(1/m) sum_{a=1}^{m-1} chi(a) psi(a/m)."""
    m = chi.group.m
    return complex(-(values(chi)[1:] @ lfun._digamma_at(m)) / m)


def oracle_a(q, chi, truncation):
    """A(q, chi) for one character: the exact product below the exact bound
    and at the primes dividing q, times the exponential of the series."""
    group = chi.group
    m = group.m
    vals = values(chi)
    M, K = lfun.EXACT_BOUND, lfun.SERIES_POWERS
    small = primes_upto(M - 1 if truncation is None else min(truncation, M - 1))
    z = vals[small % m]
    value = complex(np.prod(np.where(q % small == 0, 1.0 - z / small,
                                     1.0 - (1.0 - z) ** 2 / (small - 1.0) ** 2)))
    large = [p for p in primes_upto(q) if q % p == 0 and p >= M]
    # sums[s, l]: the prime sum of p^-s weighted by chi^l, where chi^0 is
    # 1 at every prime
    if truncation is None:
        prime_sums = lfun._prime_sums(m, M)
        # the function 1, then the row of each power chi^l
        powers = group.labels[chi.index] * np.arange(1, K + 1)[:, None]
        rows = [prime_sums.shape[1] - 1] + group.rows(powers).tolist()
        sums = prime_sums[:, rows]
    else:
        residue_sums = lfun._residue_power_sums(m, math.lcm(q, m), truncation)
        sums = np.column_stack([residue_sums.sum(axis=1)] + [
            residue_sums @ vals**l for l in range(1, K + 1)])
    log_rest = complex(np.sum(lfun._COEFFICIENTS * sums))
    for p in large:
        log_rest -= cmath.log(1 - (1 - chi(p)) ** 2 / (p - 1) ** 2)
        value *= 1.0 - vals[p % m] / p
    return value * cmath.exp(log_rest)


@pytest.mark.parametrize("P", [None, 10**5, 2 * 10**7])
@pytest.mark.parametrize("q", [3, 4, 5, 12, 15, 60, 97, 210, 420, 997])
def test_ctable_matches_per_character_oracle(q, P):
    def close(got, want):
        return abs(got - want) <= 1e-12 * max(1.0, abs(want))

    primes = primes_upto(10**5)
    divides = q % primes == 0
    for m in range(1, q + 1):
        if q % m:
            continue
        table = lfun._ctable(q, m, P)
        assert table.tail == tail_bound(P)
        group = table.group
        for chi, name in zip(group.characters(), group.names(slice(None))):
            a = oracle_a(q, chi, P)
            assert close(table.a[chi.index], a), (q, P, name)
            if P == 10**5:
                # independent of the series: every factor up to P multiplied
                z = values(chi)[primes % m]
                direct = complex(np.prod(np.where(
                    divides, 1.0 - z / primes,
                    1.0 - (1.0 - z) ** 2 / (primes - 1.0) ** 2)))
                assert close(table.a[chi.index], direct), (q, name)
            if chi.index == 0:
                continue
            l0, l1 = oracle_l0(chi), oracle_l1(chi)
            assert close(table.l0[chi.index], l0), (q, name)
            assert close(table.l1[chi.index], l1), (q, name)
            c = l0 * l1 * a if group.parity[chi.index] == -1 else 0j
            assert close(table.c[chi.index], c), (q, P, name)


# ------------------------------------------- the transform against the matrix


def _close(got, want, scale=None):
    """Entrywise within 1e-12 of max(1, |want|), or of `scale`; nan only
    where the oracle reads nan."""
    assert (np.isnan(got) == np.isnan(want)).all()
    ok = ~np.isnan(want)
    bound = 1e-12 * (np.maximum(1.0, np.abs(want[ok])) if scale is None
                     else scale)
    return np.all(np.abs(got[ok] - want[ok]) <= bound)


@pytest.mark.parametrize("moduli", [range(1, 201), [420], [997], [2003],
                                    [4620]], ids=["m<=200", "420", "997",
                                                  "2003", "4620"])
def test_transform_route_matches_value_matrix(moduli):
    # L(0), L(1), A and C from lfun's transforms over the unit group, and
    # the c2 kernel from constants', against products with the value
    # matrix; truncated too where the product reaches past EXACT_BOUND
    for m in moduli:
        for q, P in [(m, None), (2 * m, None)] + [(m, 10**5)] * (m > 200):
            table = lfun._ctable(q, m, P)
            want = ctable_by_matrix(q, m, P)
            for name, got, w in zip(("l0", "l1", "a", "c"),
                                    (table.l0, table.l1, table.a, table.c),
                                    want):
                assert _close(got, w), (q, m, P, name)
            assert (table.c[table.group.parity == 1] == 0).all()
            kernel = np.real(want[3].conj() @ value_matrix(table.group))
            got = constants._kernel(q, m, P)
            assert _close(got, kernel, max(1.0, np.abs(kernel).max())), (q, m, P)


def test_ctable_rows_at_99991_match_value_rows():
    # phi = 99,990: the transform table, against the matrix route built
    # for 16 of its rows (and the powers of them that the series reads)
    q = 99_991
    table = build_ctable(q)
    rows = np.r_[0, 1, 2, q // 2, q - 2,
                 np.random.default_rng(7).choice(q - 1, 11, replace=False)]
    want = ctable_by_matrix(q, q, None, rows)
    for name, got, w in zip(("l0", "l1", "a", "c"),
                            (table.l0, table.l1, table.a, table.c), want):
        assert _close(got[rows], w), name
