"""Bias constants: closed forms, independent-formula agreement, symmetries."""

import math
import tracemalloc

import numpy as np
import pytest

from primebias import (
    InternalConsistencyError,
    Modulus,
    c1,
    c2_general,
    c2_pair,
    c2_pair_forms,
    c2_symmetric_sum,
    epsilon_q,
    primes_upto,
    s0_main,
    s0c,
    sawtooth_B,
    skip_coefficient,
    totient,
    von_mangoldt,
)
from primebias import cli, constants
from primebias.oracles import check_forms_by_pairs

P_FAST = 200_000  # identity checks are truncation-independent, keep them quick


def test_c1_pairs():
    assert c1(3, (1, 1)) == pytest.approx(-0.5)
    assert c1(3, (1, 2)) == pytest.approx(0.5)
    assert c1(5, (2, 2)) == pytest.approx(0.5 - 2.0)
    assert c1(5, (1, 3)) == pytest.approx(0.5)


def test_c1_triples():
    # (phi/2)((r-1)/phi - #repeats)
    assert c1(3, (1, 1, 2)) == pytest.approx(1.0 - 1.0)
    assert c1(3, (1, 2, 1)) == pytest.approx(1.0)
    assert c1(5, (1, 1, 1)) == pytest.approx(1.0 - 4.0)


def test_c1_average_over_patterns_vanishes():
    # the loglog bias redistributes counts, it cannot create or destroy any
    for q in (3, 5, 8, 12):
        mod = Modulus(q)
        total = sum(c1(q, (a, b)) for a in mod.classes for b in mod.classes)
        assert total == pytest.approx(0.0, abs=1e-12)


def test_s0c_diagonal_closed_form():
    for q in (3, 4, 5, 8, 12):
        mod = Modulus(q)
        want = (mod.phi / (2.0 * q)) * (
            math.log(q / (2 * math.pi))
            - sum(math.log(p) / (p - 1) for p in set(
                int(p) for p in primes_upto(q) if q % int(p) == 0))
        ) + 0.5
        assert s0c(q, 0, truncation=P_FAST) == pytest.approx(want, abs=1e-12)


def test_s0_main_assembles_log_term():
    H = 1000.0
    got = s0_main(3, 0, H, truncation=P_FAST)
    assert got == pytest.approx(-(2.0 / 6.0) * math.log(H)
                                + s0c(3, 0, truncation=P_FAST), abs=1e-12)
    # off the zero class there is no log H term at all
    assert s0_main(3, 1, H, truncation=P_FAST) == pytest.approx(
        s0c(3, 1, truncation=P_FAST), abs=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("v", [0, 1])
def test_s0_main_refuses_runaway_H_and_negative_k(v, k):
    # checked for every moment, on the zero class and off it
    for H in (-5.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            s0_main(3, v, H, k=k)
    with pytest.raises(ValueError, match="k must be >= 0"):
        s0_main(3, v, 100.0, k=-k - 1)


def test_s0c_von_mangoldt_term():
    # d = (v, q) < q with q/d a prime power: the Lambda term is nonzero
    got = s0c(9, 3, truncation=P_FAST)
    assert math.isfinite(got)
    assert von_mangoldt(3) > 0  # the branch is exercised


@pytest.mark.parametrize("q,a,b,want", [
    (3, 1, 2, 0.5),
    (3, 2, 1, 0.5),
    (3, 1, 1, -0.5),
    (3, 2, 2, -0.5),
    (4, 1, 3, 0.5),
    (4, 3, 3, -0.5),
])
def test_c2_q3_q4_closed_forms(q, a, b, want):
    value = c2_pair(q, a, b, truncation=2_000_000)
    assert value == pytest.approx(want * math.log(2 * math.pi / q), abs=1e-7)


def test_c2_q8_difference_only():
    lg2, lgpi = math.log(2), math.log(math.pi)
    want = {
        0: (5 * lg2 - 3 * lgpi) / 2,
        2: (lgpi - lg2) / 2,
        4: (lgpi - 3 * lg2) / 2,
        6: (lgpi - lg2) / 2,
    }
    for a in (1, 3, 5, 7):
        for b in (1, 3, 5, 7):
            got = c2_pair(8, a, b, truncation=2_000_000)
            assert got == pytest.approx(want[(b - a) % 8], abs=1e-7)


def test_c2_forms_agree_identically():
    """Three to four independent formulas, equal at matched truncation."""
    for q in (3, 4, 5, 7, 8, 9, 12, 15, 16, 21, 24, 30):
        mod = Modulus(q)
        for a in mod.classes:
            for b in mod.classes:
                forms = c2_pair_forms(q, a, b, truncation=P_FAST)
                vals = list(forms.values())
                spread = max(vals) - min(vals)
                assert spread < 1e-8, (q, a, b, forms)


def direct_form_oracle(q, a, b, truncation):
    """The direct class sum for one pair, straight from its definition."""
    phi = totient(q)
    units = Modulus(q).classes

    def shifted(shift):
        return sum(s0c(q, v, truncation) for v in range(1, q + 1)
                   if math.gcd(v + shift, q) == 1)

    pairs = sum(s0c(q, v2 - v1, truncation) for v1 in units for v2 in units)
    t = -epsilon_q(q, a, b) / phi
    t += s0c(q, b - a, truncation) + sawtooth_B(q, b - a) - 1 / (2 * phi)
    t -= (shifted(a) + shifted(-b)) / phi
    t += pairs / phi**2
    return q * t


def test_c2_table_against_per_pair_direct_form():
    for q in range(3, 31):
        mod = Modulus(q)
        for a in mod.classes:
            for b in mod.classes:
                want = direct_form_oracle(q, a, b, P_FAST)
                forms = c2_pair_forms(q, a, b, truncation=P_FAST)
                scale = max(1.0, abs(want))
                assert abs(forms["direct"] - want) <= 1e-12 * scale, (q, a, b)
                assert abs(forms["reduced"] - want) <= 1e-8 * scale, (q, a, b)


def direct_form_by_gather(q, s0):
    """The direct form with Sh(s) = sum over units u of S(u - s) gathered
    as a q x phi array."""
    phi = totient(q)
    units = np.array(Modulus(q).classes)
    residues = np.arange(q)
    sh = s0[(units[None, :] - residues[:, None]) % q].sum(axis=1)
    total = sh[units].sum()
    upto = np.cumsum(np.gcd(np.arange(q + 1), q) == 1)
    canon = np.r_[q, 1:q]
    eps_a = upto[canon] - phi * canon / q
    eps_b = upto[canon - 1] - phi * canon / q
    f = q * (s0 + constants._sawtooth(q) - 1 / (2 * phi) + total / phi**2)
    g = q * (eps_a - sh) / phi
    h = -q * (sh[(-residues) % q] + eps_b) / phi
    return constants._PairForm(f, g, h)


def character_form_by_gather(q, f, truncation):
    """The character form with W summed divisor by divisor over d x q
    arrays of the shifted unit indicator."""
    phi = totient(q)
    residues = np.arange(q)
    coprime = (np.gcd(residues, q) == 1).astype(float)
    w = np.zeros(q)
    for d in constants._divisors(q)[1:]:
        shifted = np.arange(d)[:, None] * (q // d) + residues[None, :]
        w += (constants._kernel(q, d, truncation) @ coprime[shifted % q]
              / (phi * totient(d)))
    return constants._PairForm(f, -q * w, -q * w[(-residues) % q])


@pytest.mark.parametrize("P", [None, 10**6])
@pytest.mark.parametrize("q", [4, 12, 16, 20, 48, 60, 420, 4620])
def test_reduced_form_matches_kernels_at_the_odd_part(q, P):
    # G(a) = (q0/phi(q0)) sum_{d | q0} mu(d)/phi(d) K_{q0,d}(a), with the
    # kernels taken at q0 itself, where the reduced form reads them at q
    q0 = q // (q & -q)
    residues = np.arange(q)
    want = np.zeros(q)
    for d in constants._divisors(q0):
        mu = constants.moebius(d)
        if mu:
            want += mu / totient(d) * constants._kernel(q0, d, P)[residues % d]
    want *= q0 / totient(q0)
    got = constants._c2_table(q, P)["reduced"].g
    assert np.all(abs(got - want) <= 1e-13 * np.maximum(1.0, abs(want)))


@pytest.mark.parametrize("q", [12, 60, 420, 997, 2310])
def test_check_forms_match_gathered_sums(q):
    table = constants._c2_table(q, None)
    units = np.array(Modulus(q).classes)
    a = units[:, None]
    s0 = constants.s0c_vector(q, None)
    oracles = {
        "direct": direct_form_by_gather(q, s0),
        "character": character_form_by_gather(q, table["character"].f, None),
    }
    for tag, oracle in oracles.items():
        want = oracle.at(q, a, units)
        got = table[tag].at(q, a, units)
        scale = np.maximum(1.0, np.abs(want))
        assert (np.abs(got - want) <= 1e-12 * scale).all(), (q, tag)


def test_check_forms_hold_no_q_by_q_array():
    # the kernels and S_0^c cached first, so only the forms are measured
    constants._c2_table(2310, None)
    tracemalloc.start()
    try:
        constants._c2_table.__wrapped__(2310, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


@pytest.mark.parametrize("builder,tag,vector,index,raises", [
    ("_direct_form", "direct", "h", 1, True),
    ("_direct_form", "direct", "g", 4, True),
    ("_character_form", "character", "g", 2, True),
    ("_reduced_form", "direct", "f", 3, True),  # reduced is the reference
    ("_prime_form", "prime_q", "f", 1, True),
    ("_prime_form", "prime_q", "f", 0, False),  # b - a = 0: off its domain
])
def test_one_skewed_entry_raises(monkeypatch, builder, tag, vector, index,
                                 raises):
    exact = getattr(constants, builder)

    def skewed(*args):
        form = exact(*args)
        vec = getattr(form, vector).copy()
        vec[index] += 1e-6
        return form._replace(**{vector: vec})

    monkeypatch.setattr(constants, builder, skewed)
    constants._c2_table.cache_clear()
    try:
        if raises:
            with pytest.raises(InternalConsistencyError,
                               match=f"forms disagree: {tag}="):
                c2_pair(5, 1, 1, truncation=P_FAST)
        else:
            c2_pair(5, 1, 1, truncation=P_FAST)
    finally:
        constants._c2_table.cache_clear()


def test_skewed_diagonal_raises(monkeypatch):
    exact = constants._c2_diagonal
    monkeypatch.setattr(constants, "_c2_diagonal", lambda q: exact(q) + 1e-6)
    constants._c2_table.cache_clear()
    try:
        with pytest.raises(InternalConsistencyError,
                           match=r"c2\(12;\(1,1\)\) forms disagree: diagonal="):
            c2_pair(12, 1, 5, truncation=P_FAST)
    finally:
        constants._c2_table.cache_clear()


def _skewed(table, tag, vector, index, size):
    """A copy of a c2 table with vector[index] of one form moved by size."""
    forms = dict(table)
    vec = getattr(forms[tag], vector).copy()
    vec[index] += size
    forms[tag] = forms[tag]._replace(**{vector: vec})
    return forms


def _raises(check, q, forms):
    try:
        check(q, forms)
    except InternalConsistencyError:
        return True
    return False


@pytest.mark.parametrize("q", [5, 7, 12, 30, 60, 97])
def test_bound_catches_whatever_the_pair_scan_catches(q):
    # the O(q) bound is never looser than the phi(q)^2 scan it replaced
    table = constants._c2_table(q, P_FAST)
    assert not _raises(check_forms_by_pairs, q, table)
    assert not _raises(constants._check_forms, q, table)
    rng = np.random.default_rng(q)
    caught = 0
    for tag in table:
        for vector in "fgh":
            # three entries, then the whole vector shifted
            for index in [*rng.integers(0, q, size=3), slice(None)]:
                for size in (3e-9, -3e-8, 1e-6):
                    forms = _skewed(table, tag, vector, index, size)
                    if _raises(check_forms_by_pairs, q, forms):
                        caught += 1
                        assert _raises(constants._check_forms, q, forms), (
                            tag, vector, index, size)
        # a constant moved from F to G changes no pair
        moved = _skewed(_skewed(table, tag, "f", slice(None), -0.37),
                        tag, "g", slice(None), 0.37)
        assert not _raises(check_forms_by_pairs, q, moved), tag
        assert not _raises(constants._check_forms, q, moved), tag
    assert caught


def test_skew_no_unit_pair_reads_passes():
    # at even q, b - a is even on unit pairs, so F at an odd v is never read
    table = constants._c2_table(12, P_FAST)
    forms = _skewed(table, "direct", "f", 3, 1e-6)
    constants._check_forms(12, forms)
    check_forms_by_pairs(12, forms)


def test_c2_at_99991_matches_the_symmetric_sum():
    # phi(q)^2 = 9,998,000,100 pairs, every one within the bound
    q = 99991
    for a, b in ((1, 2), (3, 99990), (12345, 67890)):
        got = c2_pair(q, a, b) + c2_pair(q, b, a)
        want = c2_symmetric_sum(q, a, b)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (a, b, got, want)
    assert sorted(c2_pair_forms(q, 1, 2)) == [
        "character", "direct", "prime_q", "reduced"]


def test_c2_reversal_symmetry():
    for q in range(3, 101):
        mod = Modulus(q)
        for a in mod.classes:
            for b in mod.classes:
                lhs = c2_pair(q, a, b, truncation=P_FAST)
                rhs = c2_pair(q, -b, -a, truncation=P_FAST)
                assert abs(lhs - rhs) <= 1e-10, (q, a, b, lhs, rhs)


def test_c2_symmetric_sum_character_free():
    # c2(a,b) + c2(b,a) has a closed form with no L-values in it
    for q in range(3, 101):
        mod = Modulus(q)
        for a in mod.classes:
            for b in mod.classes:
                if a == b:
                    continue
                want = c2_symmetric_sum(q, a, b)
                got = (c2_pair(q, a, b, truncation=P_FAST)
                       + c2_pair(q, b, a, truncation=P_FAST))
                assert abs(got - want) <= 1e-8, (q, a, b, got, want)


def test_c2_prime_power_symmetry():
    # prime-power moduli q = p^v: c2 is determined by a mod p and b - a mod q;
    # for p = 2 every reduced a is 1 mod 2, so only the difference matters
    for q, p in ((9, 3), (16, 2), (25, 5), (27, 3)):
        mod = Modulus(q)
        ref = {}
        for a in mod.classes:
            for b in mod.classes:
                key = (a % p, (b - a) % q)
                val = c2_pair(q, a, b, truncation=P_FAST)
                if key in ref:
                    assert val == pytest.approx(ref[key], abs=1e-9), (q, a, b)
                else:
                    ref[key] = val


def test_c2_triple_assembly():
    # r = 3 adds cross epsilon corrections between positions i and i+2
    q = 3
    for classes in [(1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2)]:
        got = c2_general(q, classes, truncation=P_FAST)
        pair_sum = (c2_pair(q, classes[0], classes[1], truncation=P_FAST)
                    + c2_pair(q, classes[1], classes[2], truncation=P_FAST))
        lag = 1.0 * (1.0 / 1.0) * (
            (3 - 1 - 1) / 2.0 - (1 if classes[0] == classes[2] else 0))
        assert got == pytest.approx(pair_sum + lag, abs=1e-10)
    # mod 5 the pair constant depends on the order of its classes
    assert c2_pair(5, 2, 4, truncation=P_FAST) != pytest.approx(
        c2_pair(5, 4, 2, truncation=P_FAST))
    got = c2_general(5, (1, 2, 4), truncation=P_FAST)
    pair_sum = (c2_pair(5, 1, 2, truncation=P_FAST)
                + c2_pair(5, 2, 4, truncation=P_FAST))
    assert got == pytest.approx(pair_sum + 2.0 * (1 / 4), abs=1e-10)


def test_skip_coefficients():
    assert skip_coefficient(5, 2, equal=False) == (0.0, pytest.approx(0.5))
    assert skip_coefficient(5, 3, equal=False) == (0.0, pytest.approx(0.25))
    assert skip_coefficient(5, 2, equal=True) == (0.0, pytest.approx(-1.5))
    assert skip_coefficient(3, 4, equal=True) == (0.0, pytest.approx(-1.0 / 6))


def test_pattern_constants_of_one_pair(capsys):
    assert c1(3, (1, 2)) == pytest.approx(0.5)
    want = 0.5 * math.log(2 * math.pi / 3)
    assert c2_general(3, (1, 2), truncation=P_FAST) == pytest.approx(
        want, abs=1e-7)
    # the command's row for the same pattern, canonicalised
    assert cli.main(["constants", "--q", "3", "--classes", "4,-1",
                     "--truncation", str(P_FAST)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "pattern,c1,c2,c2_method"
    pattern, c1_cell, c2_cell, method = row.split(",")
    assert (pattern, method) == ("1;2", "reduced")
    assert float(c1_cell) == pytest.approx(0.5)
    assert float(c2_cell) == pytest.approx(want, abs=1e-7)
