"""Character group enumeration, orthogonality, conductors."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import primebias
from primebias import character_group
from primebias.characters import CharacterGroup
from primebias.oracles import (conjugate_character, primitive_character,
                               principal_character, value_matrix, value_rows)


def test_group_sizes():
    for m in (1, 2, 3, 4, 5, 8, 12, 24, 30, 101):
        group = character_group(m)
        phi = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
        assert len(group.characters()) == phi


def test_mod5_generator_table():
    # 2 generates (Z/5)*; the four characters send 2 to the four 4th roots
    group = character_group(5)
    seen = set()
    for chi in group.characters():
        z = chi(2)
        seen.add(complex(round(z.real, 12), round(z.imag, 12)))
        # multiplicativity pins the rest of the table
        assert chi(4) == pytest.approx(z * z, abs=1e-12)
        assert chi(3) == pytest.approx(z ** 3, abs=1e-12)
    assert seen == {1 + 0j, -1 + 0j, 1j, -1j}


def test_principal_character():
    chi0 = principal_character(character_group(12))
    for n in range(1, 13):
        want = 1.0 if math.gcd(n, 12) == 1 else 0.0
        assert chi0(n) == pytest.approx(want, abs=1e-14)
    assert chi0.index == 0


@pytest.mark.parametrize("m", [3, 4, 5, 8, 9, 12, 15, 16, 24, 40, 72, 100])
def test_row_orthogonality(m):
    group = character_group(m)
    phi = len(group.characters())
    for chi in group.characters():
        s = sum(chi(n) for n in range(1, m + 1))
        want = phi if chi.index == 0 else 0.0
        assert abs(s - want) < 1e-12


@pytest.mark.parametrize("m", [3, 4, 5, 8, 9, 12, 15, 16, 24, 40, 72, 100])
def test_column_orthogonality(m):
    group = character_group(m)
    phi = len(group.characters())
    for n in range(1, m + 1):
        s = sum(chi(n) for chi in group.characters())
        if n % m == 1:
            want = phi
        else:
            want = 0.0
        assert abs(s - want) < 1e-12


def test_values_table_matches_call():
    for m in (5, 12, 16):
        group = character_group(m)
        matrix = value_matrix(group)
        assert value_matrix(group) is matrix  # built once, shared
        for chi in group.characters():
            table = matrix[chi.index]
            assert len(table) == m
            with pytest.raises(ValueError):
                table[1] = 0  # read-only
            for n in range(1, m + 1):
                assert table[n % m] == pytest.approx(chi(n), abs=1e-12)


def test_parity_partition():
    # chi(-1) = +-1, and exactly half the characters are odd for m > 2
    for m in range(1, 101):
        group = character_group(m)
        parity = group.parity.tolist()
        if m > 2:
            assert parity.count(-1) == parity.count(1)
        for chi, p in zip(group.characters(), parity):
            assert p in (-1, 1)
            assert chi(m - 1) == pytest.approx(p, abs=1e-12)
            assert chi(-1) == pytest.approx(p, abs=1e-12)


def test_conjugate_inverts_values():
    for chi in character_group(7).characters():
        bar = conjugate_character(chi)
        for n in range(1, 7):
            assert bar(n) == pytest.approx(chi(n).conjugate(), abs=1e-12)


def test_conductors_mod12():
    group = character_group(12)
    assert sorted(group.conductor.tolist()) == [1, 3, 4, 12]


def test_conductors_mod8():
    assert sorted(character_group(8).conductor.tolist()) == [1, 4, 8, 8]


def definition_conductor(chi):
    """Smallest f | m with chi(n) = 1 on every unit n = 1 mod f, from values."""
    m = chi.group.m
    for f in range(1, m + 1):
        if m % f == 0 and all(
            abs(chi(n) - 1) < 1e-9
            for n in range(1, m + 1, f) if math.gcd(n, m) == 1
        ):
            return f


def test_conductor_matches_definition():
    for m in range(1, 101):
        group = character_group(m)
        for chi, f, name in zip(group.characters(), group.conductor.tolist(),
                                group.names(slice(None))):
            assert f == definition_conductor(chi), name


def slice_search_conductors(group):
    """Each row's conductor by the per-row search over its exponents t,
    rounded from the values' angles (-1 on non-units): the least f | m
    with t <= 0 on every n = 1 mod f."""
    m, E = group.m, group.exponent
    values = value_matrix(group)
    t = np.rint(np.angle(values) * E / (2 * np.pi)).astype(np.int64) % E
    t[values == 0] = -1
    return [next(f for f in range(1, m + 1)
                 if m % f == 0 and (row[1::f] <= 0).all()) for row in t]


def test_parity_and_conductor_vectors():
    for m in range(1, 101):
        group = character_group(m)
        chars = group.characters()
        assert group.conductor.tolist() == [definition_conductor(chi)
                                            for chi in chars], m
        assert group.parity.tolist() == [round(chi(-1).real)
                                         for chi in chars], m
    for m in (420, 4620):
        group = character_group(m)
        assert group.conductor.tolist() == slice_search_conductors(group), m
        assert (group.parity == np.rint(value_matrix(group)[:, m - 1].real)).all(), m
    for array in (group.parity, group.conductor):
        assert not array.flags.writeable
    assert not hasattr(group, "exponents")
    assert not hasattr(group, "values")


@pytest.mark.parametrize("m", [2003, 99_991])
def test_group_holds_o_of_m_integers(m):
    # a prime modulus: labels, units, grid index, parity, conductor and
    # the E roots of unity are 56 bytes per residue; no phi x m array
    CharacterGroup(5)  # the module's own first allocations
    tracemalloc.start()
    try:
        group = CharacterGroup(m)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.phi == m - 1
    assert not hasattr(group, "values")
    assert retained <= 64 * m + 1e5, retained / m
    assert peak <= 128 * m + 1e6, peak / m


def test_primitive_character_agrees_on_coprimes():
    for m in range(1, 101):
        units = [n for n in range(m) if math.gcd(n, m) == 1]
        group = character_group(m)
        for chi, f, name in zip(group.characters(), group.conductor.tolist(),
                                group.names(slice(None))):
            star = primitive_character(chi)
            assert star.group.m == f
            # primitive: its own conductor
            assert star.group.conductor[star.index] == f
            got = value_matrix(star.group)[star.index][np.array(units) % f]
            want = value_matrix(group)[chi.index][units]
            assert np.abs(got - want).max() < 1e-12, name


@pytest.mark.parametrize("m, base", [(1, 7), (2, 12), (3, 12), (4, 12),
                                     (8, 24), (9, 18), (5, 60), (15, 420),
                                     (16, 48)])
def test_induced_rows_hold_the_values_mod_m_at_every_unit(m, base):
    group = character_group(base)
    rows = group.induced_rows(m)
    assert rows.shape == (character_group(m).phi,)
    units = group.units
    got = value_rows(group, rows)[:, units]
    want = value_rows(character_group(m), slice(None))[:, units % m]
    assert np.abs(got - want).max() < 1e-12


def test_order_divides_group_order():
    group = character_group(16)
    for chi in group.characters():
        k = int(group.character_orders(chi.index))
        assert k >= 1
        for n in range(1, 16):
            if math.gcd(n, 16) == 1:
                assert chi(n) ** k == pytest.approx(1.0, abs=1e-10)


def test_name_round_trip():
    group = character_group(12)
    names = group.names(slice(None))
    assert len(set(names)) == len(names)
    for name in names:
        assert name.startswith("mod12:")


def test_characters_are_shared_instances():
    group = character_group(60)
    chars = group.characters()
    # each label's row is the character's own index
    assert group.rows(group.labels).tolist() == [chi.index for chi in chars]
    for chi in chars:
        assert conjugate_character(chi) is conjugate_character(chi)
        assert conjugate_character(conjugate_character(chi)) is chi
        assert primitive_character(chi) is primitive_character(chi)
    assert all(a is b for a, b in zip(group.characters(), chars))


def test_constants_build_each_character_once(tmp_path):
    # in a fresh interpreter, so every character would be built during the
    # run; constants reads the groups through their transforms, and
    # dump-lvalues and dump-characters name every character mod 60 from
    # its label, so none of them builds a character
    script = (
        "import sys\n"
        "from primebias import characters, cli\n"
        "built = []\n"
        "init = characters.DirichletCharacter.__post_init__\n"
        "def recording(self):\n"
        "    built.append((self.group.m, self.group.labels[self.index].tolist()))\n"
        "    init(self)\n"
        "characters.DirichletCharacter.__post_init__ = recording\n"
        "assert cli.main(['constants', '--q', '60', '--output', sys.argv[1]]) == 0\n"
        "assert cli.main(['dump-lvalues', '--q', '60', '--output', sys.argv[1]]) == 0\n"
        "assert cli.main(['dump-characters', '--q', '60', '--output', sys.argv[1]]) == 0\n"
        "assert not built, built[:5]\n"
    )
    src = os.path.dirname(os.path.dirname(primebias.__file__))
    proc = subprocess.run([sys.executable, "-c", script,
                           str(tmp_path / "c.csv")],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
