"""Character group enumeration, orthogonality, conductors."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import primebias
from primebias import character_group
from primebias.oracles import conjugate_character, principal_character


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
    assert chi0.is_principal()


@pytest.mark.parametrize("m", [3, 4, 5, 8, 9, 12, 15, 16, 24, 40, 72, 100])
def test_row_orthogonality(m):
    group = character_group(m)
    phi = len(group.characters())
    for chi in group.characters():
        s = sum(chi(n) for n in range(1, m + 1))
        want = phi if chi.is_principal() else 0.0
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
        for chi in character_group(m).characters():
            table = chi.values_table()
            assert len(table) == m
            assert chi.values_table() is table  # built once, shared
            with pytest.raises(ValueError):
                table[1] = 0  # read-only
            for n in range(1, m + 1):
                assert table[n % m] == pytest.approx(chi(n), abs=1e-12)


def test_parity_partition():
    # chi(-1) = +-1, and exactly half the characters are odd for m > 2
    for m in range(1, 101):
        group = character_group(m)
        odd = [chi for chi in group.characters() if chi.is_odd()]
        even = [chi for chi in group.characters() if not chi.is_odd()]
        if m > 2:
            assert len(odd) == len(even)
        for chi in odd:
            assert chi.parity() == -1
            assert chi(m - 1) == pytest.approx(-1.0, abs=1e-12)
        for chi in even:
            assert chi.parity() == 1
            assert chi(-1) == pytest.approx(1.0, abs=1e-12)


def test_conjugate_inverts_values():
    for chi in character_group(7).characters():
        bar = conjugate_character(chi)
        for n in range(1, 7):
            assert bar(n) == pytest.approx(chi(n).conjugate(), abs=1e-12)


def test_conductors_mod12():
    group = character_group(12)
    conductors = sorted(chi.conductor() for chi in group.characters())
    assert conductors == [1, 3, 4, 12]


def test_conductors_mod8():
    conductors = sorted(chi.conductor() for chi in character_group(8).characters())
    assert conductors == [1, 4, 8, 8]


def definition_conductor(chi):
    """Smallest f | m with chi(n) = 1 on every unit n = 1 mod f, from values."""
    m = chi.modulus
    for f in range(1, m + 1):
        if m % f == 0 and all(
            abs(chi(n) - 1) < 1e-9
            for n in range(1, m + 1, f) if math.gcd(n, m) == 1
        ):
            return f


def test_conductor_matches_definition():
    for m in range(1, 101):
        for chi in character_group(m).characters():
            assert chi.conductor() == definition_conductor(chi), chi.name()


def test_primitive_character_agrees_on_coprimes():
    for m in range(1, 101):
        units = [n for n in range(m) if math.gcd(n, m) == 1]
        for chi in character_group(m).characters():
            star = chi.primitive()
            f = chi.conductor()
            assert star.modulus == f
            assert star.conductor() == f  # primitive: its own conductor
            got = star.values_table()[np.array(units) % f]
            want = chi.values_table()[units]
            assert np.abs(got - want).max() < 1e-12, chi.name()


def test_order_divides_group_order():
    group = character_group(16)
    for chi in group.characters():
        k = chi.order()
        assert k >= 1
        for n in range(1, 16):
            if math.gcd(n, 16) == 1:
                assert chi(n) ** k == pytest.approx(1.0, abs=1e-10)


def test_name_round_trip():
    group = character_group(12)
    names = [chi.name() for chi in group.characters()]
    assert len(set(names)) == len(names)
    for name in names:
        assert name.startswith("mod12:")


def test_characters_are_shared_instances():
    group = character_group(60)
    chars = group.characters()
    assert [group.character(chi.label) for chi in chars] == chars
    for chi in chars:
        assert group.character(chi.label) is chi
        assert conjugate_character(chi) is conjugate_character(chi)
        assert conjugate_character(conjugate_character(chi)) is chi
        assert chi.primitive() is chi.primitive()
    assert all(a is b for a, b in zip(group.characters(), chars))


def test_constants_build_each_character_once(tmp_path):
    # in a fresh interpreter, so every character is built during the run
    script = (
        "import sys\n"
        "from primebias import characters, cli\n"
        "built = []\n"
        "init = characters.DirichletCharacter.__post_init__\n"
        "def recording(self):\n"
        "    built.append((self.group.m, self.label))\n"
        "    init(self)\n"
        "characters.DirichletCharacter.__post_init__ = recording\n"
        "assert cli.main(['constants', '--q', '60', '--output', sys.argv[1]]) == 0\n"
        "assert built, 'no character built'\n"
        "assert len(built) == len(set(built)), len(built) - len(set(built))\n"
    )
    src = os.path.dirname(os.path.dirname(primebias.__file__))
    proc = subprocess.run([sys.executable, "-c", script,
                           str(tmp_path / "c.csv")],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
