"""Dirichlet characters with exact root-of-unity arithmetic.

The unit group mod m is decomposed into cyclic components via CRT:
a primitive root for each odd prime power, and the {-1, 5} generators
for powers of two.  A character is labelled by its exponent tuple on
those generators.  Its values live in one exact integer table t over
n = 0..m-1, with chi(n) = exp(2 pi i t[n] / E) for E the group exponent
and t[n] = -1 on non-units; parity, conductor and primitive part are read
from slices of that table, so they involve no rounding.  The complex
values are built once from the same table; both tables are read-only,
and every evaluation indexes them.  A group hands out one shared
instance per character, so the tables are built once per character.

Moduli m = 1 and m = 2 are allowed (their groups are trivial) because
the constant machinery walks divisors q/d of a pattern modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .arith import InternalConsistencyError, prime_factors, totient

__all__ = ["CharacterGroup", "DirichletCharacter", "character_group"]


def _primitive_root_mod_prime_power(p: int, e: int) -> int:
    """A generator of the cyclic unit group mod p^e, p an odd prime."""
    # primitive root mod p first
    fac = prime_factors(p - 1)
    g = None
    for cand in range(2, p):
        if all(pow(cand, (p - 1) // r, p) != 1 for r in fac):
            g = cand
            break
    if g is None:
        raise InternalConsistencyError(f"no primitive root mod {p}")
    if e == 1:
        return g
    # g stays primitive mod p^e exactly when g^(p-1) != 1 mod p^2
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _crt_lift(residue: int, pe: int, m: int) -> int:
    """x = residue mod pe, x = 1 mod m/pe (the factors are coprime)."""
    rest = m // pe
    if rest == 1:
        return residue % m
    inv = pow(rest, -1, pe)
    x = (1 + rest * ((residue - 1) * inv % pe)) % m
    return x


class CharacterGroup:
    """All Dirichlet characters mod m, m >= 1.

    generators: CRT-glued generators of the unit group.
    orders:     their orders; the label of a character is its exponent
                tuple against these, chi(g_i) = exp(2 pi i k_i / s_i).
    exponent:   lcm of the orders (1 for m <= 2).
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        self.m = m
        self.phi = totient(m)
        gens: list[int] = []
        orders: list[int] = []
        mm = m
        for p in prime_factors(m):
            e = 0
            while mm % p == 0:
                mm //= p
                e += 1
            pe = p**e
            if p == 2:
                if e == 2:
                    gens.append(_crt_lift(3, 4, m))
                    orders.append(2)
                elif e >= 3:
                    gens.append(_crt_lift(pe - 1, pe, m))
                    orders.append(2)
                    gens.append(_crt_lift(5, pe, m))
                    orders.append(2 ** (e - 2))
                # e == 1 contributes nothing
            else:
                g = _primitive_root_mod_prime_power(p, e)
                gens.append(_crt_lift(g, pe, m))
                orders.append(totient(pe))
        self.generators = tuple(gens)
        self.orders = tuple(orders)
        self.exponent = math.lcm(*orders) if orders else 1
        # every unit with its exponent row on the generators, in label
        # order: units[i] = prod_j g_j^dlog[i, j] mod m
        dlog = np.indices(self.orders, dtype=np.int64)
        dlog = dlog.reshape(len(orders), self.phi).T
        units = np.full(self.phi, 1 % m, dtype=np.intp)
        for j, (g, s) in enumerate(zip(gens, orders)):
            powers = np.array([pow(g, e, m) for e in range(s)], dtype=np.intp)
            units = units * powers[dlog[:, j]] % m
        # a bincount, not np.unique, which would load numpy.ma
        if np.count_nonzero(np.bincount(units, minlength=m)) != self.phi:
            raise InternalConsistencyError(f"unit group mod {m} not covered")
        self._units = units
        self._dlog_matrix = dlog
        self._characters: dict[tuple[int, ...], DirichletCharacter] = {}
        self._all: tuple[DirichletCharacter, ...] | None = None

    def character(self, label: tuple[int, ...]) -> "DirichletCharacter":
        """The character with this label, one shared instance per label."""
        chi = self._characters.get(label)  # a label already in range
        if chi is not None:
            return chi
        if len(label) != len(self.orders):
            raise ValueError(f"label length {len(label)} != rank {len(self.orders)}")
        label = tuple(k % s for k, s in zip(label, self.orders))
        chi = self._characters.get(label)
        if chi is None:
            chi = self._characters[label] = DirichletCharacter(self, label)
        return chi

    def characters(self) -> list["DirichletCharacter"]:
        """All phi(m) characters in lexicographic label order."""
        if self._all is None:
            self._all = tuple(
                self.character(exps)
                for exps in product(*(range(s) for s in self.orders))
            )
        return list(self._all)


@lru_cache(maxsize=256)
def character_group(m: int) -> CharacterGroup:
    return CharacterGroup(m)


def _tables(
    group: CharacterGroup, label: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """(t, chi(n)) for n = 0..m-1, both read-only.

    chi(n) = exp(2 pi i t[n] / exponent) on units; t[n] = -1 and
    chi(n) = 0 on non-units.
    """
    E = group.exponent
    weights = np.array(
        [k * (E // s) for k, s in zip(label, group.orders)], dtype=np.int64
    )
    t_units = group._dlog_matrix @ weights % E
    t = np.full(group.m, -1, dtype=np.int64)
    t[group._units] = t_units
    values = np.zeros(group.m, dtype=np.complex128)
    values[group._units] = np.exp(2j * np.pi * t_units / E)
    t.flags.writeable = False
    values.flags.writeable = False
    return t, values


@dataclass(frozen=True)
class DirichletCharacter:
    group: CharacterGroup
    label: tuple[int, ...]

    def __post_init__(self):
        # not fields: equality, hashing and repr see group and label only
        t, values = _tables(self.group, self.label)
        object.__setattr__(self, "_exponents", t)
        object.__setattr__(self, "_values", values)

    def __call__(self, n: int) -> complex:
        return self._values.item(n % self.group.m)

    def values_table(self) -> np.ndarray:
        """chi(n) for n = 0..m-1 as complex128 (0 on non-units).

        The array is cached per character and read-only; copy it before
        writing.
        """
        return self._values

    # --- structure ----------------------------------------------------

    @property
    def modulus(self) -> int:
        return self.group.m

    def is_principal(self) -> bool:
        return all(k == 0 for k in self.label)

    def parity(self) -> int:
        """chi(-1) as +1 or -1; characters with chi(-1) = -1 are odd."""
        t = int(self._exponents[-1])
        E = self.group.exponent
        if t < 0 or (2 * t) % E != 0:
            raise InternalConsistencyError(
                f"chi(-1) is not +-1 for {self.name()}: exponent {t} of {E}"
            )
        return 1 if t == 0 else -1

    def is_odd(self) -> bool:
        return self.parity() == -1

    def order(self) -> int:
        if not self.label:
            return 1
        return math.lcm(
            *(s // math.gcd(s, k) for k, s in zip(self.label, self.group.orders))
        )

    def name(self) -> str:
        """Stable text label, e.g. 'mod12:1.0'."""
        body = ".".join(map(str, self.label)) if self.label else "0"
        return f"mod{self.group.m}:{body}"

    # --- conductor / primitive character -------------------------------

    def conductor(self) -> int:
        """Smallest f | m with chi trivial on {n = 1 mod f, gcd(n, m) = 1}."""
        m = self.group.m
        t = self._exponents
        # t[1::f] runs over the n = 1 mod f; non-units read -1
        return next(
            f for f in range(1, m + 1) if m % f == 0 and (t[1::f] <= 0).all()
        )

    def primitive(self) -> "DirichletCharacter":
        """The primitive character mod conductor(chi) inducing chi."""
        f = self.conductor()
        sub = character_group(f)
        E = self.group.exponent
        label = []
        for g, s in zip(sub.generators, sub.orders):
            lifts = self._exponents[g::f]  # the n = g mod f
            t = int(lifts[lifts >= 0][0])
            # chi*(g) = exp(2 pi i t / E) must be an s-th root of unity
            if (t * s) % E != 0:
                raise InternalConsistencyError(
                    f"{self.name()} is not induced from conductor {f}"
                )
            label.append(t * s // E)
        return sub.character(tuple(label))
