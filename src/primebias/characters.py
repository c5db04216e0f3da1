"""Dirichlet characters with exact root-of-unity arithmetic.

The unit group mod m is decomposed into cyclic components via CRT:
a primitive root for each odd prime power, and the {-1, 5} generators
for powers of two.  A character is labelled by its exponent tuple on
those generators.  A group holds every character at once, one row each
in label order, in one read-only matrix of complex values over
n = 0..m-1: chi(n) = exp(2 pi i t / E) at a unit n with exact integer
exponent t, E the group exponent, and 0 on non-units.  The exponents are
made a block of rows at a time and never kept; the parity and conductor
vectors are read from them, so they involve no rounding.  A character
is its group and its row; the group hands out one shared instance per
row, and every evaluation indexes the matrix.

Moduli m = 1 and m = 2 are allowed (their groups are trivial) because
the constant machinery walks divisors q/d of a pattern modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import (MAX_CHARACTER_ENTRIES, InternalConsistencyError,
                    prime_factors, totient)

__all__ = ["CharacterGroup", "DirichletCharacter", "character_group"]

_BLOCK = 1 << 17  # exponents held at once: a few MB at any modulus


def _primitive_root_mod_prime_power(p: int, e: int) -> int:
    """A generator of the cyclic unit group mod p^e, p an odd prime."""
    fac = prime_factors(p - 1)
    # the least primitive root mod p, which every odd prime has
    g = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // r, p) != 1 for r in fac))
    # g stays primitive mod p^e exactly when g^(p-1) != 1 mod p^2
    if e > 1 and pow(g, p - 1, p * p) == 1:
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
    labels:     the phi(m) labels in lexicographic order, one row each.
    values:     chi_i(n) for n = 0..m-1, exp(2 pi i t / exponent) at a
                unit with exact exponent t, 0 on non-units.
    parity:     chi_i(-1) as +1 or -1.
    conductor:  the conductor of chi_i.
    All four arrays are read-only; a group holds 16 bytes per entry of
    values and O(phi(m)) besides.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        self.m = m
        self.phi = totient(m)
        if self.phi * m > MAX_CHARACTER_ENTRIES:
            raise ValueError(
                f"the characters mod {m} need phi(m) * m = {self.phi * m} "
                f"table entries, above the budget of {MAX_CHARACTER_ENTRIES}"
            )
        gens: list[int] = []
        orders: list[int] = []
        mm = m
        for p in prime_factors(m):
            e = 0
            while mm % p == 0:
                mm //= p
                e += 1
            pe = p**e
            if p > 2:
                local = [(_primitive_root_mod_prime_power(p, e), totient(pe))]
            else:  # -1 and 5 mod 2^e; -1 alone mod 4, nothing mod 2
                local = [(pe - 1, 2), (5, pe // 4)][:min(e - 1, 2)]
            for g, s in local:
                gens.append(_crt_lift(g, pe, m))
                orders.append(s)
        self.generators = tuple(gens)
        self.orders = tuple(orders)
        E = self.exponent = math.lcm(*orders) if orders else 1
        # the same grid lists the units by their exponents on the
        # generators: units[i] = prod_j g_j^labels[i, j] mod m
        labels = np.indices(self.orders, dtype=np.int64)
        labels = labels.reshape(len(orders), self.phi).T
        units = np.full(self.phi, 1 % m, dtype=np.intp)
        for j, (g, s) in enumerate(zip(gens, orders)):
            powers = np.array([pow(g, e, m) for e in range(s)], dtype=np.intp)
            units = units * powers[labels[:, j]] % m
        # a bincount, not np.unique, which would load numpy.ma
        if np.count_nonzero(np.bincount(units, minlength=m)) != self.phi:
            raise InternalConsistencyError(f"unit group mod {m} not covered")
        # chi_i(units[k]) = exp(2 pi i t / E) for the exact exponent t =
        # sum_j labels[i, j] labels[k, j] E / s_j
        weights = labels * np.array([E // s for s in orders], dtype=np.int64)
        t = weights @ labels[units.tolist().index(m - 1)] % E
        bad = 2 * t % E != 0
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise InternalConsistencyError(
                f"chi(-1) is not +-1 for mod{m} row {i}: exponent {t[i]} of {E}"
            )
        parity = np.where(t == 0, 1, -1)
        # conductor: the least f | m with exponent 0 at every unit n = 1 mod f;
        # f runs down from m (the unit 1 alone), each f that holds overwriting
        ones = [(f, np.flatnonzero(units % f == 1 % f))
                for f in range(m, 0, -1) if m % f == 0]
        roots = np.exp(2j * np.pi * np.arange(E) / E)
        values = np.zeros((self.phi, m), dtype=np.complex128)
        conductor = np.empty(self.phi, dtype=np.int64)
        # a block of rows at a time: no phi x m integer array is ever held
        rows = max(1, _BLOCK // self.phi)
        for start in range(0, self.phi, rows):
            block = slice(start, start + rows)
            t = weights[block] @ labels.T % E
            values[block, units] = roots[t]
            for f, one in ones:
                conductor[block][(t[:, one] == 0).all(axis=1)] = f
        for array in (labels, values, parity, conductor):
            array.flags.writeable = False
        self.labels, self.values = labels, values
        self.parity, self.conductor = parity, conductor
        self._all = tuple(DirichletCharacter(self, i) for i in range(self.phi))

    def rows(self, labels: np.ndarray) -> np.ndarray:
        """The row of each label along the last axis, read modulo the
        orders."""
        rows = np.zeros(labels.shape[:-1], dtype=np.intp)
        for j, s in enumerate(self.orders):
            rows = rows * s + labels[..., j] % s
        return rows

    def character(self, label: tuple[int, ...]) -> "DirichletCharacter":
        """The character with this label, one shared instance per label."""
        if len(label) != len(self.orders):
            raise ValueError(f"label length {len(label)} != rank {len(self.orders)}")
        return self._all[int(self.rows(np.array(label, dtype=np.int64)))]

    def characters(self) -> list["DirichletCharacter"]:
        """All phi(m) characters in lexicographic label order."""
        return list(self._all)


@lru_cache(maxsize=256)
def character_group(m: int) -> CharacterGroup:
    return CharacterGroup(m)


@dataclass(frozen=True)
class DirichletCharacter:
    """Row `index` of its group's tables."""

    group: CharacterGroup
    index: int

    def __post_init__(self):
        # row views, not fields: equality, hashing and repr see group and
        # index only
        object.__setattr__(self, "_values", self.group.values[self.index])

    def __call__(self, n: int) -> complex:
        return self._values.item(n % self.group.m)

    def values_table(self) -> np.ndarray:
        """chi(n) for n = 0..m-1 as complex128 (0 on non-units).

        A read-only row of the group's value matrix; copy it before
        writing.
        """
        return self._values

    # --- structure ----------------------------------------------------

    @property
    def modulus(self) -> int:
        return self.group.m

    @property
    def label(self) -> tuple[int, ...]:
        return tuple(self.group.labels[self.index].tolist())

    def is_principal(self) -> bool:
        return self.index == 0

    def parity(self) -> int:
        """chi(-1) as +1 or -1; characters with chi(-1) = -1 are odd."""
        return int(self.group.parity[self.index])

    def is_odd(self) -> bool:
        return self.parity() == -1

    def order(self) -> int:
        return math.lcm(
            *(s // math.gcd(s, k) for k, s in zip(self.label, self.group.orders))
        )

    def name(self) -> str:
        """Stable text label, e.g. 'mod12:1.0'."""
        body = ".".join(map(str, self.label)) if self.label else "0"
        return f"mod{self.group.m}:{body}"

    def conductor(self) -> int:
        """Smallest f | m with chi trivial on {n = 1 mod f, gcd(n, m) = 1}."""
        return int(self.group.conductor[self.index])
