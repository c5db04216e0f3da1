"""Dirichlet characters with exact root-of-unity arithmetic.

The unit group mod m is decomposed into cyclic components via CRT:
a primitive root for each odd prime power, and the {-1, 5} generators
for powers of two.  A character is labelled by its exponent tuple on
those generators.  A group holds every character at once, one row each
in label order, in two read-only matrices over n = 0..m-1: the exact
integer exponents t, with chi(n) = exp(2 pi i t[n] / E) for E the group
exponent and t[n] = -1 on non-units, and the complex values built from
them.  Parity and conductor are read from the exponents, so they involve
no rounding.  A character is its group and its row; the group hands out
one shared instance per row, and every evaluation indexes the matrices.

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
    labels:     the phi(m) labels in lexicographic order, one row each.
    exponents:  t[i, n] for character i and n = 0..m-1, -1 on non-units.
    values:     chi_i(n) = exp(2 pi i t[i, n] / exponent), 0 on non-units.
    parity:     chi_i(-1) as +1 or -1.
    All four arrays are read-only.
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
        # chi_i(units[k]) = exp(2 pi i t / E), t = sum_j labels[i, j]
        # labels[k, j] E / s_j
        weights = labels * np.array([E // s for s in orders], dtype=np.int64)
        exponents = np.full((self.phi, m), -1, dtype=np.int64)
        exponents[:, units] = weights @ labels.T % E
        # index -1, the non-units, reads the appended 0
        roots = np.append(np.exp(2j * np.pi * np.arange(E) / E), 0)
        values = roots[exponents]
        t = exponents[:, -1]
        bad = (t < 0) | (2 * t % E != 0)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise InternalConsistencyError(
                f"chi(-1) is not +-1 for mod{m} row {i}: exponent {t[i]} of {E}"
            )
        parity = np.where(t == 0, 1, -1)
        for array in (labels, exponents, values, parity):
            array.flags.writeable = False
        self.labels, self.exponents = labels, exponents
        self.values, self.parity = values, parity
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
        object.__setattr__(self, "_exponents", self.group.exponents[self.index])
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
        m = self.group.m
        t = self._exponents
        # t[1::f] runs over the n = 1 mod f; non-units read -1
        return next(
            f for f in range(1, m + 1) if m % f == 0 and (t[1::f] <= 0).all()
        )
