"""Dirichlet characters as exact labels on the unit group.

The unit group mod m is decomposed into cyclic components via CRT:
a primitive root for each odd prime power, and the {-1, 5} generators
for powers of two.  A character is labelled by its exponent tuple on
those generators, and so is a unit: the group lists the phi(m) units in
the same lexicographic grid as the labels, with a length-m array from
each residue to its grid index (-1 on non-units).  chi_i at the unit of
grid index k is exp(2 pi i t / E), E the group exponent and t the exact
integer sum_j labels[i, j] labels[k, j] E / s_j.

No group holds a value matrix.  Every sum over all characters at once,
sum_n f(n) chi_i(n) for i = 0..phi-1, is one unnormalised inverse DFT of
f at the units laid on the grid (`transform`), and so is its converse,
sum_i c_i chi_i(n) at every unit.  Values at a few n are read from the
labels a block of rows at a time (`value_blocks`).  The parity and
conductor vectors are exact functions of the label.  A group holds O(m)
integers, and every datum of a character is read from it at the
character's row: labels, parity and conductor, and the character_orders
and names worked out from the labels.  A DirichletCharacter is its group
and its row, and only evaluates chi(n) at one n; characters() makes them
on first use, one shared instance per row.

Moduli m = 1 and m = 2 are allowed (their groups are trivial) because
the constant machinery walks divisors q/d of a pattern modulus.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arith import (MAX_CHARACTER_ENTRIES, MAX_GROUP_MODULUS,
                    InternalConsistencyError, prime_factors, totient)

__all__ = ["CharacterGroup", "DirichletCharacter", "character_group",
           "check_table_budget"]

GATHER_ENTRIES = 1 << 17  # character values read at once: a few MB


def check_table_budget(m: int) -> None:
    """Refuse a table of chi(n) for every character and n = 0..m-1 with
    more than MAX_CHARACTER_ENTRIES values, before any group is built."""
    entries = totient(m) * m
    if entries > MAX_CHARACTER_ENTRIES:
        raise ValueError(
            f"the character table mod {m} has phi(m) * m = {entries} "
            f"entries, above the budget of {MAX_CHARACTER_ENTRIES}"
        )


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


def _powers(g: int, s: int, m: int) -> np.ndarray:
    """g^e mod m for e = 0..s-1, by doubling: g^(k..2k-1) = g^(0..k-1) g^k."""
    out = np.empty(s, dtype=np.int64)
    out[0] = 1 % m
    k = 1
    while k < s:
        n = min(k, s - k)
        out[k:k + n] = out[:n] * pow(g, k, m) % m
        k += n
    return out


class CharacterGroup:
    """All Dirichlet characters mod m, 1 <= m <= MAX_GROUP_MODULUS.

    generators: CRT-glued generators of the unit group.
    orders:     their orders; the label of a character is its exponent
                tuple against these, chi(g_i) = exp(2 pi i k_i / s_i).
    exponent:   lcm of the orders (1 for m <= 2).
    labels:     the phi(m) labels in lexicographic order, one row each.
    units:      units[k] = prod_j g_j^labels[k, j] mod m, the unit at
                grid index k.
    index:      the grid index of each n = 0..m-1, -1 on non-units.
    parity:     chi_i(-1) as +1 or -1.
    conductor:  the conductor of chi_i.
    Every array is read-only; a group holds O(m) integers.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        if m > MAX_GROUP_MODULUS:
            raise ValueError(f"the characters mod {m} are refused: the "
                             f"modulus is above the bound of {MAX_GROUP_MODULUS}")
        self.m = m
        self.phi = totient(m)
        gens: list[int] = []
        orders: list[int] = []
        # each prime power and the columns of its components
        columns: list[tuple[int, int, list[int]]] = []
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
            columns.append((p, pe, list(range(len(gens), len(gens) + len(local)))))
            for g, s in local:
                gens.append(_crt_lift(g, pe, m))
                orders.append(s)
        self.generators = tuple(gens)
        self.orders = tuple(orders)
        E = self.exponent = math.lcm(*orders) if orders else 1
        labels = np.indices(self.orders, dtype=np.int64)
        labels = labels.reshape(len(orders), self.phi).T
        # the same grid lists the units, one outer product per generator
        units = np.array(1 % m, dtype=np.int64)
        for g, s in zip(gens, orders):
            units = units[..., None] * _powers(g, s, m) % m
        units = units.ravel()
        # a bincount, not np.unique, which would load numpy.ma
        if np.count_nonzero(np.bincount(units, minlength=m)) != self.phi:
            raise InternalConsistencyError(f"unit group mod {m} not covered")
        index = np.full(m, -1, dtype=np.intp)
        index[units] = np.arange(self.phi)
        # chi_i at the unit of index k has exponent
        # sum_j labels[i, j] _steps[j] labels[k, j] mod E
        self._steps = np.array([E // s for s in orders], dtype=np.int64)
        self._roots = np.exp(2j * np.pi * np.arange(E) / E)
        t = labels @ (self._steps * labels[index[m - 1]]) % E
        bad = 2 * t % E != 0
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise InternalConsistencyError(
                f"chi(-1) is not +-1 for mod{m} row {i}: exponent {t[i]} of {E}"
            )
        parity = np.where(t == 0, 1, -1)
        # the conductor, one factor per prime power from the orders o of
        # the components: p gcd(o, p^(e-1)) for odd p when o > 1; for 2,
        # 4 o when 5's component has order o > 1, else 4 when -1's has
        conductor = np.ones(self.phi, dtype=np.int64)
        for p, pe, cols in columns:
            o = [orders[j] // np.gcd(labels[:, j], orders[j]) for j in cols]
            if p > 2:
                conductor *= np.where(o[0] > 1, p * np.gcd(o[0], pe // p), 1)
            elif o:  # the -1 component, then 5's
                factor = np.where(o[0] > 1, 4, 1)
                if len(o) == 2:
                    factor = np.where(o[1] > 1, 4 * o[1], factor)
                conductor *= factor
        for array in (labels, units, index, parity, conductor, self._roots):
            array.flags.writeable = False
        self.labels, self.units, self.index = labels, units, index
        self.parity, self.conductor = parity, conductor

    def transform(self, x: np.ndarray) -> np.ndarray:
        """sum_k x[..., k] exp(2 pi i t(i, k) / E) for every grid index i,
        along the last axis: one unnormalised inverse DFT over the grid.

        t(i, k) is symmetric, so with x[k] = f(units[k]) this is
        sum_n f(n) chi_i(n) for every character i, and with x[i] = c_i it
        is sum_i c_i chi_i(units[k]) at every unit.
        """
        lead = x.shape[:-1]
        if not self.orders:
            return x + 0j
        grid = x.reshape(lead + self.orders)
        axes = tuple(range(len(lead), grid.ndim))
        out = np.fft.ifftn(grid, axes=axes) * self.phi
        return out.reshape(lead + (self.phi,))

    def value_blocks(self, n: np.ndarray):
        """Yield (rows, chi_i(n_j) for the characters i in rows) over all
        characters, a block of rows of about GATHER_ENTRIES values at a
        time: exact exponents, then roots of unity; 0 at non-units."""
        k = self.index[np.asarray(n) % self.m]
        at = self.labels[k].T
        step = max(1, GATHER_ENTRIES // max(1, len(k)))
        for start in range(0, self.phi, step):
            rows = slice(start, min(start + step, self.phi))
            values = self._roots[(self.labels[rows] * self._steps) @ at
                                 % self.exponent]
            values[:, k < 0] = 0
            yield rows, values

    def names(self, rows) -> list[str]:
        """The name of each character in rows, such as 'mod12:1.0',
        formatted from its label with no character made."""
        # rank 0 (m <= 2) names its one character mod{m}:0
        template = f"mod{self.m}:" + (".".join(["%d"] * len(self.orders)) or "0")
        return [template % tuple(k) for k in self.labels[rows].tolist()]

    def character_orders(self, rows) -> np.ndarray:
        """The order of each character in rows: the lcm, over its label,
        of s // gcd(s, k)."""
        orders = np.array(self.orders, dtype=np.int64)
        return np.lcm.reduce(orders // np.gcd(self.labels[rows], orders),
                             axis=-1, initial=1)

    def rows(self, labels: np.ndarray) -> np.ndarray:
        """The row of each label along the last axis, read modulo the
        orders."""
        rows = np.zeros(labels.shape[:-1], dtype=np.intp)
        for j, s in enumerate(self.orders):
            rows = rows * s + labels[..., j] % s
        return rows

    @cached_property
    def _all(self) -> tuple["DirichletCharacter", ...]:
        return tuple(DirichletCharacter(self, i) for i in range(self.phi))

    def characters(self) -> list["DirichletCharacter"]:
        """All phi(m) characters in lexicographic label order."""
        return list(self._all)


@lru_cache(maxsize=256)
def character_group(m: int) -> CharacterGroup:
    return CharacterGroup(m)


@dataclass(frozen=True)
class DirichletCharacter:
    """Row `index` of its group, evaluated one n at a time: chi(n).  Its
    name, parity, order and conductor are the group's entries at index."""

    group: CharacterGroup
    index: int

    def __post_init__(self):
        # the exponent of chi at each generator, over E; not a field, so
        # equality, hashing and repr see group and index only
        steps = self.group.labels[self.index] * self.group._steps
        object.__setattr__(self, "_weights", steps.tolist())

    def __call__(self, n: int) -> complex:
        group = self.group
        k = group.index.item(n % group.m)
        if k < 0:
            return 0j
        t = sum(map(operator.mul, self._weights, group.labels[k].tolist()))
        return group._roots.item(t % group.exponent)
