"""Dirichlet characters with exact root-of-unity arithmetic.

The unit group mod m is decomposed into cyclic components via CRT:
a primitive root for each odd prime power, and the {-1, 5} generators
for powers of two.  A character is labelled by its exponent tuple on
those generators, and character values are carried around as integer
numerators over the group exponent; they only become complex numbers
when a caller asks for them.  That keeps orthogonality sums and
conductor computations free of rounding questions.  The complex values
of a character are built once, from the group's discrete-log table, into
a cached read-only table that every evaluation indexes.

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
        self._dlog = self._build_dlog_table()
        # the same table as arrays: unit residues and their exponent rows
        self._units = np.fromiter(self._dlog, dtype=np.intp, count=self.phi)
        self._dlog_matrix = np.array(
            list(self._dlog.values()), dtype=np.int64
        ).reshape(self.phi, len(self.orders))

    def _build_dlog_table(self) -> dict[int, tuple[int, ...]]:
        """residue -> exponent tuple on the generators (full enumeration)."""
        table: dict[int, tuple[int, ...]] = {}
        for exps in product(*(range(s) for s in self.orders)):
            x = 1
            for g, e in zip(self.generators, exps):
                x = x * pow(g, e, self.m) % self.m
            table[x % self.m] = exps
        if len(table) != self.phi:
            raise InternalConsistencyError(f"unit group mod {self.m} not covered")
        return table

    def discrete_log(self, n: int) -> tuple[int, ...] | None:
        n %= self.m
        return self._dlog.get(n)

    def character(self, label: tuple[int, ...]) -> "DirichletCharacter":
        if len(label) != len(self.orders):
            raise ValueError(f"label length {len(label)} != rank {len(self.orders)}")
        label = tuple(k % s for k, s in zip(label, self.orders))
        return DirichletCharacter(self, label)

    def principal(self) -> "DirichletCharacter":
        return self.character(tuple(0 for _ in self.orders))

    def characters(self) -> list["DirichletCharacter"]:
        """All phi(m) characters in lexicographic label order."""
        return [
            DirichletCharacter(self, exps)
            for exps in product(*(range(s) for s in self.orders))
        ]


@lru_cache(maxsize=256)
def character_group(m: int) -> CharacterGroup:
    return CharacterGroup(m)


@lru_cache(maxsize=4096)
def _value_table(group: CharacterGroup, label: tuple[int, ...]) -> np.ndarray:
    """chi(n) for n = 0..m-1 (0 on non-units), read-only."""
    E = group.exponent
    weights = np.array(
        [k * (E // s) for k, s in zip(label, group.orders)], dtype=np.int64
    )
    t = group._dlog_matrix @ weights % E
    out = np.zeros(max(group.m, 1), dtype=np.complex128)
    out[group._units] = np.exp(2j * np.pi * t / E)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DirichletCharacter:
    group: CharacterGroup
    label: tuple[int, ...]

    def __post_init__(self):
        # not a field: equality, hashing and repr see group and label only
        object.__setattr__(self, "_values", _value_table(self.group, self.label))

    # --- exact values -------------------------------------------------

    def value_exponent(self, n: int) -> int | None:
        """t with chi(n) = exp(2 pi i t / exponent), or None if gcd(n,m)>1."""
        exps = self.group.discrete_log(n)
        if exps is None:
            return None
        E = self.group.exponent
        t = 0
        for e_i, k_i, s_i in zip(exps, self.label, self.group.orders):
            t += e_i * k_i * (E // s_i)
        return t % E

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
        if self.group.m <= 2:
            return 1
        t = self.value_exponent(self.group.m - 1)
        E = self.group.exponent
        if t is None or (2 * t) % E != 0:
            raise InternalConsistencyError(
                f"chi(-1) is not +-1 for {self.name()}: exponent {t} of {E}"
            )
        return 1 if t == 0 else -1

    def is_odd(self) -> bool:
        return self.parity() == -1

    def conjugate(self) -> "DirichletCharacter":
        return self.group.character(
            tuple((-k) % s for k, s in zip(self.label, self.group.orders))
        )

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
        if self.is_principal():
            return 1
        divs = sorted(d for d in range(1, m + 1) if m % d == 0)
        for f in divs:
            ok = True
            for n in range(1, m + 1, f):  # exactly the n = 1 mod f
                if math.gcd(n, m) == 1 and self.value_exponent(n) != 0:
                    ok = False
                    break
            if ok:
                return f
        return m

    def primitive(self) -> "DirichletCharacter":
        """The primitive character mod conductor(chi) inducing chi."""
        f = self.conductor()
        sub = character_group(f)
        m = self.group.m
        label = []
        for g, s in zip(sub.generators, sub.orders):
            n = _coprime_lift(g, f, m)
            t = self.value_exponent(n)
            E = self.group.exponent
            # chi*(g) = exp(2 pi i t / E) must be an s-th root of unity
            if t is None or (t * s) % E != 0:
                raise InternalConsistencyError(
                    f"{self.name()} is not induced from conductor {f}"
                )
            label.append((t * s // E) % s)
        chi_star = sub.character(tuple(label))
        return chi_star


def _coprime_lift(a: int, f: int, m: int) -> int:
    """n = a mod f with gcd(n, m) = 1 (exists since gcd(a, f) = 1)."""
    extra = 1
    for p in prime_factors(m):
        if f % p != 0:
            extra *= p
    if extra == 1:
        return a % m if m > 1 else 1
    inv = pow(extra, -1, f) if f > 1 else 0
    # n = 1 mod extra, n = a mod f
    n = (1 + extra * ((a - 1) * inv % f)) % (f * extra) if f > 1 else 1
    if (f > 1 and n % f != a % f) or math.gcd(n, m) != 1:
        raise InternalConsistencyError(
            f"lift {n} of {a} mod {f} is not a unit mod {m} in the class"
        )
    return n
