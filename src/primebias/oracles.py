"""Check-only routes: second computations that the tests compare the
runtime against.  No runtime module imports this file; no command loads it.

Each name recomputes what a command takes by another route, or states a
closed form that follows from the constants: the repeat count of a
pattern; the conjugate and the principal character of a group, looked up
by label; B_q(v) one value at a time;
S_q({0, h}) by trial division of h; D0, D1 and D2 from their defining
truncated sums, O(cutoff^2); C(q, chi) through the primitive and dyadic
reduction identities; the character-free c2(a,b) + c2(b,a); closed-form
predictions for q in {3, 4} and odd prime q; the Legendre-symbol sum over
a pair count table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lfun
from .arith import (InternalConsistencyError, Modulus, ResiduePattern,
                    canonical_residue, prime_factors, totient, von_mangoldt)
from .characters import CharacterGroup, DirichletCharacter, character_group
from .predict import _race_scales
from .singular import SingularContext

__all__ = ["repeat_count", "conjugate_character", "principal_character",
           "sawtooth_B", "singular_pair", "singular_zero", "DensityTerms",
           "density_terms_brute", "reduce_c", "c2_symmetric_sum",
           "always_bias_difference", "quad_residue_sum_prediction",
           "character_sum"]


def repeat_count(pattern: ResiduePattern) -> int:
    """#{i : a_i = a_{i+1}} over adjacent positions."""
    classes = pattern.classes
    return sum(1 for x, y in zip(classes, classes[1:]) if x == y)


def conjugate_character(chi: DirichletCharacter) -> DirichletCharacter:
    """The conjugate of chi: the group's shared instance of the negated
    label."""
    group = chi.group
    return group.character(
        tuple((-k) % s for k, s in zip(chi.label, group.orders))
    )


def principal_character(group: CharacterGroup) -> DirichletCharacter:
    """The group's shared instance of the all-zero label."""
    return group.character(tuple(0 for _ in group.orders))


def sawtooth_B(q: int, v: int) -> float:
    """B_q(v) = 1/2 - v/q with v reduced to [1, q]; a period sums to -1/2."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    vc = canonical_residue(q, v)
    return 0.5 - vc / q


def singular_pair(ctx: SingularContext, h: int) -> float:
    """S_q({0, h}) for a single h >= 1, by trial division of h."""
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if ctx.q % 2 and h % 2:
        return 0.0
    val = 2.0 * ctx.twin_tail if ctx.q % 2 else ctx.twin_tail
    for p in prime_factors(h):
        if p == 2 or ctx.q % p == 0:
            continue
        val *= ctx.h_factor(p)
    return val


def singular_zero(ctx: SingularContext, hs: tuple[int, ...]) -> float:
    """S_{q,0} on a set of size <= 2 (inclusion-exclusion over subsets):
    1 on the empty set, 0 on a singleton, S_q({0, h}) - 1 on a pair."""
    uniq = sorted(set(hs))
    if len(uniq) == 0:
        return 1.0
    if len(uniq) == 1:
        return 0.0
    if len(uniq) == 2:
        return singular_pair(ctx, uniq[1] - uniq[0]) - 1.0
    raise ValueError("only sets of size <= 2 are supported")


@dataclass(frozen=True)
class DensityTerms:
    y: float
    alpha: float
    H: float
    d0: float
    d1: float
    d2: float

    @property
    def total(self) -> float:
        return self.d0 + self.d1 + self.d2


def density_terms_brute(
    q: int, a: int, b: int, y: float, cutoff: int | None = None,
    ctx: SingularContext | None = None,
) -> DensityTerms:
    """D0, D1, D2 straight from their defining truncated sums.

    Quadratic in the cutoff (default ceil(50 H), callers may raise it);
    meant for spot checks at moderate y, not for quadrature.
    """
    ctx = ctx or SingularContext(q)
    mod = Modulus(q)
    a, b = mod.canonical(a), mod.canonical(b)
    phi = mod.phi
    logy, alpha, H = _race_scales(q, phi, np.array([y]))
    logy, alpha, H = float(logy[0]), float(alpha[0]), float(H[0])
    if cutoff is None:
        cutoff = math.ceil(50 * H)
    v0 = (b - a) % q

    sig = ctx.pair_values(cutoff)  # sig[h] = singular series of {0, h}
    sig0 = sig - 1.0
    hvals = np.arange(canonical_residue(q, v0), cutoff + 1, q)
    weights = np.exp(-hvals / H)

    d0 = float(np.dot(sig[hvals], weights))

    t = np.arange(cutoff + 1)
    mask = np.array([math.gcd(int(tt + a), q) == 1 for tt in t], dtype=float)
    mask[0] = 0.0
    masked_sig0 = mask * sig0

    pref = q / (phi * alpha * logy)

    inner1 = np.empty(len(hvals))
    for i, h in enumerate(hvals):
        # sum_{t<h} [(t+a,q)=1] (S_{q,0}{0,t} + S_{q,0}{t,h})
        inner1[i] = masked_sig0[1:h].sum() + float(
            np.dot(mask[1:h], sig0[h - 1 : 0 : -1])
        )
    d1 = -pref * float(np.dot(weights, inner1))

    # contribution[t2] = [(t2+a,q)=1] sum_{t1<t2} [(t1+a,q)=1] sig0[t2-t1]
    contrib = np.zeros(cutoff + 1)
    for t2 in range(2, cutoff + 1):
        if mask[t2]:
            contrib[t2] = float(np.dot(mask[1:t2], sig0[t2 - 1 : 0 : -1]))
    cum = np.cumsum(contrib)
    inner2 = cum[np.maximum(hvals - 1, 0)]
    d2 = pref**2 * float(np.dot(weights, inner2))

    return DensityTerms(y=y, alpha=alpha, H=H, d0=d0, d1=float(d1), d2=float(d2))


def reduce_c(
    q: int, chi: DirichletCharacter, truncation: int | None = None
) -> complex:
    """C(q, chi) via the reduction identities, cross-checked against the direct product.

    Route 1 (always): through the primitive character chi* of conductor f,
        C(q, chi) = C(q, chi*) prod_{p | m} (1 - chi*(p)).
    Route 2 (q even, chi of odd modulus): with q0 the odd part of q,
        C(q, chi) = (conj(chi)(2)/2) C(q0, chi).
    Both must agree with the direct evaluation; the identities are exact
    at any fixed truncation, so the tolerance is rounding-level.
    """
    direct = lfun.c_q_chi(q, chi, truncation)

    chi_star = chi.primitive()
    extra = 1.0 + 0j
    for p in prime_factors(chi.modulus):
        extra *= 1.0 - chi_star(p)
    via_primitive = lfun.c_q_chi(q, chi_star, truncation) * extra
    scale = max(abs(direct), 1.0)
    if abs(via_primitive - direct) > 1e-9 * scale:
        raise InternalConsistencyError(
            f"primitive reduction mismatch for q={q}, chi={chi.name()}: "
            f"{via_primitive} vs {direct}"
        )

    if q % 2 == 0 and chi.modulus % 2 == 1:
        q0 = q
        while q0 % 2 == 0:
            q0 //= 2
        via_dyadic = np.conj(chi(2)) / 2.0 * lfun.c_q_chi(q0, chi, truncation)
        if abs(via_dyadic - direct) > 1e-9 * scale:
            raise InternalConsistencyError(
                f"dyadic reduction mismatch for q={q}, chi={chi.name()}: "
                f"{via_dyadic} vs {direct}"
            )

    return via_primitive


def c2_symmetric_sum(q: int, a: int, b: int) -> float:
    """Closed form of c2(q;(a,b)) + c2(q;(b,a)) for a != b mod q.

    Equals log 2pi - phi(q) Lambda(q/(q, b-a)) / phi(q/(q, b-a)); no
    character data enters, which makes it a sharp cross-check.
    """
    mod = Modulus(q)
    a, b = mod.canonical(a), mod.canonical(b)
    if a == b:
        raise ValueError("defined for distinct classes only")
    d = math.gcd(b - a, q)
    qd = q // d
    return math.log(2 * math.pi) - mod.phi * von_mangoldt(qd) / totient(qd)


def always_bias_difference(q: int, x: float) -> float:
    """Predicted pi(x;q,(a,-a)) - pi(x;q,(a,a)) for q in {3, 4}.

    Both off-diagonal constants collapse to +-(1/2)log(2pi/q) there, so the
    difference is class-free: x/(4 log^2 x) log(2 pi log x / q).
    """
    if q not in (3, 4):
        raise ValueError("closed form only holds for q = 3 and q = 4")
    if x < 10:
        raise ValueError("x too small")
    logx = math.log(x)
    return x / (4 * logx**2) * math.log(2 * math.pi * logx / q)


def quad_residue_sum_prediction(q: int, x: float) -> float:
    """Predicted sum_{a,b} (a|q)(b|q) pi(x;q,(a,b)) for odd prime q."""
    if q % 2 == 0 or prime_factors(q) != (q,):
        raise ValueError("defined for odd prime q")
    if x < 10:
        raise ValueError("x too small")
    logx = math.log(x)
    return -x / (2 * logx**2) * math.log(2 * math.pi * logx / q)


def character_sum(table) -> int:
    """sum_{a,b} (a|q)(b|q) * count(a,b) for odd prime q, from an r=2
    sieve.CountTable."""
    q = table.q
    if q % 2 == 0 or prime_factors(q) != (q,):
        raise ValueError("character sums are defined for an odd prime modulus")
    if table.r != 2:
        raise ValueError("character sums are defined for pair tables")
    # the Legendre symbol: the character sending the primitive root to -1;
    # its values are exactly +-1 on units
    chi = character_group(q).character(((q - 1) // 2,))
    legendre = [round(z.real) for z in chi.values_table().tolist()]
    return sum(
        legendre[a] * legendre[b] * n for (a, b), n in table.counts.items()
    )
