"""Check-only routes: second computations that the tests compare the
runtime against.  No runtime module imports this file; no command loads it.

Each name recomputes what a command takes by another route, or states a
closed form that follows from the constants: the repeat count of a
pattern; the value matrix of a character group, and L(0), L(1), A and C
from products with its rows; the conjugate, the principal and the
primitive character of a group, looked up by label; B_q(v) one value at
a time;
S_q({0, h}) by trial division of h; D0, D1 and D2 from their defining
truncated sums, O(cutoff^2); C(q, chi) through the primitive and dyadic
reduction identities; the character-free c2(a,b) + c2(b,a); every c2 form
compared with the reduced one pair by pair; closed-form
predictions for q in {3, 4} and odd prime q; the Legendre-symbol sum over
a pair count table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lfun
from .arith import (InternalConsistencyError, Modulus, ResiduePattern,
                    canonical_residue, moebius, prime_factors, primes_upto,
                    totient, von_mangoldt)
from .characters import CharacterGroup, DirichletCharacter, character_group
from .constants import FORM_AGREEMENT_TOL, _ON_DIAGONAL
from .predict import _race_scales
from .singular import SingularContext

__all__ = ["repeat_count", "value_rows", "value_matrix", "ctable_by_matrix",
           "conjugate_character", "principal_character",
           "primitive_character", "sawtooth_B", "singular_pair",
           "singular_zero", "DensityTerms", "density_terms_brute",
           "reduce_c", "c2_symmetric_sum", "check_forms_by_pairs",
           "always_bias_difference",
           "quad_residue_sum_prediction", "character_sum"]


def repeat_count(pattern: ResiduePattern) -> int:
    """#{i : a_i = a_{i+1}} over adjacent positions."""
    classes = pattern.classes
    return sum(1 for x, y in zip(classes, classes[1:]) if x == y)


def value_rows(group: CharacterGroup, rows) -> np.ndarray:
    """chi_i(n) for the characters i in rows and n = 0..m-1, one row each:
    exp(2 pi i t / E) at a unit with exact exponent t, 0 on non-units."""
    E = group.exponent
    steps = np.array([E // s for s in group.orders], dtype=np.int64)
    t = (group.labels[rows] * steps) @ group.labels.T % E
    out = np.zeros((len(t), group.m), dtype=np.complex128)
    out[:, group.units] = np.exp(2j * np.pi * np.arange(E) / E)[t]
    return out


@lru_cache(maxsize=4)
def value_matrix(group: CharacterGroup) -> np.ndarray:
    """The phi(m) x m matrix of value_rows for every character, built once
    per group, read-only."""
    out = value_rows(group, slice(None))
    out.flags.writeable = False
    return out


def ctable_by_matrix(q: int, m: int, truncation: int | None = None,
                     rows=None, chunk: int = 32):
    """L(0), L(1), A(q, chi) and C(q, chi) for the characters mod m in rows
    (default all), each character sum a product with rows of values.

    The route lfun._ctable took before its sums became transforms: L(0),
    L(1), the Hurwitz rows of log L, the truncated prime sums and the
    exact prime factors are products with value_rows, `chunk` rows at a
    time, for exactly the powers chi^k that the rows need.  Returns four
    arrays, one entry per row; L reads nan at the principal character.
    """
    group = character_group(m)
    rows = np.arange(group.phi) if rows is None else np.asarray(rows)
    K, M = lfun.SERIES_POWERS, lfun.EXACT_BOUND

    def by_rows(which, fn):
        """fn of value_rows(which), chunk by chunk, stacked."""
        return np.concatenate([fn(value_rows(group, which[i:i + chunk]))
                               for i in range(0, len(which), chunk)])

    small = primes_upto(M - 1 if truncation is None else min(truncation, M - 1))
    large = np.array([p for p in prime_factors(q) if p >= M], dtype=np.int64)
    exact = np.r_[small, large]
    weights = np.vstack([np.r_[m, 1:m], np.r_[0.0, lfun._digamma_at(m)]])
    l0, l1 = -by_rows(rows, lambda v: v @ weights.T).T / m
    z = by_rows(rows, lambda v: v[:, exact % m])

    # the row of chi_i^k, k = 1..K (K // 2), and each needed row once
    ks = np.arange(1, K * (K // 2) + 1)
    power = group.rows(group.labels[rows][:, None, :] * ks[:, None])
    needed = sorted(set(power.ravel().tolist()))
    at = np.zeros(group.phi, dtype=np.intp)
    at[needed] = np.arange(len(needed))
    power = at[power]
    # sums[i, l, s]: the prime sum of power s of chi_i^l; l = 0 is the
    # function 1 at every prime
    sums = np.zeros((len(rows), K + 1, K + 1), dtype=np.complex128)
    if truncation is None:
        t = np.arange(K + 1, dtype=float)[2:, None]
        start = np.arange(m, dtype=float)
        start[0] = m
        start[1 % m] += m
        hurwitz = m ** -t * lfun.hurwitz_zeta(t, start / m)
        r = -(1.0 / small) ** t

        def log_l(v):
            """log L_M(t, psi) for t = 2..K, one column each."""
            out = v @ hurwitz.T
            out = lfun._log1p(out.real, out.imag)
            zs = v[:, small % m]
            for i in range(K - 1):
                out[:, i] += lfun._log1p(zs.real * r[i], zs.imag * r[i]).sum(axis=1)
            return out

        logs = by_rows(needed, log_l)
        one = hurwitz.sum(axis=1)
        one = lfun._log1p(one, 0 * one) + lfun._log1p(r, 0 * r).sum(axis=1)
        for s in range(2, K + 1):
            for n in range(1, K // s + 1):
                mu = moebius(n)
                if mu:
                    sums[:, 0, s] += mu / n * one[n * s - 2]
                    for l in range(1, K + 1):
                        sums[:, l, s] += mu / n * logs[power[:, l * n - 1], n * s - 2]
    else:
        power_sums = lfun._residue_power_sums(m, math.lcm(q, m), truncation)
        per_row = by_rows(needed, lambda v: v @ power_sums.T)
        sums[:, 0] = power_sums.sum(axis=1)
        for l in range(1, K + 1):
            sums[:, l] = per_row[power[:, l - 1]]
    log_rest = np.einsum("sl,ils->i", lfun._COEFFICIENTS, sums)

    a = np.prod(np.where(q % exact == 0, 1.0 - z / exact,
                         1.0 - (1.0 - z) ** 2 / (exact - 1.0) ** 2), axis=1)
    z = z[:, len(small):]
    log_rest -= np.log(1.0 - (1.0 - z) ** 2 / (large - 1.0) ** 2).sum(axis=1)
    a = a * np.exp(log_rest)
    odd = group.parity[rows] == -1
    l0 = np.where(odd, l0, 0)
    l0[rows == 0] = l1[rows == 0] = np.nan
    c = np.where(odd, l0 * l1 * a, 0)
    return l0, l1, a, c


def _character(group: CharacterGroup, label) -> DirichletCharacter:
    """The group's shared instance of the character with this label, read
    modulo the orders."""
    return group.characters()[int(group.rows(np.asarray(label)))]


def conjugate_character(chi: DirichletCharacter) -> DirichletCharacter:
    """The conjugate of chi: the group's shared instance of the negated
    label."""
    return _character(chi.group, -chi.group.labels[chi.index])


def principal_character(group: CharacterGroup) -> DirichletCharacter:
    """The group's shared instance of the all-zero label, its row 0."""
    return group.characters()[0]


def primitive_character(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character mod conductor(chi) inducing chi: its
    exponent at each generator g of the group mod f is read, rounded from
    the angle, off chi's value at a unit n = g mod f."""
    group = chi.group
    f = int(group.conductor[chi.index])
    sub = character_group(f)
    E = group.exponent
    values = value_rows(group, [chi.index])[0]
    label = []
    for g, s in zip(sub.generators, sub.orders):
        lifts = values[g::f]  # the n = g mod f
        t = round(float(np.angle(lifts[lifts != 0][0])) * E / (2 * math.pi)) % E
        # chi*(g) = exp(2 pi i t / E) must be an s-th root of unity
        if (t * s) % E != 0:
            raise InternalConsistencyError(
                f"{group.names([chi.index])[0]} is not induced from "
                f"conductor {f}"
            )
        label.append(t * s // E)
    return _character(sub, np.array(label, dtype=np.int64))


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
    group = chi.group
    name = group.names([chi.index])[0]
    direct = lfun._ctable(q, group.m, truncation).c[chi.index]

    chi_star = primitive_character(chi)
    extra = 1.0 + 0j
    for p in prime_factors(group.m):
        extra *= 1.0 - chi_star(p)
    via_primitive = (lfun._ctable(q, chi_star.group.m, truncation)
                     .c[chi_star.index] * extra)
    scale = max(abs(direct), 1.0)
    if abs(via_primitive - direct) > 1e-9 * scale:
        raise InternalConsistencyError(
            f"primitive reduction mismatch for q={q}, chi={name}: "
            f"{via_primitive} vs {direct}"
        )

    if q % 2 == 0 and group.m % 2 == 1:
        q0 = q
        while q0 % 2 == 0:
            q0 //= 2
        via_dyadic = (np.conj(chi(2)) / 2.0
                      * lfun._ctable(q0, group.m, truncation).c[chi.index])
        if abs(via_dyadic - direct) > 1e-9 * scale:
            raise InternalConsistencyError(
                f"dyadic reduction mismatch for q={q}, chi={name}: "
                f"{via_dyadic} vs {direct}"
            )

    return complex(via_primitive)


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


def check_forms_by_pairs(q: int, forms) -> None:
    """Compare every applicable form of a c2 table (constants._c2_table)
    with the reduced one on each of the phi(q)^2 unit pairs, at
    FORM_AGREEMENT_TOL * max(1, |c2|); raise naming the first pair out of
    tolerance.  Holds phi(q)^2 floats per form."""
    units = np.array(Modulus(q).classes)
    a = units[:, None]
    ref = forms["reduced"].at(q, a, units)
    tol = FORM_AGREEMENT_TOL * np.maximum(1.0, np.abs(ref))
    for tag, form in forms.items():
        got = form.at(q, a, units)
        bad = ~(np.abs(got - ref) <= tol)
        if tag in _ON_DIAGONAL:
            bad &= (a == units) == _ON_DIAGONAL[tag]
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise InternalConsistencyError(
                f"c2({q};({units[i]},{units[j]})) forms disagree: "
                f"{tag}={got[i, j]!r} vs reduced={ref[i, j]!r}"
            )


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
    chi = _character(character_group(q), [(q - 1) // 2])
    legendre = [round(chi(n).real) for n in range(q)]
    return sum(
        legendre[a] * legendre[b] * n for (a, b), n in table.counts.items()
    )
