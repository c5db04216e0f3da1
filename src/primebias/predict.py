"""Predicted pattern counts: second-order asymptotics and the density integral.

Two prediction routes for the count of a pattern (a, b) mod q up to x:

* asymptotic:  li(x)/phi^r (1 + c1 loglog x/log x + c2/log x) straight from
  the conjectured constants;

* integral:    (q/phi^2) int alpha(y)^eps / (log y)^2 (D0 + D1 + D2) dy,
  where alpha(y) = 1 - q/(phi log y) is the chance that an integer near y
  on a fixed coprime class is skipped by the prime race, H(y) =
  -(q/phi)/log alpha, and the D_j collect inclusion-exclusion sums of
  two-term singular series against the geometric weight e^{-h/H}.

The D_j come in two flavours: a brute truncated sum straight from the
definitions (the oracle, O(cutoff^2) and happy about it), and a
semianalytic form where the progression sums over e^{-h/H} are closed
geometric series and every S_0(q, v; H) is replaced by its main terms.
Only the semianalytic form feeds the integral; the brute form exists to
keep it honest.

All quadrature is composite 16-point Gauss-Legendre with deterministic
interval bisection in u = log y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import (
    Modulus,
    ResiduePattern,
    canonical_residue,
    epsilon_q,
    prime_factors,
)
from .constants import _pattern_constants, s0c_vector, skip_coefficient
from .singular import SingularContext

__all__ = [
    "li",
    "adaptive_gauss_legendre",
    "DensityTerms",
    "density_terms_brute",
    "density_terms_semianalytic",
    "PredictionRow",
    "asymptotic_prediction",
    "integral_prediction",
    "skip_prediction",
    "always_bias_difference",
    "quad_residue_sum_prediction",
    "integral_lower_limit",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def adaptive_gauss_legendre(f, lo: float, hi: float, rel_tol: float = 1e-7,
                            max_depth: int = 48) -> tuple[float, float]:
    """Integrate a vectorised f over [lo, hi]; returns (value, error estimate).

    Intervals are bisected until the one-panel and two-panel answers agree
    to rel_tol of the running whole-interval estimate.  Recursion order is
    fixed, so results are bit-reproducible.
    """
    if hi <= lo:
        return 0.0, 0.0

    def panel(a: float, b: float) -> float:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        return half * float(np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))

    scale = abs(panel(lo, hi)) + 1e-300

    def refine(a: float, b: float, whole: float, depth: int) -> tuple[float, float]:
        mid = 0.5 * (a + b)
        left = panel(a, mid)
        right = panel(mid, b)
        err = abs(left + right - whole)
        if err <= rel_tol * scale or depth >= max_depth:
            return left + right, err
        lv, le = refine(a, mid, left, depth + 1)
        rv, re_ = refine(mid, b, right, depth + 1)
        return lv + rv, le + re_

    return refine(lo, hi, panel(lo, hi), 0)


# principal value of int_0^2 dt/log t
_LI_AT_2 = 1.0451637801174927848


def li(x: float, rel_tol: float = 1e-10) -> float:
    """Logarithmic integral li(x), principal value through t = 1."""
    if x <= 2:
        return 0.0 if x < 2 else _LI_AT_2
    value, _ = adaptive_gauss_legendre(
        lambda u: np.exp(u) / u, math.log(2.0), math.log(x), rel_tol
    )
    return value + _LI_AT_2


def integral_lower_limit(q: int) -> float:
    """y_min = exp(2q/phi(q)); alpha(y_min) = 1/2, safely inside (0, 1)."""
    return math.exp(2 * q / Modulus(q).phi)


# ---------------------------------------------------------------------------
# density terms
# ---------------------------------------------------------------------------


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


def _race_scales(q: int, phi: int, y):
    logy = np.log(y)
    alpha = 1.0 - q / (phi * logy)
    if np.any(alpha <= 0):
        raise ValueError("y below the point where alpha(y) > 0")
    H = -(q / phi) / np.log(alpha)
    return logy, alpha, H


class _PairDensity:
    """Vectorised semianalytic D0+D1+D2 for one pattern (a, b) mod q.

    Residue bookkeeping is frozen at construction: the class lists entering
    D1, the phi^2 pairs entering D2, their sawtooth offsets w(.) in [1, q],
    and the constants S_0^c(q, v).  Each evaluation is then a couple of
    small matrix products over the y array.
    """

    def __init__(self, q: int, a: int, b: int, truncation: int | None = None):
        mod = Modulus(q)
        self.q, self.phi = q, mod.phi
        self.a, self.b = mod.canonical(a), mod.canonical(b)
        self.eps = epsilon_q(q, self.a, self.b)
        self.v0 = (self.b - self.a) % q
        self.slope = -self.phi / (2 * q)  # the log H coefficient at v = 0

        s0c_arr = s0c_vector(q, truncation)
        w = lambda u: canonical_residue(q, u)

        self.w_v0 = w(self.v0)

        # D1: classes v with gcd(v + a, q) = 1, then gcd(v - b, q) = 1
        vs = []
        for shift in (self.a, -self.b):
            vs.extend(v for v in range(q) if math.gcd(v + shift, q) == 1)
        self.d1_w = np.array([w(self.v0 - v) for v in vs], dtype=float)
        self.d1_const = s0c_arr[[v % q for v in vs]]
        self.d1_zero = np.array([1.0 if v % q == 0 else 0.0 for v in vs])

        # D2: u with gcd(u + a, q) = 1 and s with gcd(u + s + a, q) = 1
        us, ss = [], []
        for u in range(q):
            if math.gcd(u + self.a, q) != 1:
                continue
            for s in range(q):
                if math.gcd(u + s + self.a, q) == 1:
                    us.append(u)
                    ss.append(s)
        self.d2_w = np.array(
            [w(self.v0 - u - s) + w(u) for u, s in zip(us, ss)], dtype=float
        )
        self.d2_const = s0c_arr[[s % q for s in ss]]
        self.d2_zero = np.array([1.0 if s % q == 0 else 0.0 for s in ss])

        self.s0c_v0 = s0c_arr[self.v0]
        self.v0_is_zero = self.v0 == 0

    def terms(self, y):
        """(logy, alpha, H, D0, D1, D2) for an array (or scalar) of y."""
        y = np.asarray(y, dtype=float)
        logy, alpha, H = _race_scales(self.q, self.phi, y)
        invH = 1.0 / H
        logH = np.log(H)
        denom = -np.expm1(-self.q * invH)

        d0 = np.exp(-self.w_v0 * invH) / denom + self.s0c_v0
        if self.v0_is_zero:
            d0 = d0 + self.slope * logH

        pref = self.q / (self.phi * alpha * logy)

        e1 = np.exp(-np.outer(invH, self.d1_w))
        sum1 = e1 @ self.d1_const + self.slope * logH * (e1 @ self.d1_zero)
        d1 = -pref / denom * sum1

        e2 = np.exp(-np.outer(invH, self.d2_w))
        sum2 = e2 @ self.d2_const + self.slope * logH * (e2 @ self.d2_zero)
        d2 = (pref / denom) ** 2 * sum2

        return logy, alpha, H, d0, d1, d2

    def integrand_u(self, u):
        """The maineqn integrand in u = log y, including the e^u Jacobian."""
        y = np.exp(np.asarray(u, dtype=float))
        logy, alpha, _, d0, d1, d2 = self.terms(y)
        return (
            self.q
            / self.phi**2
            * alpha**self.eps
            / logy**2
            * (d0 + d1 + d2)
            * y
        )


def density_terms_semianalytic(
    q: int, a: int, b: int, y: float, truncation: int | None = None
) -> DensityTerms:
    ev = _PairDensity(q, a, b, truncation)
    logy, alpha, H, d0, d1, d2 = ev.terms(np.array([y]))
    return DensityTerms(
        y=y, alpha=float(alpha[0]), H=float(H[0]),
        d0=float(d0[0]), d1=float(d1[0]), d2=float(d2[0]),
    )


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


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictionRow:
    q: int
    classes: tuple[int, ...]
    x: float
    method: str
    value: float
    terms: dict = field(default_factory=dict, repr=False)
    quadrature_error: float | None = None


def _asymptotic_terms(c1, c2, patterns: int, x: float) -> dict:
    """The terms of li(x)/patterns (1 + c1 loglog x / log x + c2 / log x),
    assembled literally, with their sum as "value".

    c1 and c2 may be arrays (see constants._pattern_constants); li(x) is
    taken once for all of them.
    """
    if x <= math.e:
        raise ValueError("x too small for loglog")
    li_x = li(x)
    main = li_x / patterns
    logx = math.log(x)
    loglog_term = c1 * math.log(logx) / logx
    log_term = c2 / logx
    return {
        "li": li_x, "main": main, "c1": c1, "c2": c2,
        "loglog_term": loglog_term, "log_term": log_term,
        "value": main * (1.0 + loglog_term + log_term),
    }


def asymptotic_prediction(
    q: int,
    classes: tuple[int, ...] | list[int],
    x: float,
    truncation: int | None = None,
) -> PredictionRow:
    """li(x)/phi^r (1 + c1 loglog x / log x + c2 / log x), assembled literally."""
    pat = ResiduePattern(q, tuple(classes))
    c1, c2 = _pattern_constants(q, pat.classes, truncation)
    terms = _asymptotic_terms(float(c1), float(c2), pat.modulus.phi**pat.r, x)
    return PredictionRow(
        q=q, classes=pat.classes, x=x, method="asymptotic",
        value=terms.pop("value"), terms=terms,
    )


def integral_prediction(
    q: int,
    a: int,
    b: int,
    x: float,
    truncation: int | None = None,
    rel_tol: float = 1e-7,
) -> PredictionRow:
    """The density integral from y_min = exp(2q/phi) to x in u = log y."""
    ev = _PairDensity(q, a, b, truncation)
    y_min = integral_lower_limit(q)
    if x <= y_min:
        raise ValueError(f"x must exceed the lower limit {y_min:.3f}")
    value, err = adaptive_gauss_legendre(
        ev.integrand_u, math.log(y_min), math.log(x), rel_tol
    )
    return PredictionRow(
        q=q, classes=(ev.a, ev.b), x=x, method="integral", value=value,
        terms={"y_min": y_min, "epsilon": ev.eps},
        quadrature_error=err,
    )


def skip_prediction(
    q: int, a: int, b: int, k: int, x: float
) -> PredictionRow:
    """Expected count of primes k apart in the sequence landing on (a, b)."""
    mod = Modulus(q)
    a, b = mod.canonical(a), mod.canonical(b)
    _, c2s = skip_coefficient(q, k, equal=(a == b))
    li_x = li(x)
    main = li_x / mod.phi**2
    value = main * (1.0 + c2s / math.log(x))
    return PredictionRow(
        q=q, classes=(a, b), x=x, method=f"skip{k}", value=value,
        terms={"li": li_x, "main": main, "c2_skip": c2s},
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
