"""Predicted pattern counts: second-order asymptotics and the density integral.

Two prediction routes for the count of a pattern (a, b) mod q up to x:

* asymptotic:  li(x)/phi^r (1 + c1 loglog x/log x + c2/log x) straight from
  the conjectured constants;

* integral:    (q/phi^2) int alpha(y)^eps / (log y)^2 (D0 + D1 + D2) dy,
  where alpha(y) = 1 - q/(phi log y) is the chance that an integer near y
  on a fixed coprime class is skipped by the prime race, H(y) =
  -(q/phi)/log alpha, and the D_j collect inclusion-exclusion sums of
  two-term singular series against the geometric weight e^{-h/H}.

The D_j are taken in semianalytic form: the progression sums over
e^{-h/H} are closed geometric series and every S_0(q, v; H) is replaced by
its main terms.  Then every D1 and D2 term is e^{-k/H} times the main
terms of S_0(q, v0 - k; H), v0 = b - a, for an integer k <= 2q; grouped
by k, D1 and D2 of a pair are two integer weight vectors over k = 1..2q
(see _PairDensity).  The truncated sums straight from the definitions,
quadratic in their cutoff, only check this form; no prediction runs them.

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
    check_rel_tol,
    epsilon_q,
)
from .constants import _pattern_constants, s0c_vector, skip_coefficient

__all__ = [
    "li",
    "adaptive_gauss_legendre",
    "PredictionRow",
    "asymptotic_prediction",
    "integral_prediction",
    "skip_prediction",
    "integral_lower_limit",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def adaptive_gauss_legendre(f, lo: float, hi: float, rel_tol: float = 1e-7,
                            max_depth: int = 48) -> tuple[float, float]:
    """Integrate a vectorised f over [lo, hi]; returns (value, error estimate).

    Intervals are bisected until the one-panel and two-panel answers agree
    to rel_tol of the running whole-interval estimate.  Recursion order is
    fixed, so results are bit-reproducible.  rel_tol must lie in
    [1e-15, 1) (arith.check_rel_tol).
    """
    check_rel_tol(rel_tol)
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


def _race_scales(q: int, phi: int, y):
    logy = np.log(y)
    alpha = 1.0 - q / (phi * logy)
    if np.any(alpha <= 0):
        raise ValueError("y below the point where alpha(y) > 0")
    H = -(q / phi) / np.log(alpha)
    return logy, alpha, H


class _PairDensity:
    """Vectorised semianalytic D0+D1+D2 for one pattern (a, b) mod q.

    Every D1 and D2 term is e^{-k/H} times the main terms of
    S_0(q, v0 - k; H), for an integer k in 1..2q; w(.) is the sawtooth
    offset in [1, q].  A D1 term over class v has k = w(v0 - v).  A D2
    term over the classes t, t' between a and b has k = k1 + k2, with
    k1 = w(t - a) and k2 = w(b - t').  So D1 and D2 are each one integer
    weight vector over k, fixed at construction from

        after_a[k] = [gcd(a + k, q) = 1],  before_b[k] = [gcd(b - k, q) = 1]

    for k = 1..q: D1 weighs k by after_a + before_b, D2 by their
    convolution.  Each evaluation is then one exponential table of width
    2q and one product with the two weight vectors.
    """

    def __init__(self, q: int, a: int, b: int, truncation: int | None = None):
        mod = Modulus(q)
        self.q, self.phi = q, mod.phi
        self.a, self.b = mod.canonical(a), mod.canonical(b)
        self.eps = epsilon_q(q, self.a, self.b)
        self.v0 = (self.b - self.a) % q
        self.slope = -self.phi / (2 * q)  # the log H coefficient at v = 0

        s0c_arr = s0c_vector(q, truncation)
        self.w_v0 = canonical_residue(q, self.v0)
        self.s0c_v0 = s0c_arr[self.v0]
        self.v0_is_zero = self.v0 == 0

        self.k = np.arange(1, 2 * q + 1)
        after_a = (np.gcd(self.a + self.k[:q], q) == 1).astype(int)
        before_b = (np.gcd(self.b - self.k[:q], q) == 1).astype(int)
        self.weights = np.zeros((2, 2 * q))
        self.weights[0, :q] = after_a + before_b
        self.weights[1, 1:] = np.convolve(after_a, before_b)  # k1 + k2 >= 2
        cls = (self.v0 - self.k) % q  # the S_0 class each k reads
        self.s0c_k = s0c_arr[cls]
        self.zero_k = (cls == 0).astype(float)

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

        # the S_0(q, v0 - k; H) main terms, weighted by e^{-k/H}
        main = self.s0c_k + self.slope * np.outer(logH, self.zero_k)
        e = np.exp(-np.outer(invH, self.k))
        sum1, sum2 = ((e * main) @ self.weights.T).T
        d1 = -pref / denom * sum1
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
