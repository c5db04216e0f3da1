"""Predicted pattern counts: second-order asymptotics and the density integral.

Three methods predict the count of a pattern mod q up to x:

* asymptotic:  li(x)/phi^r (1 + c1 loglog x/log x + c2/log x) straight from
  the conjectured constants;
* skip:        the same for a pair (a, b) of primes k apart, with c1 = 0 and
  c2 from skip_coefficient;
* integral:    (q/phi^2) int alpha(y)^eps / (log y)^2 (D0 + D1 + D2) dy,
  where alpha(y) = 1 - q/(phi log y) is the chance that an integer near y
  on a fixed coprime class is skipped by the prime race, H(y) =
  -(q/phi)/log alpha, and the D_j collect inclusion-exclusion sums of
  two-term singular series against the geometric weight e^{-h/H}.

The D_j are taken in semianalytic form: the progression sums over
e^{-h/H} are closed geometric series and every S_0(q, v; H) is replaced by
its main terms.  Then every D1 and D2 term is e^{-k/H} times the main
terms of S_0(q, v0 - k; H), v0 = b - a, for an integer k <= 2q.  The unit
of work is a row, the pairs (a, b) of one a and the b asked for
(_RowDensity): one product per panel, each pair refining as it would
alone, with the same bits in any row.  All quadrature is composite
16-point Gauss-Legendre with deterministic interval bisection in
u = log y.  The truncated sums straight from the definitions only check
this form; no prediction runs them.

_predictor is the one path from a method to predictions: of a block of
patterns for predict and compare, and of one pattern for
asymptotic_prediction, integral_prediction and skip_prediction, which
refuse classes that are not units mod q.  Every method gives a pattern
(a_1, ..., a_r) and its reversal (-a_r, ..., -a_1) the same value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import (
    Modulus,
    PatternGrid,
    ResiduePattern,
    canonical_residue,
    check_rel_tol,
    epsilon_q,
)
from .constants import _pattern_constants, s0c_vector, skip_coefficient

__all__ = [
    "li", "adaptive_gauss_legendre", "PredictionRow", "asymptotic_prediction",
    "integral_prediction", "skip_prediction", "integral_lower_limit",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def adaptive_gauss_legendre(f, lo: float, hi: float, rel_tol: float = 1e-7,
                            max_depth: int = 48):
    """Integrate a vectorised f over [lo, hi]; returns (value, error estimate).

    f maps n nodes to n values, or to (n, m) values of m integrands, each
    with its own value and error.  Intervals are bisected until the one-
    and two-panel answers agree to rel_tol of the whole-interval estimate,
    each integrand stopping where it would alone.  Recursion order is
    fixed, so results are bit-reproducible.  rel_tol must lie in [1e-15, 1)
    and the limits must be finite.
    """
    check_rel_tol(rel_tol)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"integration limits must be finite, got [{lo}, {hi}]")
    if hi <= lo:
        return 0.0, 0.0
    whole = _panel(f, lo, hi)
    value, err = _refine(f, lo, hi, whole, rel_tol * (abs(whole) + 1e-300),
                         max_depth, True)
    return (float(value), float(err)) if np.ndim(value) == 0 else (value, err)


def _panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    values = f(0.5 * (a + b) + half * _GL_NODES)
    if values.ndim == 1:
        return half * (_GL_WEIGHTS @ values)
    # node by node: a column's sum is the same bits however many columns
    return half * sum(w * v for w, v in zip(_GL_WEIGHTS, values))


def _refine(f, a: float, b: float, whole, tol, depth_left: int, open_):
    """(value, error) over [a, b]; open integrands bisect until within tol."""
    mid = 0.5 * (a + b)
    left, right = _panel(f, a, mid), _panel(f, mid, b)
    value, err = left + right, abs(left + right - whole)
    open_ = open_ & (err > tol)  # a NaN error closes its panel
    if depth_left > 0 and np.any(open_):
        lv, le = _refine(f, a, mid, left, tol, depth_left - 1, open_)
        rv, re_ = _refine(f, mid, b, right, tol, depth_left - 1, open_)
        value = np.where(open_, lv + rv, value)
        err = np.where(open_, le + re_, err)
    return value, err


# principal value of int_0^2 dt/log t
_LI_AT_2 = 1.0451637801174927848


@lru_cache(maxsize=64)
def li(x: float, rel_tol: float = 1e-10) -> float:
    """Logarithmic integral li(x), principal value through t = 1; cached."""
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
    logy = np.log(np.asarray(y, dtype=float))
    alpha = 1.0 - q / (phi * logy)
    if np.any(alpha <= 0):
        raise ValueError("y below the point where alpha(y) > 0")
    H = -(q / phi) / np.log(alpha)
    return logy, alpha, H


class _RowDensity:
    """Semianalytic D0, D1, D2 of (a, b) mod q for one a, b on the last axis.

    b runs over bs, every class by default; each b's column is computed
    alone, so it has the same bits in any row.  With w(.) the sawtooth
    offset in [1, q], a D1 term over class v has k = w(v0 - v), and a D2
    term over the classes t, t' between a and b has k = w(t - a) + w(b - t').
    So with after_a[k] = [gcd(a + k, q) = 1] and before_b[k] =
    [gcd(b - k, q) = 1] for k = 1..q, D1 weighs k by after_a + before_b
    and D2 by their convolution.  Each evaluation is one table of e^{-k/H}
    times the weights and S_0 main terms fixed here.
    """

    def __init__(self, q: int, a: int, bs=None, truncation: int | None = None):
        mod = Modulus(q)
        self.q, self.phi = q, mod.phi
        b = np.array(mod.classes if bs is None else bs)
        a %= q
        self.eps = epsilon_q(q, a, b)
        v0 = (b - a) % q
        s0c = s0c_vector(q, truncation)
        self.s0c_v0 = s0c[v0]
        self.v0_is_zero = v0 == 0
        n = 2 * q
        self.k = np.arange(1, n + 1)
        unit = np.gcd(np.arange(q), q) == 1
        back = (b[:, None] - self.k) % q  # b - k; v0 - k is back - a
        after_a = unit[(a + self.k[:q]) % q].astype(int)
        before_b = unit[back[:, :q]].astype(int)
        weights = np.zeros((2, len(b), n))
        weights[0, :, :q] = after_a + before_b
        # k1 + k2 >= 2; a convolution of 0/1 vectors, exact once rounded
        weights[1, :, 1:] = np.rint(np.fft.irfft(
            np.fft.rfft(after_a, n) * np.fft.rfft(before_b, n), n))[:, :-1]
        # D1 and D2 against S_0^c(v0 - k), one row per b for each
        self.table = (weights * np.roll(s0c, a)[back]).reshape(-1, n)
        # the log H term, at v0 - k = 0: k = w(v0) and w(v0) + q
        self.at_v0 = canonical_residue(q, v0) - 1 + np.array([[0], [q]])
        self.log_weights = weights[:, np.arange(len(b)), self.at_v0]

    def terms(self, y):
        """(logy, alpha, H, D0, D1, D2) for an array (or scalar) of y."""
        logy, alpha, H = _race_scales(self.q, self.phi, y)
        invH = 1.0 / H
        denom = -np.expm1(-self.q * invH)
        slope_logH = (-self.phi / (2 * self.q) * np.log(H))[..., None]
        e = np.exp(-np.multiply.outer(invH, self.k))
        d0 = (e[..., self.at_v0[0]] / denom[..., None] + self.s0c_v0
              + slope_logH * self.v0_is_zero)
        # einsum: a BLAS product this size starts threads that stall when busy
        s1, s2 = np.split(np.einsum("...k,jk->...j", e, self.table), 2, -1)
        z1, z2 = np.einsum("...pj,ipj->i...j", e[..., self.at_v0],
                           self.log_weights)
        f = (self.q / (self.phi * alpha * logy) / denom)[..., None]
        d1 = -f * (s1 + slope_logH * z1)
        d2 = f**2 * (s2 + slope_logH * z2)
        return logy, alpha, H, d0, d1, d2

    def integrand_u(self, u):
        """The maineqn integrand in u = log y, including the e^u Jacobian."""
        y = np.exp(np.asarray(u, dtype=float))
        logy, alpha, _, d0, d1, d2 = self.terms(y)
        # alpha^eps as exp of a contiguous array: power's loops, and their
        # bits, vary with the shapes broadcast against each other
        alpha_eps = np.exp(np.log(alpha)[..., None] * self.eps)
        return (self.q / self.phi**2 * alpha_eps
                / logy[..., None]**2 * (d0 + d1 + d2) * y[..., None])

    def integral(self, x: float, rel_tol: float = 1e-7):
        """(values, errors) of the integral from y_min to x, one per b."""
        y_min = integral_lower_limit(self.q)
        if x <= y_min:
            raise ValueError(f"x must exceed the lower limit {y_min:.3f}")
        return adaptive_gauss_legendre(
            self.integrand_u, math.log(y_min), math.log(x), rel_tol)


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
    quadrature_error: float | None = None


def _asymptotic(c1, c2, patterns: int, x: float):
    """li(x)/patterns (1 + c1 loglog x / log x + c2 / log x), assembled
    literally; c1 and c2 may be arrays, and li(x) is taken once for all."""
    if x <= math.e:
        raise ValueError(f"x must exceed e = {math.e:.6f} for loglog x, "
                         f"got {x:g}")
    logx = math.log(x)
    return li(x) / patterns * (1.0 + c1 * math.log(logx) / logx + c2 / logx)


def _predictor(q: int, grid, xs, method: str, truncation: int | None = None,
               rel_tol: float = 1e-7, skip: int = 2):
    """A function from a block of codes on grid (arith.PatternGrid) to
    method's (values, errors) of those patterns at each x of xs, shaped
    (patterns, len(xs)); errors is None but for the integral, whose every
    code is integrated here, so that its failures come first."""
    if method != "asymptotic" and len(grid.axes) != 2:
        raise ValueError(f"{method} predictions are defined for pairs")
    if method == "integral":  # values and errors by grid code, then by x
        rows = (_RowDensity(q, a, grid.axes[1], truncation)
                for a in grid.axes[0])
        values, errors = np.transpose(
            [[row.integral(x, rel_tol) for x in xs] for row in rows],
            (2, 0, 3, 1)).reshape(2, grid.size, len(xs))
        return lambda codes: (values[codes], errors[codes])
    if method == "skip":  # c1 is 0; c2 for a = b, then for a != b
        skip_c2 = [skip_coefficient(q, skip, e)[1] for e in (True, False)]
    patterns = Modulus(q).phi ** len(grid.axes)

    def predict(codes):
        c1, c2 = ((0.0, np.where(np.equal(*grid.classes(codes)), *skip_c2))
                  if method == "skip" else
                  _pattern_constants(q, grid.classes(codes), truncation))
        return np.stack([_asymptotic(c1, c2, patterns, x) for x in xs],
                        axis=-1), None

    return predict


def _tag(method: str, skip: int) -> str:
    """The method column of a prediction: skip rows name their k, as skip2."""
    return f"skip{skip}" if method == "skip" else method


def _prediction(q: int, classes, x: float, method: str, truncation=None,
                rel_tol: float = 1e-7, skip: int = 2) -> PredictionRow:
    """One pattern's row: _predictor at x over the one-pattern grid of
    classes, which must be units mod q."""
    classes = ResiduePattern(q, tuple(classes)).classes
    values, errors = _predictor(q, PatternGrid(zip(classes)), [x], method,
                                truncation, rel_tol, skip)(np.arange(1))
    return PredictionRow(q, classes, x, _tag(method, skip), float(values[0, 0]),
                         None if errors is None else float(errors[0, 0]))


def asymptotic_prediction(q: int, classes: tuple[int, ...] | list[int],
                          x: float, truncation: int | None = None
                          ) -> PredictionRow:
    """li(x)/phi^r (1 + c1 loglog x / log x + c2 / log x), assembled literally."""
    return _prediction(q, classes, x, "asymptotic", truncation)


def integral_prediction(q: int, a: int, b: int, x: float,
                        truncation: int | None = None,
                        rel_tol: float = 1e-7) -> PredictionRow:
    """The density integral from y_min = exp(2q/phi) (integral_lower_limit)
    to x in u = log y."""
    return _prediction(q, (a, b), x, "integral", truncation, rel_tol)


def skip_prediction(q: int, a: int, b: int, k: int, x: float) -> PredictionRow:
    """Expected count of primes k apart in the sequence landing on (a, b):
    the two-term asymptotic with the skip constants, whose c1 is 0."""
    return _prediction(q, (a, b), x, "skip", skip=k)
