"""Quadrature, density terms, and the two prediction routes."""

import math

import numpy as np
import pytest

from primebias import (
    Modulus,
    SingularContext,
    adaptive_gauss_legendre,
    always_bias_difference,
    asymptotic_prediction,
    c1,
    c2_pair,
    canonical_residue,
    density_terms_brute,
    integral_lower_limit,
    integral_prediction,
    li,
    quad_residue_sum_prediction,
    s0_brute,
    skip_coefficient,
    skip_prediction,
)
from primebias.constants import s0c_vector
from primebias.predict import _RowDensity

P_FAST = 200_000


def test_quadrature_exact_polynomial():
    # 16-point Gauss-Legendre is exact through degree 31
    value, err = adaptive_gauss_legendre(lambda u: u**7 - 3 * u**2, -1.0, 2.0)
    want = (2.0**8 - 1.0) / 8 - (2.0**3 + 1.0)
    assert value == pytest.approx(want, abs=1e-12)
    assert err < 1e-12


def test_quadrature_sin():
    value, _ = adaptive_gauss_legendre(np.sin, 0.0, math.pi)
    assert value == pytest.approx(2.0, abs=1e-10)


def test_quadrature_deterministic():
    f = lambda u: np.exp(-u) * np.cos(17 * u)
    first = adaptive_gauss_legendre(f, 0.0, 30.0, rel_tol=1e-9)
    second = adaptive_gauss_legendre(f, 0.0, 30.0, rel_tol=1e-9)
    assert first == second


def test_quadrature_takes_the_whole_panel_once():
    calls = []

    def f(u):
        calls.append(u)
        return u**3

    adaptive_gauss_legendre(f, 0.0, 1.0)
    assert len(calls) == 3  # the whole interval, then its two halves


def test_quadrature_vector_integrands_stop_where_alone():
    """A stacked integrand refines each column only as far as that column
    alone would go: the kink column with the larger scale converges at a
    shallower depth, and refining it further would move its value."""
    fs = [lambda u: abs(u - 0.3), lambda u: 1e3 + abs(u - 0.3), np.sin,
          lambda u: np.exp(-u) * np.cos(17 * u)]
    values, errors = adaptive_gauss_legendre(
        lambda u: np.stack([f(u) for f in fs], axis=-1), -1.0, 2.0,
        rel_tol=1e-9)
    for f, value, err in zip(fs, values, errors):
        alone = adaptive_gauss_legendre(f, -1.0, 2.0, rel_tol=1e-9)
        assert value == pytest.approx(alone[0], rel=1e-14, abs=0)
        assert err == pytest.approx(alone[1], rel=1e-3, abs=1e-15)


def simpson_li(x, n=200_001):
    """Composite Simpson for int_2^x dt/log t plus the t <= 2 constant."""
    u = np.linspace(math.log(2.0), math.log(x), n)
    f = np.exp(u) / u
    h = (u[-1] - u[0]) / (n - 1)
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return h / 3 * float(np.dot(w, f)) + 1.0451637801174927848


def test_li_against_simpson():
    for x in (1e6, 1e9, 1e12):
        assert li(x) == pytest.approx(simpson_li(x), rel=1e-9)


def test_li_reference_value():
    assert li(1e9) == pytest.approx(50849234.957, abs=2e-2)


def test_li_below_two():
    assert li(1.5) == 0.0


def test_integral_lower_limit():
    assert integral_lower_limit(3) == pytest.approx(math.exp(3.0))
    assert integral_lower_limit(4) == pytest.approx(math.exp(4.0))


def test_brute_d0_is_geometric_plus_s0():
    """The d0 regrouping is exact when the same truncated sums feed it."""
    for q, a, b, y in ((3, 1, 2, 1e6), (5, 2, 2, 1e8)):
        ctx = SingularContext(q)
        terms = density_terms_brute(q, a, b, y, ctx=ctx)
        v0 = (b - a) % q
        w = v0 if v0 else q
        geo = math.exp(-w / terms.H) / -math.expm1(-q / terms.H)
        s0 = s0_brute(ctx, v0, terms.H).value
        assert terms.d0 == pytest.approx(geo + s0, abs=1e-9)


def semianalytic(q, a, b, y, truncation=None):
    """(H, D0, D1, D2) of the runtime density of (a, b) at one y: the
    one-column row of a."""
    b = Modulus(q).canonical(b)
    _, _, H, *ds = _RowDensity(q, a, [b], truncation).terms([y])
    return (H[0], *(d[0, 0] for d in ds))


def test_density_terms_total_scale():
    # D0 dominates and behaves like H/q for large y
    H, d0, d1, d2 = semianalytic(3, 1, 2, 1e10, truncation=P_FAST)
    assert d0 * 3 / H == pytest.approx(1.0, abs=0.2)
    assert abs(d1) < d0
    assert abs(d2) < d0


def test_brute_vs_semianalytic_within_proposition_error():
    """The two assemblies differ only in dropped Z(H) = O(H^{-1/2}) pieces."""
    for q in (3, 5):
        ctx = SingularContext(q)
        for a in (1, 2) if q == 5 else (1,):
            for b in (1, 2):
                H, *semi = semianalytic(q, a, b, 1e6, truncation=10**6)
                brute = density_terms_brute(q, a, b, 1e6, ctx=ctx)
                bound = 4.0 / math.sqrt(H)
                assert abs(sum(semi) - brute.total) <= bound, (q, a, b)


def test_brute_vs_semianalytic_tight_for_q3():
    _, *semi = semianalytic(3, 1, 1, 1e6, truncation=10**6)
    brute = density_terms_brute(3, 1, 1, 1e6)
    assert sum(semi) == pytest.approx(brute.total, rel=0.01)


def _term_by_term(q, a, b, y):
    """D0, D1, D2 with every D1 and D2 term listed on its own, each as
    (value, size): the sum of the terms, exactly rounded (math.fsum), and
    the sum of their magnitudes.

    The D1 classes v with gcd(v + a, q) = 1, then gcd(v - b, q) = 1, and
    the D2 grid of u with gcd(u + a, q) = 1 and s with gcd(u + s + a, q) = 1,
    each term e^{-w/H} times the main terms of S_0(q, class; H): one array
    entry per term, the y on the last axis.
    """
    mod = Modulus(q)
    a, b = mod.canonical(a), mod.canonical(b)
    phi, v0 = mod.phi, (b - a) % q
    units = np.array(mod.classes)
    s0c = s0c_vector(q)
    w = lambda u: canonical_residue(q, u)[..., None]
    logy = np.log(y)
    alpha = 1.0 - q / (phi * logy)
    H = -(q / phi) / np.log(alpha)
    slope_logH = -phi / (2 * q) * np.log(H)
    denom = -np.expm1(-q / H)
    pref = q / (phi * alpha * logy)

    def main_terms(v):
        v = v[..., None] % q
        return s0c[v] + np.where(v == 0, slope_logH, 0.0)

    def total(terms, factor):
        terms = terms.reshape(-1, len(y))
        exact = [math.fsum(t) for t in terms.T.tolist()]
        return factor * np.array(exact), abs(factor) * abs(terms).sum(axis=0)

    v0 = np.array([v0])
    d0 = np.concatenate([np.exp(-w(v0) / H) / denom, main_terms(v0)])
    vs = np.concatenate([units - a, units + b]) % q
    d1 = np.exp(-w(v0 - vs) / H) * main_terms(vs)
    u = ((units - a) % q)[:, None]
    s = (units - u - a) % q
    d2 = np.exp(-(w(v0 - u - s) + w(u)) / H) * main_terms(s)
    return (total(d0, 1.0), total(d1, -pref / denom),
            total(d2, (pref / denom) ** 2))


@pytest.mark.parametrize("q", [3, 4, 5, 8, 12, 30, 210])
def test_k_weights_match_term_by_term_sums(q):
    """The weight vectors over k regroup the D1 and D2 terms exactly, so
    they agree with the listed terms to rounding, for every pair; the
    brute route agrees only to O(H^{-1/2}) and could not see a misplaced
    weight.

    A few q = 210 sums cancel to 1/10^5 of their terms' magnitudes, where
    1e-12 of the value is below float64 resolution; the bound there is
    4 float64 ulps of those magnitudes, far below any one term moved.  It
    replaces rtol only where a sum cancels by more than 1,100x, which no
    sum at q <= 30 does.
    """
    classes = Modulus(q).classes
    ys = np.geomspace(integral_lower_limit(q) * 1.001, 1e12, 9)
    floor = 4 * np.finfo(float).eps
    for a in classes:
        got = _RowDensity(q, a).terms(ys)[3:]
        for j, b in enumerate(classes):
            want = _term_by_term(q, a, b, ys)
            for name, g, (x, size) in zip(("D0", "D1", "D2"), got, want):
                gap = abs(g[:, j] - x)
                bound = np.maximum(1e-12 * abs(x), floor * size)
                assert np.all(gap <= bound), (
                    f"{name} q={q} ({a}, {b}): {g[:, j]} vs {x}")


def test_asymptotic_assembly_literal():
    q, classes, x = 5, (1, 3), 1e10
    row = asymptotic_prediction(q, classes, x, truncation=P_FAST)
    lg, llg = math.log(x), math.log(math.log(x))
    want = li(x) / 16 * (1 + c1(q, classes) * llg / lg
                         + c2_pair(q, 1, 3, truncation=P_FAST) / lg)
    assert row.value == pytest.approx(want, rel=1e-12)
    assert row.method == "asymptotic"


def test_integral_prediction_published_value_1e9():
    row = integral_prediction(3, 1, 2, 1e9, truncation=P_FAST)
    assert row.value == pytest.approx(1.405e7, rel=5e-3)
    assert row.quadrature_error < 1.0


def test_pattern_sum_recovers_prime_count():
    # summing the prediction over all phi^2 patterns recovers li(x)
    total = 0.0
    for a in (1, 2):
        for b in (1, 2):
            total += integral_prediction(3, a, b, 1e9, truncation=P_FAST).value
    assert total == pytest.approx(li(1e9), rel=5e-3)


def test_asymptotic_pattern_sum_exact_cancellation():
    # sum of c1 and of c2 over patterns is zero mod the li main term
    total = 0.0
    for a in (1, 2):
        for b in (1, 2):
            total += asymptotic_prediction(3, (a, b), 1e9,
                                           truncation=P_FAST).value
    assert total == pytest.approx(li(1e9), rel=1e-6)


def test_skip_prediction_formula():
    q, a, b, k, x = 5, 1, 2, 3, 1e10
    row = skip_prediction(q, a, b, k, x)
    _, c2s = skip_coefficient(q, k, equal=False)
    assert row.value == pytest.approx(
        li(x) / 16 * (1 + c2s / math.log(x)), rel=1e-12)
    row_eq = skip_prediction(5, 2, 2, 2, x)
    _, c2e = skip_coefficient(5, 2, equal=True)
    assert row_eq.value == pytest.approx(
        li(x) / 16 * (1 + c2e / math.log(x)), rel=1e-12)


def test_always_bias_difference():
    x = 1e9
    want = x / (4 * math.log(x) ** 2) * math.log(2 * math.pi * math.log(x) / 3)
    assert always_bias_difference(3, x) == pytest.approx(want, rel=1e-12)
    assert always_bias_difference(3, x) > 0
    with pytest.raises(ValueError):
        always_bias_difference(5, x)


def test_quad_residue_sum_prediction():
    x = 1e9
    want = -x / (2 * math.log(x) ** 2) * math.log(2 * math.pi * math.log(x) / 5)
    assert quad_residue_sum_prediction(5, x) == pytest.approx(want, rel=1e-12)
    assert quad_residue_sum_prediction(3, x) < 0
    with pytest.raises(ValueError):
        quad_residue_sum_prediction(4, x)
    with pytest.raises(ValueError):
        quad_residue_sum_prediction(9, x)
