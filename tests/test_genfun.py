"""Generating-function layer: diagonal extraction, series vs contour."""
from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ulam_moments import exact_core, genfun, walk_lab
from ulam_moments.elliptic_engine import alpha_closed, q1_eval
from ulam_moments.genfun import SeriesTruncation, principal_sqrt

# (x, w) pairs spanning the feasible region 4x + w^2 < 1
POINTS = [(0.02, 0.0), (0.05, 0.1), (0.1, 0.3), (0.15, 0.5), (0.2, 0.1), (0.2, 0.3)]


# ------------------------------------------------------------ principal sqrt


@given(st.complex_numbers(max_magnitude=50, allow_nan=False, allow_infinity=False))
def test_principal_sqrt_round_trip(z: complex) -> None:
    r = principal_sqrt(z)
    assert r * r == pytest.approx(z, rel=1e-12, abs=1e-12)


def test_principal_sqrt_branch_convention() -> None:
    assert principal_sqrt(9) == 3
    assert principal_sqrt(0) == 0
    assert principal_sqrt(-4) == 2j
    # negative zero imaginary part must not flip the branch
    assert principal_sqrt(complex(-4.0, -0.0)) == 2j
    assert principal_sqrt(complex(-4.0, 0.0)) == 2j


@given(st.floats(min_value=0.01, max_value=100))
def test_principal_sqrt_nonnegative_imag_on_cut(t: float) -> None:
    assert principal_sqrt(-t).imag > 0
    assert principal_sqrt(-t).real == 0


# ------------------------------------------------------- diagonal extraction


def diagonal_extract(f: Callable[[complex], complex], max_nodes: int = 1 << 18) -> complex:
    """Mean of f over the unit circle |xi| = 1, i.e. (1/2 pi i) * closed
    integral of f(xi) dxi / xi: the constant Fourier coefficient, so for f
    built from a product of power series in xi and 1/xi it extracts the
    diagonal. The complex-contour oracle of alpha_contour: from 64 nodes it
    doubles, reusing every evaluation, until two levels agree to 1e-12, and
    raises ArithmeticError past max_nodes."""
    n = 64
    step = 2 * math.pi / n
    total = sum(f(cmath.exp(1j * k * step)) for k in range(n))
    prev = total / n
    while n < max_nodes:
        total += sum(f(cmath.exp(1j * (k + 0.5) * step)) for k in range(n))
        n *= 2
        step /= 2
        cur = total / n
        if abs(cur - prev) <= 1e-12 * (1 + abs(cur)):
            return cur
        prev = cur
    raise ArithmeticError(f"contour mean did not converge within {max_nodes} nodes")


def test_diagonal_extract_laurent_polynomial() -> None:
    """The contour mean of a Laurent polynomial is its constant coefficient."""
    val = diagonal_extract(lambda xi: 5 + 2 * xi**3 - 7 / xi**2)
    assert val == pytest.approx(5.0, abs=1e-13)


def test_diagonal_extract_central_binomial() -> None:
    """diag of 1/(1 - x xi - y/xi) is sum C(2n,n)(xy)^n = (1-4xy)^(-1/2)."""
    for x, y in [(0.1, 0.2), (0.15, 0.3)]:
        val = diagonal_extract(lambda xi: 1 / (1 - x * xi - y / xi))
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real == pytest.approx(1 / math.sqrt(1 - 4 * x * y), rel=1e-11)


def test_nested_diagonal_reproduces_squared_kernel() -> None:
    """The two-variable double diagonal of k(x xi, y zeta) k(x/xi, y/zeta),
    k(u, v) = 1/(1 - u - v), is the squared-kernel diagonal
    1/sqrt((1 - u - v)^2 - 4uv) at u = x^2, v = y^2."""
    x, y = 0.1, 0.2

    def outer(zeta: complex) -> complex:
        return diagonal_extract(
            lambda xi: 1 / ((1 - x * xi - y * zeta) * (1 - x / xi - y / zeta))
        )

    val = diagonal_extract(outer)
    u, v = x * x, y * y
    want = 1 / math.sqrt((1 - u - v) ** 2 - 4 * u * v)
    assert val.real == pytest.approx(want, rel=1e-10)
    assert val.imag == pytest.approx(0.0, abs=1e-10)


def test_diagonal_extract_cap_raises() -> None:
    with pytest.raises(ArithmeticError, match="within 64 nodes"):
        diagonal_extract(lambda xi: 1 / (xi - 1.0001), max_nodes=64)


# ---------------------------------------------------------------- the table


@lru_cache(maxsize=None)
def _forward_differences(N: int) -> tuple[int, ...]:
    """D(N, 0..2N+2): the forward differences at 0 of exact_core.a_array(N, .)."""
    row = [exact_core.a_array(N, j) for j in range(2 * N + 3)]
    out = []
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return tuple(out)


def test_diff_row_is_the_forward_differences() -> None:
    """For every N <= 90, the table's whole range, the recurrence gives the
    forward differences of A(N, .) exactly; all are nonnegative, and those
    past m = 2N vanish, as A(N, .) has degree 2N."""
    for N in range(91):
        want = _forward_differences(N)
        assert genfun._diff_row(N) == list(want[:2 * N + 1]), N
        assert want[2 * N + 1:] == (0, 0), N
        assert min(want) >= 0, N


def test_diff_row_is_the_walk_route() -> None:
    """D(N, m) = sum_tau h_N(tau) C(tau - 1, m), h_N the occupation-count
    histogram of the returning walks: why every D(N, m) is nonnegative."""
    for N in range(13):
        hist = walk_lab.enumerate_walks(N)
        want = [sum(h * math.comb(tau - 1, m) for tau, h in enumerate(hist) if tau)
                for m in range(2 * N + 3)]
        assert genfun._diff_row(N) + [0, 0] == want, N


def test_diag_table_is_exact_quotient() -> None:
    """Every entry of the (182, 91) table is D(N, m) / 16^N rounded once,
    at [m, N - ceil(m/2)], and the other entries are zero."""
    tab = genfun.diag_table()
    assert tab.shape == (182, 91)
    want = np.zeros((182, 91))
    for N in range(91):
        for m, d in enumerate(_forward_differences(N)[:2 * N + 1]):
            want[m, N - (m + 1) // 2] = d / 16**N
    assert np.array_equal(tab, want)
    assert np.count_nonzero(tab) == 91 * 91


def test_diag_table_exact_region_stitch() -> None:
    """The low corner of the table rebuilds the integers A(N, j) as
    16^N sum_m tab[m, N - ceil(m/2)] C(j, m)."""
    tab = genfun.diag_table()
    for N in range(9):
        for j in range(7):
            got = sum(tab[m, N - (m + 1) // 2] * math.comb(j, m) for m in range(2 * N + 1))
            assert got * 16**N == pytest.approx(exact_core.a_array(N, j), rel=1e-15), (N, j)


def test_float_recursion_matches_exact_integers() -> None:
    """A table rebuilt from a cleared cache is read-only and matches the
    exact quotients."""
    genfun.diag_table.cache_clear()
    raw = genfun.diag_table()
    assert raw.shape == (182, 91)
    assert not raw.flags.writeable
    for N in range(13):
        for m, d in enumerate(_forward_differences(N)[:2 * N + 1]):
            assert raw[m, N - (m + 1) // 2] == d / 16**N, (N, m)


def test_diag_table_builds_rows_without_per_entry_closed_form(monkeypatch) -> None:
    """A fresh table evaluates the closed form at most twice per row; the
    other entries come from the row recurrence."""
    calls = 0
    closed_form = exact_core.a_array

    def counted(N: int, j: int) -> int:
        nonlocal calls
        calls += 1
        return closed_form(N, j)

    monkeypatch.setattr(exact_core, "a_array", counted)
    genfun.diag_table.cache_clear()
    try:
        genfun.diag_table()
        assert calls <= 2 * 91
    finally:
        genfun.diag_table.cache_clear()


# -------------------------------------------------------------------- alpha


def _rows_enclosure(w: Fraction, x: Fraction) -> tuple[Fraction, Fraction]:
    """(S, T) exact, with S <= alpha(w, x) <= S + T. S is the sum of the
    rows N <= 90, each in closed form,
    x^(2N) sum_m D(N, m) q^m / (1 - w), q = w/(1 - w), with D from
    exact_core.a_array; T is the rows majorant (4x/(1 - s'^2))^182 / (s' - w)
    at a rational s' just below the minimiser of _tail_bound, from
    math.isqrt. It needs w < s' < sqrt(1 - 4x)."""
    M = 91
    (a, b), (c, d) = x.as_integer_ratio(), w.as_integer_ratio()
    e = d - c
    cm = [c**m * e ** (2 * M - 2 - m) for m in range(2 * M - 1)]
    total = sum(a ** (2 * N) * b ** (2 * M - 2 - 2 * N)
                * sum(D * cm[m] for m, D in enumerate(_forward_differences(N)[:2 * N + 1]))
                for N in range(M))
    S = Fraction(d * total, e ** (2 * M - 1) * b ** (2 * M - 2))
    R = (4 * M * w) ** 2 + 16 * M + 4
    K = 2**64
    r = Fraction(math.isqrt(R.numerator * K * K // R.denominator), K)
    s1 = (4 * M * w + r) / (8 * M + 2)
    assert w < s1 and 4 * x < 1 - s1 * s1, (w, x)
    return S, (4 * x / (1 - s1 * s1)) ** (2 * M) / (s1 - w)


# (w, x) on the rational grid with 1 - 4x - w^2 >= 1/20
ENCLOSURE_GRID = [(w, x) for x in map(Fraction, ("0", "1/100", "1/20", "1/10", "3/20",
                                                  "1/5", "11/50", "6/25"))
                  for w in map(Fraction, ("0", "1/10", "3/10", "1/2", "7/10", "9/10"))
                  if 1 - 4 * x - w * w >= Fraction(1, 20)]


def test_alpha_series_partial_sum_oracle() -> None:
    """A certified enclosure: on the rational grid every route lies in
    [S, S + T] from _rows_enclosure, up to 1e-15 S of rounding, and
    tail_bound covers alpha - series by as much."""
    assert {(Fraction(3, 10), Fraction(1, 10)), (Fraction(1, 2), Fraction(3, 20)),
            (Fraction(9, 10), Fraction(1, 100)), (Fraction(1, 10), Fraction(11, 50))} \
        <= set(ENCLOSURE_GRID)
    for wq, xq in ENCLOSURE_GRID:
        S, T = _rows_enclosure(wq, xq)
        lo, hi, tol = float(S), float(S + T), 1e-15 * float(S)
        w, x = float(wq), float(xq)
        trunc = SeriesTruncation()
        series = genfun.alpha_series(w, x, trunc)
        routes = [series, genfun.alpha_contour(w, x)] + ([alpha_closed(w, x)] if x else [])
        for got in routes:
            assert lo - tol <= got <= hi + tol, (w, x, got, lo, hi)
        assert max(routes) - series <= trunc.tail_bound + tol, (w, x)


def test_alpha_series_row_zero_is_geometric() -> None:
    """At x = 0 only the A(0, j) = 1 row survives: alpha = 1/(1 - w)."""
    assert genfun.alpha_series(0.5, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert genfun.alpha_series(0.0, 0.0) == 1.0


def test_alpha_routes_agree_on_grid() -> None:
    for x, w in POINTS:
        trunc = SeriesTruncation()
        series = genfun.alpha_series(w, x, trunc)
        contour = genfun.alpha_contour(w, x)
        assert trunc.tail_bound is not None and math.isfinite(trunc.tail_bound)
        assert abs(series - contour) < max(1e-10, trunc.tail_bound)
        assert abs(contour - alpha_closed(w, x)) < 1e-9


def test_alpha_series_tail_bound_is_honest() -> None:
    """Reported truncation bound dominates the actual truncation error,
    measured against the closed-form route."""
    for x, w in POINTS:
        trunc = SeriesTruncation()
        series = genfun.alpha_series(w, x, trunc)
        reference = alpha_closed(w, x)
        assert abs(series - reference) <= trunc.tail_bound + 1e-14 * (1 + reference)


# (w, x): the benchmark's four series fault points and the point where the
# earlier measured-ratio estimate read 0.733 against an error of 2.94
SERIES_FAULTS = [(0.3, 0.22), (0.4, 0.2), (0.5, 0.18), (0.535, 0.1768), (0.5375, 0.1768)]


def _tail_points() -> list[tuple[float, float]]:
    """(w, x): the faults, the edges (x = 0, w = 0, x = 0.2499, and
    1 - 4x - w^2 = 1e-15) and 800 seeded points, 450 uniform on the domain
    up to x = 0.24, 225 at 1 - 4x - w^2 = 10^U(-4, -1) and 125 with
    w >= 0.9 sqrt(1 - 4x)."""
    pts = SERIES_FAULTS + [(0.65, 0.1), (0.0, 0.0), (0.5, 0.0), (0.999, 0.0), (0.0, 0.1),
                           (0.0, 0.2499), (0.01, 0.2499), (0.0, 0.24)]
    pts += [(math.sqrt(1 - 4 * x - 1e-15), x) for x in (0.001, 0.1, 0.24)]
    rng = random.Random(2801)
    for _ in range(450):
        x = rng.uniform(0, 0.24)
        pts.append((rng.uniform(0, math.sqrt(1 - 4 * x)), x))
    for _ in range(225):
        x = rng.uniform(0, 0.24)
        pts.append((math.sqrt(1 - 4 * x - 10 ** rng.uniform(-4, -1)), x))
    for _ in range(125):
        x = rng.uniform(0, 0.24)
        s = math.sqrt(1 - 4 * x)
        pts.append((rng.uniform(0.9 * s, s), x))
    return pts


def test_alpha_series_tail_bound_holds() -> None:
    """At every point of _tail_points tail_bound is finite and bounds the
    series' error against alpha_closed (1/(1 - w) at x = 0, the mpmath
    quadrature above x = 0.24), up to 1e-14 (1 + alpha) of rounding; 40 of
    the points, the faults first, are also checked against the quadrature."""
    pts = _tail_points()
    for w, x in pts:
        trunc = SeriesTruncation()
        series = genfun.alpha_series(w, x, trunc)
        if x == 0:
            ref = 1 / (1 - w)
        elif x > 0.24:
            ref = _alpha_mpmath(w, x, peak=True)
        else:
            ref = alpha_closed(w, x)
        assert math.isfinite(trunc.tail_bound), (w, x)
        assert abs(series - ref) <= trunc.tail_bound + 1e-14 * (1 + ref), (w, x)
    for w, x in SERIES_FAULTS + pts[-800::23]:  # the faults and 35 seeded points
        trunc = SeriesTruncation()
        series = genfun.alpha_series(w, x, trunc)
        ref = _alpha_mpmath(w, x, peak=True)
        assert abs(series - ref) <= trunc.tail_bound + 1e-14 * (1 + ref), (w, x)


def test_alpha_series_exact_where_rows_vanish() -> None:
    """Where the dropped rows weigh below 1e-16, the series is the contour
    to 2e-15 (1 + alpha): no column is cut, up to w = 0.999 sqrt(1 - 4x),
    on seeded points with x <= 0.15, half of them with w >= 0.9 sqrt(1 - 4x)."""
    rng = random.Random(3201)
    checked = 0
    for k in range(400):
        x = rng.uniform(0, 0.15)
        s = math.sqrt(1 - 4 * x)
        w = rng.uniform(0.9 * s if k % 2 else 0, 0.999 * s)
        trunc = SeriesTruncation()
        series = genfun.alpha_series(w, x, trunc)
        if trunc.tail_bound >= 1e-16:
            continue
        checked += 1
        contour = genfun.alpha_contour(w, x)
        assert abs(series - contour) <= 2e-15 * (1 + contour), (w, x, series, contour)
    assert checked >= 250


def _tail_bound_mpmath(w: float, x: float) -> float:
    """The tail bound as first written, at 30 digits: alpha <= 1/(s - w),
    s = sqrt(1 - 4x), so the rows weigh at most (x/x')^182 / (s' - w) at the
    positive root s' of 365 s'^2 - 364 w s' - 1, x' = (1 - s'^2)/4, or
    1/(s - w) where x' is not above x."""
    with mpmath.workdps(30):
        w, x = mpmath.mpf(w), mpmath.mpf(x)
        s1 = (364 * w + mpmath.sqrt((364 * w) ** 2 + 4 * 365)) / (2 * 365)
        x1 = (1 - s1 * s1) / 4
        if x1 > x:
            return float((x / x1) ** 182 / (s1 - w))
        return float(1 / (mpmath.sqrt(1 - 4 * x) - w))


@pytest.mark.parametrize("w,x", [
    (0.65, 0.1),  # the minimiser inside its interval
    (0.0, 0.2499),  # x' <= x: the bound is 1/(s - w)
    (0.999, 0.0),  # x = 0: no row weighs anything
    (math.sqrt(1 - 0.4 - 1e-4), 0.1),  # next to the curve
])
def test_alpha_series_tail_bound_closed_form(w: float, x: float) -> None:
    trunc = SeriesTruncation()
    genfun.alpha_series(w, x, trunc)
    want = _tail_bound_mpmath(w, x)
    assert abs(trunc.tail_bound - want) <= 1e-13 * want, (w, x)


def test_alpha_monotone_in_each_argument() -> None:
    for x, w in [(0.05, 0.1), (0.1, 0.3), (0.15, 0.2)]:
        base = genfun.alpha_series(w, x)
        assert genfun.alpha_series(w + 0.05, x) > base
        assert genfun.alpha_series(w, x + 0.01) > base


def test_alpha_domain_guards() -> None:
    for fn in (genfun.alpha_series, genfun.alpha_contour):
        with pytest.raises(ValueError):
            fn(-0.1, 0.1)
        with pytest.raises(ValueError):
            fn(0.1, -0.1)
        with pytest.raises(ValueError):
            fn(0.1, 0.25)
        with pytest.raises(ValueError):
            fn(0.95, 0.05)


@pytest.mark.parametrize("fn", [genfun.alpha_series, genfun.alpha_contour],
                         ids=["series", "contour"])
@pytest.mark.parametrize("w,x", [(0.1, math.nan), (math.nan, 0.1), (math.nan, math.nan)])
def test_alpha_domain_refuses_nan(fn, w: float, x: float) -> None:
    """NaN fails every comparison, so the guards are written to fail on it:
    ValueError up front, not a NaN series sum or a contour run to its node cap."""
    with pytest.raises(ValueError, match="alpha needs"):
        fn(w, x)


def test_alpha_contour_cap_raises(monkeypatch) -> None:
    """The cap stops the doubling, after one level past the first here:
    at (w, x) = (0.1, 0.2) the 16- and 32-node means differ by about 1e-7."""
    cap = 2 * genfun._CONTOUR_NODES
    monkeypatch.setattr(genfun, "_CONTOUR_MAX_NODES", cap)
    with pytest.raises(ArithmeticError, match=f"within {cap} nodes"):
        genfun.alpha_contour(0.1, 0.2)


def _alpha_mpmath(w: float, x: float, dps: int = 30, peak: bool = False) -> float:
    """(1/pi) int_0^pi dtheta / (sqrt((1 - 2x cos)^2 - 4x^2) - w) at dps
    digits. With peak, breakpoints 10^-k (k = 1..14) sit next to theta = 0,
    where the integrand peaks near the curve."""
    with mpmath.workdps(dps):
        w, x = mpmath.mpf(w), mpmath.mpf(x)

        def f(th):
            return 1 / (mpmath.sqrt((1 - 2 * x * mpmath.cos(th)) ** 2 - 4 * x * x) - w)

        pi = mpmath.pi
        near = [mpmath.mpf(10) ** -k for k in range(14, 0, -1)] if peak else []
        return float(mpmath.quad(f, [0, *near, pi / 4, pi / 2, pi]) / pi)


def test_alpha_contour_early_stop_is_right(monkeypatch) -> None:
    """Where the contour stops at 32 or 64 nodes, after one or two doublings
    from its 16-node start, its value is within 1e-13 (relative above 1) of
    alpha_closed on seeded interior points, and a few of them are checked
    against the mpmath quadrature: two agreeing coarse levels are no false
    agreement."""
    rng = random.Random(2316)
    pts = [(0.0, rng.uniform(0.001, 0.24)) for _ in range(10)]
    for _ in range(50):
        x = rng.uniform(0.001, 0.24)
        pts.append((rng.uniform(0.0, 0.9 * math.sqrt(1 - 4 * x)), x))
    for cap in (32, 64):
        monkeypatch.setattr(genfun, "_CONTOUR_MAX_NODES", cap)
        stopped = []
        for w, x in pts:
            try:
                stopped.append((w, x, genfun.alpha_contour(w, x)))
            except ArithmeticError:
                continue
        assert len(stopped) >= 15, cap
        for w, x, got in stopped:
            want = alpha_closed(w, x)
            assert abs(got - want) <= 1e-13 * max(1.0, want), (cap, w, x)
        for w, x, got in stopped[::8]:
            want = _alpha_mpmath(w, x)
            assert abs(got - want) <= 1e-13 * max(1.0, want), (cap, w, x)


def test_alpha_contour_band_within_512_nodes(monkeypatch) -> None:
    """Next to the singular curve the mapped nodes converge within 512, and
    every value is within 1e-12 (relative above 1) of the mpmath quadrature."""
    monkeypatch.setattr(genfun, "_CONTOUR_MAX_NODES", 512)
    rng = random.Random(2014)
    pts = []
    for _ in range(48):  # x on [0.001, 0.24), 1 - 4x - w^2 = 10^U(-4, -2)
        x = rng.uniform(0.001, 0.24)
        pts.append((math.sqrt(1 - 4 * x - 10 ** rng.uniform(-4, -2)), x))
    pts += [(0.0, x) for x in (0.001, 0.1, 0.2, 0.24, 0.2499)]
    pts += [(w, x) for x, w in POINTS] + [(0.5, 0.05), (0.9, 0.0)]
    for w, x in pts:
        want = _alpha_mpmath(w, x)
        assert abs(genfun.alpha_contour(w, x) - want) <= 1e-12 * max(1.0, want), (w, x)


def test_alpha_routes_near_curve_match_mpmath() -> None:
    """Up to 1e-12 from the curve 4x + w^2 = 1, where alpha reaches 2e7,
    the contour and the closed form both return values within 1e-14
    (relative above 1) of the 40-digit quadrature; neither raises."""
    for eps in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        for x in (0.001, 0.1, 0.24):
            w = math.sqrt(1 - 4 * x - eps)
            want = _alpha_mpmath(w, x, dps=40, peak=True)
            for route in (genfun.alpha_contour, alpha_closed):
                got = route(w, x)
                assert abs(got - want) <= 1e-14 * max(1.0, want), (route.__name__, eps, x)


def test_curve_gap_to_a_few_ulps() -> None:
    """1 - 4x - w^2 against exact rationals, on and off the curve."""
    rng = random.Random(1971)
    for _ in range(400):
        x = rng.uniform(0.0, 0.25)
        w = math.sqrt(max(0.0, 1 - 4 * x - 10 ** rng.uniform(-16, 0)))
        want = 1 - 4 * Fraction(x) - Fraction(w) ** 2
        got = genfun._curve_gap(x, w)
        assert abs(Fraction(got) - want) <= 4 * 2.0**-53 * abs(want), (x, w)


def test_alpha_contour_large_alpha_is_right() -> None:
    """Where alpha is in the thousands the contour returns the right value."""
    x = 0.001
    for eps in (1e-6, 1e-5):
        w = math.sqrt(1 - 4 * x - eps)
        want = _alpha_mpmath(w, x)
        assert abs(genfun.alpha_contour(w, x) - want) <= 1e-9 * want, eps


def test_alpha_contour_unmapped_where_singularity_is_far() -> None:
    """Where the nearest singularity is at least 1/4 from the real theta
    axis the nodes stay equispaced in theta: the value is the plain complex
    contour mean to rounding."""
    for w, x in [(0.0, 0.0), (0.3, 0.1), (0.1, 0.2), (0.5, 0.05), (0.0, 0.15)]:
        val = diagonal_extract(
            lambda xi: 1 / (principal_sqrt(q1_eval(x, xi) / (xi * xi)) - w)
        )
        got = genfun.alpha_contour(w, x)
        assert abs(got - val.real) <= 4e-16 * max(1.0, got), (w, x)
