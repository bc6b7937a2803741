"""Generating-function layer: diagonal extraction, series vs contour."""
from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ulam_moments import exact_core, genfun
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


def test_diag_table_is_exact_quotient() -> None:
    """Every entry of the 91 x 161 table is A(N, j) / 16^N rounded once."""
    tab = genfun.diag_table()
    assert tab.shape == (91, 161)
    for N in range(91):
        for j in range(161):
            assert tab[N, j] == exact_core.a_array(N, j) / 16**N, (N, j)


def test_diag_table_exact_region_stitch() -> None:
    """The low corner of the table scales back to the integers A(N, j)."""
    tab = genfun.diag_table()
    for N in range(0, 9):
        for j in range(0, 7):
            want = exact_core.a_array(N, j)
            assert tab[N, j] * 16**N == pytest.approx(want, rel=1e-15)


def test_float_recursion_matches_exact_integers() -> None:
    """A table rebuilt from a cleared cache is read-only and matches the
    exact quotients."""
    genfun.diag_table.cache_clear()
    raw = genfun.diag_table()
    assert raw.shape == (91, 161)
    assert not raw.flags.writeable
    for N in range(13):
        for j in range(9):
            assert raw[N, j] == exact_core.a_array(N, j) / 16**N, (N, j)


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


def test_alpha_series_partial_sum_oracle() -> None:
    """The series against the literal exact double sum over its rectangle
    N <= 90, j <= 160, in integers over the common denominator
    q^180 s^160 of x = p/q and w = r/s."""
    A = [[exact_core.a_array(N, j) for j in range(161)] for N in range(91)]
    for x, w in [(0.1, 0.3), (0.05, 0.5), (0.2, 0.0)]:
        got = genfun.alpha_series(w, x)
        (p, q), (r, s) = x.as_integer_ratio(), w.as_integer_ratio()
        xs = [p ** (2 * N) * q ** (180 - 2 * N) for N in range(91)]
        ws = [r**j * s ** (160 - j) for j in range(161)]
        num = sum(xs[N] * sum(A[N][j] * ws[j] for j in range(161)) for N in range(91))
        want = Fraction(num, q**180 * s**160)
        assert got == pytest.approx(float(want), rel=1e-13)


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
        assert abs(series - reference) <= trunc.tail_bound + 1e-10


def _scalar_loop_series(w: float, x: float) -> tuple[float, float]:
    """(alpha_series, tail_bound) by the earlier scalar loop over the rows,
    kept here as the pin of the vectorised tail."""

    def geom_tail(last: float, ratio: float) -> float:
        if last == 0.0:
            return 0.0
        if ratio >= 0.97:
            return math.inf
        return last * ratio / (1 - ratio)

    tab = genfun.diag_table()
    base = (16.0 * x * x) ** np.arange(genfun._N_MAX + 1)
    shells = (tab @ w ** np.arange(genfun._J_MAX + 1)) * base
    n_tail = 0.0
    if shells[-2] > 0:
        n_tail = geom_tail(float(shells[-1]), float(shells[-1] / shells[-2]))
    j_tail = 0.0
    if w > 0:
        last_col = tab[:, -1] * w ** genfun._J_MAX * base
        prev_col = tab[:, -2] * w ** (genfun._J_MAX - 1) * base
        for lc, pc in zip(last_col, prev_col):
            if pc > 0:
                j_tail += geom_tail(float(lc), float(lc / pc))
    return float(shells.sum()), n_tail + j_tail


def test_alpha_series_tail_is_the_scalar_loop_bit_for_bit() -> None:
    """On 2,000 seeded points, w = 0 and the four points where the tail
    estimate is exceeded, the value and tail_bound equal the scalar loop's
    bit for bit, infinite tails included."""
    rng = random.Random(2025)
    points = [(0.0, 0.1), (0.3, 0.22), (0.4, 0.2), (0.5, 0.18), (0.535, 0.1768)]  # (w, x)
    for _ in range(2000):
        x = rng.uniform(0, 0.24)
        points.append((rng.uniform(0, math.sqrt(1 - 4 * x)), x))
    infinite = 0
    for w, x in points:
        trunc = SeriesTruncation()
        got = genfun.alpha_series(w, x, trunc)
        want, tail = _scalar_loop_series(w, x)
        assert (got, trunc.tail_bound) == (want, tail), (w, x)
        assert type(trunc.tail_bound) is float
        infinite += math.isinf(tail)
    assert 0 < infinite < len(points)


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
