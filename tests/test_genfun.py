"""Generating-function layer: diagonal extraction, series vs contour."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
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


def test_diagonal_extract_laurent_polynomial() -> None:
    """The contour mean of a Laurent polynomial is its constant coefficient."""
    val = genfun.diagonal_extract(lambda xi: 5 + 2 * xi**3 - 7 / xi**2)
    assert val == pytest.approx(5.0, abs=1e-13)


def test_diagonal_extract_central_binomial() -> None:
    """diag of 1/(1 - x xi - y/xi) is sum C(2n,n)(xy)^n = (1-4xy)^(-1/2)."""
    for x, y in [(0.1, 0.2), (0.15, 0.3)]:
        val = genfun.diagonal_extract(lambda xi: 1 / (1 - x * xi - y / xi))
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real == pytest.approx(1 / math.sqrt(1 - 4 * x * y), rel=1e-11)


def test_nested_diagonal_reproduces_squared_kernel() -> None:
    """The two-variable double diagonal of k(x xi, y zeta) k(x/xi, y/zeta),
    k(u, v) = 1/(1 - u - v), is the squared-kernel diagonal
    1/sqrt((1 - u - v)^2 - 4uv) at u = x^2, v = y^2."""
    x, y = 0.1, 0.2

    def outer(zeta: complex) -> complex:
        return genfun.diagonal_extract(
            lambda xi: 1 / ((1 - x * xi - y * zeta) * (1 - x / xi - y / zeta))
        )

    val = genfun.diagonal_extract(outer)
    u, v = x * x, y * y
    want = 1 / math.sqrt((1 - u - v) ** 2 - 4 * u * v)
    assert val.real == pytest.approx(want, rel=1e-10)
    assert val.imag == pytest.approx(0.0, abs=1e-10)


def test_diagonal_extract_cap_raises(monkeypatch) -> None:
    monkeypatch.setattr(genfun, "_CONTOUR_MAX_NODES", genfun._CONTOUR_NODES)
    with pytest.raises(ArithmeticError, match="within 64 nodes"):
        genfun.diagonal_extract(lambda xi: 1 / (xi - 1.0001))


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
    monkeypatch.setattr(genfun, "_CONTOUR_MAX_NODES", genfun._CONTOUR_NODES)
    with pytest.raises(ArithmeticError):
        genfun.alpha_contour(0.1, 0.2)


def _alpha_mpmath(w: float, x: float) -> float:
    """(1/pi) int_0^pi dtheta / (sqrt((1 - 2x cos)^2 - 4x^2) - w) at 30 digits."""
    with mpmath.workdps(30):
        w, x = mpmath.mpf(w), mpmath.mpf(x)

        def f(th):
            return 1 / (mpmath.sqrt((1 - 2 * x * mpmath.cos(th)) ** 2 - 4 * x * x) - w)

        pi = mpmath.pi
        return float(mpmath.quad(f, [0, pi / 4, pi / 2, pi]) / pi)


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


def test_alpha_contour_near_curve_is_right_or_raises() -> None:
    """Closer to the curve than the contour's floor, it raises rather than
    return a wrong number."""
    for eps in (1e-6, 1e-8):
        for x in (0.001, 0.24):
            w = math.sqrt(1 - 4 * x - eps)
            try:
                got = genfun.alpha_contour(w, x)
            except ArithmeticError:
                continue
            want = _alpha_mpmath(w, x)
            assert abs(got - want) <= 1e-9 * max(1.0, want), (w, x)


def test_alpha_contour_large_alpha_keeps_relative_imag_test() -> None:
    """Where alpha is in the thousands, an imaginary part of 1e-10 is
    rounding, not a failed contour: the value is returned, and it is right."""
    x = 0.001
    for eps in (1e-6, 1e-5):
        w = math.sqrt(1 - 4 * x - eps)
        want = _alpha_mpmath(w, x)
        assert abs(genfun.alpha_contour(w, x) - want) <= 1e-9 * want, eps


def test_alpha_contour_unmapped_where_singularity_is_far() -> None:
    """Where the nearest singularity is at least 1/4 from the real theta
    axis the nodes stay equispaced in theta: the value is exactly the plain
    contour mean."""
    for w, x in [(0.0, 0.0), (0.3, 0.1), (0.1, 0.2), (0.5, 0.05), (0.0, 0.15)]:
        val = genfun.diagonal_extract(
            lambda xi: 1 / (principal_sqrt(q1_eval(x, xi) / (xi * xi)) - w)
        )
        assert genfun.alpha_contour(w, x) == val.real
