"""Bonferroni brackets, Stirling approximation, ratio tables, Chebyshev bounds."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from ulam_moments import bounds, exact_core, perm_oracle
from ulam_moments import elliptic_engine as ee


# ---------------------------------------------------------------- Bonferroni


def test_bracket_worked_example() -> None:
    """(n,k,r) = (4,2,1): T(1) = E[Z] = 3 bounds above, T(2) = 3 - E[C(Z,2)]
    = -13/12 below, and the exact tail is 23/24 (only 4321 has Z = 0)."""
    br = bounds.bonferroni_bracket(4, 2, 1, R_even=2, R_odd=1)
    assert br.upper == 3
    assert br.lower == Fraction(-13, 12)
    assert br.exact == Fraction(23, 24)
    assert br.lower <= br.exact <= br.upper


def test_bracket_three_two() -> None:
    br = bounds.bonferroni_bracket(3, 2, 1, R_even=2, R_odd=3)
    assert br.exact == Fraction(5, 6)
    assert br.lower <= Fraction(5, 6) <= br.upper


def _parity_pairs(r: int) -> list[tuple[int, int]]:
    first_even = r if r % 2 == 0 else r + 1
    first_odd = r if r % 2 == 1 else r + 1
    return [
        (first_even, first_odd),
        (first_even + 2, first_odd),
        (first_even, first_odd + 2),
        (first_even + 2, first_odd + 2),
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_bracketing_inequalities(n: int) -> None:
    """lower <= P(Z >= r) <= upper for every truncation parity pair (small n
    here; the acceptance suite extends to n = 7)."""
    for k in range(1, n + 1):
        for r in (1, 2, 3):
            for R_even, R_odd in _parity_pairs(r):
                br = bounds.bonferroni_bracket(n, k, r, R_even, R_odd)
                assert br.lower <= br.exact <= br.upper


@pytest.mark.parametrize("n", range(2, 6))
def test_pie_closure_at_full_depth(n: int) -> None:
    """Truncating at the full support depth recovers the exact probability
    from both parities: inclusion-exclusion closes."""
    for k in range(1, n + 1):
        full = math.comb(n, k)
        for r in (1, 2, 3):
            R_even = full if full % 2 == 0 else full + 1
            R_odd = full if full % 2 == 1 else full + 1
            if R_even < r or R_odd < r:
                continue
            br = bounds.bonferroni_bracket(n, k, r, R_even, R_odd)
            assert br.lower == br.upper == br.exact


def test_bracket_guards() -> None:
    with pytest.raises(ValueError):
        bounds.bonferroni_bracket(4, 2, 0, 2, 1)
    with pytest.raises(ValueError):
        bounds.bonferroni_bracket(4, 2, 1, 3, 1)  # R_even odd
    with pytest.raises(ValueError):
        bounds.bonferroni_bracket(4, 2, 1, 2, 2)  # R_odd even
    with pytest.raises(ValueError):
        bounds.bonferroni_bracket(4, 2, 3, 2, 3)  # R_even below r


# ------------------------------------------------------------------ Stirling


REGIME_GRID = [(100, 5), (400, 10), (2500, 50), (10000, 100)]


@pytest.mark.parametrize("n,k", REGIME_GRID)
def test_stirling_log_first_moment_accuracy(n: int, k: int) -> None:
    approx, _ = bounds.stirling_log_first_moment(n, k)
    truth = math.log(math.comb(n, k)) - math.log(math.factorial(k))
    assert abs(approx - truth) / abs(truth) <= 0.02


def test_stirling_remainder_decays() -> None:
    _, delta = bounds.stirling_log_first_moment(10000, 10)
    assert abs(delta) < 1e-2


def test_stirling_guards() -> None:
    with pytest.raises(ValueError):
        bounds.stirling_log_first_moment(100, 99)  # k/n too close to 1
    with pytest.raises(ValueError):
        bounds.stirling_log_first_moment(100, 100)
    with pytest.raises(ValueError):
        bounds.stirling_log_first_moment(5, 0)


# --------------------------------------------------------------- ratio table


def test_ratio_table_values() -> None:
    rows = bounds.ratio_table([(4, 2)])
    assert rows[0].ratio == pytest.approx(67 / 54, rel=1e-15)
    for n in (2, 10, 1000):
        assert bounds.ratio_table([(n, 1)])[0].ratio == 1.0
    # Z_{n,n} is the identity's indicator, so E[Z^2] / E[Z]^2 = n!
    assert bounds.ratio_table([(80, 80)])[0].ratio == float(math.factorial(80))


def test_ratio_table_nonnegative_variance() -> None:
    rows = bounds.ratio_table([(30, k) for k in range(2, 7)])
    for row in rows:
        assert math.isfinite(row.ratio)
        assert row.ratio >= 1


def test_ratio_table_is_the_rounded_exact_ratio() -> None:
    """The integer route equals float() of the plain term-by-term ratio
    sum_i A(k-i, i) B(n, 2k-i) / E[Z]^2 bit for bit: on every
    1 <= k <= n <= 60, on the default grid of scripts/run_ratio_table.py
    and at the largest guarded n."""
    pairs = [(n, k) for n in range(1, 61) for k in range(1, n + 1)]
    for n in (100, 225, 400, 900):
        for p in (0.2, 0.3, 0.4, 0.5):
            k = max(1, round(n**p))
            if k < n:
                pairs.append((n, k))
    pairs.append((10**6, 1000))
    for row, (n, k) in zip(bounds.ratio_table(pairs), pairs):
        plain = sum(
            exact_core.a_array(k - i, i) * exact_core.b_coefficient(n, 2 * k - i)
            for i in range(k + 1)
        )
        assert (row.n, row.k) == (n, k)
        assert row.ratio == float(plain / exact_core.first_moment(n, k) ** 2), (n, k)


def test_ratio_table_guards(monkeypatch) -> None:
    with pytest.raises(ValueError):
        bounds.ratio_table([(2 * 10**6, 2)])
    for n, k in ((5, 0), (3, 4), (0, 1)):
        with pytest.raises(ValueError):
            bounds.ratio_table([(n, k)])
    with pytest.raises(OverflowError):  # 200! exceeds the float range
        bounds.ratio_table([(200, 200)])
    real = exact_core._moment_horner
    # ratio(n, 1) is exactly 1, so one unit less in H is a negative variance
    monkeypatch.setattr(bounds, "_moment_horner", lambda n, k: real(n, k) - 1)
    with pytest.raises(ArithmeticError):
        bounds.ratio_table([(10, 1)])
    monkeypatch.setattr(bounds, "_moment_horner", lambda n, k: real(n, k) // 2)
    with pytest.raises(ArithmeticError):
        bounds.ratio_table([(30, 3)])


# ----------------------------------------------------------- Chebyshev bound


def test_chebyshev_bound_examples() -> None:
    slack = 1 - 1e-9
    for N, j in [(1, 0), (1, 1), (6, 3)]:
        bound, (x_star, w_star) = bounds.chebyshev_a_bound(N, j)
        exact = exact_core.a_array(N, j)
        assert math.isfinite(bound)
        assert bound >= exact * slack
        assert 0 < x_star < bounds.X_MAX
        assert 4 * x_star + w_star * w_star < 1
        if j > 0:
            assert w_star > 0
        else:
            assert w_star == 0.0


@pytest.fixture(scope="module")
def old_search_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 40 x 40 log grid that seeded the former Nelder-Mead search, as an
    oracle: alpha on x by w (+inf where infeasible) and on the w = 0 column."""
    xs = np.geomspace(0.005, bounds.X_MAX - 1e-4, 40)
    ws = np.geomspace(1e-3, 0.97, 40)
    vals = np.array(
        [[ee.alpha_closed(w, x) if 4 * x + w * w < 1 else np.inf for w in ws] for x in xs]
    )
    return xs, ws, vals, np.array([ee.alpha_closed(0.0, x) for x in xs])


def test_chebyshev_bound_beats_old_grid_and_is_a_local_minimum(old_search_grid) -> None:
    """On N <= 10, j <= 6: at or below the old grid's minimum, equal to the
    ratio at its own feasible point, and no feasible neighbour one 1e-3 log
    step away in x, w or both is lower."""
    xs, ws, vals, col = old_search_grid
    for N in range(1, 11):
        for j in range(7):
            bound, (x, w) = bounds.chebyshev_a_bound(N, j)
            if j == 0:
                grid_min = np.min(col / xs ** (2 * N))
            else:
                grid_min = np.min(vals / np.outer(xs ** (2 * N), ws**j))
            assert bound <= grid_min * (1 + 1e-12), (N, j)
            assert 0 < x <= bounds.X_MAX and w * w < 1 - 4 * x
            assert w > 0 if j else w == 0.0

            def ratio(w_: float, x_: float) -> float:
                return ee.alpha_closed(w_, x_) / (w_**j * x_ ** (2 * N))

            assert bound == pytest.approx(ratio(w, x), rel=1e-13, abs=0)
            for a in (-1, 0, 1) if j else (0,):
                for b in (-1, 0, 1):
                    wn, xn = w * math.exp(1e-3 * a), x * math.exp(1e-3 * b)
                    if (a or b) and xn <= bounds.X_MAX and wn * wn < 1 - 4 * xn:
                        assert ratio(wn, xn) >= bound * (1 - 1e-12), (N, j, a, b)


def test_chebyshev_saddle_start_is_feasible() -> None:
    """The start 4 x0 + w0^2 = 1 - 1/(1 + 4N + j) < 1, x0 <= X_MAX, on
    N, j <= 300, and w0 = 0 exactly at j = 0."""
    for N in range(1, 301):
        for j in range(301):
            x0, w0 = bounds._saddle_start(N, j)
            assert 0 < x0 <= bounds.X_MAX and 4 * x0 + w0 * w0 < 1, (N, j)
            assert w0 > 0 if j else w0 == 0.0


def test_chebyshev_evaluation_budget(monkeypatch) -> None:
    """From the saddle start with 5 new evaluations per Newton step, the
    70 cells N <= 10, j <= 6 take at most 2,300 alpha_closed calls (4,198
    from the fixed start (0.3, 0.1) with a 9-point stencil), and the search
    starts at the saddle point."""
    calls: list[tuple[float, float]] = []

    def counted(w: float, x: float) -> float:
        calls.append((w, x))
        return ee.alpha_closed(w, x)

    monkeypatch.setattr(bounds, "alpha_closed", counted)
    for N in range(1, 11):
        for j in range(7):
            start = len(calls)
            bounds.chebyshev_a_bound(N, j)
            x0, w0 = bounds._saddle_start(N, j)
            if x0 < bounds.X_MAX:
                assert calls[start] == pytest.approx((w0, x0), rel=1e-15), (N, j)
    assert len(calls) <= 2300


def test_chebyshev_guards() -> None:
    with pytest.raises(ValueError):
        bounds.chebyshev_a_bound(0, 1)
    with pytest.raises(ValueError):
        bounds.chebyshev_a_bound(2, -1)


# --------------------------------------------------- cross-module spot check


def test_bracket_depths_use_oracle_moments() -> None:
    """T(R) rebuilt literally from factorial moments must match the bracket."""
    n, k, r = 5, 2, 2
    br = bounds.bonferroni_bracket(n, k, r, R_even=4, R_odd=3)
    t3 = sum(
        (-1) ** (s - r) * math.comb(s - 1, r - 1) * perm_oracle.factorial_moment(n, k, s)
        for s in range(r, 4)
    )
    t4 = sum(
        (-1) ** (s - r) * math.comb(s - 1, r - 1) * perm_oracle.factorial_moment(n, k, s)
        for s in range(r, 5)
    )
    # R - r odd gives the lower endpoint, even the upper
    assert br.lower == t3
    assert br.upper == t4
