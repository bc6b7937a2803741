"""Exact-arithmetic core: combinatorial primitives, the A table, and moments.

Oracle discipline: every nontrivial value is checked against an independent
route (math.comb / math.factorial, literal composition enumeration, or the
brute-force permutation sweep), never against itself.
"""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulam_moments import exact_core, perm_oracle


# ---------------------------------------------------------------- primitives


@given(st.integers(min_value=0, max_value=80), st.integers(min_value=-5, max_value=85))
def test_binomial_matches_math_comb(n: int, k: int) -> None:
    want = math.comb(n, k) if 0 <= k <= n else 0
    assert exact_core.binomial(n, k) == want


@given(st.integers(min_value=2, max_value=60), st.data())
def test_binomial_pascal_recurrence(n: int, data: st.DataObject) -> None:
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    lhs = exact_core.binomial(n, k)
    assert lhs == exact_core.binomial(n - 1, k - 1) + exact_core.binomial(n - 1, k)


def test_binomial_rejects_negative_n() -> None:
    with pytest.raises(ValueError):
        exact_core.binomial(-1, 0)


def test_b_coefficient() -> None:
    assert exact_core.b_coefficient(5, 2) == Fraction(10, 2)
    assert exact_core.b_coefficient(5, 6) == 0
    assert exact_core.b_coefficient(5, 0) == 1
    assert exact_core.b_coefficient(5, -1) == 0
    with pytest.raises(ValueError, match="n >= 0"):
        exact_core.b_coefficient(-1, 0)


@pytest.mark.parametrize("l", range(7))
@pytest.mark.parametrize("m", range(7))
def test_kernel_square_identity(l: int, m: int) -> None:
    """The rearrangement sum (l+m)!/(n! n! (l-n)! (m-n)!) over n
    collapses to the kernel T(l, m) = C(l+m, l)^2."""
    f = math.factorial
    rearrangements = sum(
        f(l + m) // (f(n) ** 2 * f(l - n) * f(m - n)) for n in range(min(l, m) + 1)
    )
    assert exact_core.kernel(l, m) == rearrangements


# ------------------------------------------------------------------- A table


def k_array(L: int, M: int, j: int) -> int:
    """K(L, M, j): the (j+1)-fold truncated 2D self-convolution of the kernel,
    the sum over all pairs of compositions (l_0..l_j) of L and (m_0..m_j) of
    M of the product of T(l_r, m_r), by j repeated truncated convolutions."""
    T = [[exact_core.kernel(l, m) for m in range(M + 1)] for l in range(L + 1)]
    K = T
    for _ in range(j):
        K = _convolve_truncated(K, T, L, M)
    return K[L][M]


def _convolve_truncated(
    K: list[list[int]], T: list[list[int]], L: int, M: int
) -> list[list[int]]:
    out = [[0] * (M + 1) for _ in range(L + 1)]
    for a in range(L + 1):
        for b in range(M + 1):
            s = 0
            for l in range(a + 1):
                Krow = K[l]
                Trow = T[a - l]
                for m in range(b + 1):
                    s += Krow[m] * Trow[b - m]
            out[a][b] = s
    return out


DIRECT_CASES = [(N, j) for N in range(5) for j in range(5)] + [(5, 2), (6, 1), (2, 5)]


@pytest.mark.parametrize("N,j", DIRECT_CASES)
def test_a_array_matches_direct_enumeration(N: int, j: int) -> None:
    """Dynamic programming vs the literal double-composition sum."""
    want = exact_core.a_array_direct(N, j)
    assert k_array(N, N, j) == want
    assert exact_core.a_array(N, j) == want


def test_a_array_direct_is_guarded() -> None:
    with pytest.raises(ValueError):
        exact_core.a_array_direct(7, 1)


def test_a_spot_values() -> None:
    assert exact_core.a_array(1, 0) == 4
    assert exact_core.a_array(1, 1) == 10
    assert exact_core.a_array(1, 2) == 18
    assert exact_core.a_array(2, 0) == 36
    assert exact_core.a_array(2, 1) == 126
    assert exact_core.a_array(2, 2) == 300
    assert exact_core.a_array(2, 3) == 594
    for j in range(8):
        assert exact_core.a_array(0, j) == 1


def test_a_array_monotone_in_j() -> None:
    # every added convolution factor includes the T(0,0) = 1 term
    for N in range(9):
        for j in range(10):
            assert exact_core.a_array(N, j) <= exact_core.a_array(N, j + 1)


def test_a_array_matches_convolution_sweep() -> None:
    """Closed form vs the diagonal of j repeated truncated convolutions,
    on the whole 31 x 61 rectangle."""
    n_max = 30
    T = [[exact_core.kernel(l, m) for m in range(n_max + 1)] for l in range(n_max + 1)]
    K = T
    for j in range(61):
        if j:
            K = _convolve_truncated(K, T, n_max, n_max)
        for N in range(n_max + 1):
            assert exact_core.a_array(N, j) == K[N][N], (N, j)


def test_a_row_matches_product_form() -> None:
    """The two-step row recurrence reproduces the closed form on the
    rectangle N <= 90, j <= 160, and on the shortest rows."""
    for N in range(91):
        assert exact_core.a_row(N, 160) == [exact_core.a_array(N, j) for j in range(161)], N
        for J in (0, 1):
            assert exact_core.a_row(N, J) == [exact_core.a_array(N, j) for j in range(J + 1)]
    for bad in ((-1, 0), (0, -1), (3, -2)):
        with pytest.raises(ValueError):
            exact_core.a_row(*bad)


def test_moment_weights_match_product_form() -> None:
    for k in range(121):
        assert exact_core.moment_weights(k) == tuple(
            exact_core.a_array(k - i, i) * math.perm(2 * k, i) ** 2 for i in range(k + 1)
        ), k
    with pytest.raises(ValueError):
        exact_core.moment_weights(-1)


# ------------------------------------------------------------------- moments


def test_second_moment_spot_values() -> None:
    assert exact_core.second_moment(3, 2) == Fraction(19, 6)
    assert exact_core.second_moment(4, 2) == Fraction(67, 6)
    assert exact_core.second_moment(2, 1) == 4
    # Z_{n,n} is the indicator of the identity permutation: E[Z^2] = 1/n!
    assert exact_core.second_moment(80, 80) == Fraction(1, math.factorial(80))


def test_second_moment_chain_matches_plain_sum() -> None:
    """The ratio chains of second_moment against the plain term-by-term sum,
    on every 1 <= k <= n < 40 (n < 2k included) and three larger pairs."""
    pairs = [(n, k) for n in range(1, 40) for k in range(1, n + 1)]
    pairs += [(10**4, 40), (10**6, 100), (300, 200)]
    for n, k in pairs:
        plain = sum(
            exact_core.a_array(k - i, i) * exact_core.b_coefficient(n, 2 * k - i)
            for i in range(k + 1)
        )
        assert exact_core.second_moment(n, k) == plain, (n, k)


def test_second_moment_horner_edges() -> None:
    """Where the Horner factors n-2k+i start at zero or below (k = n,
    k = n-1, 2k = n-1, n, n+1), S equals the direct integer sum, for n <= 200."""
    for n in range(1, 201):
        for k in {n, n - 1, (n - 1) // 2, n // 2, (n + 1) // 2} - {0}:
            want = sum(
                exact_core.a_array(k - i, i) * math.comb(n, 2 * k - i) * math.perm(2 * k, i)
                for i in range(k + 1)
            )
            assert exact_core.second_moment_numerator(n, k) == want, (n, k)


def test_second_moment_numerator_independent_of_memo() -> None:
    """The integer S equals the direct sum whether the weights are cold,
    warm, or filled in the reverse order."""
    pairs = [(n, k) for n in range(1, 61) for k in range(1, n + 1)] + [(10**6, 300)]
    want = {
        (n, k): sum(
            exact_core.a_array(k - i, i) * math.comb(n, 2 * k - i) * math.perm(2 * k, i)
            for i in range(k + 1)
        )
        for n, k in pairs
    }
    for clear, order in ((True, pairs), (False, pairs), (True, pairs[::-1])):
        if clear:
            exact_core.moment_weights.cache_clear()
        for n, k in order:
            assert exact_core.second_moment_numerator(n, k) == want[n, k], (n, k)


def test_first_moment_closed_form() -> None:
    for n in range(1, 9):
        for k in range(1, n + 1):
            want = Fraction(math.comb(n, k), math.factorial(k))
            assert exact_core.first_moment(n, k) == want


@pytest.mark.parametrize("n", range(1, 6))
def test_moments_match_permutation_sweep(n: int) -> None:
    """E[Z] and E[Z^2] against the brute-force oracle (small n here; the
    full n <= 7 sweep runs in the acceptance suite)."""
    for k in range(1, n + 1):
        dist = perm_oracle.z_distribution(n, k)
        assert perm_oracle.moment(dist, 1) == exact_core.first_moment(n, k)
        assert perm_oracle.moment(dist, 2) == exact_core.second_moment(n, k)


def test_moment_guards() -> None:
    with pytest.raises(ValueError):
        exact_core.second_moment(3, 0)
    with pytest.raises(ValueError):
        exact_core.second_moment(3, 4)
    with pytest.raises(ValueError):
        exact_core.first_moment(0, 1)
    with pytest.raises(ValueError):
        exact_core.a_array(-1, 0)
