"""Arbitrary-precision combinatorics behind the increasing-subsequence moments.

Everything here is exact: integers are Python ints (arbitrary precision) and
rationals are ``fractions.Fraction`` (always reduced, positive denominator).
Floats never appear; the numeric layers live in ``genfun`` and
``elliptic_engine``.

The central objects are the kernel T(l, m) = C(l+m, l)^2, its truncated
(j+1)-fold 2D convolution K(L, M, j), the triangular array A(N, j) = K(N, N, j),
the weight B(N, j) = C(N, j)/j!, and the exact second moment

    E[Z_{n,k}^2] = sum_{i=0}^{k} A(k-i, i) * B(n, 2k-i)

for the number Z_{n,k} of increasing length-k subsequences of a uniform random
permutation of size n.

A(N, j) is evaluated on demand by its closed product form (see ``a_array``);
the convolution ``k_array`` and the literal enumeration ``a_array_direct``
are the independent routes the tests check it against. Only ``moment_weights``,
the weighted anti-diagonal the second moment reads, is cached: ~1.6 k^2 bytes per k.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm, prod
from typing import Iterable, Sequence

__all__ = [
    "a_array",
    "a_array_direct",
    "a_row",
    "b_coefficient",
    "bell_polynomial",
    "binomial",
    "check_square_identity",
    "elementary_from_power_sums",
    "falling_factorial",
    "first_moment",
    "k_array",
    "kernel",
    "moment_weights",
    "multinomial",
    "second_moment",
    "second_moment_numerator",
]


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 when k is outside 0..n.

    The out-of-range-gives-zero convention is load-bearing: the moment and
    bracket sums index past their support and rely on those terms vanishing.
    Negative n is a caller bug, not a convention.
    """
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n!/(p1! * ... * pm!) when all parts are >= 0 and sum to n, else 0."""
    if len(parts) == 0:
        raise ValueError("multinomial needs a nonempty parts list")
    if any(p < 0 for p in parts) or sum(parts) != n:
        return 0
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out


def falling_factorial(z: Fraction | int, n: int) -> Fraction:
    """(z)_n = z (z-1) ... (z-n+1), with (z)_0 = 1."""
    if n < 0:
        raise ValueError(f"falling_factorial needs n >= 0, got n={n}")
    z = Fraction(z)
    out = Fraction(1)
    for k in range(n):
        out *= z - k
    return out


def bell_polynomial(r: int, x: Sequence[Fraction | int]) -> Fraction:
    """Normalized partition polynomial B_r of the weights x_1..x_r.

    Defined by B_0 = 1 and the recurrence

        B_r = (1/r) * sum_{m=1}^{r} (-1)^m * (x_m / (m-1)!) * B_{r-m}.

    The defining property (and the oracle the tests use) is the specialization
    B_r(-0!*z, -1!*z, ..., -(r-1)!*z) = (z)_r / r! for every z.
    """
    if r < 0:
        raise ValueError(f"bell_polynomial needs r >= 0, got r={r}")
    if len(x) < r:
        raise ValueError(f"bell_polynomial needs at least r={r} weights, got {len(x)}")
    vals = [Fraction(1)]
    for rr in range(1, r + 1):
        acc = Fraction(0)
        for m in range(1, rr + 1):
            sign = -1 if m % 2 else 1
            acc += sign * Fraction(x[m - 1]) / factorial(m - 1) * vals[rr - m]
        vals.append(acc / rr)
    return vals[r]


def elementary_from_power_sums(r: int, indicator_sum: Fraction | int) -> Fraction:
    """Elementary symmetric function e_r of 0/1 variables with common power sum Z.

    For indicator variables every power sum equals their count Z, and
    e_r = C(Z, r) = (Z)_r / r!. Computed through the partition-polynomial
    route (weights x_m = -(m-1)! * Z) so it independently cross-checks
    ``falling_factorial``.
    """
    if r < 0:
        raise ValueError(f"elementary_from_power_sums needs r >= 0, got r={r}")
    z = Fraction(indicator_sum)
    weights = [-factorial(m - 1) * z for m in range(1, r + 1)]
    return bell_polynomial(r, weights)


def b_coefficient(n: int, j: int) -> Fraction:
    """B(N, j) = C(N, j)/j!, zero when j > N."""
    if j < 0 or j > n:
        return Fraction(0)
    return Fraction(binomial(n, j), factorial(j))


def kernel(l: int, m: int) -> int:
    """Convolution kernel T(l, m) = C(l+m, l)^2."""
    return comb(l + m, l) ** 2


def k_array(L: int, M: int, j: int) -> int:
    """K(L, M, j): (j+1)-fold truncated 2D self-convolution of the kernel.

    Equals the sum over all pairs of compositions (l_0..l_j) of L and
    (m_0..m_j) of M of the product of T(l_r, m_r). Computed by dynamic
    programming: j repeated truncated convolutions, O(j * L^2 * M^2)
    exact-integer multiplications, instead of the exponential literal
    enumeration (kept as ``a_array_direct`` for cross-checking).
    """
    if L < 0 or M < 0 or j < 0:
        raise ValueError(f"k_array needs nonnegative arguments, got ({L},{M},{j})")
    T = [[kernel(l, m) for m in range(M + 1)] for l in range(L + 1)]
    K = [row[:] for row in T]
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


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def a_array_direct(N: int, j: int) -> int:
    """A(N, j) by literal double-composition enumeration. Slow oracle.

    Exponential in j; guarded to the desk sizes the cross-check suite uses.
    """
    if N > 6 or j > 6:
        raise ValueError(f"a_array_direct is an oracle for N,j <= 6, got ({N},{j})")
    ls = list(_compositions(N, j + 1))
    total = 0
    for l_tuple in ls:
        for m_tuple in ls:
            prod = 1
            for l, m in zip(l_tuple, m_tuple):
                prod *= kernel(l, m)
            total += prod
    return total


def a_array(N: int, j: int) -> int:
    """A(N, j) = K(N, N, j) by its closed product form, in exact integers.

    The kernel generating function is sum_{l,m} T(l, m) x^l y^m =
    ((1-x-y)^2 - 4xy)^{-1/2}, so A(N, j) = [x^N y^N] ((1-x-y)^2 - 4xy)^{-s}
    with s = (j+1)/2. Write rf(a, n) = a (a+1) ... (a+n-1) for the rising
    factorial. Expanding in -4xy and extracting the diagonal of each
    (1-x-y)^{-(2s+2k)} gives

        A(N, j) = rf(j+1, 2N) / N!^2 * 2F1(-N, -N; (j+2)/2; 1),

    a terminating sum that Chu-Vandermonde evaluates to
    rf((j+2)/2 + N, N) / rf((j+2)/2, N). With rf(j+1, 2N) =
    4^N rf((j+1)/2, N) rf((j+2)/2, N) this leaves (Petkovsek, Wilf,
    Zeilberger, *A = B*, 1996)

        A(N, j) = 4^N rf((j+1)/2, N) rf((j+2N+2)/2, N) / N!^2
                = prod_{i<N} (j+1+2i) * prod_{i<N} (j+2N+2+2i) / N!^2,

    and the division is exact.
    """
    if N < 0 or j < 0:
        raise ValueError(f"a_array needs nonnegative arguments, got ({N},{j})")
    low = prod(range(j + 1, j + 2 * N, 2))
    high = prod(range(j + 2 * N + 2, j + 4 * N + 1, 2))
    return low * high // factorial(N) ** 2


def a_row(N: int, j_max: int) -> list[int]:
    """[A(N, 0), ..., A(N, j_max)] in exact integers, O(1) per entry past j = 1.

    Shifting j by 2 moves each product of ``a_array`` up one factor, so
    A(N, j+2) = A(N, j) (j+2N+1)(j+4N+2) / ((j+1)(j+2N+2)), an exact division
    (the ratio is 1 at N = 0), with the closed form at j = 0 and 1.
    """
    if N < 0 or j_max < 0:
        raise ValueError(f"a_row needs nonnegative arguments, got ({N},{j_max})")
    row = [a_array(N, j) for j in range(min(j_max, 1) + 1)]
    for j in range(j_max - 1):
        row.append(row[j] * (j + 2 * N + 1) * (j + 4 * N + 2) // ((j + 1) * (j + 2 * N + 2)))
    return row


@lru_cache(maxsize=None)
def moment_weights(k: int) -> tuple[int, ...]:
    """(g_0, ..., g_k), g_i = A(k-i, i) (2k)_i^2 with (m)_r = m (m-1) ... (m-r+1).

    The closed form at i = 0 and 1, then, from the product form of ``a_array``,

        A(N-2, j+2) = A(N, j) N^2 (N-1)^2 (j+2N)
                      / ((j+1)(j+2N-1)(j+4N-4)(j+4N-2)(j+4N)),

    times m^2 = ((2k)_{j+2} / (2k)_j)^2: two parity chains in i of big x small
    steps and exact divisions. Memoised without bound, as every n shares it:
    about 1.6 k^2 bytes per k, 15 MB for all k <= 300.
    """
    if k < 0:
        raise ValueError(f"moment_weights needs k >= 0, got k={k}")
    g = [a_array(k - i, i) * perm(2 * k, i) ** 2 for i in range(min(k, 1) + 1)]
    for i in range(2, k + 1):
        N, j, m = k - i + 2, i - 2, (2 * k - i + 2) * (2 * k - i + 1)
        g.append(g[j] * ((N * (N - 1) * m) ** 2 * (j + 2 * N)) // (
            (j + 1) * (j + 2 * N - 1) * (j + 4 * N - 4) * (j + 4 * N - 2) * (j + 4 * N)))
    return tuple(g)


def _moment_horner(n: int, k: int) -> int:
    """H with (2k)!^2 E[Z_{n,k}^2] = (n)_k H. As B(n, 2k-i) = (n)_k (n-k)_{k-i}
    (2k)_i^2 / (2k)!^2, H = sum_i g_i (n-k)_{k-i} over ``moment_weights``, which
    Horner's rule h <- h (n-2k+i) + g_i takes in O(k) big x small steps. For
    n < 2k the factors pass through 0, so the terms with C(n, 2k-i) = 0 vanish.
    """
    if not (1 <= k <= n):
        raise ValueError(f"second_moment needs 1 <= k <= n, got (n,k)=({n},{k})")
    h, f = 0, n - 2 * k
    for gi in moment_weights(k):
        h = h * f + gi
        f += 1
    return h


def second_moment_numerator(n: int, k: int) -> int:
    """S with E[Z_{n,k}^2] = S / (2k)!, as (n)_k H / (2k)!, an exact division."""
    return _moment_horner(n, k) * perm(n, k) // factorial(2 * k)


def second_moment(n: int, k: int) -> Fraction:
    """E[Z_{n,k}^2] = S / (2k)!, exactly, with S from ``second_moment_numerator``."""
    return Fraction(second_moment_numerator(n, k), factorial(2 * k))


def first_moment(n: int, k: int) -> Fraction:
    """E[Z_{n,k}] = C(n, k)/k!."""
    if not (1 <= k <= n):
        raise ValueError(f"first_moment needs 1 <= k <= n, got (n,k)=({n},{k})")
    return Fraction(binomial(n, k), factorial(k))


def check_square_identity(l: int, m: int) -> bool:
    """Whether sum_n multinomial(l+m; n, n, l-n, m-n) equals C(l+m, l)^2.

    The distinguishable-rearrangements identity that collapses the squared
    binomial into a single multinomial sum; evaluated exactly.
    """
    if l < 0 or m < 0:
        raise ValueError(f"check_square_identity needs l, m >= 0, got ({l},{m})")
    lhs = sum(
        multinomial(l + m, [n, n, l - n, m - n]) for n in range(min(l, m) + 1)
    )
    return lhs == binomial(l + m, l) ** 2
