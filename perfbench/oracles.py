"""Reference values computed apart from the program under test.

Nothing here imports ``ulam_moments``: each value comes straight from a
formula (exact integers and rationals) or from an mpmath quadrature at 30
digits. The one exception the benchmark allows, ``perm_oracle``'s
brute-force distribution for n <= 8, is imported by the caller.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lgamma, pi

import mpmath
from scipy.special import ellipk

ALPHA_DPS = 30


@lru_cache(maxsize=None)
def a_product(N: int, j: int) -> int:
    """A(N, j) = prod_{i<N} (j+1+2i) * prod_{i=1..N} (j+2N+2i) / N!^2."""
    if N < 0 or j < 0:
        raise ValueError(f"A needs N, j >= 0, got ({N},{j})")
    num = 1
    for i in range(N):
        num *= j + 1 + 2 * i
    for i in range(1, N + 1):
        num *= j + 2 * N + 2 * i
    q, r = divmod(num, factorial(N) ** 2)
    if r:
        raise ArithmeticError(f"product formula not integral at ({N},{j})")
    return q


def first_moment(n: int, k: int) -> Fraction:
    """E[Z_{n,k}] = C(n, k) / k!."""
    return Fraction(comb(n, k), factorial(k))


@lru_cache(maxsize=None)
def second_moment(n: int, k: int) -> Fraction:
    """E[Z_{n,k}^2] = sum_i A(k-i, i) C(n, 2k-i) / (2k-i)!."""
    return sum(
        (Fraction(a_product(k - i, i) * comb(n, 2 * k - i), factorial(2 * k - i))
         for i in range(k + 1)),
        Fraction(0),
    )


@lru_cache(maxsize=None)
def moment_ratio(n: int, k: int) -> float:
    """E[Z^2] / E[Z]^2 rounded once from the exact rational."""
    mu1 = first_moment(n, k)
    return float(second_moment(n, k) / (mu1 * mu1))


def log_first_moment(n: int, k: int) -> float:
    """log(C(n, k) / k!) through log-gamma."""
    return lgamma(n + 1) - lgamma(n - k + 1) - 2 * lgamma(k + 1)


@lru_cache(maxsize=None)
def alpha_reference(w: float, x: float) -> float:
    """alpha(w, x) = (1/pi) int_0^pi dtheta / (sqrt((1-2x cos)^2 - 4x^2) - w).

    Tanh-sinh quadrature at 30 digits. Near the singular curve
    4x + w^2 -> 1 the integrand peaks at theta = 0, so the interval is
    split towards that end.
    """
    with mpmath.workdps(ALPHA_DPS):
        xm = mpmath.mpf(x)
        wm = mpmath.mpf(w)

        def f(th):
            return 1 / (mpmath.sqrt((1 - 2 * xm * mpmath.cos(th)) ** 2 - 4 * xm * xm) - wm)

        p = mpmath.pi
        val = mpmath.quad(f, [0, p / 16, p / 4, p / 2, p]) / p
        return float(val)


def alpha_at_w0(x: float) -> float:
    """alpha(0, x) = (2/pi) K(m = 16 x^2), from scipy."""
    return 2 / pi * float(ellipk(16 * x * x))


def polya_limit(z: float) -> float:
    """sum_N C(2N,N)^2 (z/4)^{2N} = (2/pi) K(m = z^2), from scipy."""
    return 2 / pi * float(ellipk(z * z))


def bonferroni_partial(dist: dict[int, int], total: int, r: int, R: int) -> Fraction:
    """sum_{s=r}^{R} (-1)^(s-r) C(s-1, r-1) E[C(Z, s)] from a Z histogram."""
    out = Fraction(0)
    for s in range(r, R + 1):
        fm = Fraction(sum(c * comb(z, s) for z, c in dist.items()), total)
        term = comb(s - 1, r - 1) * fm
        out += term if (s - r) % 2 == 0 else -term
    return out


def prob_at_least(dist: dict[int, int], total: int, r: int) -> Fraction:
    return Fraction(sum(c for z, c in dist.items() if z >= r), total)
