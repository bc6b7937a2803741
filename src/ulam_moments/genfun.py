"""Generating-function routes to the diagonal sum alpha(w, x).

alpha(w, x) = sum_{N,j} A(N, j) x^{2N} w^j is the weighted diagonal of the
kernel-power array. Two independent evaluation routes live here:

 * alpha_series: the rows N <= 90, each summed over all j in closed form
   as one bilinear form over a cached table of the forward differences
   D(N, m) / 16^N of A(N, .), with a closed-form bound on the rows it
   drops. Every A(N, j) is nonnegative, so that bound is a shift of the
   radius in x, as in Cauchy's coefficient bound (P. Flajolet and
   R. Sedgewick, Analytic Combinatorics, 2009, ch. IV), on
   alpha(w, x) <= 1 / (s - w), s = sqrt(1 - 4x).
 * alpha_contour: the same quantity as the trapezoid mean of its contour
   integral over the unit circle, in real arithmetic over theta in [0, pi]
   and Moebius-mapped near the singularity, doubled from 16 nodes until
   two levels agree to 1e-12.

The closed-form route (complete elliptic integrals) lives in the companion
elliptic module; tests pin all routes against each other.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
import numpy as np

from . import exact_core

_N_MAX = 90
_POWERS = np.arange(2 * _N_MAX + 2)
_CONTOUR_NODES = 16
_CONTOUR_MAX_NODES = 1 << 18
_CONTOUR_TOL = 1e-12


def principal_sqrt(z: complex) -> complex:
    """Square root with the cut on the negative real axis mapped to +i*sqrt.

    Identical to the principal branch off the axis; on the negative real
    axis itself the value is +i*sqrt(|z|) regardless of the sign of the
    (zero) imaginary part, which protects callers from -0.0 surprises.
    """
    z = complex(z)
    if z.imag == 0.0:
        if z.real >= 0.0:
            return complex(math.sqrt(z.real), 0.0)
        return complex(0.0, math.sqrt(-z.real))
    return cmath.sqrt(z)


@dataclass
class SeriesTruncation:
    """Output record of alpha_series: the call fills tail_bound with a
    closed-form upper bound on the rows outside the table,
    alpha(w, x) - alpha_series(w, x) before rounding, finite on the whole
    domain 0 <= x < 1/4, w >= 0, 4x + w^2 < 1, and at most (s + w) / eps."""

    tail_bound: float | None = None


def _check_alpha_domain(w: float, x: float) -> None:
    # negated comparisons, so that NaN fails each of them
    if not (x >= 0 and w >= 0):
        raise ValueError(f"alpha needs w >= 0 and x >= 0, got (w={w}, x={x})")
    if not 4 * x < 1:
        raise ValueError(f"alpha needs x < 1/4, got x={x}")
    if not w * w < 1 - 4 * x:
        raise ValueError(f"alpha singular at w^2 >= 1 - 4x: got w={w}, x={x}")


def _diff_row(N: int) -> list[int]:
    """[D(N, 0), ..., D(N, 2N)] in exact integers; see diag_table."""
    a = exact_core.a_row(N, 2)
    d = [a[0], a[1] - a[0], a[2] - 2 * a[1] + a[0]]
    c1, b2, c2 = 8 * N * N + 6 * N - 8, 6 * N + 16, 10 * N + 16
    for m in range(2 * N - 2):
        d.append(-(2 * (m + 1) * (m - 2 * N) * d[m] + (5 * m * m + 13 * m - c1) * d[m + 1]
                   + (4 * m * m + b2 * m + c2) * d[m + 2]) // ((m + 2) * (m + 2 * N + 3)))
    return d[:2 * N + 1]


@lru_cache(maxsize=None)
def diag_table() -> np.ndarray:
    """Read-only cached (182, 91) table tab[m, N - ceil(m/2)] = D(N, m) / 16^N,
    m <= 2N, N <= 90, zero elsewhere, each exact integer quotient rounded
    once. D(N, m) = sum_k (-1)^(m-k) C(m, k) A(N, k) is the m-th forward
    difference of A(N, .) at 0, so A(N, j) = sum_m D(N, m) C(j, m). With
    Pinsky's A(N, j) = sum_tau h_N(tau) C(tau + j - 1, j), h_N the histogram
    of axis visits of returning walks (``walk_lab.enumerate_walks``), and
    Vandermonde's C(tau + j - 1, j) = sum_m C(tau - 1, m) C(j, m),
        D(N, m) = sum_{tau >= 1} h_N(tau) C(tau - 1, m) >= 0,
    zero for m > 2N. ``_diff_row`` takes D(N, 0..2) from a_row(N, 2) and
    the rest from a three-term recurrence in m, in exact divisions. It was
    found by fitting; the tests check it against the forward differences
    for every N <= 90, the table's whole range."""
    N = np.repeat(_POWERS[:_N_MAX + 1], 2 * _POWERS[:_N_MAX + 1] + 1)
    m = np.arange(N.size) - N * N  # row N starts at sum_{k<N} (2k + 1) = N^2
    tab = np.zeros((2 * _N_MAX + 2, _N_MAX + 1))
    # float(d) rounds once; scaling by 16^-n is exact in float range
    tab[m, N - (m + 1) // 2] = [math.ldexp(d, -4 * n) for n in range(_N_MAX + 1)
                                for d in _diff_row(n)]
    tab.flags.writeable = False
    return tab


def alpha_series(w: float, x: float, trunc: SeriesTruncation | None = None) -> float:
    """The rows N <= 90 of alpha, each summed over all j in closed form:
    with y = 4x and p = yw/(1 - w) < (1 + w) w < 2, as
    sum_j C(j, m) w^j = w^m / (1 - w)^(m+1), row N is
    sum_m D(N, m) / 16^N y^(2N - m) p^m / (1 - w). Split by the parity of m
    this is u . tab . v, u[m] = p^m y^(m mod 2), v[i] = y^(2i): no term is
    negative and no power leaves float range. An output record receives
    _tail_bound(w, x) >= alpha(w, x) - total, up to rounding."""
    _check_alpha_domain(w, x)
    y = 4.0 * x
    u = (y * w / (1 - w)) ** _POWERS
    u[1::2] *= y
    total = float(u @ diag_table() @ (y * y) ** _POWERS[:_N_MAX + 1]) / (1 - w)
    if trunc is not None:
        trunc.tail_bound = _tail_bound(w, x)
    return total


def _tail_bound(w: float, x: float) -> float:
    """An upper bound on the rows N >= M = 91 that the table drops. As
    alpha(w, x) <= 1 / (s - w) = (s + w) / eps, s = sqrt(1 - 4x), and all
    A(N, j) >= 0, the rows weigh at most (x/x')^(2M) / (s' - w),
    s' = sqrt(1 - 4x'), for any x < x' < (1 - w^2)/4. Its minimiser s' is
    the positive root of (4M + 1) s'^2 - 4M w s' - 1 = 0, which gives
    s' - w = (1 - s'^2) / (4M s') and, with r = sqrt((4M w)^2 + 16M + 4),
    1 - s' = 8M (1 - w) / (4M (2 - w) + 2 + r): q = 1 - s'^2 = 4x' is a
    product of positive terms, and the rows give (4x/q)^(2M) 4M s'/q, 0 at
    x = 0. Where x' <= x the bound is (s + w) / eps, eps from _curve_gap.
    Nothing cancels, so it keeps its digits up to the curve 4x + w^2 = 1.
    """
    M = _N_MAX + 1
    r = math.sqrt((4 * M * w) ** 2 + 16 * M + 4)
    s1 = (4 * M * w + r) / (8 * M + 2)
    q = 8 * M * (1 - w) * (1 + s1) / (4 * M * (2 - w) + 2 + r)
    if 4 * x < q:
        return (4 * x / q) ** (2 * M) * 4 * M * s1 / q
    return (math.sqrt(1 - 4 * x) + w) / _curve_gap(x, w)


def _curve_gap(x: float, w: float) -> float:
    """1 - 4x - w^2 to a few ulps. w^2 = p + e exactly (Veltkamp's split and
    Dekker's product) and 1 - 4x = h + c exactly (TwoSum); near the curve
    h - p is exact (Sterbenz), so only the last two additions round."""
    p = w * w
    big = 134217729.0 * w  # 2^27 + 1 splits w into two 26-bit halves
    hi = big - (big - w)
    lo = w - hi
    e = ((hi * hi - p) + 2 * hi * lo) + lo * lo
    h = 1 - 4 * x
    v = h - 1
    c = (1 - (h - v)) + (-4 * x - v)
    return (h - p) + (c - e)


def alpha_contour(w: float, x: float) -> float:
    """alpha as the mean over theta of 1 / (g - w) = (g + w) / (g^2 - w^2),
    g = sqrt((1 - 2x cos(theta))^2 - 4x^2), the contour mean on |xi| = 1.

    With u = 4x sin^2(theta/2), g^2 = (1 - 4x + u)(1 + u) and
    g^2 - w^2 = eps + u(2 - 4x + u), eps = 1 - 4x - w^2 from _curve_gap:
    every term is positive, so the integrand keeps its digits up to the
    curve 4x + w^2 = 1. It is real, positive and even, so the trapezoid
    mean over the period reads only the nodes in [0, pi] and converges like
    exp(-n d), where theta = i d is the nearest singularity (the pole of
    Q2, or the branch point c2 at w = 0): cosh d = 1 + t,
    t = eps / (2x(1 - 2x + s)), s = sqrt(4x^2 + w^2), so
    d = log1p(t + sqrt(t(t + 2))) without cancellation, and d = inf at
    x = 0. Where d < 1/4 the mean is taken over phi with
    tan(theta/2) = lam tan(phi/2), lam = sqrt(d)/2, times
    dtheta/dphi = lam / r, r = lam^2 sin^2(phi/2) + cos^2(phi/2): on the
    unit circle this is the Moebius map xi = (zeta + a)/(1 + a zeta),
    a = (1 - lam)/(1 + lam), which packs the nodes near theta = 0 so that
    node counts grow like d^(-1/2), not d^(-1) (Trefethen and Weideman,
    SIAM Rev. 56, 2014). Above 1/4 the map saves no nodes and lam = 1.
    From 16 nodes on the full period the count doubles until two levels
    agree to 1e-12, and the route raises ArithmeticError past 2^18. The
    levels are nested, so starting low adds no evaluation: a point whose
    singularity is far from the axis stops at 32 or 64 nodes, after 17 or
    33 evaluations of the integrand.
    """
    _check_alpha_domain(w, x)
    eps = _curve_gap(x, w)
    s = math.hypot(2 * x, w)
    t = eps / (2 * x * (1 - 2 * x + s)) if x > 0 else math.inf
    d = math.log1p(t + math.sqrt(t * (t + 2)))
    lam = math.sqrt(d) / 2 if d < 0.25 else 1.0
    x4, h, b = 4 * x, 1 - 4 * x, 2 - 4 * x

    def f(half_phi: float) -> float:
        sig = lam * math.sin(half_phi)
        kap = math.cos(half_phi)
        r = sig * sig + kap * kap
        u = x4 * sig * sig / r
        return (math.sqrt((h + u) * (1 + u)) + w) * lam / (r * (eps + u * (b + u)))

    # n nodes phi_k = 2 pi k / n on the period; f is even, so phi = 0 and
    # phi = pi count once and each node in (0, pi) stands for two
    n = _CONTOUR_NODES
    step = math.pi / n  # in half_phi
    total = f(0.0) + f(math.pi / 2) + 2 * sum(f(k * step) for k in range(1, n // 2))
    prev = total / n
    while n < _CONTOUR_MAX_NODES:
        # new nodes sit halfway between the old ones
        total += 2 * sum(f((k + 0.5) * step) for k in range(n // 2))
        n *= 2
        step /= 2
        cur = total / n
        if abs(cur - prev) <= _CONTOUR_TOL * (1 + cur):
            return cur
        prev = cur
    raise ArithmeticError(
        f"contour mean did not converge within {_CONTOUR_MAX_NODES} nodes"
    )
