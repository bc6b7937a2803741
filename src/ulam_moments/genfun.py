"""Generating-function routes to the diagonal sum alpha(w, x).

alpha(w, x) = sum_{N,j} A(N, j) x^{2N} w^j is the weighted diagonal of the
kernel-power array. Two independent evaluation routes live here:

 * alpha_series: truncated double sum over the cached 91 x 161 table of
   A(N, j) / 16^N, rows of exact integers from the recurrence in j of
   ``exact_core.a_row``, each rounded once, with a closed-form bound on
   the dropped terms written back into the optional output record. Every
   A(N, j) is nonnegative, so the mass in rows N >= 91 is at most
   (x/x')^182 alpha(w, x') for any larger x' still inside the domain, and
   that in columns j >= 161 at most (w/w')^161 alpha(w', x) for any
   larger w': a shift of the radius, as in Cauchy's coefficient bound
   (P. Flajolet and R. Sedgewick, Analytic Combinatorics, 2009, ch. IV).
   The contour integrand below peaks at theta = 0, so
   alpha(w, x) <= 1 / (s - w) = (s + w) / eps, s = sqrt(1 - 4x), and
   both shifts have closed-form minimisers.
 * alpha_contour: the same quantity as a single contour mean over the unit
   circle, in real arithmetic over theta in [0, pi]: there the integrand
   1 / (g - w), g the algebraic square root of Q1 / xi^2, is real, positive
   and even, and is formed as (g + w) / (eps + ...) from positive terms,
   eps = 1 - 4x - w^2 correct to a few ulps, so it keeps its digits
   up to the curve 4x + w^2 = 1. The trapezoid mean converges like
   exp(-n d), d the nearest singularity's distance from the real theta
   axis; where d < 1/4 a Moebius map of the circle packs the nodes there
   (Trefethen and Weideman, SIAM Rev. 56, 2014). From 16 nodes it doubles
   until two levels agree to 1e-12, and raises past 2^18 nodes.

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
_J_MAX = 160
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
    """Output record of alpha_series: tail_bound is filled by the call with
    a closed-form upper bound on the mass outside the table,
    alpha(w, x) - alpha_series(w, x) before rounding. It is finite on the
    whole domain 0 <= x < 1/4, w >= 0, 4x + w^2 < 1, and at most
    2 (s + w) / eps, twice the bound on alpha itself."""

    tail_bound: float | None = None


def _check_alpha_domain(w: float, x: float) -> None:
    if x < 0 or w < 0:
        raise ValueError(f"alpha needs w >= 0 and x >= 0, got (w={w}, x={x})")
    if 4 * x >= 1:
        raise ValueError(f"alpha needs x < 1/4, got x={x}")
    if w * w >= 1 - 4 * x:
        raise ValueError(
            f"alpha singular at w^2 >= 1 - 4x: got w={w}, x={x}"
        )


@lru_cache(maxsize=None)
def diag_table() -> np.ndarray:
    """Read-only cached table tab[N, j] = A(N, j) / 16^N, N <= 90, j <= 160,
    each entry the exact integer quotient correctly rounded to a float. Row N
    comes from ``exact_core.a_row``, one exact two-step ratio per entry."""
    rows = []
    for N in range(_N_MAX + 1):
        scale = 16**N
        rows.append([a / scale for a in exact_core.a_row(N, _J_MAX)])
    tab = np.array(rows)
    tab.flags.writeable = False
    return tab


def alpha_series(w: float, x: float, trunc: SeriesTruncation | None = None) -> float:
    """Truncated double sum over the normalized diagonal table.

    Row N contributes (16 x^2)^N * sum_j tab[N, j] w^j, tab the
    diag_table. When an output record is supplied, its tail_bound field
    receives _tail_bound(w, x), an upper bound on the dropped rows and
    columns together: alpha(w, x) - total <= tail_bound, up to rounding.
    """
    _check_alpha_domain(w, x)
    base = (16.0 * x * x) ** np.arange(_N_MAX + 1)
    shells = (diag_table() @ w ** np.arange(_J_MAX + 1)) * base
    total = float(shells.sum())
    if trunc is not None:
        trunc.tail_bound = _tail_bound(w, x)
    return total


def _tail_bound(w: float, x: float) -> float:
    """An upper bound on the terms the table drops: the rows N >= M = 91
    plus the columns j >= L = 161 (their overlap counts twice).

    alpha(w, x) <= 1 / (s - w) = (s + w) / eps, s = sqrt(1 - 4x), and all
    A(N, j) >= 0. So the rows weigh at most (x/x')^(2M) / (s' - w),
    s' = sqrt(1 - 4x'), for any x < x' < (1 - w^2)/4. Its minimiser s' is
    the positive root of (4M + 1) s'^2 - 4M w s' - 1 = 0, which gives
    s' - w = (1 - s'^2) / (4M s') and, with r = sqrt((4M w)^2 + 16M + 4),
    1 - s' = 8M (1 - w) / (4M (2 - w) + 2 + r): q = 1 - s'^2 = 4x' is a
    product of positive terms, and the rows give (4x/q)^(2M) 4M s'/q. The
    columns weigh at most (w/w')^L / (s - w') for any w < w' < s, least at
    w' = L s/(L + 1), where s - w' = s/(L + 1). Where a minimiser falls
    outside its interval (x' <= x, or w' <= w), that part is (s + w) / eps,
    eps from _curve_gap. Nothing cancels, so the bound keeps its digits up
    to the curve 4x + w^2 = 1; the rows give 0 at x = 0, the columns 0 at
    w = 0.
    """
    s = math.sqrt(1 - 4 * x)
    whole = (s + w) / _curve_gap(x, w)
    M, L = _N_MAX + 1, _J_MAX + 1
    r = math.sqrt((4 * M * w) ** 2 + 16 * M + 4)
    s1 = (4 * M * w + r) / (8 * M + 2)
    q = 8 * M * (1 - w) * (1 + s1) / (4 * M * (2 - w) + 2 + r)
    w1 = L * s / (L + 1)
    rows = (4 * x / q) ** (2 * M) * 4 * M * s1 / q if 4 * x < q else whole
    return rows + ((w / w1) ** L * (L + 1) / s if w < w1 else whole)


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
