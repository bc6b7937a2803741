"""Generating-function routes to the diagonal sum alpha(w, x).

alpha(w, x) = sum_{N,j} A(N, j) x^{2N} w^j is the weighted diagonal of the
kernel-power array. Two independent evaluation routes live here:

 * alpha_series: truncated double sum over the cached 91 x 161 table of
   A(N, j) / 16^N, rows of exact integers from the recurrence in j of
   ``exact_core.a_row``, each rounded once, with an a posteriori geometric
   tail estimate written back into the optional output record.
 * alpha_contour: the same quantity as a single contour mean over the unit
   circle, using the algebraic square root of the quartic Q1. On |xi| = 1
   the argument of the square root is real and positive, so the trapezoid
   mean converges geometrically: from 64 nodes it doubles until two levels
   agree to 1e-12, and raises past 2^18 nodes.

The closed-form route (complete elliptic integrals) lives in the companion
elliptic module; tests pin all routes against each other.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import exact_core

_N_MAX = 90
_J_MAX = 160
_CONTOUR_NODES = 64
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


def kappa1(x: complex, y: complex) -> complex:
    """1 / (1 - x - y), the ordinary two-variable path kernel."""
    den = 1 - x - y
    if den == 0:
        raise ValueError(f"kappa1 pole at x={x}, y={y}")
    return 1 / den


def kappa2(x: complex, y: complex) -> complex:
    """1 / sqrt((1 - x - y)^2 - 4xy), the squared-kernel diagonal."""
    den = principal_sqrt((1 - x - y) ** 2 - 4 * x * y)
    if den == 0:
        raise ValueError(f"kappa2 branch point at x={x}, y={y}")
    return 1 / den


def kappa(w: complex, x: complex, y: complex) -> complex:
    """1 / (sqrt((1 - x - y)^2 - 4xy) - w), the w-deformed diagonal kernel."""
    den = principal_sqrt((1 - x - y) ** 2 - 4 * x * y) - w
    if den == 0:
        raise ValueError(f"kappa pole at w={w}, x={x}, y={y}")
    return 1 / den


@dataclass
class SeriesTruncation:
    """Output record of alpha_series: tail_bound is filled by the call with
    a measured-ratio geometric estimate of the mass outside the table."""

    tail_bound: float | None = None


def diagonal_extract(f: Callable[[complex], complex]) -> complex:
    """Mean of f over the unit circle |xi| = 1, i.e. (1/2 pi i) * closed
    integral of f(xi) dxi / xi.

    This is the constant Fourier coefficient, so for f built from a product
    of power series in xi and 1/xi it extracts the diagonal. Node doubling
    reuses previous evaluations; raises ArithmeticError if the cap is hit
    before two consecutive levels agree.
    """
    n = _CONTOUR_NODES

    def level_sum(count: int, offset: float, step: float) -> complex:
        tot = 0j
        for k in range(count):
            theta = offset + k * step
            tot += f(cmath.exp(1j * theta))
        return tot

    step = 2 * math.pi / n
    total = level_sum(n, 0.0, step)
    prev = total / n
    while n < _CONTOUR_MAX_NODES:
        # new nodes sit halfway between the old ones
        total += level_sum(n, step / 2, step)
        n *= 2
        step /= 2
        cur = total / n
        if abs(cur - prev) <= _CONTOUR_TOL * (1 + abs(cur)):
            return cur
        prev = cur
    raise ArithmeticError(
        f"contour mean did not converge within {_CONTOUR_MAX_NODES} nodes"
    )


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


def _geom_tail(last: float, ratio: float) -> float:
    if last == 0.0:
        return 0.0
    if ratio >= 0.97:
        return math.inf
    return last * ratio / (1 - ratio)


def alpha_series(w: float, x: float, trunc: SeriesTruncation | None = None) -> float:
    """Truncated double sum over the normalized diagonal table.

    Row N contributes (16 x^2)^N * sum_j tab[N, j] w^j. When an output
    record is supplied, its tail_bound field receives the sum of two
    measured-ratio geometric estimates (row tail in N, column tail in j).
    """
    _check_alpha_domain(w, x)
    tab = diag_table()
    ws = w ** np.arange(_J_MAX + 1)
    rows = tab @ ws
    base = (16.0 * x * x) ** np.arange(_N_MAX + 1)
    shells = rows * base
    total = float(shells.sum())
    if trunc is None:
        return total

    n_tail = 0.0
    if shells[-2] > 0:
        n_tail = _geom_tail(float(shells[-1]), float(shells[-1] / shells[-2]))
    j_tail = 0.0
    if w > 0:
        last_col = tab[:, -1] * w ** _J_MAX * base
        prev_col = tab[:, -2] * w ** (_J_MAX - 1) * base
        for lc, pc in zip(last_col, prev_col):
            if pc > 0:
                j_tail += _geom_tail(float(lc), float(lc / pc))
    trunc.tail_bound = n_tail + j_tail
    return total


def alpha_contour(w: float, x: float) -> float:
    """alpha as the contour mean of 1 / (sqrt(Q1(x, xi) / xi^2) - w) on
    |xi| = 1, where Q1 is the spectral quartic.

    On the unit circle Q1/xi^2 = (1 - 2x cos(theta))^2 - 4x^2 is real and
    positive for x < 1/4, so the square root is smooth there and the
    trapezoid mean converges geometrically. The imaginary part of the mean
    must vanish to 1e-10 or the evaluation is rejected.
    """
    _check_alpha_domain(w, x)
    from .elliptic_engine import q1_eval

    def f(xi: complex) -> complex:
        return 1 / (principal_sqrt(q1_eval(x, xi) / (xi * xi)) - w)

    val = diagonal_extract(f)
    if abs(val.imag) >= 1e-10:
        raise ArithmeticError(
            f"contour mean has non-vanishing imaginary part {val.imag:.3e}"
        )
    return val.real
