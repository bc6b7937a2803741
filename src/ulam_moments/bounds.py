"""Bound machinery on top of the exact moments.

Four families: two-sided Bonferroni brackets on P(Z >= r) from factorial
moments, a Stirling-form approximation of the log first moment, second
moment ratio tables, and a Chebyshev-style upper bound on A(N, j) obtained
by minimizing alpha(w, x) / (w^j x^{2N}) over the feasible region.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .elliptic_engine import X_MAX, alpha_closed
from .exact_core import a_array, binomial, first_moment, second_moment
from .perm_oracle import factorial_moment, prob_at_least

RATIO_N_GUARD = 10**6
STIRLING_RATIO_GUARD = 0.9


@dataclass(frozen=True)
class BonferroniBracket:
    """Two-sided truncated inclusion-exclusion bracket on P(Z >= r)."""

    n: int
    k: int
    r: int
    R_even: int
    R_odd: int
    lower: Fraction
    upper: Fraction
    exact: Fraction


@dataclass(frozen=True)
class RatioRow:
    n: int
    k: int
    ratio: float


def _partial_sum(n: int, k: int, r: int, R: int) -> Fraction:
    """sum_{s=r}^{R} (-1)^(s-r) C(s-1, r-1) E[C(Z, s)]."""
    total = Fraction(0)
    for s in range(r, R + 1):
        term = binomial(s - 1, r - 1) * factorial_moment(n, k, s)
        total += term if (s - r) % 2 == 0 else -term
    return total


def bonferroni_bracket(
    n: int, k: int, r: int, R_even: int, R_odd: int
) -> BonferroniBracket:
    """Brackets P(Z >= r) between the two parity truncations.

    The signed bracket is (-1)^(R-r+1) * (P - partial_sum(R)) >= 0, so a
    truncation with R - r odd gives a lower bound and one with R - r even
    gives an upper bound; which of R_even / R_odd plays which role depends
    on the parity of r.
    """
    if r < 1:
        raise ValueError(f"bonferroni_bracket needs r >= 1, got r={r}")
    if R_even % 2 != 0 or R_odd % 2 != 1:
        raise ValueError(
            f"R parities must match their names, got R_even={R_even}, R_odd={R_odd}"
        )
    if R_even < r or R_odd < r:
        raise ValueError(
            f"both truncation depths must reach r={r}, got ({R_even}, {R_odd})"
        )
    bounds = {}
    for R in (R_even, R_odd):
        val = _partial_sum(n, k, r, R)
        side = "lower" if (R - r) % 2 == 1 else "upper"
        bounds[side] = val
    exact = prob_at_least(n, k, r)
    return BonferroniBracket(
        n=n,
        k=k,
        r=r,
        R_even=R_even,
        R_odd=R_odd,
        lower=bounds["lower"],
        upper=bounds["upper"],
        exact=exact,
    )


def stirling_log_first_moment(n: int, k: int) -> tuple[float, float]:
    """Stirling-form approximation of log E[Z] = log(C(n,k)/k!).

    With x = k / sqrt(n) the approximation reads

        log E[Z] ~ -2 x sqrt(n) log(x/e) - x^2/2 + delta_n(x)
                   - log(2 pi x sqrt(n) (1 - x/sqrt(n))^(1/2)),

    where delta_n(x) = (k - n) log(1 - k/n) - k + x^2/2 collects the
    second-order Stirling remainders and tends to 0 when k = o(n^(2/3)).
    Returns (approx_log, delta). Rejects k/n > 0.9 where the (1 - k/n)
    factors leave the Stirling regime entirely.
    """
    if not 1 <= k < n:
        raise ValueError(f"stirling_log_first_moment needs 1 <= k < n, got ({n},{k})")
    if k / n > STIRLING_RATIO_GUARD:
        raise ValueError(
            f"k/n = {k/n:.3f} too close to 1 for the Stirling regime (max "
            f"{STIRLING_RATIO_GUARD})"
        )
    x = k / math.sqrt(n)
    delta = (k - n) * math.log1p(-k / n) - k + x * x / 2
    approx_log = (
        2 * k
        - 2 * k * math.log(x)
        - x * x / 2
        + delta
        - math.log(2 * math.pi * k * math.sqrt(1 - k / n))
    )
    return approx_log, delta


def ratio_table(pairs: list[tuple[int, int]]) -> list[RatioRow]:
    """E[Z^2] / E[Z]^2 per (n, k), computed rationally then floated.

    The rows are exhibits: growth regimes in k are emitted for inspection,
    and only ratio >= 1 (nonnegative variance) is enforced.
    """
    rows = []
    for n, k in pairs:
        if n > RATIO_N_GUARD:
            raise ValueError(
                f"ratio_table guarded to n <= {RATIO_N_GUARD}, got ({n},{k})"
            )
        mu1 = first_moment(n, k)
        ratio = second_moment(n, k) / (mu1 * mu1)
        if ratio < 1:
            raise ArithmeticError(f"variance negative at ({n},{k}): {ratio}")
        rows.append(RatioRow(n=n, k=k, ratio=float(ratio)))
    return rows


_GRID_SIZE = 40
_NM_BUDGET = 200


@lru_cache(maxsize=None)
def _alpha_grid(size: int = _GRID_SIZE) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared log-spaced grid of alpha_closed over the feasible region, as
    read-only cached arrays.

    alpha does not depend on (N, j), so one grid seeds every optimization;
    infeasible cells hold +inf.
    """
    xs = np.geomspace(0.005, X_MAX - 1e-4, size)
    ws = np.geomspace(1e-3, 0.97, size)
    vals = np.full((size, size), np.inf)
    for i, x in enumerate(xs):
        for j_, w in enumerate(ws):
            if 4 * x + w * w < 1:
                vals[i, j_] = alpha_closed(w, x)
    for arr in (xs, ws, vals):
        arr.flags.writeable = False
    return xs, ws, vals


def chebyshev_a_bound(N: int, j: int) -> tuple[float, tuple[float, float]]:
    """Upper bound A(N, j) <= min over feasible (x, w) of
    alpha(w, x) / (w^j x^{2N}).

    Every term of the double series defining alpha is nonnegative, so any
    single feasible evaluation already bounds A(N, j); the coarse grid plus
    a fixed-budget Nelder-Mead polish only tightens it. For j = 0 the w
    power is absent and the minimization runs over x alone at w = 0.
    """
    if N < 1 or j < 0:
        raise ValueError(f"chebyshev_a_bound needs N >= 1, j >= 0, got ({N},{j})")
    # scipy.optimize is most of the package's import time; only this needs it
    from scipy.optimize import minimize

    xs, ws, avals = _alpha_grid()

    if j == 0:
        col = np.array([alpha_closed(0.0, x) for x in xs])
        fvals = col / xs ** (2 * N)
        i0 = int(np.argmin(fvals))
        best = (float(fvals[i0]), float(xs[i0]), 0.0)

        def f1(v: np.ndarray) -> float:
            x = v[0]
            if not 0 < x < X_MAX:
                return math.inf
            return alpha_closed(0.0, x) / x ** (2 * N)

        res = minimize(
            f1,
            [best[1]],
            method="Nelder-Mead",
            options={"maxiter": _NM_BUDGET, "xatol": 1e-10, "fatol": 1e-10},
        )
        if res.fun < best[0]:
            best = (float(res.fun), float(res.x[0]), 0.0)
        return best[0], (best[1], best[2])

    powers = np.outer(xs ** (2 * N), ws**j)
    fvals = avals / powers
    i0, j0 = np.unravel_index(int(np.argmin(fvals)), fvals.shape)
    best = (float(fvals[i0, j0]), float(xs[i0]), float(ws[j0]))

    def f2(v: np.ndarray) -> float:
        x, w = v
        if not (0 < x < X_MAX and 0 < w and 4 * x + w * w < 1):
            return math.inf
        return alpha_closed(w, x) / (w**j * x ** (2 * N))

    res = minimize(
        f2,
        [best[1], best[2]],
        method="Nelder-Mead",
        options={"maxiter": _NM_BUDGET, "xatol": 1e-10, "fatol": 1e-10},
    )
    if math.isfinite(res.fun) and res.fun < best[0]:
        best = (float(res.fun), float(res.x[0]), float(res.x[1]))
    return best[0], (best[1], best[2])


def bonferroni_csv(brackets: list[BonferroniBracket]) -> str:
    """Serialize brackets as 'n,k,r,R_even,R_odd,lower,upper,exact' rows."""
    lines = ["n,k,r,R_even,R_odd,lower,upper,exact"]
    for b in brackets:
        lines.append(
            f"{b.n},{b.k},{b.r},{b.R_even},{b.R_odd},"
            f"{b.lower.numerator}/{b.lower.denominator},"
            f"{b.upper.numerator}/{b.upper.denominator},"
            f"{b.exact.numerator}/{b.exact.denominator}"
        )
    return "\n".join(lines) + "\n"


def chebyshev_csv(rows: list[tuple[int, int, float, float, float, int]]) -> str:
    """Serialize bound rows as 'N,j,bound,x_star,w_star,exact_A'."""
    lines = ["N,j,bound,x_star,w_star,exact_A"]
    for N, j, bound, xs_, ws_, ex in rows:
        lines.append(f"{N},{j},{bound:.17g},{xs_:.17g},{ws_:.17g},{ex}")
    return "\n".join(lines) + "\n"
