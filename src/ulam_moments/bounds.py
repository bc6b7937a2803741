"""Bound machinery on top of the exact moments.

Four families: two-sided Bonferroni brackets on P(Z >= r) from factorial
moments, a Stirling-form approximation of the log first moment, second
moment ratio tables, and a Chebyshev-style upper bound on A(N, j) obtained
by minimizing alpha(w, x) / (w^j x^{2N}) over the feasible region. In log
coordinates that objective is convex (alpha is a power series with
nonnegative coefficients), so a damped Newton method finds its global
minimum, also where that lies on the face x = X_MAX.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .elliptic_engine import X_MAX, alpha_closed
from .exact_core import _moment_horner, binomial
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
    """E[Z^2] / E[Z]^2 per (n, k) as H / (C(2k, k)^2 (n)_k), with H from
    ``exact_core._moment_horner``: exact integers and one int / int true
    division, which rounds correctly, so each ratio equals float() of the
    exact rational. The rows are exhibits: only ratio >= 1 is enforced.
    """
    rows = []
    for n, k in pairs:
        if n > RATIO_N_GUARD:
            raise ValueError(
                f"ratio_table guarded to n <= {RATIO_N_GUARD}, got ({n},{k})"
            )
        num = _moment_horner(n, k)
        den = math.comb(2 * k, k) ** 2 * math.perm(n, k)
        if num < den:
            raise ArithmeticError(f"variance negative at ({n},{k}): {Fraction(num, den)}")
        rows.append(RatioRow(n=n, k=k, ratio=num / den))
    return rows


_H = 1e-4  # finite-difference step in log coordinates, away from the curve
_NEWTON_STEPS = 50
_DEC_TOL = 1e-10  # a Newton decrement below this makes its step the last
_LOG_X_MAX = math.log(X_MAX)


def _saddle_start(N: int, j: int) -> tuple[float, float]:
    """The point (x0, w0) that minimizes x^(-2N) w^(-j) eps^(-1/2),
    eps = 1 - 4x - w^2, the objective with alpha replaced by its singular
    behaviour C eps^(-1/2) near the curve: eps0 = 1/(1 + 4N + j),
    x0 = N eps0 and w0 = sqrt(j eps0), so 4x0 + w0^2 = 1 - eps0. x0 is
    capped at X_MAX, which keeps the start feasible."""
    eps0 = 1 / (1 + 4 * N + j)
    return min(N * eps0, X_MAX), math.sqrt(j * eps0)


def chebyshev_a_bound(N: int, j: int) -> tuple[float, tuple[float, float]]:
    """Upper bound A(N, j) <= min over feasible (x, w) of
    alpha(w, x) / (w^j x^{2N}), returned with its point (x*, w*).

    Every term of the double series defining alpha is nonnegative, so each
    feasible evaluation bounds A(N, j); the best one evaluated is returned.
    In log coordinates w = e^s, x = e^t the objective

        g(s, t) = log alpha(e^s, e^t) - j s - 2N t

    is a log-sum-exp of the lines j's + 2N't with weights A(N', j') 16^{-N'}
    >= 0, hence convex, on the convex set t <= log X_MAX, 4e^t + e^{2s} < 1,
    so its local minimum is global. A damped Newton method with Armijo
    backtracking (Boyd and Vandenberghe, Convex Optimization, 2004, 9.5)
    starts at the saddle point of x^(-2N) w^(-j) eps^(-1/2) from
    _saddle_start, where eps = 1 - 4x - w^2 and alpha grows like
    eps^(-1/2) near the singular curve. The derivatives come from a 6-point
    stencil: the centre, +-h in s, +-h in t and the forward diagonal
    (h, h), which gives the mixed derivative. So each step makes 5 new
    evaluations. The step h shrinks with eps. Boundary cases: for j = 0
    the w power is absent and the search runs over t alone at w = 0, where
    the minimum lies on x = X_MAX for N >= 3. A step that would cross the
    face x = X_MAX is projected onto it (seen for j = 1, N >= 8); while the
    t-derivative there is negative, t stays fixed and Newton runs in s
    alone. The stencil is then centred just inside the face, and its
    gradient is carried to the face through the Hessian.
    """
    if N < 1 or j < 0:
        raise ValueError(f"chebyshev_a_bound needs N >= 1, j >= 0, got ({N},{j})")
    best = [math.inf, X_MAX, 0.0, 1.0]  # g, x, w, alpha at the best point

    @lru_cache(maxsize=None)
    def g(s: float, t: float) -> float:
        if s >= 0 or t > _LOG_X_MAX:
            return math.inf
        w, x = math.exp(s), min(math.exp(t), X_MAX)
        if w * w >= 1 - 4 * x:
            return math.inf
        a = alpha_closed(w, x)
        val = math.log(a) - 2 * N * t - (j * s if j else 0.0)
        if val < best[0]:
            best[:] = val, x, w, a
        return val

    x0, w0 = _saddle_start(N, j)
    s, t = math.log(w0) if j else -math.inf, math.log(x0)
    for _ in range(_NEWTON_STEPS):
        h = _H * min(1.0, 10 * (1 - 4 * math.exp(t) - math.exp(2 * s)))
        tc = min(t, _LOG_X_MAX - h)
        f = {(a, b): g(s + a * h, tc + b * h)
             for a, b in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1))}
        hss = (f[1, 0] - 2 * f[0, 0] + f[-1, 0]) / h**2 if j else 1.0
        htt = (f[0, 1] - 2 * f[0, 0] + f[0, -1]) / h**2
        hst = (f[1, 1] - f[1, 0] - f[0, 1] + f[0, 0]) / h**2 if j else 0.0
        gs = (f[1, 0] - f[-1, 0]) / (2 * h) + hst * (t - tc)
        gt = (f[0, 1] - f[0, -1]) / (2 * h) + htt * (t - tc)
        if t >= _LOG_X_MAX and gt <= 0:  # on the face x = X_MAX: t stays fixed
            gt, hst, htt = 0.0, 0.0, 1.0
        det = hss * htt - hst * hst
        if not det > 0:
            break
        ds, dt = (hst * gt - htt * gs) / det, (hst * gs - hss * gt) / det
        dec = -(gs * ds + gt * dt)
        if not dec > 0:
            break
        step = 1 / max(1.0, abs(ds), abs(dt))  # at most a factor e in w or x
        while step > 1e-9:
            s1, t1 = s + step * ds, min(t + step * dt, _LOG_X_MAX)
            if g(s1, t1) <= g(s, t) + 1e-4 * (gs * step * ds + gt * (t1 - t)):
                break
            step /= 2
        else:
            break
        s, t = s1, t1
        if dec < _DEC_TOL:
            break
    _, x, w, a = best
    den = w**j * x ** (2 * N)  # 0 only where the bound exceeds the float range
    return (a / den if den else math.inf), (x, w)

