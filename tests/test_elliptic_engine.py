"""Quartic roots, branch data, elliptic integrals, and the Legendre reduction."""
from __future__ import annotations

import math
import subprocess
import sys
import time
import warnings
from functools import lru_cache
from math import pi, sqrt

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from ulam_moments import elliptic_engine as ee
from ulam_moments import genfun

# x by w, restricted to the feasible region 4x + w^2 < 1
GRID = [
    (x, w)
    for x in (0.02, 0.05, 0.1, 0.15, 0.2)
    for w in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    if 4 * x + w * w < 1
]

# the six reduction points: the two contract examples plus four spanning the region
PI_POINTS = [(0.05, 0.1), (0.05, 0.4), (0.1, 0.2), (0.1, 0.4), (0.15, 0.3), (0.2, 0.3)]

# Regions where the closed form's short distances and cancellations live:
# w = 0, poles next to the cut (small w), small x, and the band
# 1e-4 <= 1 - 4x - w^2 <= 1e-2 next to the singular curve.
W0_POINTS = [(x, 0.0) for x in (0.001, 0.02, 0.1, 0.24)]
# the K/Pi small-w rectangle, then the extremes of x at w = 1e-8
PI_SMALL_W_POINTS = [(x, w) for x in (0.05, 0.1, 0.2, 0.23) for w in (1e-5, 2e-4, 2.7e-3)]
SMALL_W_POINTS = PI_SMALL_W_POINTS + [(x, 1e-8) for x in (0.001, 0.03, 0.24)] + [(0.001, 1e-3)]
SMALL_X_POINTS = [(x, w) for x in (0.001, 0.01, 0.03) for w in (0.1, 0.9)]
BAND_POINTS = [
    (x, sqrt(1 - 4 * x - eta)) for x in (0.001, 0.01, 0.03, 0.1, 0.2, 0.24) for eta in (1e-4, 1e-2)
]
# b1 - 1 and b1 - a2 as w -> 1 at small x: a naive 1 + w^2 - 2s in b1 put
# both A1 routes 5.2e-11 off at the first point and 1.8e-10 at the second,
# a band point where 1 - 4x - w^2 = 1.17e-4.
W_NEAR_ONE_POINTS = [(1e-6, 0.999), (0.0010098639841811686, 0.9979196888896462)]


def _residual_scale(x: float, r: float) -> float:
    """Magnitude of the quartic's own terms at r, for relative residuals."""
    return x * x * (1 + abs(r)) ** 4


# -------------------------------------------------------------------- roots


@pytest.mark.parametrize("x,w", GRID)
def test_quartic_root_residuals(x: float, w: float) -> None:
    for r in ee._geometry(x, 0.0)[:4]:
        assert abs(ee.q1_eval(x, r)) / _residual_scale(x, r) < 1e-11
    for r in ee._geometry(x, w)[4:8]:
        assert abs(ee.q2_eval(x, w, r)) / _residual_scale(x, r) < 1e-11


@pytest.mark.parametrize("x,w", GRID)
def test_inversive_products(x: float, w: float) -> None:
    c1, c2, d1, d2 = ee._geometry(x, 0.0)[:4]
    a1, a2, b1, b2 = ee._geometry(x, w)[4:8]
    for prod in (c1 * d2, c2 * d1, a1 * b2, a2 * b1):
        assert abs(prod - 1) < 1e-15


@pytest.mark.parametrize("x,w", GRID)
def test_root_ordering_chain(x: float, w: float) -> None:
    c1, c2, d1, d2 = ee._geometry(x, 0.0)[:4]
    a1, a2, b1, b2 = ee._geometry(x, w)[4:8]
    chain = (0.0, a1, c1, c2, a2, 1.0, b1, d1, d2, b2)
    for lo, hi in zip(chain, chain[1:]):
        assert lo < hi


@pytest.mark.parametrize("x", [0.02, 0.05, 0.1, 0.15, 0.2, 0.235])
def test_w_zero_degeneration(x: float) -> None:
    """At w = 0 the Q2 roots coincide with the Q1 roots bit for bit."""
    assert ee._geometry(x, 0.0)[4:8] == ee._geometry(x, 0.0)[:4]


def test_root_guards() -> None:
    with pytest.raises(ValueError):
        ee._geometry(0.0, 0.0)
    with pytest.raises(ValueError):
        ee._geometry(0.25, 0.0)
    with pytest.raises(ValueError):
        ee._geometry(0.1, -0.1)
    with pytest.raises(ValueError):
        ee._geometry(0.1, 0.8)  # above sqrt(1 - 4x)


# -------------------------------------------------------------- branch data


@given(
    st.floats(min_value=0.01, max_value=0.24),
    st.complex_numbers(max_magnitude=40, allow_nan=False, allow_infinity=False),
)
def test_g_tilde_square_is_q1(x: float, xi: complex) -> None:
    g2 = ee.g_tilde(x, xi) ** 2
    q1 = ee.q1_eval(x, xi)
    floor = 1e-9 * _residual_scale(x, abs(xi))
    assert g2 == pytest.approx(q1, rel=1e-9, abs=floor)


@pytest.mark.parametrize("x", [0.05, 0.1, 0.2])
def test_g_tilde_real_positive_between_cuts(x: float) -> None:
    c1, c2, d1, d2 = ee._geometry(x, 0.0)[:4]
    for t in (0.1, 0.5, 0.9):
        xi = c2 + t * (d1 - c2)
        val = ee.g_tilde(x, xi)
        assert val.imag == 0.0
        assert val.real > 0


@pytest.mark.parametrize("x", [0.05, 0.1, 0.2])
def test_g_tilde_on_cut_is_upper_limit(x: float) -> None:
    """On (c1, c2) the convention picks +i sqrt(-Q1)."""
    c1, c2 = ee._geometry(x, 0.0)[:2]
    for t in (0.25, 0.5, 0.75):
        r = c1 + t * (c2 - c1)
        val = ee.g_tilde(x, r)
        want = sqrt(-ee.q1_eval(x, r).real)
        assert val.real == pytest.approx(0.0, abs=1e-15)
        assert val.imag == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("x,w", [(0.05, 0.2), (0.1, 0.3), (0.15, 0.4), (0.2, 0.1)])
def test_g_tilde_at_inner_roots(x: float, w: float) -> None:
    """g = +w xi at a2 but -w xi at a1, so only a2 contributes a residue."""
    a1, a2 = ee._geometry(x, w)[4:6]
    assert complex(ee.g_tilde(x, a2)) == pytest.approx(w * a2, rel=1e-12)
    assert complex(ee.g_tilde(x, a1)) == pytest.approx(-w * a1, rel=1e-12)


@pytest.mark.parametrize("x", [0.02, 0.05])
def test_branch_one_sided_limits_at_midpoint(x: float) -> None:
    c1, c2 = ee._geometry(x, 0.0)[:2]
    eps = 1e-6
    r = (c1 + c2) / 2
    want = sqrt(-ee.q1_eval(x, r).real)
    upper = ee.g_tilde(x, complex(r, eps))
    lower = ee.g_tilde(x, complex(r, -eps))
    assert abs(upper - 1j * want) < 1e-9
    assert abs(lower + 1j * want) < 1e-9


@pytest.mark.parametrize("x", [0.05, 0.1, 0.15, 0.2])
def test_branch_jump_across_cut(x: float) -> None:
    """The O(eps) probe drift is real and cancels in the two-sided jump."""
    c1, c2 = ee._geometry(x, 0.0)[:2]
    eps = 1e-6
    for t in (0.25, 0.5, 0.75):
        r = c1 + t * (c2 - c1)
        want = sqrt(-ee.q1_eval(x, r).real)
        jump = ee.g_tilde(x, complex(r, eps)) - ee.g_tilde(x, complex(r, -eps))
        assert abs(jump - 2j * want) < 1e-9
        assert ee.g_tilde(x, complex(r, eps)).imag == pytest.approx(want, abs=1e-9)


# ------------------------------------------------------------- residue term


@pytest.mark.parametrize("x,w", GRID)
def test_a1_variants_agree_pairwise(x: float, w: float) -> None:
    assert ee.a1_closed(x, w) == pytest.approx(ee.a1_residue(x, w), rel=1e-14)


def test_a1_vanishes_at_w_zero() -> None:
    for fn in (ee.a1_residue, ee.a1_closed):
        assert fn(0.1, 0.0) == 0.0


def test_a1_small_w_continuity() -> None:
    assert 0 < ee.a1_residue(0.1, 1e-6) < 1e-3


def _a1_mpmath(x: float, w: float) -> float:
    """2 w a2 / Q2'(a2), with the roots of Q2 at 50 digits."""
    with mpmath.workdps(50):
        x, w = mpmath.mpf(x), mpmath.mpf(w)
        s = mpmath.sqrt(4 * x * x + w * w)
        b1 = (1 - s + mpmath.sqrt(1 + w * w - 2 * s)) / (2 * x)
        b2 = (1 + s + mpmath.sqrt(1 + w * w + 2 * s)) / (2 * x)
        a1, a2 = 1 / b2, 1 / b1
        return float(2 * w * a2 / (x * x * (a2 - a1) * (a2 - b1) * (a2 - b2)))


def test_a1_closed_at_small_x() -> None:
    """a2 - a1 is about 4x^2 between two roots about x, so a naive difference
    lost a factor of 1/x: 1.3e-11 at (1e-6, 1e-5) and 3.2e-10 at (1e-8, 1e-150).
    Then the points with w near 1 and a seeded scan of the whole domain,
    x from 1e-8 to 0.24 and w up to sqrt(1 - 4x)."""
    rng = np.random.default_rng(17)
    points = [(1e-6, 1e-5), (1e-8, 3.2e-5), (1e-8, 1e-150)] + W_NEAR_ONE_POINTS
    for _ in range(200):
        x = 10 ** rng.uniform(-8, math.log10(0.24))
        scale = 10 ** rng.uniform(-150, 0) if rng.random() < 0.5 else rng.uniform(0, 1)
        points.append((x, scale * sqrt(1 - 4 * x)))
    for x, w in points:
        want = _a1_mpmath(x, w)
        assert abs(ee.a1_closed(x, w) / want - 1) <= 4e-15, (x, w)


def test_a1_routes_at_tiny_x() -> None:
    """x = 2^-1 ... 2^-1074 at w = 0, 1e-5, 0.5 and 0.999. Outside the
    domain a route raises ValueError. Inside it either raises the floor's
    ArithmeticError or is right: both A1 routes within 1e-14 of _a1_mpmath,
    and alpha_closed(0, x) within 2 ulps of (2/pi) K(4x); alpha_closed at
    w > 0 raises where a1_closed does and is finite elsewhere. a1_residue
    was 5.5e-13 off at (2^-12, 0.999) while its denominator cancelled as
    w -> 1. Without the checks of x^2 (a2 - a1) and of c2 - c1,
    a1_closed was 0.13% off at (2^-350, 1e-5), alpha_closed(0.999, 2^-360)
    returned 976.1 for 1000 and a1_residue(2^-1040, 0.5) NaN; at w = 0 the
    w^2 gaps were 0/0, so alpha_closed(0, 1e-163) raised ZeroDivisionError."""
    floor = "too small for float range"
    for w in (0.0, 1e-5, 0.5, 0.999):
        for x in [2.0**-k for k in range(1, 1075)] + [1e-163]:
            if not (x <= ee.X_MAX and 4 * x + w * w < 1):
                for route in (ee.a1_closed, ee.a1_residue):
                    with pytest.raises(ValueError):
                        route(x, w)
                continue
            if w == 0:
                assert ee.a1_closed(x, w) == ee.a1_residue(x, w) == 0.0
                with mpmath.workdps(30):
                    want = float(2 / mpmath.pi * mpmath.ellipk(16 * mpmath.mpf(x) ** 2))
                assert abs(ee.alpha_closed(w, x) - want) <= 4.5e-16 * want, x
                continue
            want = _a1_mpmath(x, w)
            for route, tol in ((ee.a1_closed, 1e-14), (ee.a1_residue, 1e-14)):
                try:
                    got = route(x, w)
                except ArithmeticError as exc:
                    assert floor in str(exc), (route.__name__, x, w)
                    continue
                assert abs(got / want - 1) <= tol, (route.__name__, x, w, got, want)
            try:
                ee.a1_closed(x, w)
            except ArithmeticError:
                with pytest.raises(ArithmeticError, match=floor):
                    ee.alpha_closed(w, x)
            else:
                assert math.isfinite(ee.alpha_closed(w, x)), (x, w)


# ------------------------------------------------------------- cut integral


@pytest.mark.parametrize("x,w", GRID + [(0.1, 0.0), (0.02, 0.0), (0.2, 0.0)])
def test_a2_routes_agree(x: float, w: float) -> None:
    direct = ee.a2_quadrature(x, w)
    assert direct > 0
    assert abs(ee.a2_pi_combination(x, w)[0] - direct) <= 1e-12 * (1 + direct)


@lru_cache(maxsize=None)
def _a2_mpmath(x: float, w: float) -> float:
    """Independent oracle: the cut integral by tanh-sinh at 30 digits, on
    r = c1 + (c2 - c1) sin^2(theta), with the roots recomputed in mpmath.
    The poles a1, a2 sit O(w^2) beyond the cut ends, which puts peaks of
    width about w / sqrt(c2 - c1) at both ends of the theta interval, so
    the interval is split geometrically there."""
    with mpmath.workdps(30):
        x, w = mpmath.mpf(x), mpmath.mpf(w)
        d1 = (1 - 2 * x + mpmath.sqrt(1 - 4 * x)) / (2 * x)
        d2 = (1 + 2 * x + mpmath.sqrt(1 + 4 * x)) / (2 * x)
        c1, c2 = 1 / d2, 1 / d1
        dl = c2 - c1

        def f(th):
            s2, co2 = mpmath.sin(th) ** 2, mpmath.cos(th) ** 2
            r = c1 + dl * s2
            mq1_over_sq = (d1 - r) * (d2 - r)  # -Q1 / (x^2 dl^2 s2 co2)
            num = x * dl * dl * s2 * co2
            return 2 * num * mpmath.sqrt(mq1_over_sq) / (x * num * mq1_over_sq + w * w * r * r)

        h = mpmath.pi / 2
        pts = [0, h / 2, h]
        e = w / mpmath.sqrt(dl)
        while 0 < e < h / 4:
            pts[1:1] = [e]
            pts[-1:-1] = [h - e]
            e *= 30
        return float(mpmath.quad(f, sorted(pts)) / mpmath.pi)


@pytest.mark.parametrize(
    "x,w,tol",
    [(x, w, 5e-15) for x, w in GRID + W0_POINTS + SMALL_W_POINTS + SMALL_X_POINTS]
    + [(x, w, 5e-13) for x, w in BAND_POINTS + W_NEAR_ONE_POINTS[1:]],
)
def test_a2_closed_against_mpmath(x: float, w: float, tol: float) -> None:
    """The closed form of A2 that alpha_closed adds, the v-form of
    a2_pi_combination, within tol (1 + A2) of the oracle and within 1e-12
    of A2 itself. Worst measured on these points: 7.8e-16 relative to 1 + A2,
    and relative to A2 6.2e-14 off the band, at (0.01, 0.9), and 4.7e-13 in
    it, at small x. Carlson's four-pole reduction, which it replaced, was
    1.2e-7 off A2 at (0.001, 0.99795): its a2 and b1 terms cancel near the
    singular curve, and that cancellation is divided by pi x."""
    ref = _a2_mpmath(x, w)
    value = ee.a2_pi_combination(x, w)[0]
    assert abs(value - ref) <= tol * (1 + ref)
    assert abs(value - ref) <= 1e-12 * ref


@pytest.mark.parametrize(
    "route",
    [ee.a1_residue, ee.a1_closed, ee.a2_quadrature,
     lambda x, w: ee.alpha_closed(w, x), ee.a2_pi_combination],
)
def test_routes_refuse_the_singular_curve(route) -> None:
    """alpha diverges on the curve 4x + w^2 = 1: every route raises there
    instead of returning a huge number."""
    with pytest.raises(ValueError):
        route(0.1, sqrt(0.6))


def test_alpha_closed_in_band() -> None:
    """alpha_closed against the 30-digit oracle on a seeded band scan,
    x = 10^U(-3, log10 0.24) and eps = 1 - 4x - w^2 = 10^U(-5, -1), plus the
    points with w near 1. alpha's sensitivity to its inputs grows like
    1 + w^2 / eps, which scales the tolerance. Worst measured:
    1.3e-16 (1 + w^2 / eps); it was 1.0e-13 (1 + w^2 / eps), or 9.5e-10
    relative, when b1 came from a naive 1 + w^2 - 2s."""
    rng = np.random.default_rng(5)
    points = list(W_NEAR_ONE_POINTS)
    while len(points) < 42:
        x = 10 ** rng.uniform(-3, math.log10(0.24))
        w2 = 1 - 4 * x - 10 ** rng.uniform(-5, -1)
        if w2 > 0:
            points.append((x, sqrt(w2)))
    for x, w in points:
        want = _a1_mpmath(x, w) + _a2_mpmath(x, w)
        eps = 1 - 4 * x - w * w
        assert abs(ee.alpha_closed(w, x) / want - 1) <= 2e-15 * (1 + w * w / eps), (x, w)


def test_alpha_closed_is_a1_plus_a2_on_one_geometry(monkeypatch) -> None:
    """alpha_closed equals a1_closed + a2_pi_combination bit for bit on a
    seeded grid of w = 0, band (1 - 4x - w^2 = 10^U(-10, -2)) and interior
    points, and builds the root geometry once per call."""
    rng = np.random.default_rng(23)
    points = []
    for _ in range(60):
        x = 10 ** rng.uniform(-4, math.log10(0.24))
        band = sqrt(1 - 4 * x - 10 ** rng.uniform(-10, -2))
        points += [(x, 0.0), (x, band), (x, rng.uniform(0, sqrt(1 - 4 * x)))]
    for x, w in points:
        assert ee.alpha_closed(w, x) == ee.a1_closed(x, w) + ee.a2_pi_combination(x, w)[0], (x, w)
    builds = 0
    geometry = ee._geometry

    def counted(x: float, w: float):
        nonlocal builds
        builds += 1
        return geometry(x, w)

    monkeypatch.setattr(ee, "_geometry", counted)
    for x, w in points:
        ee.alpha_closed(w, x)
    assert builds == len(points)


ALL_POINTS = GRID + W0_POINTS + SMALL_W_POINTS + SMALL_X_POINTS + BAND_POINTS
# small x at small and middle w, where the deleted s-interval quadrature
# cancelled in 1 - s^2 as s -> -1
CHECKPOINT_SMALL_X_POINTS = [(0.001, 0.01), (1e-4, 0.001), (1e-4, 0.5), (1e-3, 0.5)]


@pytest.mark.parametrize("x,w", ALL_POINTS + CHECKPOINT_SMALL_X_POINTS)
def test_a2_quadratures_against_mpmath(x: float, w: float) -> None:
    """The quadrature on the fixed end-mapped rule pair, on every point of
    the closed form's check and four more at small x, to 2e-15 relative to
    1 + A2, so that a rewritten integrand cannot lose digits unseen. Worst
    measured over these points: 5.3e-16, at (0.23, 2e-4). With numpy's
    leggauss rules, whose end weights are 1.3e-12 off, it was 6.4e-15."""
    ref = _a2_mpmath(x, w)
    assert abs(ee.a2_quadrature(x, w) - ref) <= 2e-15 * (1 + ref)


@pytest.mark.parametrize("x", [0.001, 0.1, 0.24])
@pytest.mark.parametrize("w", [1e-20, 1e-60, 1e-150])
def test_quadratures_at_vanishing_w(x: float, w: float) -> None:
    """Peaks far narrower than the map's floor _EPS_MIN hold a relative mass
    of order w, so the quadrature must return A2 at w = 0. Worst measured:
    3.3e-16 relative to 1 + A2 (1.1e-14 with numpy's leggauss rules)."""
    want = 2 / pi * ee.elliptic_K(4 * x)
    assert abs(ee.a2_quadrature(x, w) - want) <= 2e-15 * (1 + want)


def test_quadratures_build_only_the_fixed_rule_pair(monkeypatch) -> None:
    """No node doubling: over a peak-free point, a point with poles about
    1e-16 beyond the cut ends and w = 0, one rule of each size of the pair
    is built."""
    sizes: list[int] = []
    gl_rule = ee._gl_rule

    def record(n: int):
        sizes.append(n)
        return gl_rule(n)

    monkeypatch.setattr(ee, "_gl_rule", record)
    ee._gl_pair.cache_clear()
    for x, w in ((0.1, 0.2), (0.2, 1e-8), (0.05, 0.0)):
        assert ee.a2_quadrature(x, w) > 0
    assert sorted(sizes) == sorted(ee._GL_SIZES)
    ee._gl_pair.cache_clear()


@pytest.mark.parametrize("n", ee._GL_SIZES)
def test_gauss_legendre_rule_against_mpmath(n: int) -> None:
    """Every node of each rule on (0, 1) within 2e-16 of the 40-digit root
    and every weight within 1e-14 relative. Worst measured: 1.8e-16 and
    2.0e-15. numpy's leggauss end weights were 1.3e-12 off."""
    nodes, weights = ee._gl_rule(n)
    order = np.argsort(nodes)
    with mpmath.workdps(40):
        for k, (t, wt) in enumerate(zip(nodes[order], weights[order])):
            x = mpmath.cos(mpmath.pi * (4 * (n - k) - 1) / (4 * n + 2))
            for _ in range(8):
                p_prev, p = mpmath.mpf(1), x
                for j in range(1, n):
                    p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
                dp = n * (p_prev - x * p) / (1 - x * x)
                x -= p / dp
            assert abs(t - (1 + x) / 2) <= 2e-16, (n, k)
            assert abs(wt * (1 - x * x) * dp * dp - 1) <= 1e-14, (n, k)


def test_quadrature_loads_no_numpy_polynomial() -> None:
    """numpy.polynomial costs a few ms to import; the rules need none of it."""
    probe = (
        "import sys\n"
        "from ulam_moments import elliptic_engine as ee\n"
        "ee.a2_quadrature(0.1, 0.2)\n"
        "print('numpy.polynomial' in sys.modules)"
    )
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_a2_quadrature_at_tiny_x() -> None:
    """x = 2^-1 ... 2^-1074 at w = 0, 1e-5 and 0.5. Outside the domain the
    quadrature raises ValueError. Inside it answers down to x = 2^-500 and
    below raises the floor's ArithmeticError, with no numpy warning, and it
    is within 1e-12 (1 + A2) of the v-form wherever both answer. At
    x <= 2^-100 and w > 0 it keeps the digits of A2 = 2 x^2 / w^2 (1 + O(x)),
    to 1e-14 relative, where the v-form cancels (0 for 8e-200 at
    (1e-100, 0.5)). Without the check of c2 - c1 it raised ZeroDivisionError
    at (1e-163, 0) and (2^-700, 0.5) and overflowed in numpy at
    (2^-520, 1e-5); with (c2 - c1)^2 in its pole factors it returned 0 from
    x = 1e-100 at w = 0.5."""
    floor = "too small for float range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in (0.0, 1e-5, 0.5):
            for x in [2.0**-k for k in range(1, 1075)] + [1e-163]:
                if not (x <= ee.X_MAX and 4 * x + w * w < 1):
                    with pytest.raises(ValueError):
                        ee.a2_quadrature(x, w)
                    continue
                try:
                    got = ee.a2_quadrature(x, w)
                except ArithmeticError as exc:
                    assert x < 2.0**-500 and floor in str(exc), (x, w, exc)
                    continue
                if w > 0 and x <= 2.0**-100:
                    assert abs(got / (2 * x * x / (w * w)) - 1) <= 1e-14, (x, w, got)
                try:
                    want = ee.a2_pi_combination(x, w)[0]
                except ArithmeticError:
                    continue
                assert abs(got - want) <= 1e-12 * (1 + want), (x, w, got, want)


def test_closed_routes_use_no_gauss_legendre(monkeypatch) -> None:
    def refuse(sizes: tuple[int, int]):
        raise AssertionError(f"Gauss-Legendre rules {sizes} requested")

    monkeypatch.setattr(ee, "_gl_pair", refuse)
    assert ee.alpha_closed(0.3, 0.1) > 0
    assert ee.elliptic_K(0.9) > 0
    assert ee.a2_pi_combination(0.1, 0.3)[0] > 0
    with pytest.raises(AssertionError):
        ee.a2_quadrature(0.1, 0.3)


def test_a2_quadrature_guards(monkeypatch) -> None:
    with pytest.raises(ValueError):
        ee.a2_quadrature(0.0, 0.1)
    with pytest.raises(ValueError):
        ee.a2_quadrature(0.3, 0.1)
    with pytest.raises(ValueError):
        ee.a2_quadrature(0.1, 0.9)
    assert ee.a2_checkpoint is ee.a2_quadrature  # the benchmark's name for it
    monkeypatch.setattr(ee, "_GL_SIZES", (3, 4))  # too small to agree
    with pytest.raises(ArithmeticError, match="A2 quadrature did not converge"):
        ee.a2_quadrature(0.1, 0.1)


def test_alpha_closed_guards_and_growth() -> None:
    with pytest.raises(ValueError):
        ee.alpha_closed(-0.1, 0.1)
    with pytest.raises(ValueError):
        ee.alpha_closed(0.1, 0.25)
    with pytest.raises(ValueError):
        ee.alpha_closed(0.7, 0.15)  # w^2 >= 1 - 4x
    with pytest.raises(ArithmeticError):
        ee.alpha_closed(0.5, 1e-160)  # c2 - c1 below float range; A1 is NaN there
    # finite positive inside, increasing toward the singular boundary
    vals = [ee.alpha_closed(w, 0.15) for w in (0.3, 0.5, 0.6)]
    assert all(math.isfinite(v) and v > 0 for v in vals)
    assert vals[0] < vals[1] < vals[2]


# x across the domain, and w = 0, then quarter decades down to 1e-30 and
# whole decades down to 1e-320: w^2 leaves the normal float range near
# w = 1e-154 and underflows to 0 near 1e-162
SWEEP_X = (0.001, 0.01, 0.05, 0.1, 0.15, 0.2, 0.24)
SWEEP_W = [0.0] + [10 ** (-k / 4) for k in range(4, 121)] + [10.0**-k for k in range(31, 321)]


def test_routes_at_vanishing_w() -> None:
    """Each A1/A2 route and alpha_closed either returns a value within its
    tolerance of an independent route or raises ValueError or
    ArithmeticError, but never ZeroDivisionError; NaN fails the tolerance.
    A1 below 1e-300 is subnormal, so it is held to that absolute floor.
    K/Pi and alpha_closed raise ArithmeticError exactly where
    0 < w^2 < 2^-1000 and answer everywhere else."""
    a2_pi = lambda x, w: ee.a2_pi_combination(x, w)[0]  # noqa: E731
    alpha = lambda x, w: ee.alpha_closed(w, x)  # noqa: E731
    misses = []
    for x in SWEEP_X:
        for w in SWEEP_W:
            a1, a2 = ee.a1_closed(x, w), ee.a2_quadrature(x, w)
            ref = genfun.alpha_contour(w, x)
            floored = w > 0 and w * w < 2.0**-1000  # w^2 underflows to 0 below 1e-162
            for route, want, tol in (
                (ee.a1_residue, a1, max(1e-12 * abs(a1), 1e-300)),
                (a2_pi, a2, 1e-12 * (1 + a2)),
                (alpha, ref, 1e-9 * max(1, ref)),
            ):
                closed = route in (a2_pi, alpha)
                try:
                    got = route(x, w)
                except ZeroDivisionError as exc:
                    misses.append((route, x, w, exc))
                    continue
                except (ValueError, ArithmeticError) as exc:
                    if closed and not (floored and isinstance(exc, ArithmeticError)):
                        misses.append((route, x, w, exc))
                    continue
                if (closed and floored) or not abs(got - want) <= tol:
                    misses.append((route, x, w, got, want))
    assert not misses, (len(misses), misses[:5])


# ------------------------------------------------------- elliptic integrals


def _k_series(k: float, terms: int = 400) -> float:
    """Defining series (pi/2) sum ((2m-1)!!/(2m)!!)^2 k^(2m)."""
    total = 0.0
    coef = 1.0
    kpow = 1.0
    for m in range(terms):
        total += coef * coef * kpow
        coef *= (2 * m + 1) / (2 * m + 2)
        kpow *= k * k
    return pi / 2 * total


@pytest.mark.parametrize("k", [0.1, 0.2, 0.4, 0.6])
def test_elliptic_k_defining_series(k: float) -> None:
    assert abs(ee.elliptic_K(k) - _k_series(k)) < 1e-12


def test_elliptic_k_edge_cases() -> None:
    assert ee.elliptic_K(0.0) == pi / 2
    with pytest.raises(ValueError):
        ee.elliptic_K(1.0)
    with pytest.raises(ValueError):
        ee.elliptic_K(-0.1)


@pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 0.99, 0.999])
def test_elliptic_k_against_scipy(k: float) -> None:
    assert ee.elliptic_K(k) == pytest.approx(scipy.special.ellipk(k * k), rel=1e-12)


def _pi_even_pair(k: float, lam: float) -> float:
    """Pi(k; lam) + Pi(k; -lam) of the linear-denominator third-kind integral,
    2K(k) + (2 lam^2/3) R_J(0, k'^2, 1, 1 - lam^2): twice the conventional
    Pi(lam^2, k) by DLMF 19.25.2, the identity a2_pi_combination rests on."""
    n1 = (1 - lam) * (1 + lam)
    return 2 * ee.elliptic_K(k) + 2 * lam * lam / 3 * ee.carlson_rj0((1 - k) * (1 + k), 1.0, n1)


@pytest.mark.parametrize("k,lam", [(0.3, 0.5), (0.6, -0.4), (0.9, 0.2)])
def test_elliptic_pi_against_adaptive_quadrature(k: float, lam: float) -> None:
    """Independent oracle: adaptive integration of the conventional theta form."""
    want, err = scipy.integrate.quad(
        lambda th: 1
        / ((1 - lam * lam * math.sin(th) ** 2) * math.sqrt(1 - k * k * math.sin(th) ** 2)),
        0,
        pi / 2,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    assert err < 1e-10
    assert _pi_even_pair(k, lam) == pytest.approx(2 * want, rel=1e-10)


def test_pi_combination_k_pi_identity() -> None:
    """The returned (C0, terms) recombine to the route's value as
    (2/pi) [C0 K(k) + sum coef Pi(n, k)], with 30-digit mpmath K and Pi, and
    C0 + sum coef = 0. Kept off small w, where n_a2 rounds within 1e-12 of 1
    and the recombination itself loses digits."""
    for x, w in PI_POINTS:
        value, k_coef, terms = ee.a2_pi_combination(x, w)
        with mpmath.workdps(30):
            m = mpmath.mpf(4 * x) ** 2
            want = k_coef * mpmath.ellipk(m)
            want += sum(coef * mpmath.ellippi(n, m) for coef, n in terms)
            want = float(2 * want / mpmath.pi)
        assert abs(value - want) <= 2e-15 * (1 + want), (x, w)
        coefs = [k_coef] + [c for c, _ in terms]
        assert abs(sum(coefs)) <= 2e-15 * max(map(abs, coefs)), (x, w)  # 5.9e-16 worst


@pytest.mark.parametrize("k", [0.0, 0.1, 0.5, 0.99])
def test_elliptic_pi_near_unit_lambda(k: float) -> None:
    """The even pair against 30-digit mpmath, to a few ulps up to
    lam = 1 - 1e-12, where R_J meets p = 1 - lam^2 = 2e-12 (the K/Pi route's
    inner poles at small w)."""
    for lam in (1 - 1e-12, 0.999999, 0.9, 0.5, 0.0):
        with mpmath.workdps(30):
            want = float(2 * mpmath.ellippi(mpmath.mpf(lam) ** 2, mpmath.mpf(k) ** 2))
        assert abs(_pi_even_pair(k, lam) / want - 1) <= 2e-15, lam


# x in [0.02, 0.24] and w in [1e-8, 1e-3], where the poles sit O(w^2) beyond
# the cut ends; at w = 1e-8 and x >= 0.2, n_a2 rounds onto 1
PI_TINY_W_POINTS = [
    (x, w) for x in (0.02, 0.05, 0.1, 0.15, 0.2, 0.23, 0.24)
    for w in (1e-8, 3e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
]


def test_pi_combination_tiny_w() -> None:
    """K/Pi reads 1 - n_rho as a ratio of two product-form distances, so it
    keeps its digits down to w = 1e-8, where n_a2 rounds onto 1 and n_a1
    reaches -1e16."""
    for x, w in PI_TINY_W_POINTS:
        value, _, ((_, n_a1), (_, n_a2)) = ee.a2_pi_combination(x, w)
        want = _a2_mpmath(x, w)
        assert abs(value - want) <= 2e-15 * (1 + want), (x, w)
        assert n_a1 < 0 < 16 * x * x < n_a2 <= 1 + 1e-15, (x, w)


# ------------------------------------------------------- Carlson integrals


def _reduction_arguments(monkeypatch) -> dict[str, list[tuple[float, ...]]]:
    """Every argument tuple that the K/Pi route hands to the Carlson
    helpers over the test regions of the domain."""
    seen: dict[str, list[tuple[float, ...]]] = {"rf0": [], "rj0": []}
    for name in seen:
        real = getattr(ee, f"carlson_{name}")

        def record(*args, _real=real, _log=seen[name]):
            _log.append(args)
            return _real(*args)

        monkeypatch.setattr(ee, f"carlson_{name}", record)
    for x, w in GRID + W0_POINTS + SMALL_W_POINTS + SMALL_X_POINTS + BAND_POINTS:
        ee.a2_pi_combination(x, w)
    monkeypatch.undo()
    return seen


def test_carlson_helpers_on_reduction_arguments(monkeypatch) -> None:
    """Against scipy's duplication algorithms. The R_J arguments span
    p / z from about 1e-16 (w = 1e-8) to 1e16. K/Pi hands R_F only its
    w = 0 arguments, so R_F also runs on a seeded grid of y and z across
    twelve decades, both orders."""
    args = _reduction_arguments(monkeypatch)
    rng = np.random.default_rng(7)
    args["rf0"] += [tuple(10 ** rng.uniform(-6, 6, 2)) for _ in range(60)]
    assert min(len(v) for v in args.values()) > 50
    ratios = [p / z for _, z, p in args["rj0"]]
    assert min(ratios) < 1e-15 and max(ratios) > 1e14
    for y, z in args["rf0"]:
        assert ee.carlson_rf0(y, z) == pytest.approx(scipy.special.elliprf(0, y, z), rel=2e-15)
    for y, z, p in args["rj0"]:
        want = scipy.special.elliprj(0, y, z, p)
        assert ee.carlson_rj0(y, z, p) == pytest.approx(want, rel=2e-14)


def test_carlson_rj0_small_and_large_p() -> None:
    """The nested Q-sum keeps its digits as p / z -> 0, where the plain
    alternating sum loses sqrt(z / p) of them; 30-digit mpmath decides,
    because scipy itself drifts by about 1.7e-14 at these ratios."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        y, z = 10 ** rng.uniform(-3, 3, 2)
        p = z * 10 ** rng.uniform(-16, 16)
        want = float(mpmath.elliprj(0, y, z, p))
        assert ee.carlson_rj0(y, z, p) == pytest.approx(want, rel=4e-15)
        assert ee.carlson_rj0(y, z, p) == pytest.approx(scipy.special.elliprj(0, y, z, p), rel=3e-14)


def test_carlson_guards() -> None:
    with pytest.raises(ValueError):
        ee.carlson_rf0(0.0, 1.0)
    with pytest.raises(ValueError):
        ee.carlson_rj0(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ee.carlson_rj0(1.0, math.nan, 1.0)
    # p below the normal range, and p normal but far below y z, where the
    # first step squares past the float range; both returned NaN before
    for args in ((0.9999997745311276, 1.0, 1e-310), (1.0, 1.0, 5e-324), (1e6, 1e6, 1e-300)):
        with pytest.raises(ArithmeticError):
            ee.carlson_rj0(*args)


# ------------------------------------------------------------ K/Pi route


@pytest.mark.parametrize("x,w", PI_POINTS)
def test_legendre_transform_identity(x: float, w: float) -> None:
    """s = -u1 dn(u, k), k = 4x, walks z = (1+s)/(1-s) along the cut from c1
    to c2, where -Q1/z^2 = (1+4x)(s^2 - u2^2)(u1^2 - s^2)/(1 - s^2)^2 equals
    (1+4x) u1^4 k^4 sn^2 cn^2 / (1 - s^2)^2, and Q2/z^2 = Q1/z^2 - w^2."""
    u1 = 1 / sqrt(1 + 4 * x)
    c1, c2 = ee._geometry(x, 0.0)[:2]
    kk = ee.elliptic_K(4 * x)
    for u in np.linspace(0, kk, 7):
        sn, cn, dn, _ = scipy.special.ellipj(u, 16 * x * x)
        s = -u1 * dn
        z = (1 + s) / (1 - s)
        assert c1 * (1 - 1e-12) <= z <= c2 * (1 + 1e-12)
        want = (1 + 4 * x) * (u1 * 4 * x) ** 4 * (sn * cn) ** 2 / (1 - s * s) ** 2
        assert -ee.q1_eval(x, z) / z**2 == pytest.approx(want, rel=1e-9, abs=1e-15)
        assert ee.q2_eval(x, w, z) / z**2 == pytest.approx(ee.q1_eval(x, z) / z**2 - w * w, rel=1e-12)


@pytest.mark.parametrize("x,w", [(0.1, 0.2), (0.15, 0.3)])
def test_partial_fraction_identity_random_points(x: float, w: float) -> None:
    """Q1/Q2 = C0 + sum r_rho / (v - v_rho) in v = ((z-1)/(z+1))^2 at a
    thousand random complex points, with one pole v_rho = ((1-rho)/(1+rho))^2
    per reciprocal pair of Q2 roots, all rebuilt from the K/Pi route's own
    return through n = (u1^2 - u2^2)/(u1^2 - v_rho), coef = r_rho/(u1^2 - v_rho)."""
    c0, terms = ee.a2_pi_combination(x, w)[1:]
    spread = 16 * x * x / (1 + 4 * x)  # u1^2 - u2^2
    poles = [(1 / (1 + 4 * x) - spread / n, coef * spread / n) for coef, n in terms]
    roots = ee._geometry(x, w)[4:8]
    for (v_rho, _), rho in zip(poles, roots[:2]):
        assert v_rho == pytest.approx(((1 - rho) / (1 + rho)) ** 2, rel=1e-12)
    rng = np.random.default_rng(1234)
    checked = 0
    while checked < 1000:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if min(abs(z - rho) for rho in roots) < 0.05 or abs(z + 1) < 0.05:
            continue
        v = ((z - 1) / (z + 1)) ** 2
        rhs = c0 + sum(res / (v - v_rho) for v_rho, res in poles)
        lhs = ee.q1_eval(x, z) / ee.q2_eval(x, w, z)
        assert abs(lhs - rhs) < 1e-10, z
        checked += 1


@pytest.mark.parametrize("x,w", PI_POINTS)
def test_pi_combination_matches_quadrature(x: float, w: float) -> None:
    value, k_coef, terms = ee.a2_pi_combination(x, w)
    want = _a2_mpmath(x, w)
    assert abs(value - want) <= 2e-15 * (1 + want)
    assert abs(value - ee.a2_quadrature(x, w)) <= 1e-13 * (1 + want)
    assert len(terms) == 2
    assert k_coef == pytest.approx((1 + 4 * x) / (1 + 4 * x - w * w), rel=1e-15)


def test_pi_combination_small_w() -> None:
    """K/Pi at small w: within 2e-15 (1 + A2) of the 30-digit oracle, all
    twelve points in under a second."""
    spent = 0.0
    for x, w in PI_SMALL_W_POINTS:
        start = time.perf_counter()
        value, _, ((_, n_a1), (_, n_a2)) = ee.a2_pi_combination(x, w)
        spent += time.perf_counter() - start
        want = _a2_mpmath(x, w)
        assert abs(value - want) <= 2e-15 * (1 + want), (x, w)
        assert n_a1 < 0 < 16 * x * x < n_a2 < 1
    assert spent < 1.0


# small x: the four small-x K/Pi inputs of the benchmark, (0.0355, 0.924)
# next to the singular curve, and both ends of x at small and near-maximal w
PI_SMALL_X_POINTS = [
    (0.005, 0.2), (0.01, 0.2), (0.015, 0.5), (0.02, 0.2), (0.0355, 0.924),
    (0.001, 0.01), (0.001, 0.9), (0.001, sqrt(1 - 0.004 - 1e-3)), (0.03, 0.05), (0.03, 0.9),
]


@pytest.mark.parametrize("x,w", PI_SMALL_X_POINTS)
def test_pi_combination_small_x(x: float, w: float) -> None:
    value, _, ((_, n_a1), (_, n_a2)) = ee.a2_pi_combination(x, w)
    want = _a2_mpmath(x, w)
    assert abs(value - want) <= 2e-15 * (1 + want)
    assert n_a1 < 0 < 16 * x * x < n_a2 < 1


@pytest.mark.parametrize(
    "x,w", GRID + W0_POINTS + SMALL_W_POINTS + SMALL_X_POINTS + BAND_POINTS + W_NEAR_ONE_POINTS
)
def test_pi_combination_against_mpmath(x: float, w: float) -> None:
    """K/Pi on every point set of the closed form's check, to 2e-15 (1 + A2);
    at w = 0 it is (2/pi) K(4x)."""
    value = ee.a2_pi_combination(x, w)[0]
    want = _a2_mpmath(x, w)
    assert abs(value - want) <= 2e-15 * (1 + want)
    if w == 0:
        assert value == 2 / pi * ee.elliptic_K(4 * x)


def test_pi_combination_log_x() -> None:
    """150 seeded points with x log-uniform on [1e-6, 0.24] and w uniform
    on [0, sqrt(1 - 4x)): the route answers at every one, within 2e-15
    (1 + A2) of the oracle."""
    rng = np.random.default_rng(24)
    for _ in range(150):
        x = 10 ** rng.uniform(-6, math.log10(0.24))
        w = rng.uniform(0, sqrt(1 - 4 * x))
        want = _a2_mpmath(x, w)
        assert abs(ee.a2_pi_combination(x, w)[0] - want) <= 2e-15 * (1 + want), (x, w)


def test_reduction_guards() -> None:
    """K/Pi refuses points outside the domain, w whose square leaves the
    normal float range and x whose c2 - c1 does (it returned 0 there);
    at w = 0 it returns (2/pi) K(4x) and no Pi terms."""
    for x, w in ((0.1, -0.1), (0.2, 0.5), (0.25, 0.1), (0.0, 0.1)):
        with pytest.raises(ValueError):
            ee.a2_pi_combination(x, w)
    for x, w in ((0.1, 1e-160), (1e-160, 0.5)):
        with pytest.raises(ArithmeticError):
            ee.a2_pi_combination(x, w)
    assert ee.a2_pi_combination(0.1, 0.0) == (2 / pi * ee.elliptic_K(0.4), 1.0, [])
