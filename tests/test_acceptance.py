"""Acceptance gate: twelve numbered criteria, one test per criterion.

Each test asserts its pinned tolerances (and runtime budget where one
applies) and prints a single "criterion NN (<label>): PASS" line on
success; run with `pytest -s tests/test_acceptance.py` to see the lines.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from ulam_moments import bounds, elliptic_engine as ee, exact_core, genfun
from ulam_moments import perm_oracle, walk_lab

# Shared evaluation grid: every (x, w) pair with x in the five-point x set,
# w in the seven-point w set, restricted to the domain 4x + w^2 < 1.
GRID = [
    (x, w)
    for x in (0.02, 0.05, 0.1, 0.15, 0.2)
    for w in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    if 4 * x + w * w < 1
]

# Six points spread over the domain for the Pi-combination checks.
PI_POINTS = [(0.05, 0.1), (0.05, 0.4), (0.1, 0.2), (0.1, 0.4), (0.15, 0.3), (0.2, 0.3)]


def test_criterion_01_exact_second_moment() -> None:
    """second_moment(n, k) equals the brute-force permutation value as exact
    rationals for every n <= 7, 1 <= k <= n (28 cases), within 60 s."""
    start = time.perf_counter()
    cases = 0
    for n in range(1, 8):
        for k in range(1, n + 1):
            dist = perm_oracle.z_distribution(n, k)
            assert exact_core.second_moment(n, k) == perm_oracle.moment(dist, 2), (n, k)
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 28
    assert elapsed < 60, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"
    print("criterion 01 (exact second-moment identity): PASS")


def test_criterion_02_walk_characterization() -> None:
    """a_from_walk_exact(N, j) = a_array(N, j) exactly for N <= 12, j <= 6,
    within 120 s."""
    start = time.perf_counter()
    pairs = [(N, j) for N in range(13) for j in range(7)]
    for N, j in pairs:
        assert walk_lab.a_from_walk_exact(N, j) == exact_core.a_array(N, j), (N, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"criterion 2 runtime {elapsed:.1f}s exceeds 120s"
    print("criterion 02 (walk characterization): PASS")


def test_criterion_03_spot_values() -> None:
    """Pinned exact values of the A array and the small second moments."""
    assert exact_core.a_array(1, 0) == 4
    assert exact_core.a_array(1, 1) == 10
    assert exact_core.a_array(1, 2) == 18
    assert exact_core.a_array(2, 0) == 36
    for j in range(8):
        assert exact_core.a_array(0, j) == 1
    assert exact_core.second_moment(3, 2) == Fraction(19, 6)
    assert exact_core.second_moment(4, 2) == Fraction(67, 6)
    print("criterion 03 (spot values): PASS")


def test_criterion_04_triple_route_alpha() -> None:
    """Series, contour, and closed-form alpha agree below 1e-9 on a
    20-point (x, w) grid inside 4x + w^2 < 1, within 30 s."""
    points = [
        (x, w)
        for x in (0.02, 0.05, 0.1, 0.15, 0.2)
        for w in (0.0, 0.1, 0.3, 0.5)
        if 4 * x + w * w < 1
    ]
    points.append((0.18, 0.3))
    assert len(points) == 20
    start = time.perf_counter()
    for x, w in points:
        ser = genfun.alpha_series(w, x)
        con = genfun.alpha_contour(w, x)
        clo = ee.alpha_closed(w, x)
        assert abs(ser - con) < 1e-9, (x, w, ser, con)
        assert abs(con - clo) < 1e-9, (x, w, con, clo)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"criterion 4 runtime {elapsed:.1f}s exceeds 30s"
    print("criterion 04 (triple-route alpha agreement): PASS")


def test_criterion_05_polya_elliptic() -> None:
    """At w = 0 the cut integral reduces to (2/pi) K(4x) to 1e-10, with K
    itself matching its defining power series to 1e-12."""
    for x in (0.05, 0.1, 0.15):
        want = (2 / math.pi) * ee.elliptic_K(4 * x)
        assert abs(ee.a2_quadrature(x, 0.0) - want) < 1e-10, x
    for k in (0.2, 0.4, 0.6):
        term, acc = 1.0, 1.0
        for m in range(1, 400):
            term *= ((2 * m - 1) / (2 * m)) ** 2 * k * k
            acc += term
            if term < 1e-18:
                break
        series = (math.pi / 2) * acc
        assert abs(ee.elliptic_K(k) - series) < 1e-12, k
    print("criterion 05 (quadrature/elliptic consistency): PASS")


def test_criterion_06_quartic_roots() -> None:
    """Root residuals below 1e-11 (raw and in units of x^2 (1+|r|)^4),
    inversive pairings to 1e-12, the full ordering chain, and the w -> 0
    degeneration of inner/outer roots, across the shared grid."""
    for x, w in GRID:
        c1, c2, d1, d2 = ee._geometry(x, 0.0)[:4]
        a1, a2, b1, b2 = ee._geometry(x, w)[4:8]
        for r in (c1, c2, d1, d2):
            res = abs(ee.q1_eval(x, r))
            assert res < 1e-11, (x, r)
            assert res < 1e-11 * x * x * (1 + abs(r)) ** 4, (x, r)
        for r in (a1, a2, b1, b2):
            res = abs(ee.q2_eval(x, w, r))
            assert res < 1e-11, (x, w, r)
            assert res < 1e-11 * x * x * (1 + abs(r)) ** 4, (x, w, r)
        assert abs(c1 * d2 - 1) < 1e-12 and abs(c2 * d1 - 1) < 1e-12, x
        assert abs(a1 * b2 - 1) < 1e-12 and abs(a2 * b1 - 1) < 1e-12, (x, w)
        assert 0 < a1 < c1 < c2 < a2 < 1 < b1 < d1 < d2 < b2, (x, w)
    for x in (0.02, 0.05, 0.1, 0.15, 0.2):
        assert ee._geometry(x, 0.0)[4:8] == ee._geometry(x, 0.0)[:4], x
        c = ee._geometry(x, 0.0)[:4]
        a = ee._geometry(x, 1e-6)[4:8]
        assert max(abs(ai - ci) for ai, ci in zip(a, c)) < 1e-8, x
    print("criterion 06 (quartic-root suite): PASS")


def test_criterion_07_a1_equivalence() -> None:
    """The residue and closed forms of the pole contribution agree to 1e-11
    relative across the shared grid."""
    for x, w in GRID:
        res, closed = ee.a1_residue(x, w), ee.a1_closed(x, w)
        assert abs(res - closed) <= 1e-11 * max(abs(res), abs(closed)), (x, w, res, closed)
    print("criterion 07 (residue-formula equivalence): PASS")


def test_criterion_08_pi_combination() -> None:
    """The complete-integral combination reproduces the cut quadrature to
    1e-12 (1 + A2) with two Pi(n, k) terms, n_a1 < 0 < k^2 < n_a2 < 1, at
    six grid points; the partial-fraction split in v = ((z-1)/(z+1))^2
    behind it, rebuilt from the returned terms, holds to 1e-10 at 1000
    random complex points."""
    for x, w in PI_POINTS:
        ref = ee.a2_quadrature(x, w)
        val, k_coef, terms = ee.a2_pi_combination(x, w)
        assert abs(val - ref) <= 1e-12 * (1 + ref), (x, w, val, ref)
        (_, n_a1), (_, n_a2) = terms
        assert n_a1 < 0 < 16 * x * x < n_a2 < 1, (x, w)
        assert math.isfinite(k_coef)
    x, w = 0.1, 0.2
    c0, terms = ee.a2_pi_combination(x, w)[1:]
    spread = 16 * x * x / (1 + 4 * x)  # u1^2 - u2^2, with n = spread / (u1^2 - v_rho)
    poles = [(1 / (1 + 4 * x) - spread / n, coef * spread / n) for coef, n in terms]
    roots = ee._geometry(x, w)[4:8]
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
    print("criterion 08 (pi-combination realization): PASS")


def test_criterion_09_branch_phase() -> None:
    """One-sided limits of g_tilde on the inner cut equal +/- i sqrt(-Q1)
    to 1e-9 with probe offset eps = 1e-6."""
    eps = 1e-6
    for x in (0.02, 0.05):
        c1, c2 = ee._geometry(x, 0.0)[:2]
        r = (c1 + c2) / 2
        want = math.sqrt(-ee.q1_eval(x, r).real)
        assert abs(ee.g_tilde(x, complex(r, eps)) - 1j * want) < 1e-9, x
        assert abs(ee.g_tilde(x, complex(r, -eps)) + 1j * want) < 1e-9, x
    for x in (0.05, 0.1, 0.15, 0.2):
        c1, c2 = ee._geometry(x, 0.0)[:2]
        for t in (0.25, 0.5, 0.75):
            r = c1 + t * (c2 - c1)
            want = math.sqrt(-ee.q1_eval(x, r).real)
            upper = ee.g_tilde(x, complex(r, eps))
            lower = ee.g_tilde(x, complex(r, -eps))
            assert abs((upper - lower) - 2j * want) < 1e-9, (x, t)
            assert abs(upper.imag - want) < 1e-9, (x, t)
    print("criterion 09 (branch-phase check): PASS")


def test_criterion_10_bonferroni() -> None:
    """Bracketing lower <= P(Z >= r) <= upper for n <= 7, r <= 3, both
    truncation parities at two depths each; inclusion-exclusion closes
    exactly at full depth for n <= 6."""
    for n in range(2, 8):
        for k in range(1, n + 1):
            for r in (1, 2, 3):
                first_even = r if r % 2 == 0 else r + 1
                first_odd = r if r % 2 == 1 else r + 1
                for R_even in (first_even, first_even + 2):
                    for R_odd in (first_odd, first_odd + 2):
                        br = bounds.bonferroni_bracket(n, k, r, R_even, R_odd)
                        assert br.lower <= br.exact <= br.upper, (n, k, r, R_even, R_odd)
    for n in range(2, 7):
        for k in range(1, n + 1):
            full = math.comb(n, k)
            for r in (1, 2, 3):
                R_even = full if full % 2 == 0 else full + 1
                R_odd = full if full % 2 == 1 else full + 1
                if R_even < r or R_odd < r:
                    continue
                br = bounds.bonferroni_bracket(n, k, r, R_even, R_odd)
                assert br.lower == br.upper == br.exact, (n, k, r)
    print("criterion 10 (Bonferroni bracketing): PASS")


def test_criterion_11_chebyshev_validity() -> None:
    """chebyshev_a_bound(N, j) >= a_array(N, j) for all 1 <= N <= 10,
    0 <= j <= 6 (floats compared with 1e-9 slack toward validity)."""
    for N in range(1, 11):
        for j in range(7):
            bound, _ = bounds.chebyshev_a_bound(N, j)
            exact = exact_core.a_array(N, j)
            assert bound >= exact * (1 - 1e-9), (N, j, bound, exact)
    print("criterion 11 (Chebyshev bound validity): PASS")


def test_criterion_12_mc_calibration() -> None:
    """At (N, j) = (3, 1), 50 seeds x 1e5 samples: every z-score within 4,
    mean z-score within 0.5, and per-seed byte reproducibility."""
    N, j, samples = 3, 1, 100_000
    exact = exact_core.a_array(N, j)
    zs = []
    runs: dict[int, tuple[float, float]] = {}
    for seed in range(1, 51):
        est, err = walk_lab.a_monte_carlo(N, j, samples, seed)
        assert err > 0
        z = (est - exact) / err
        assert abs(z) <= 4, (seed, z)
        zs.append(z)
        runs[seed] = (est, err)
    assert abs(sum(zs) / len(zs)) < 0.5
    for seed in (1, 25, 50):
        assert walk_lab.a_monte_carlo(N, j, samples, seed) == runs[seed], seed
    print("criterion 12 (Monte Carlo calibration): PASS")
