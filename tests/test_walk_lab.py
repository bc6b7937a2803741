"""Walk ensemble: exhaustive enumeration, Monte Carlo, and the A identity."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ulam_moments import exact_core, walk_lab
from ulam_moments.walk_lab import WalkPath, WalkStats


def test_walk_stats_hand_traces() -> None:
    # U runs 0,1,0: on the axis at t = 0 and t = 2, and (0,0) at the end
    s = walk_lab.walk_stats(WalkPath(((1, 0), (-1, 0))))
    assert s == WalkStats(tau=2, returned=True)
    # vertical round trip never leaves U = 0
    s = walk_lab.walk_stats(WalkPath(((0, 1), (0, -1))))
    assert s == WalkStats(tau=3, returned=True)
    # drifts away: only the t = 0 visit
    s = walk_lab.walk_stats(WalkPath(((1, 0), (0, 1))))
    assert s == WalkStats(tau=1, returned=False)
    assert walk_lab.walk_stats(WalkPath(())) == WalkStats(tau=1, returned=True)


def test_q_statistic_values() -> None:
    s = WalkStats(tau=3, returned=True)
    assert walk_lab.q_statistic(s, 0) == 1
    assert walk_lab.q_statistic(s, 1) == 3
    assert walk_lab.q_statistic(s, 2) == 6
    with pytest.raises(ValueError):
        walk_lab.q_statistic(s, -1)


def test_walkpath_validation() -> None:
    with pytest.raises(ValueError):
        WalkPath(((1, 0),))
    with pytest.raises(ValueError):
        WalkPath(((2, 0), (1, 0)))
    assert WalkPath(((1, 0), (0, 1))).N == 1


@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_enumeration_matches_itertools_oracle(N: int) -> None:
    """The transfer-matrix DP against a literal walk-by-walk recount."""
    hist = [0] * (2 * N + 2)
    returned = 0
    for steps in product(walk_lab.UNIT_STEPS, repeat=2 * N):
        s = walk_lab.walk_stats(WalkPath(steps))
        if s.returned:
            hist[s.tau] += 1
            returned += 1
    enum = walk_lab.enumerate_walks(N)
    assert enum.tau_hist_returned == hist
    assert enum.returned_count == returned
    assert enum.total == 4 ** (2 * N)


def test_walk_identity_small() -> None:
    """A(N, j) from occupation counts equals the closed form (the
    acceptance suite covers N <= 12 on its own)."""
    for N in range(21):
        for j in range(11):
            assert walk_lab.a_from_walk_exact(N, j) == exact_core.a_array(N, j), (N, j)


def test_return_and_marginal_probabilities() -> None:
    for N in range(13):
        enum = walk_lab.enumerate_walks(N)
        assert Fraction(enum.returned_count, enum.total) == walk_lab.return_probability(
            N
        )
    for N in range(4):
        x_zero = sum(
            1
            for steps in product(walk_lab.UNIT_STEPS, repeat=2 * N)
            if sum(du + dv for du, dv in steps) == 0
        )
        assert Fraction(x_zero, 4 ** (2 * N)) == walk_lab.x_marginal_probability(N)
    assert walk_lab.return_probability(3) == Fraction(math.comb(6, 3) ** 2, 16**3)


def test_enumeration_worker_independence() -> None:
    """The exact path has no worker split; its result must not depend on
    whether the per-N cache was cold or warm, or on the order of N."""
    for N in (5, 3):
        walk_lab._ENUM_CACHE.pop(N, None)
    cold = walk_lab.enumerate_walks(5)
    first_small = walk_lab.enumerate_walks(3)
    assert walk_lab.enumerate_walks(5) is cold
    for N in (5, 3):
        walk_lab._ENUM_CACHE.pop(N, None)
    assert walk_lab.enumerate_walks(3) == first_small
    assert walk_lab.enumerate_walks(5) == cold


def test_enumeration_guard() -> None:
    # N = 7 was past the old brute-force limit; the DP has no upper guard
    enum = walk_lab.enumerate_walks(7)
    assert enum.returned_count == math.comb(14, 7) ** 2
    with pytest.raises(ValueError):
        walk_lab.enumerate_walks(-1)


def test_exact_ensemble_scaling() -> None:
    ens = walk_lab.exact_ensemble(2, [0, 1, 3])
    assert ens.mode == "exact"
    assert ens.samples == 4**4
    assert ens.seed is None
    for j, mean in ens.q_r_mean.items():
        assert 16**2 * mean == exact_core.a_array(2, j)


def test_monte_carlo_reproducible_and_worker_independent() -> None:
    # 70000 samples spans two fixed-size chunks
    one = walk_lab.a_monte_carlo(3, 1, 70000, seed=11)
    two = walk_lab.a_monte_carlo(3, 1, 70000, seed=11)
    assert one == two
    spread = walk_lab.a_monte_carlo(3, 1, 70000, seed=11, workers=4)
    assert spread == one
    other = walk_lab.a_monte_carlo(3, 1, 70000, seed=12)
    assert other != one


def _splitmix64_word(seed: int, counter: int) -> int:
    """The counter-based generator word, in plain 64-bit integer arithmetic."""
    mask = (1 << 64) - 1
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


@pytest.mark.parametrize("N", [1, 3, 17])
def test_mc_chunk_matches_literal_decoding(N: int) -> None:
    """The step-major kernel against a sample-by-sample decode of the
    counter words through WalkPath and walk_stats (N = 17 needs two words
    per sample)."""
    j, seed, start, stop = 2, 0xDEADBEEF, 5, 305
    words_per = (2 * N + 31) // 32
    s1 = s2 = 0
    for sample in range(start, stop):
        words = [_splitmix64_word(seed, sample * words_per + w) for w in range(words_per)]
        digits = [(words[t // 32] >> (2 * (t % 32))) & 3 for t in range(2 * N)]
        stats = walk_lab.walk_stats(WalkPath(tuple(walk_lab.UNIT_STEPS[d] for d in digits)))
        qr = walk_lab.q_statistic(stats, j) if stats.returned else 0
        s1 += qr
        s2 += qr * qr
    assert s1 > 0
    qtab = np.array([0] + [math.comb(tau + j - 1, j) for tau in range(1, 2 * N + 2)])
    assert walk_lab._mc_chunk(N, seed, start, stop, qtab) == (s1, s2)


def test_monte_carlo_seed_42_regression() -> None:
    """Pinned stream values: the counter-based generator is part of the
    reproducibility contract, so a change here is a breaking change."""
    est, err = walk_lab.a_monte_carlo(3, 1, 100000, seed=42)
    assert est == 1724.29312
    assert err == pytest.approx(17.418416833721043, rel=0, abs=0)


def test_monte_carlo_estimates_calibrated() -> None:
    exact = exact_core.a_array(2, 1)
    est, err = walk_lab.a_monte_carlo(2, 1, 200000, seed=7)
    assert err > 0
    assert abs(est - exact) / err < 4


def test_monte_carlo_edges_and_guards() -> None:
    assert walk_lab.a_monte_carlo(0, 5, 10, seed=1) == (1.0, 0.0)
    est, err = walk_lab.a_monte_carlo(1, 1, 1, seed=3)
    assert err == 0.0
    with pytest.raises(ValueError):
        walk_lab.a_monte_carlo(1, 1, 0, seed=1)
    with pytest.raises(ValueError):
        walk_lab.a_monte_carlo(-1, 0, 10, seed=1)
    with pytest.raises(ValueError):
        # C(36, 30) > 10^6 overflows the integer fast-path budget
        walk_lab.a_monte_carlo(3, 30, 10, seed=1)


def test_monte_carlo_ensemble_fields() -> None:
    ens = walk_lab.monte_carlo_ensemble(2, [0, 2], samples=1000, seed=5)
    assert ens.mode == "monte_carlo"
    assert ens.samples == 1000
    assert ens.seed == 5
    assert ens.q_r_mean[2] == walk_lab.a_monte_carlo(2, 2, 1000, seed=5)
    # at j = 0 the estimator targets A(2, 0) = 36 itself
    assert ens.q_r_mean[0][0] == pytest.approx(exact_core.a_array(2, 0), rel=0.25)


def test_polya_series_exact_prefix_oracle() -> None:
    for z in (0.0, 0.25, 0.5, -0.5, 0.9):
        for terms in (1, 2, 10, 40):
            want = Fraction(0)
            zf = Fraction(z)
            for N in range(terms):
                want += Fraction(math.comb(2 * N, N) ** 2, 16**N) * zf ** (2 * N)
            got = walk_lab.polya_series(z, terms)
            assert got == pytest.approx(float(want), rel=1e-12)


def test_polya_series_guards() -> None:
    with pytest.raises(ValueError):
        walk_lab.polya_series(1.0, 5)
    with pytest.raises(ValueError):
        walk_lab.polya_series(0.5, 0)
