"""Walk ensemble: exhaustive enumeration, Monte Carlo, and the A identity."""
from __future__ import annotations

import hashlib
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
    assert walk_lab.enumerate_walks(N) == tuple(hist)
    assert sum(hist) == returned


def test_walk_identity_small() -> None:
    """A(N, j) from occupation counts equals the closed form (the
    acceptance suite covers N <= 12 on its own)."""
    for N in range(21):
        for j in range(11):
            assert walk_lab.a_from_walk_exact(N, j) == exact_core.a_array(N, j), (N, j)


def test_return_and_marginal_probabilities() -> None:
    """P((U_{2N}, V_{2N}) = (0, 0)) = C(2N, N)^2 / 16^N."""
    for N in range(13):
        returned = sum(walk_lab.enumerate_walks(N))
        assert Fraction(returned, 16**N) == Fraction(math.comb(2 * N, N) ** 2, 16**N)
    # X = U + V and Y = U - V are independent walks with the same law, so
    # the return probability is the square of the brute-force marginal of X
    for N in range(4):
        x_zero = sum(
            1
            for steps in product(walk_lab.UNIT_STEPS, repeat=2 * N)
            if sum(du + dv for du, dv in steps) == 0
        )
        assert Fraction(x_zero, 4 ** (2 * N)) ** 2 == Fraction(math.comb(2 * N, N) ** 2, 16**N)


def test_enumeration_worker_independence() -> None:
    """The exact path has no worker split; its result must not depend on
    whether the per-N cache was cold or warm, or on the order of N. The
    cached histogram is shared by every caller, so it is read-only."""
    walk_lab.enumerate_walks.cache_clear()
    cold = walk_lab.enumerate_walks(5)
    with pytest.raises(TypeError):
        cold[1] += 1
    first_small = walk_lab.enumerate_walks(3)
    assert walk_lab.enumerate_walks(5) is cold
    walk_lab.enumerate_walks.cache_clear()
    assert walk_lab.enumerate_walks(3) == first_small
    assert walk_lab.enumerate_walks(5) == cold


def test_enumeration_guard() -> None:
    # N = 7 was past the old brute-force limit; the DP has no upper guard
    assert sum(walk_lab.enumerate_walks(7)) == math.comb(14, 7) ** 2
    with pytest.raises(ValueError):
        walk_lab.enumerate_walks(-1)


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


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 16, 17, 20, 32, 33])
def test_mc_chunk_matches_literal_decoding(N: int) -> None:
    """The block kernel against a sample-by-sample decode of the counter
    words through WalkPath and walk_stats. N = 1..4 end on a block of 2, 4,
    6 and 8 steps; N = 16 fills one word exactly, N = 17 and 20 need two
    words per sample, N = 32 fills two and N = 33 ends on a 2-step block of
    a third. Seeds -1 and 2**64 + 5 wrap the counter states mod 2^64. The
    last range starts near sample _MC_TILE but is one tile, since tiles count
    from start; chunks of several tiles run in the pinned values and the
    stream digest below. A returning walk is on the axis at t = 0 and
    t = 2N, so bins 0 and 1 stay empty, and the bins count exactly the
    returning samples."""
    j = 2
    tile = walk_lab._MC_TILE
    words_per = (2 * N + 31) // 32
    for seed, start, stop in ((0xDEADBEEF, 5, 605), (-1, 5, 605), (2**64 + 5, 5, 605),
                              (0xDEADBEEF, tile - 150, tile + 150)):
        s1 = s2 = returned = 0
        for sample in range(start, stop):
            words = [_splitmix64_word(seed, sample * words_per + w) for w in range(words_per)]
            digits = [(words[t // 32] >> (2 * (t % 32))) & 3 for t in range(2 * N)]
            stats = walk_lab.walk_stats(WalkPath(tuple(walk_lab.UNIT_STEPS[d] for d in digits)))
            qr = walk_lab.q_statistic(stats, j) if stats.returned else 0
            returned += stats.returned
            s1 += qr
            s2 += qr * qr
        assert s1 > 0, (seed, start)
        hist = walk_lab._mc_chunk(N, seed, start, stop)
        q = [0] + [math.comb(tau + j - 1, j) for tau in range(1, len(hist))]
        got = (sum(int(c) * qt for c, qt in zip(hist, q)),
               sum(int(c) * qt * qt for c, qt in zip(hist, q)))
        assert got == (s1, s2), (seed, start)
        assert hist[0] == hist[1] == 0, (seed, start)
        assert hist.sum() == returned, (seed, start)


def _walk_returns(words: np.ndarray, steps: int) -> np.ndarray:
    """Whether each column of words, walked step by step through UNIT_STEPS,
    ends at (0, 0)."""
    du, dv = (np.array([s[i] for s in walk_lab.UNIT_STEPS]) for i in (0, 1))
    u = v = 0
    for t in range(steps):
        digit = ((words[t // 32] >> np.uint64(2 * (t % 32))) & np.uint64(3)).astype(np.intp)
        u, v = u + du[digit], v + dv[digit]
    return (u == 0) & (v == 0)


@pytest.mark.parametrize("L", [2, 4, 6, 8])
def test_block_tables_match_per_step_walk(L: int) -> None:
    """Every code of the 2- and 4-step blocks, and for the 6- and 8-step ones
    2000 seeded codes plus the four straight runs (two of them are the only
    codes that reach U = 0 from |U| = L), walked step by step from each start
    U; a start at |U| >= 9 reads the clipped row, which must be 0. The
    popcount return test agrees with a step-by-step walk on every code of L
    steps, on 2000 seeded 32-step words, and on a 512-step walk that goes back
    and forth (N = 256 needs counts wider than a byte). On every code, loop_tau
    is 1 + the visits to U = 0 of a walk from (0, 0) that ends there, else 0."""
    codes = np.arange(4**L, dtype=np.uint64)
    full = np.random.default_rng(L).integers(0, 2**64, 2000, dtype=np.uint64)
    back_and_forth = np.full((16, 1), 0x8888888888888888, dtype=np.uint64)
    for words, steps in ((codes[None, :], L), (full[None, :], 32), (back_and_forth, 512)):
        want = _walk_returns(words, steps)
        assert want.any()
        assert np.array_equal(walk_lab._returned(words, steps // 2), want)
    du, hits, loop_tau = walk_lab._block_tables()
    step_u = np.array([s[0] for s in walk_lab.UNIT_STEPS])
    u_path = np.cumsum([step_u[(codes >> np.uint64(2 * t)) & np.uint64(3)] for t in range(L)], axis=0)
    want = np.where(_walk_returns(codes[None, :], L), 1 + (u_path == 0).sum(axis=0), 0)
    assert np.array_equal(loop_tau[walk_lab._BLOCK_OFFSET[L] + codes.astype(np.intp)], want)
    bits_all = range(4**L)
    if L > 4:
        straight = [d * (4**L - 1) // 3 for d in range(4)]
        bits_all = straight + list(np.random.default_rng(L).integers(0, 4**L, 2000))
    for bits in bits_all:
        code = walk_lab._BLOCK_OFFSET[L] + int(bits)
        moves = [walk_lab.UNIT_STEPS[(int(bits) >> 2 * t) & 3] for t in range(L)]
        assert du[code] == sum(m[0] for m in moves)
        for u0 in range(-12, 13):
            u, visits = u0, 0
            for m in moves:
                u += m[0]
                visits += u == 0
            assert hits[min(max(u0, -9), 9) + 9, code] == visits, (bits, u0)


def test_block_tables_read_only_and_built_before_dispatch() -> None:
    assert not any(t.flags.writeable for t in walk_lab._block_tables())
    # 5 chunks over 4 worker threads, from an empty table cache, on the
    # multi-block kernel (N = 5) and on the one-block kernel (N = 3)
    for N in (5, 3):
        walk_lab._block_tables.cache_clear()
        spread = walk_lab.a_monte_carlo(N, 1, 300000, seed=19, workers=4)
        assert walk_lab._block_tables.cache_info().misses == 1
        assert spread == walk_lab.a_monte_carlo(N, 1, 300000, seed=19)


# (estimate, stderr) of the one-step-at-a-time kernel that the block kernel
# replaced, at seed 2024 and 70000 samples (a full chunk and a partial one)
_MC_PINNED = {
    (1, 0): (4.025142857142857, 0.026240971041058984),
    (1, 2): (18.15497142857143, 0.12680062154436006),
    (2, 0): (36.432457142857146, 0.33805112406405097),
    (2, 2): (304.42422857142856, 3.1545544218834727),
    (4, 0): (4909.582628571428, 65.20896714943028),
    (4, 2): (79524.19108571428, 1235.043694080408),
    (6, 0): (878407.0948571429, 14124.864628355697),
    (6, 2): (21489935.9744, 414445.98368478456),
    (16, 0): (3.794758780877393e+17, 9896745791822930.0),
    (16, 2): (2.3411817003606147e+19, 7.849800172037185e+17),
    (17, 0): (5.156655543347836e+18, 1.461606917992121e+17),
    (17, 2): (3.5548035339665795e+20, 1.2999366833097234e+19),
    (20, 0): (1.8151157663071075e+22, 5.556752315264199e+20),
    (20, 2): (1.422560282309386e+24, 5.553602241893977e+22),
}


@pytest.mark.parametrize("N, j", sorted(_MC_PINNED))
def test_monte_carlo_pinned_to_step_kernel(N: int, j: int) -> None:
    assert walk_lab.a_monte_carlo(N, j, 70000, seed=2024) == _MC_PINNED[N, j]


# sha256 over repr of every (estimate, stderr) of the grid below, in its
# order: each N of both kernels (one block for N <= 4), a j that makes Q large,
# seeds that wrap the counter states, and sample counts of one sample, one
# partial tile and three chunks over two threads
_MC_GRID_DIGEST = "cf66ed848ed6b85f332c50a8f61e4d8e7fee7d14e9cf45f7fa6692625f5d310b"


def test_monte_carlo_stream_digest() -> None:
    digest = hashlib.sha256()
    for N, j, seed in product(range(1, 9), (0, 2, 30), (0, 1, 7, 2**63 + 11, -3)):
        for samples, workers in ((1, 1), (5000, 1), (2 * walk_lab._MC_CHUNK + 5, 2)):
            got = walk_lab.a_monte_carlo(N, j, samples, seed, workers)
            if workers > 1:
                assert got == walk_lab.a_monte_carlo(N, j, samples, seed), (N, j, seed)
            digest.update(repr(got).encode())
    assert digest.hexdigest() == _MC_GRID_DIGEST


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


def _refuse_to_sample(*args):
    raise AssertionError(f"_mc_chunk{args} ran for a call that must be refused")


def test_monte_carlo_edges_and_guards(monkeypatch) -> None:
    assert walk_lab.a_monte_carlo(0, 5, 10, seed=1) == (1.0, 0.0)
    est, err = walk_lab.a_monte_carlo(1, 1, 1, seed=3)
    assert err == 0.0
    with pytest.raises(ValueError):
        walk_lab.a_monte_carlo(1, 1, 0, seed=1)
    with pytest.raises(ValueError):
        walk_lab.a_monte_carlo(-1, 0, 10, seed=1)
    for workers in (0, -3):
        with pytest.raises(ValueError):
            walk_lab.a_monte_carlo(2, 1, 1000, seed=1, workers=workers)
    # 16^N leaves float range at N = 256, and 16^N C(2N + j, j) below it at
    # large j: ValueError up front, not OverflowError after sampling
    with monkeypatch.context() as patch:
        patch.setattr(walk_lab, "_mc_chunk", _refuse_to_sample)
        for args in ((256, 0, 100, 1), (300, 0, 70000, 1), (255, 40, 1000, 1), (255, 1, 100, 1),
                     (200, 300, 100, 1), (1, 10**80, 100, 1)):
            with pytest.raises(ValueError):
                walk_lab.a_monte_carlo(*args)
    assert walk_lab.a_monte_carlo(255, 0, 100, 1) == pytest.approx((1.12e305, 1.12e305), rel=1e-2)
    # Q reaches C(36, 30) ~ 1.9e6 at (3, 30); the sums are exact Python ints
    want = exact_core.a_array(3, 30)
    for seed in range(1, 6):
        est, err = walk_lab.a_monte_carlo(3, 30, 2**14, seed=seed)
        assert abs(est - want) <= 5 * err, seed
        assert walk_lab.a_monte_carlo(3, 30, 2**14, seed=seed, workers=2) == (est, err)
    many = 2 * walk_lab._MC_CHUNK + 5  # three chunks, so the thread pool runs
    assert walk_lab.a_monte_carlo(3, 30, many, 1, workers=2) == walk_lab.a_monte_carlo(
        3, 30, many, 1
    )


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
