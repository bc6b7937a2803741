"""Random-walk realization of the A(N, j) array.

A 2D simple random walk (U_t, V_t) takes 2N unit steps from
{(1,0), (0,1), (-1,0), (0,-1)}. With

    tau = #{t in {0, ..., 2N} : U_t = 0}   (endpoints included),
    Q_{N,j} = C(tau + j - 1, j),
    R_N = [ (U_{2N}, V_{2N}) = (0, 0) ],

the array identity is A(N, j) = 16^N * E[Q_{N,j} * R_N]. Because 16^N equals
the number 4^{2N} of equally likely paths, the exact-mode value is the plain
integer sum of Q*R over all paths. This module counts it with a
transfer-matrix DP over (U, number of vertical steps, tau) in O(N^4) exact
integer updates, never listing the paths themselves. A counter-based
generator drives the Monte Carlo mode so the sample stream is a pure function
of (seed, sample index), independent of chunking and worker count. A walk of
2N <= 8 steps takes one lookup per sample in a table of R_N and tau, counted
per chunk; a longer one is decided by popcounts of X = U + V and Y = U - V,
and only the returning samples, about 1/(pi N) of them, are walked for tau.
"""
from __future__ import annotations

from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, sqrt
from sys import float_info

import numpy as np

from .exact_core import binomial

UNIT_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))

_MC_CHUNK = 1 << 16
# Samples walked together: arrays this small stay in cache and in the heap
_MC_TILE = 1 << 14
# Steps of U and V for each 2-bit digit of a generator word (UNIT_STEPS order)
_DU, _DV = (np.array([s[i] for s in UNIT_STEPS], dtype=np.int8) for i in (0, 1))
# A block of L steps is the low 2L bits of a word, with table code
# _BLOCK_OFFSET[L] + bits; from |U| >= _HIT_REACH it cannot reach U = 0
_BLOCK_OFFSET = {2: 0, 4: 16, 6: 272, 8: 4368}
_BLOCK_CODES = 69904
_HIT_REACH = 9

_SM64_GOLDEN = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB
_H_BITS, _L_BITS = 0xAAAAAAAAAAAAAAAA, 0x5555555555555555  # h and l of each digit 2h + l


@dataclass(frozen=True)
class WalkPath:
    """A fixed walk of 2N unit steps."""

    steps: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.steps) % 2 != 0:
            raise ValueError(f"walk length must be even, got {len(self.steps)}")
        for s in self.steps:
            if s not in UNIT_STEPS:
                raise ValueError(f"invalid step {s}")

    @property
    def N(self) -> int:
        return len(self.steps) // 2


@dataclass(frozen=True)
class WalkStats:
    """Occupation count of the U = 0 line and the return indicator."""

    tau: int
    returned: bool


def walk_stats(path: WalkPath) -> WalkStats:
    """tau counts t in {0, ..., 2N} with U_t = 0, including both endpoints."""
    u = 0
    v = 0
    tau = 1  # t = 0 always has U = 0
    for du, dv in path.steps:
        u += du
        v += dv
        if u == 0:
            tau += 1
    return WalkStats(tau=tau, returned=(u == 0 and v == 0))


def q_statistic(stats: WalkStats, j: int) -> int:
    """Q_{N,j} = C(tau + j - 1, j): weakly increasing j-tuples of axis-visit times."""
    if j < 0:
        raise ValueError(f"q_statistic needs j >= 0, got j={j}")
    return binomial(stats.tau + j - 1, j)


@lru_cache(maxsize=None)
def enumerate_walks(N: int) -> tuple[int, ...]:
    """Occupation-count histogram of the returning paths, cached per N:
    entry tau counts the paths back at (0, 0) after 2N steps that visit
    U = 0 tau times. It sums to the number of returning paths, out of 16^N.

    A transfer-matrix DP over the state (U, v, tau), where v counts the
    vertical steps so far. A step moves U by +-1 or is vertical (U stays, v
    grows by 1), and tau grows by 1 whenever the new U is 0. States that can
    no longer bring U back to 0 are dropped. A vertical step is counted once
    here, whatever its sign; at the end, C(v, v/2) sign choices bring V back
    to 0 (v is even, because U ends at 0 after 2N - v horizontal steps).
    """
    if N < 0:
        raise ValueError(f"enumerate_walks needs N >= 0, got N={N}")
    two_n = 2 * N
    states = {(0, 0, 1): 1}  # (U, v, tau) -> number of horizontal-sign choices
    for t in range(two_n):
        left = two_n - t - 1
        nxt = defaultdict(int)
        for (u, v, tau), cnt in states.items():
            for nu, nv in ((u + 1, v), (u - 1, v), (u, v + 1)):
                if abs(nu) <= left:
                    nxt[nu, nv, tau + (nu == 0)] += cnt
        states = nxt
    hist = [0] * (two_n + 2)
    for (_, v, tau), cnt in states.items():
        hist[tau] += cnt * comb(v, v // 2)
    return tuple(hist)


def a_from_walk_exact(N: int, j: int) -> int:
    """A(N, j) = 16^N * (sum of Q*R over all paths) / 4^{2N}, an exact integer.

    The two scale factors cancel, so this is the integer sum of
    C(tau + j - 1, j) over returning paths, taken from the cached
    occupation-count histogram.
    """
    if j < 0:
        raise ValueError(f"a_from_walk_exact needs j >= 0, got j={j}")
    return sum(
        cnt * binomial(tau + j - 1, j)
        for tau, cnt in enumerate(enumerate_walks(N))
        if cnt
    )


@lru_cache(maxsize=None)
def _block_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only int8 tables of the Monte Carlo kernel: du[code] moves U over
    a block, hits[r, code] counts its steps that end on U = 0 from the start
    U = r - 9 (rows 0 and 18 stand for |U| >= 9: zero), and loop_tau[code]
    is 1 + hits[9, code] if the block walks from (0, 0) back to (0, 0), else
    0. hits is filled from one running U per block length."""
    du, dv = np.zeros((2, _BLOCK_CODES), dtype=np.int8)
    hits = np.zeros((2 * _HIT_REACH + 1, _BLOCK_CODES), dtype=np.int8)
    for L, off in _BLOCK_OFFSET.items():
        seg = slice(off, off + 4**L)
        bits = np.arange(4**L, dtype=np.uint16)
        u = np.zeros(bits.size, dtype=np.int8)  # U after t + 1 steps from U = 0
        for t in range(L):
            digit = (bits >> 2 * t) & 3
            u += _DU[digit]
            dv[seg] += _DV[digit]
            for p in range(-t - 1, t + 2):  # a start at U = -p is on the axis now
                hits[_HIT_REACH - p, seg] += u == p
        du[seg] = u
    loop_tau = np.where((du == 0) & (dv == 0), hits[_HIT_REACH] + 1, 0).astype(np.int8)
    du.flags.writeable = hits.flags.writeable = loop_tau.flags.writeable = False
    return du, hits, loop_tau


def _returned(words: np.ndarray, N: int) -> np.ndarray:
    """Whether each column of words, read as 2N digits, walks back to (0, 0).

    In the rotated coordinates X = U + V and Y = U - V a digit 2h + l moves X
    by -1 iff h = 1 and Y by -1 iff h xor l = 1 (by +1 otherwise), so a walk
    returns iff both bit patterns have popcount N.
    """
    x_down = y_down = np.uint8(0) if N < 128 else np.int32(0)  # uint8 holds 2N < 256
    for w, z in enumerate(words):
        used = (1 << 2 * min(32, 2 * N - 32 * w)) - 1
        x_down = x_down + np.bitwise_count(z & (_H_BITS & used))
        y_down = y_down + np.bitwise_count((z ^ z >> 1) & (_L_BITS & used))
    return (x_down == N) & (y_down == N)


def _mc_chunk(N: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Histogram over tau of the returning samples among start..stop-1.

    Sample s reads its 2N steps from words s*W .. s*W + W - 1 of the counter
    stream (W = ceil(2N / 32)), two bits per step from the low bits up. Word c
    is splitmix64 of the state seed + (c+1)*golden mod 2^64, so in a tile the
    states of word w step by W*golden from one base. If 2N <= 8, the walk is
    one block: tiles take each sample's tau (0 if it does not return) from
    loop_tau, and the chunk counts each tau in 2..2N+1 once. Else _returned
    keeps the samples whose X = U + V and Y = U - V both end at 0, by popcount,
    and only those are walked, 8 steps (or 2, 4, 6 at the end) per lookup:
    hits, at the block's start U clipped to [-9, 9], counts its visits to U = 0.
    """
    du, hits, loop_tau = _block_tables()
    hits = hits.reshape(-1)  # row r, code c at r * _BLOCK_CODES + c
    two_n = 2 * N
    words_per = (two_n + 31) // 32
    hist = np.zeros(two_n + 2, dtype=np.int64)
    taus = np.empty(stop - start if two_n <= 8 else 0, dtype=np.int8)  # each sample's tau
    picked = []
    with np.errstate(over="ignore"):
        ramp = np.arange(min(_MC_TILE, stop - start), dtype=np.uint64)
        ramp *= words_per * _SM64_GOLDEN % 2**64
        for lo in range(start, stop, _MC_TILE):
            n = min(_MC_TILE, stop - lo)
            words = np.empty((words_per, n), dtype=np.uint64)
            for w, z in enumerate(words):
                base = seed + (lo * words_per + w + 1) * _SM64_GOLDEN
                np.add(ramp[:n], base % 2**64, out=z)
                z ^= z >> 30
                z *= _SM64_MIX1
                z ^= z >> 27
                z *= _SM64_MIX2
                z ^= z >> 31
            if two_n <= 8:
                code = (words[0] & np.uint64(4**two_n - 1)).view(np.int64)
                loop_tau[_BLOCK_OFFSET[two_n] :].take(code, out=taus[lo - start : lo - start + n])
            else:
                picked.append(words.compress(_returned(words, N), axis=1))
    if two_n <= 8:  # a returning walk is on the axis at t = 0 and t = 2N
        hist[2:] = [np.count_nonzero(taus == t) for t in range(2, two_n + 2)]
        return hist
    returners = np.concatenate(picked, axis=1)
    for part in range(0, returners.shape[1], _MC_TILE):
        words = returners[:, part : part + _MC_TILE]
        u = np.full(words.shape[1], _HIT_REACH, dtype=np.int16)  # U + 9, the row of hits
        tau = np.ones(words.shape[1], dtype=np.int16)  # t = 0 is on the axis
        for w, word in enumerate(words):
            left = min(32, two_n - 32 * w)
            for b in range(0, left, 8):
                L = min(8, left - b)
                code = (word & np.uint64(4**L - 1)).astype(np.intp) + _BLOCK_OFFSET[L]
                row = np.clip(u, 0, 2 * _HIT_REACH).astype(np.intp)
                tau += hits[row * _BLOCK_CODES + code]
                u += du[code]
                word >>= 16
        hist += np.bincount(tau, minlength=two_n + 2)
    return hist


def a_monte_carlo(
    N: int, j: int, samples: int, seed: int, workers: int = 1
) -> tuple[float, float]:
    """Monte Carlo estimate of A(N, j) with its standard error.

    Scales the sample mean of Q*R by 16^N. The tau histograms of fixed-size
    chunks merge by addition, and sum Q*R and sum (Q*R)^2 are exact integers
    formed from it, so results are identical for any worker count and
    reproducible for a given (seed, samples). Each Q*R lies in [0, C(2N + j, j)],
    which bounds the estimate and the sample variance; a call where either
    bound leaves float range is refused before it samples.
    """
    if not (0 <= N < 256) or j < 0:
        raise ValueError(f"a_monte_carlo needs 0 <= N < 256 and j >= 0, got ({N},{j})")
    if samples < 1:
        raise ValueError(f"a_monte_carlo needs samples >= 1, got {samples}")
    if workers < 1:
        raise ValueError(f"a_monte_carlo needs workers >= 1, got {workers}")
    two_n = 2 * N
    if N == 0:
        return 1.0, 0.0
    # qvals[tau] lines up with the histogram, where tau = 0 cannot occur
    qvals = [0] + [binomial(tau + j - 1, j) for tau in range(1, two_n + 2)]
    if max(16**N * qvals[-1], qvals[-1] ** 2 // 2) > float_info.max:  # exact int/float compare
        raise ValueError(f"a_monte_carlo({N},{j}) can leave float range")
    bounds = [(s, min(s + _MC_CHUNK, samples)) for s in range(0, samples, _MC_CHUNK)]
    _block_tables()  # built here, so that worker threads never build them twice
    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hist = sum(pool.map(lambda b: _mc_chunk(N, seed, *b), bounds))
    else:
        hist = sum(_mc_chunk(N, seed, *b) for b in bounds)
    s1 = sum(int(c) * q for c, q in zip(hist, qvals))
    s2 = sum(int(c) * q * q for c, q in zip(hist, qvals))
    scale = 16**N
    estimate = float(Fraction(scale * s1, samples))
    if samples > 1:
        var_num = samples * s2 - s1 * s1  # samples*(samples-1)*sample variance
        var = Fraction(var_num, samples * (samples - 1))
        stderr = scale * sqrt(float(var) / samples)
    else:
        stderr = 0.0
    return estimate, stderr


def polya_series(z: float, n_terms: int) -> float:
    """Partial sum of the return-probability series sum_N 16^{-N} C(2N,N)^2 z^{2N}.

    Converges (for |z| < 1) to (2/pi) * K(z), the first-kind complete elliptic
    integral normalization fixed by this very series.
    """
    if not abs(z) < 1:
        raise ValueError(f"polya_series needs |z| < 1, got z={z}")
    if n_terms < 1:
        raise ValueError(f"polya_series needs n_terms >= 1, got {n_terms}")
    total = 0.0
    central = 1.0  # C(2N,N)/4^N, updated by the ratio (2N+1)/(2N+2)
    zpow = 1.0
    for N in range(n_terms):
        total += central * central * zpow
        central *= (2 * N + 1) / (2 * N + 2)
        zpow *= z * z
    return total
