"""Brute-force ground truth over small symmetric groups.

Everything in this module is exact and exhaustive: enumerate all n!
permutations (lexicographically, so logs and golden files are order-stable),
count increasing subsequences by dynamic programming, and reduce to exact
distributions and moments. The enumeration guard keeps the suite at desk
scale; it is a configuration constant, not a mathematical limit.

This module is the oracle the closed-form machinery is tested against, so it
deliberately shares no code with ``exact_core`` beyond Python builtins.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _lex_permutations
from math import comb, factorial

ENUMERATION_GUARD = 9


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} stored one-based."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        if sorted(self.values) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.values}")

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def reversal(self) -> "Permutation":
        return Permutation(self.values[::-1])

    def complement(self) -> "Permutation":
        n = self.n
        return Permutation(tuple(n + 1 - v for v in self.values))


@dataclass
class ZDistribution:
    """Exact histogram of Z_{n,k} over all n! permutations.

    ``counts[z]`` is the number of permutations with exactly z increasing
    length-k subsequences; the counts always sum to n!.
    """

    n: int
    k: int
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())


def count_increasing(perm: Permutation, k: int) -> int:
    """Number of index k-tuples i1 < ... < ik with rising values.

    DP over (position, subsequence length): dp[i][l] counts increasing
    subsequences of length l ending at position i. O(n^2 k) exact integers.
    """
    n = perm.n
    if not (1 <= k <= n):
        raise ValueError(f"count_increasing needs 1 <= k <= n, got k={k}, n={n}")
    return _count_increasing(perm.values, k)


def _count_increasing(vals: tuple[int, ...], k: int) -> int:
    """The count_increasing DP on a bare value tuple, for the n! sweeps."""
    n = len(vals)
    dp = [1] * n
    for _ in range(k - 1):
        new = [0] * n
        for i in range(n):
            vi = vals[i]
            s = 0
            for h in range(i):
                if vals[h] < vi:
                    s += dp[h]
            new[i] = s
        dp = new
    return sum(dp)


def lis_length(perm: Permutation) -> int:
    """Longest increasing subsequence length via patience sorting, O(n log n)."""
    piles: list[int] = []
    for v in perm.values:
        pos = bisect_left(piles, v)
        if pos == len(piles):
            piles.append(v)
        else:
            piles[pos] = v
    return len(piles)


def _guard(n: int) -> None:
    if n > ENUMERATION_GUARD:
        raise ValueError(
            f"exhaustive enumeration guarded to n <= {ENUMERATION_GUARD}, got n={n}"
        )
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")


@lru_cache(maxsize=None)
def _distribution_items(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Cached (z, count) pairs; the n! sweep runs once per (n, k)."""
    counts: dict[int, int] = {}
    for vals in _lex_permutations(range(1, n + 1)):
        z = _count_increasing(vals, k)
        counts[z] = counts.get(z, 0) + 1
    return tuple(sorted(counts.items()))


def z_distribution(n: int, k: int) -> ZDistribution:
    """Exact distribution of Z_{n,k} by enumerating all n! permutations.

    Each call returns a fresh ZDistribution (the histogram dict is safe to
    mutate); the underlying enumeration is cached per (n, k).
    """
    _guard(n)
    if not (1 <= k <= n):
        raise ValueError(f"z_distribution needs 1 <= k <= n, got (n,k)=({n},{k})")
    return ZDistribution(n=n, k=k, counts=dict(_distribution_items(n, k)))


def moment(dist: ZDistribution, p: int) -> Fraction:
    """E[Z^p] as an exact rational."""
    if p < 0:
        raise ValueError(f"moment needs p >= 0, got p={p}")
    total = sum(cnt * z**p for z, cnt in dist.counts.items())
    return Fraction(total, factorial(dist.n))


def factorial_moment(n: int, k: int, s: int) -> Fraction:
    """E[C(Z_{n,k}, s)], the expected number of s-subsets of the Z subsequences."""
    _guard(n)
    if s < 0:
        raise ValueError(f"factorial_moment needs s >= 0, got s={s}")
    dist = z_distribution(n, k)
    total = sum(cnt * comb(z, s) for z, cnt in dist.counts.items() if z >= s)
    return Fraction(total, factorial(n))


def prob_at_least(n: int, k: int, r: int) -> Fraction:
    """P(Z_{n,k} >= r), exactly. For r = 1 this is P(LIS length >= k)."""
    _guard(n)
    if r < 0:
        raise ValueError(f"prob_at_least needs r >= 0, got r={r}")
    dist = z_distribution(n, k)
    total = sum(cnt for z, cnt in dist.counts.items() if z >= r)
    return Fraction(total, factorial(n))

