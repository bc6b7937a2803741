"""Brute-force permutation oracle: distributions, moments, and symmetries."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

import pytest

from ulam_moments import exact_core, perm_oracle
from ulam_moments.perm_oracle import Permutation


def test_s3_k2_distribution_by_hand() -> None:
    # 123 -> 3 pairs, 132/213 -> 2, 231/312 -> 1, 321 -> 0
    dist = perm_oracle.z_distribution(3, 2)
    assert dist.counts == {0: 1, 1: 2, 2: 2, 3: 1}
    assert sum(dist.counts.values()) == 6


def test_count_increasing_examples() -> None:
    p = Permutation((2, 4, 1, 3, 5))
    # increasing pairs: 24,23,25,45,13,15,35
    assert perm_oracle.count_increasing(p, 2) == 7
    assert perm_oracle.count_increasing(p, 1) == 5
    assert perm_oracle.count_increasing(p, 5) == 0
    assert perm_oracle.count_increasing(Permutation(tuple(range(1, 7))), 6) == 1


def test_counts_sum_to_factorial() -> None:
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert sum(perm_oracle.z_distribution(n, k).counts.values()) == math.factorial(n)


def test_z_of_length_one_is_constant() -> None:
    dist = perm_oracle.z_distribution(5, 1)
    assert dist.counts == {5: math.factorial(5)}


@pytest.mark.parametrize("n", range(2, 7))
def test_max_support_value_attained_only_by_identity(n: int) -> None:
    """For k >= 2 only the identity reaches C(n, k) subsequences (at k = 1
    every permutation does, so that column is excluded)."""
    for k in range(2, n + 1):
        dist = perm_oracle.z_distribution(n, k)
        top = math.comb(n, k)
        assert max(dist.counts) == top
        assert dist.counts[top] == 1


def test_lis_matches_positive_count() -> None:
    """Patience sorting vs the DP: L(pi) = max{k : Z_k > 0}."""
    for n in range(1, 6):
        for vals in permutations(range(1, n + 1)):
            p = Permutation(vals)
            lis = perm_oracle.lis_length(p)
            positive = [
                k for k in range(1, n + 1) if perm_oracle.count_increasing(p, k) > 0
            ]
            assert positive == list(range(1, lis + 1))


def test_reversal_complement_symmetry() -> None:
    """Reversing indices and complementing values preserves the count."""
    for n in (4, 5):
        for vals in permutations(range(1, n + 1)):
            p = Permutation(vals)
            q = Permutation(tuple(n + 1 - v for v in reversed(vals)))
            for k in (2, 3):
                assert perm_oracle.count_increasing(
                    q, k
                ) == perm_oracle.count_increasing(p, k)


def test_moment_zero_is_one() -> None:
    dist = perm_oracle.z_distribution(4, 2)
    assert perm_oracle.moment(dist, 0) == 1


def test_factorial_moment_small_orders() -> None:
    for n in range(2, 7):
        for k in range(1, n + 1):
            assert perm_oracle.factorial_moment(n, k, 0) == 1
            assert perm_oracle.factorial_moment(n, k, 1) == exact_core.first_moment(
                n, k
            )
            # beyond the maximal support value every moment vanishes
            assert perm_oracle.factorial_moment(n, k, math.comb(n, k) + 1) == 0


def test_factorial_moment_binomial_oracle() -> None:
    """E[C(Z, s)] recomputed directly from the histogram."""
    dist = perm_oracle.z_distribution(5, 2)
    for s in range(4):
        want = Fraction(
            sum(cnt * math.comb(z, s) for z, cnt in dist.counts.items()),
            math.factorial(5),
        )
        assert perm_oracle.factorial_moment(5, 2, s) == want


def test_prob_at_least_markov_bound() -> None:
    for n in range(2, 7):
        for k in range(2, n + 1):
            mean = exact_core.first_moment(n, k)
            for r in (1, 2, 3):
                p = perm_oracle.prob_at_least(n, k, r)
                assert 0 <= p <= 1
                assert p <= mean / r


def test_prob_at_least_edges() -> None:
    assert perm_oracle.prob_at_least(4, 2, 0) == 1
    # only the reversed permutation has no increasing pair
    assert perm_oracle.prob_at_least(4, 2, 1) == Fraction(23, 24)


def test_permutation_validation() -> None:
    with pytest.raises(ValueError):
        Permutation((1, 3))
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    p = Permutation((3, 1, 2))
    assert p.n == 3


def test_guards() -> None:
    with pytest.raises(ValueError):
        perm_oracle.z_distribution(perm_oracle.ENUMERATION_GUARD + 1, 2)
    with pytest.raises(ValueError):
        perm_oracle.z_distribution(0, 1)
    with pytest.raises(ValueError):
        perm_oracle.z_distribution(4, 5)
    with pytest.raises(ValueError):
        perm_oracle.count_increasing(Permutation((2, 1)), 0)
    dist = perm_oracle.z_distribution(3, 2)
    with pytest.raises(ValueError):
        perm_oracle.moment(dist, -1)
    with pytest.raises(ValueError):
        perm_oracle.factorial_moment(3, 2, -1)
    with pytest.raises(ValueError):
        perm_oracle.prob_at_least(3, 2, -1)

