"""Exact and numeric second-moment machinery for counts of length-k
increasing subsequences in uniform random permutations.

The central objects are the integer array A(N, j), its generating diagonal
alpha(w, x), and the exact rational moments E[Z] and E[Z^2] built from
them. Every numeric quantity has at least two independent evaluation
routes; the test suite pins them against each other.
"""
from __future__ import annotations

from .exact_core import (
    a_array,
    b_coefficient,
    first_moment,
    second_moment,
)
from .genfun import alpha_contour, alpha_series
from .elliptic_engine import alpha_closed, elliptic_K
from .perm_oracle import count_increasing, lis_length, z_distribution
from .walk_lab import a_from_walk_exact, a_monte_carlo, polya_series

__version__ = "0.1.0"

__all__ = [
    "a_array",
    "a_from_walk_exact",
    "a_monte_carlo",
    "alpha_closed",
    "alpha_contour",
    "alpha_series",
    "b_coefficient",
    "count_increasing",
    "elliptic_K",
    "first_moment",
    "lis_length",
    "polya_series",
    "second_moment",
    "__version__",
]
