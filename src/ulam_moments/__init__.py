"""Exact and numeric second-moment machinery for counts of length-k
increasing subsequences in uniform random permutations.

The central objects are the integer array A(N, j), its generating diagonal
alpha(w, x), and the exact rational moments E[Z] and E[Z^2] built from
them. Every numeric quantity has at least two independent evaluation
routes; the test suite pins them against each other.

The root is lazy (PEP 562): ``import ulam_moments`` loads no layer and no
numpy; a re-exported name or a layer attribute loads its module on first use.
"""
from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

_HOME = {  # name -> the module that owns it; a layer owns itself
    "a_array": "exact_core", "b_coefficient": "exact_core",
    "first_moment": "exact_core", "second_moment": "exact_core",
    "alpha_contour": "genfun", "alpha_series": "genfun",
    "alpha_closed": "elliptic_engine", "elliptic_K": "elliptic_engine",
    "count_increasing": "perm_oracle", "lis_length": "perm_oracle",
    "z_distribution": "perm_oracle",
    "a_from_walk_exact": "walk_lab", "a_monte_carlo": "walk_lab", "polya_series": "walk_lab",
    **{m: m for m in ("bounds", "cli", "elliptic_engine", "exact_core", "genfun",
                      "perm_oracle", "walk_lab")},
}

__all__ = [name for name, home in _HOME.items() if name != home] + ["__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_HOME[name]}", __name__)
    return module if name == _HOME[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
