"""Checks of the benchmark's oracles themselves, and of BENCHMARK.json's
per-layer list against the tracer's.

    python3 -m pytest -q perfbench/test_oracles.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import tracer  # noqa: E402
from ulam_moments import exact_core  # noqa: E402


@pytest.mark.parametrize("N", range(7))
def test_product_formula_equals_literal_enumeration(N: int) -> None:
    for j in range(7):
        assert oracles.a_product(N, j) == exact_core.a_array_direct(N, j), (N, j)


@pytest.mark.parametrize("x", [1e-3, 0.03, 0.1, 0.17, 0.2, 0.24])
def test_mpmath_reference_at_w0_is_elliptic_k(x: float) -> None:
    assert abs(oracles.alpha_reference(0.0, x) - oracles.alpha_at_w0(x)) <= 1e-14


def test_second_moment_spot_values() -> None:
    assert oracles.second_moment(4, 2) * 6 == 67
    assert oracles.second_moment(3, 2) * 6 == 19
    assert oracles.moment_ratio(4, 2) == 67 / 54


def test_benchmark_json_per_layer_is_the_tracers_list() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracer.metric_specs()
