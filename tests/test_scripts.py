"""The experiment scripts under scripts/, each run through its main() on a
tiny grid: header, row count and finite values of the CSV it writes."""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, args: list[str], out: Path) -> tuple[list[str], list[list[str]]]:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(args + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_run_alpha_routes(tmp_path) -> None:
    # (0.2, 0.5) lies outside 4x + w^2 < 1 and is skipped
    header, rows = run_script(
        "run_alpha_routes", ["--xs", "0.05,0.2", "--ws", "0.0,0.3,0.5"], tmp_path / "a.csv"
    )
    assert header == ["x", "w", "alpha_series", "alpha_contour", "alpha_closed",
                      "max_pairwise_diff", "series_tail_bound"]
    assert len(rows) == 5
    for row in rows:
        x, w, series, contour, closed, spread, bound = (float(v) for v in row)
        assert all(math.isfinite(v) for v in (series, contour, closed, spread, bound))
        assert spread < 1e-9
        assert abs(series - closed) <= bound + 1e-14 * (1 + abs(closed))


def test_run_alpha_routes_has_no_truncation_flags(tmp_path) -> None:
    with pytest.raises(SystemExit):
        run_script("run_alpha_routes", ["--nmax", "10"], tmp_path / "a.csv")


def test_run_ratio_table(tmp_path) -> None:
    # k = round(100^0.5) = 10 and round(100^0.3) = 4; k >= n rows are skipped
    header, rows = run_script(
        "run_ratio_table", ["--n-values", "100,3", "--k-powers", "0.3,0.5,1"],
        tmp_path / "r.csv",
    )
    assert header == ["n", "k", "k_power", "ratio"]
    assert [row[:3] for row in rows] == [["100", "4", "0.3"], ["100", "10", "0.5"],
                                         ["3", "1", "0.3"], ["3", "2", "0.5"]]
    ratios = [float(row[3]) for row in rows]
    assert all(math.isfinite(r) and r >= 1 for r in ratios)


def test_run_chebyshev_sweep(tmp_path) -> None:
    header, rows = run_script(
        "run_chebyshev_sweep", ["--nmax", "2", "--jmax", "1"], tmp_path / "c.csv"
    )
    assert header == ["N", "j", "bound", "exact_A", "bound_over_exact", "x_star", "w_star"]
    assert [row[:2] for row in rows] == [["1", "0"], ["1", "1"], ["2", "0"], ["2", "1"]]
    for row in rows:
        values = [float(v) for v in row]
        assert all(math.isfinite(v) for v in values)
        assert values[4] >= 1 - 1e-12
