"""End-to-end checks of the command-line front end via subprocess."""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ulam_moments import bounds
from ulam_moments import elliptic_engine as ee
from ulam_moments import cli, exact_core, genfun, perm_oracle, walk_lab

CLI = [sys.executable, "-m", "ulam_moments.cli"]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=240
    )


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------------- tables


def test_table_a_golden() -> None:
    res = run_cli("table", "--A", "--nmax", "6", "--jmax", "4")
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header == ["N", "j", "A"]
    assert len(rows) == 7 * 5
    for row in rows:
        N, j, a = (int(c) for c in row)
        assert a == exact_core.a_array(N, j)


def test_table_moments() -> None:
    res = run_cli("table", "--moments", "--nmax", "4")
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header == ["n", "k", "first_moment", "second_moment"]
    got = {(int(r[0]), int(r[1])): (Fraction(r[2]), Fraction(r[3])) for r in rows}
    assert got[(3, 2)] == (Fraction(3, 2), Fraction(19, 6))
    assert got[(4, 2)] == (Fraction(3, 1), Fraction(67, 6))
    assert len(got) == 1 + 2 + 3 + 4


def test_table_requires_a_choice() -> None:
    res = run_cli("table")
    assert res.returncode == 64


# -------------------------------------------------------------- monte carlo


def test_mc_reproducible_and_worker_independent() -> None:
    many = str(2 * walk_lab._MC_CHUNK + 5)  # three chunks, so the thread pool runs
    args = ("mc", "--N", "2", "--j", "1", "--samples", many, "--seed", "11")
    first = run_cli(*args)
    second = run_cli(*args)
    third = run_cli(*args, "--workers", "3")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout == third.stdout
    header, rows = parse_csv(first.stdout)
    assert header == ["N", "j", "samples", "seed", "estimate", "stderr", "exact", "z"]
    assert rows[0][6] == str(exact_core.a_array(2, 1))
    assert abs(float(rows[0][7])) < 6.0


@pytest.mark.parametrize("N, samples, want_z", [("10", "5", "-inf"), ("1", "1", "-inf"),
                                                ("0", "3", "0")])
def test_mc_z_without_spread(N: str, samples: str, want_z: str) -> None:
    """With stderr 0, z is 0 only on the exact value; a miss is infinite with
    its sign. None of these samples returns to (0, 0), so the estimate is 0;
    at N = 0 every walk is empty and the estimate is exact."""
    res = run_cli("mc", "--N", N, "--j", "0", "--samples", samples, "--seed", "1")
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    row = dict(zip(header, rows[0]))
    assert row["stderr"] == "0"
    assert row["exact"] == str(exact_core.a_array(int(N), 0))
    assert row["estimate"] == ("1" if N == "0" else "0")
    assert row["z"] == want_z


def test_mc_missing_seed_is_usage_error() -> None:
    res = run_cli("mc", "--N", "2", "--j", "1", "--samples", "1000")
    assert res.returncode == 64


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_mc_rejects_workers_below_one(workers: str) -> None:
    res = run_cli("mc", "--N", "2", "--j", "1", "--samples", "1000", "--seed", "1",
                  "--workers", workers)
    assert res.returncode == 1
    assert res.stdout == ""
    assert "error:" in res.stderr


def test_mc_rejects_n_beyond_float_scale() -> None:
    res = run_cli("mc", "--N", "256", "--j", "0", "--samples", "100", "--seed", "1")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "error:" in res.stderr


# ----------------------------------------------------------- alpha evaluators


def test_genfun_routes_agree() -> None:
    res = run_cli("genfun", "--x", "0.05", "--w", "0.1")
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header == ["w", "x", "alpha_series", "alpha_contour", "tail_bound", "abs_diff"]
    assert float(rows[0][5]) < 1e-9
    assert float(rows[0][4]) >= 0.0


def test_genfun_tail_bound_covers_the_difference() -> None:
    """Next to the curve, where the series is 2.85 off, tail_bound (277)
    still bounds the printed difference from the contour."""
    res = run_cli("genfun", "--x", "0.1768", "--w", "0.5375")
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    row = dict(zip(header, rows[0]))
    assert float(row["abs_diff"]) > 2
    assert float(row["tail_bound"]) >= float(row["abs_diff"])


def test_genfun_nan_is_a_domain_error() -> None:
    res = run_cli("genfun", "--x", "nan", "--w", "0.1")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "alpha needs w >= 0 and x >= 0" in res.stderr


@pytest.mark.parametrize("flag", ["--nmax", "--jmax"])
def test_genfun_has_no_truncation_flags(flag: str) -> None:
    """The series table is fixed at the rows N <= 90; a size flag is malformed."""
    res = run_cli("genfun", "--x", "0.1", "--w", "0.3", flag, "10")
    assert res.returncode == 64
    assert res.stdout == ""


def test_elliptic_methods_table() -> None:
    res = run_cli("elliptic", "--x", "0.1", "--w", "0.2")
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header == ["x", "w", "a1", "a2", "alpha", "method", "residual"]
    methods = [r[5] for r in rows]
    assert methods == ["closed", "checkpoint", "pi_combination"]
    for row in rows:
        assert float(row[6]) < 1e-8
    alphas = {float(r[4]) for r in rows}
    assert max(alphas) - min(alphas) < 1e-8
    # the closed row is the production route, not the quadrature reference
    assert float(rows[0][3]) == ee.a2_pi_combination(0.1, 0.2)[0]
    assert float(rows[0][4]) == ee.alpha_closed(0.2, 0.1)


def test_elliptic_at_w_zero_has_two_rows() -> None:
    res = run_cli("elliptic", "--x", "0.1", "--w", "0.0")
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    assert [r[5] for r in rows] == ["closed", "checkpoint"]


@pytest.mark.parametrize("x,w", [(0.1, 0.2), (0.1, 0.0), (0.2, 1e-8), (0.001, 0.99)])
def test_elliptic_checkpoint_row_is_the_quadrature(x: float, w: float) -> None:
    """The checkpoint row prints the reference a2_quadrature bit for bit,
    with residual 0; the rows stay closed, checkpoint, pi_combination, or
    closed, checkpoint at w = 0."""
    res = run_cli("elliptic", "--x", repr(x), "--w", repr(w))
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout)
    assert [r[5] for r in rows] == ["closed", "checkpoint", "pi_combination"][: 3 if w > 0 else 2]
    checkpoint = rows[1]
    assert float(checkpoint[3]) == ee.a2_quadrature(x, w)
    assert float(checkpoint[6]) == 0.0


def test_elliptic_domain_error() -> None:
    res = run_cli("elliptic", "--x", "0.3", "--w", "0.1")
    assert res.returncode == 1
    assert "error" in res.stderr


@pytest.mark.parametrize("w", ["1e-6", "1e-8"])
def test_elliptic_small_w(w: str) -> None:
    """Poles O(w^2) beyond the cut ends: every route within 1e-12 (1 + A2)
    of the quadrature reference, from a cold start."""
    t0 = time.perf_counter()
    res = run_cli("elliptic", "--x", "0.2", "--w", w)
    elapsed = time.perf_counter() - t0
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout)
    assert [r[5] for r in rows] == ["closed", "checkpoint", "pi_combination"]
    for row in rows:
        assert float(row[6]) <= 1e-12 * (1 + float(row[3]))
    assert elapsed < 2.0


def test_elliptic_dump_reduction_json() -> None:
    res = run_cli("elliptic", "--x", "0.1", "--w", "0.2", "--dump-reduction")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert sorted(payload) == ["k_coefficient", "modulus_k", "terms"]
    assert payload["modulus_k"] == 0.4
    _, k_coef, terms = ee.a2_pi_combination(0.1, 0.2)
    assert payload["k_coefficient"] == k_coef
    assert payload["terms"] == [list(t) for t in terms]
    (_, n_a1), (_, n_a2) = terms
    assert n_a1 < 0 < 0.16 < n_a2 < 1


def test_elliptic_dump_reduction_skips_the_a2_routes() -> None:
    """The dump reads only the K/Pi route's return, so it runs none of the
    quadratures and stays fast at w = 1e-8."""
    t0 = time.perf_counter()
    res = run_cli("elliptic", "--x", "0.2", "--w", "1e-8", "--dump-reduction")
    elapsed = time.perf_counter() - t0
    assert res.returncode == 0, res.stderr
    assert 0 < json.loads(res.stdout)["modulus_k"] < 1
    assert elapsed < 2.0


# ------------------------------------------------------------------- bounds


def test_bounds_bracket_row() -> None:
    res = run_cli(
        "bounds", "--mode", "bracket", "--n", "4", "--k", "2", "--r", "1",
        "--R-even", "2", "--R-odd", "1",
    )
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    assert rows[0] == ["4", "2", "1", "2", "1", "-13/12", "3/1", "23/24"]


def test_bounds_bracket_missing_flag() -> None:
    res = run_cli("bounds", "--mode", "bracket", "--n", "4", "--k", "2")
    assert res.returncode == 64
    assert "--r" in res.stderr


def test_bounds_ratio_pairs() -> None:
    res = run_cli("bounds", "--mode", "ratio", "--pairs", "4:2,10:1")
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    assert float(rows[0][2]) == pytest.approx(67 / 54, rel=1e-15)
    assert float(rows[1][2]) == 1.0


@pytest.mark.parametrize("pairs", ["5", "5:2:1", "a:b", "10:3,"])
def test_bounds_ratio_malformed_pairs_is_usage_error(pairs: str) -> None:
    res = run_cli("bounds", "--mode", "ratio", "--pairs", pairs)
    assert res.returncode == 64
    assert "--pairs" in res.stderr


def test_bounds_stirling_row() -> None:
    res = run_cli("bounds", "--mode", "stirling", "--n", "2500", "--k", "50")
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    approx_log, exact_log = float(rows[0][2]), float(rows[0][4])
    assert abs(approx_log - exact_log) <= 0.02 * abs(exact_log)


def test_bounds_stirling_where_first_moment_underflows() -> None:
    """At k/n = 0.4, E[Z] = C(2500, 1000)/1000! is below the float range, yet
    exact_log stays finite and matches a 40-digit value."""
    res = run_cli("bounds", "--mode", "stirling", "--n", "2500", "--k", "1000")
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = float(mpmath.log(mpmath.binomial(2500, 1000) / mpmath.factorial(1000)))
    assert float(rows[0][4]) == pytest.approx(want, rel=1e-15, abs=0)


def test_bounds_chebyshev_row() -> None:
    res = run_cli("bounds", "--mode", "chebyshev", "--N", "1", "--j", "1")
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    assert float(rows[0][2]) >= 10 * (1 - 1e-9)
    assert rows[0][5] == "10"


# -------------------------------------------------------------------- polya


def test_polya_matches_elliptic() -> None:
    res = run_cli("polya", "--z", "0.4", "--terms", "300")
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    assert float(rows[0][4]) < 1e-10


# ------------------------------------------------------------------- verify


def test_verify_single_suite() -> None:
    res = run_cli("verify", "--suite", "exact_core")
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    assert all(r[2] == "ok" for r in rows)
    assert {r[0] for r in rows} == {"exact_core"}


def test_verify_all_suites() -> None:
    res = run_cli("verify")
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    assert [(r[0], r[1]) for r in rows] == [
        (suite, check) for suite, checks in cli.SUITES.items() for check, *_ in checks
    ]
    assert all(r[2] == "ok" for r in rows)


def test_verify_fails_under_python_O() -> None:
    """python -O strips assert statements; the verify checks raise
    explicitly, so a broken A(N, j) still fails them there."""
    probe = (
        "import sys\n"
        "from ulam_moments import cli, exact_core\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(99)\n"
        "exact_core.a_array = lambda N, j: -1\n"
        "sys.exit(cli.main(['verify']))\n"
    )
    res = subprocess.run([sys.executable, "-O", "-c", probe],
                         capture_output=True, text=True, timeout=240)
    assert res.returncode == cli.EXIT_VERIFY, res.stderr
    status = {(r[0], r[1]): r[2] for r in parse_csv(res.stdout)[1]}
    for check in (("exact_core", "a_direct"), ("exact_core", "a_row"),
                  ("exact_core", "moment_weights"), ("perm_oracle", "distribution"),
                  ("walk_lab", "walk_equals_array"), ("genfun", "alpha_routes")):
        assert status[check] == "FAIL: AssertionError", check


CHECKS = [(suite, check) for suite, checks in cli.SUITES.items() for check, *_ in checks]


def _entry(suite: str, check: str) -> tuple:
    """(rel, points, got, want) of one verify check."""
    return {name: rest for name, *rest in cli.SUITES[suite]}[check]


@pytest.mark.parametrize("suite,check", CHECKS)
def test_verify_check_in_process(suite: str, check: str) -> None:
    """Each verify check run directly, so that a failure shows its assertion."""
    cli._check(*_entry(suite, check))


def _nudged(v):
    """v one part in a million off, an integer one off; a row or a tuple in
    its first entry."""
    if isinstance(v, (tuple, list)):
        return type(v)([_nudged(v[0]), *v[1:]])
    if isinstance(v, int):
        return v + 1
    if isinstance(v, Fraction):
        return v * Fraction(1000001, 1000000)
    return v * (1 + 1e-6)


def _one_side(route):
    return lambda *args: _nudged(route(*args))


def _threaded_side(route):
    """The Monte Carlo estimate nudged on the thread pool only."""
    return lambda *args, workers=1: (
        _nudged(route(*args, workers=workers)) if workers > 1 else route(*args))


def _ratio_rows(route):
    return lambda pairs: [dataclasses.replace(r, ratio=r.ratio * (1 + 1e-6)) for r in route(pairs)]


# A bound is moved one part in a million past the exact value.
def _bracket_below_exact(route):
    def bracket(*args):
        b = route(*args)
        return dataclasses.replace(b, upper=b.exact * Fraction(999999, 1000000))
    return bracket


def _bound_below_exact(route):
    return lambda N, j: (exact_core.a_array(N, j) * (1 - 1e-6),) + route(N, j)[1:]


# (suite, check, module, route, perturbation): one side of each check
PERTURBED = [
    ("exact_core", "a_direct", exact_core, "a_array_direct", _one_side),
    ("exact_core", "a_row", exact_core, "a_row", _one_side),
    ("exact_core", "moment_weights", exact_core, "moment_weights", _one_side),
    ("perm_oracle", "distribution", perm_oracle, "moment", _one_side),
    ("walk_lab", "walk_equals_array", walk_lab, "a_from_walk_exact", _one_side),
    ("walk_lab", "mc_determinism", walk_lab, "a_monte_carlo", _threaded_side),
    ("genfun", "alpha_routes", genfun, "alpha_series", _one_side),
    ("elliptic_engine", "a1_variants", ee, "a1_residue", _one_side),
    ("elliptic_engine", "closed_route", ee, "alpha_closed", _one_side),
    ("elliptic_engine", "a2_routes", ee, "a2_pi_combination", _one_side),
    ("elliptic_engine", "elliptic_k", ee, "elliptic_K", _one_side),
    ("bounds", "bonferroni", bounds, "bonferroni_bracket", _bracket_below_exact),
    ("bounds", "ratio", bounds, "ratio_table", _ratio_rows),
    ("bounds", "chebyshev", bounds, "chebyshev_a_bound", _bound_below_exact),
]


def test_mc_determinism_spans_three_chunks() -> None:
    """The row's sample count is written out; it must keep the thread pool
    busy with three chunks of walk_lab._MC_CHUNK."""
    _, points, *_ = _entry("walk_lab", "mc_determinism")
    assert all(2 * walk_lab._MC_CHUNK < p[2] <= 3 * walk_lab._MC_CHUNK for p in points)


def test_every_verify_check_is_perturbed() -> None:
    assert [(suite, check) for suite, check, *_ in PERTURBED] == CHECKS


@pytest.mark.parametrize("suite,check,module,name,perturb", PERTURBED,
                         ids=[f"{suite}-{check}" for suite, check, *_ in PERTURBED])
def test_verify_check_catches_a_perturbed_route(suite, check, module, name, perturb,
                                                monkeypatch) -> None:
    """No check is vacuous: with one of its routes nudged, it fails."""
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    with pytest.raises(AssertionError):
        cli._check(*_entry(suite, check))


# ------------------------------------------------------------ output plumbing


def test_json_output_to_file(tmp_path) -> None:
    out = tmp_path / "rows.json"
    res = run_cli(
        "table", "--A", "--nmax", "2", "--jmax", "2",
        "--format", "json", "--out", str(out),
    )
    assert res.returncode == 0
    assert res.stdout == ""
    payload = json.loads(out.read_text())
    assert payload["verb"] == "table"
    assert len(payload["rows"]) == 9
    assert payload["rows"][0] == {"N": 0, "j": 0, "A": 1}
    # the reduction dump takes the same writer: the file holds stdout's bytes
    dump = tmp_path / "reduction.json"
    args = ("elliptic", "--x", "0.1", "--w", "0.2", "--dump-reduction")
    res = run_cli(*args, "--out", str(dump))
    assert res.returncode == 0 and res.stdout == ""
    assert dump.read_text() == run_cli(*args).stdout


def test_package_import_loads_no_scipy() -> None:
    """scipy.special alone costs about 0.2-0.3 s to import; the package and
    the CLI must not pay it, not even when the Chebyshev bound runs, inside
    the domain and on its face x = X_MAX."""
    probe = (
        "import sys, ulam_moments, ulam_moments.cli\n"
        "from ulam_moments.bounds import chebyshev_a_bound\n"
        "chebyshev_a_bound(2, 1), chebyshev_a_bound(8, 1)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_unknown_flag_is_usage_error() -> None:
    res = run_cli("table", "--A", "--no-such-flag")
    assert res.returncode == 64


def test_console_script_installed() -> None:
    """The installed ulam-moments script, or, where the package is not
    installed, the entry point that pyproject.toml declares for it, run the
    way the generated script runs it."""
    exe = shutil.which("ulam-moments")
    if exe is None:
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["ulam-moments"]
        assert target == "ulam_moments.cli:main"
        module, func = target.split(":")
        script = f"import sys; from {module} import {func}; sys.exit({func}())"
        cmd = [sys.executable, "-c", script]
    else:
        cmd = [exe]
    res = subprocess.run(
        cmd + ["table", "--A", "--nmax", "1", "--jmax", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header == ["N", "j", "A"]
    assert [r[2] for r in rows] == ["1", "1", "4", "10"]
