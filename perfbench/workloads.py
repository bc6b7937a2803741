"""Request lists and output checks of the four workloads.

A request is ``[op, *args]``. ``make(seed)`` returns one round: the same
list for the same seed, with a fixed number of requests of each kind, so
every round of every seed has the same make-up. Requests on the named
faults have inputs that do not depend on the seed. ``check`` compares one
round's outputs with ``oracles`` and returns the names of the failed
requests' faults ("unexpected" for any other failure) and the wrong
outputs.
"""
from __future__ import annotations

import csv
import io
import math
import random
from fractions import Fraction
from functools import lru_cache

import oracles

# --------------------------------------------------------------- moments

GROWTH_N = (100, 225, 400, 900, 2500, 10**4, 10**5, 10**6)
GROWTH_P = (0.2, 0.3, 0.4, 0.45, 0.5)
K_MAX = 30  # keeps every A(N, j) the moments use inside the 31 x 61 rectangle
WARM_PER_GROWTH = 7
PAIRS_PER_WARM = 4
SMALL_N = 8  # perm_oracle's brute force is run for pairs with n <= 8


def growth_rows() -> list[tuple[int, int]]:
    rows = []
    for n in GROWTH_N:
        for p in GROWTH_P:
            k = round(n**p)
            if k <= K_MAX and k < n:
                rows.append((n, k))
    return rows


def make_moments(seed: int) -> list[list]:
    """Growth rows in increasing n, each followed by warm requests whose k
    is at most the largest k requested so far."""
    rng = random.Random(seed)
    reqs: list[list] = []
    kmax = 0
    for n, k in growth_rows():
        reqs.append(["ratio", [[n, k]]])
        kmax = max(kmax, k)
        for _ in range(WARM_PER_GROWTH):
            ks = rng.randint(1, min(kmax, SMALL_N))
            pairs = [[rng.randint(ks, SMALL_N), ks]]
            for _ in range(PAIRS_PER_WARM - 1):
                kk = rng.randint(1, kmax)
                pairs.append([max(kk, round(10 ** rng.uniform(1, 6))), kk])
            reqs.append(["ratio", pairs])
    return reqs


@lru_cache(maxsize=None)
def _perm_moments(n: int, k: int) -> tuple[Fraction, Fraction]:
    """First and second moments from perm_oracle's brute force over all n!
    permutations; cached, since every round checks the same pairs."""
    from ulam_moments import perm_oracle

    dist = perm_oracle.z_distribution(n, k)
    return perm_oracle.moment(dist, 1), perm_oracle.moment(dist, 2)


def check_moments(reqs, results, extra) -> tuple[list[str], list[str]]:
    """Ratios equal the rounded exact oracle ratio and are >= 1; the exact
    moments (fetched after the timed phase) equal the oracle moments; for
    n <= 8 they also equal perm_oracle's brute-force moments."""
    failed: list[str] = []
    wrong: list[str] = []
    for (_, pairs), res in zip(reqs, results):
        if "error" in res:
            failed.append("unexpected")
            continue
        for (n, k), (rn, rk, ratio) in zip(pairs, res["ok"]):
            if (rn, rk) != (n, k) or ratio != oracles.moment_ratio(n, k) or ratio < 1:
                wrong.append(f"ratio({n},{k}) = {ratio}")
    for key, (m1, m2) in extra.items():
        n, k = map(int, key.split(","))
        got1, got2 = Fraction(m1), Fraction(m2)
        if got1 != oracles.first_moment(n, k) or got2 != oracles.second_moment(n, k):
            wrong.append(f"moments({n},{k})")
        elif n <= SMALL_N and _perm_moments(n, k) != (got1, got2):
            wrong.append(f"perm_oracle moments({n},{k})")
    return failed, wrong


# ----------------------------------------------------------------- alpha

X_MAX = 0.24
X_MIN = 0.001
SERIES_X_MAX = 0.15  # series requests stay below the tail-bound fault ...
KPI_X_MIN = 0.045  # ... and K/Pi requests above the x <= 0.03 fault ...
KPI_W_MIN = 0.01  # ... and above the small-w quadrature fault
# One shared point set, in three x strata cut at the fault edges, with
# counts in proportion to their widths. Each stratum holds w = 0, band and
# interior points as 1 : 1 : 2, and every route runs at every point of its
# stratum except where a named fault covers the stratum (K/Pi also skips
# w = 0: the route is defined for w > 0 only).
ROUTES_ALL = ("series", "contour", "closed", "checkpoint", "kpi")
ALPHA_STRATA = (  # (x_lo, x_hi, n_w0, n_band, n_inner, routes)
    (X_MIN, KPI_X_MIN, 8, 8, 16, ROUTES_ALL[:4]),
    (KPI_X_MIN, SERIES_X_MAX, 20, 20, 40, ROUTES_ALL),
    (SERIES_X_MAX, X_MAX, 16, 16, 32, ROUTES_ALL[1:]),
)
# Inputs of the named faults: fixed, never drawn from the seed.
KPI_FAULT_POINTS = ((0.2, 0.005), (0.2, 0.01), (0.5, 0.015), (0.2, 0.02))  # (w, x)
SERIES_FAULT_POINTS = ((0.3, 0.22), (0.4, 0.2), (0.5, 0.18), (0.535, 0.1768))
CHEBYSHEV_N = range(1, 11)  # the rectangle of scripts/run_chebyshev_sweep.py
CHEBYSHEV_J = range(0, 7)
# One fixed cell per N, j = N mod 7, so every j appears. Not seeded: the
# seven shifted diagonals cost 270-490 ms a round, which moved ops_per_s by
# a fifth between seeds.
CHEBYSHEV_CELLS = tuple((N, N % len(CHEBYSHEV_J)) for N in CHEBYSHEV_N)
ALPHA_TOL = 1e-9  # contour, closed, checkpoint; relative above |alpha| = 1
KPI_TOL = 1e-8
ROUNDING = 1e-13  # float rounding allowed on top of the series tail bound
W0_TOL = 1e-12


def _points(rng: random.Random, n_w0: int, n_band: int, n_inner: int,
            x_lo: float, x_hi: float) -> list[tuple[float, float]]:
    """(w, x) points with x uniform on [x_lo, x_hi): on w = 0, in the band
    1e-4 <= 1 - 4x - w^2 <= 1e-2 next to the singular curve, and in the
    interior KPI_W_MIN <= w <= 0.97 sqrt(1 - 4x), so K/Pi can run at every
    interior point."""
    pts = []
    for _ in range(n_w0):
        pts.append((0.0, rng.uniform(x_lo, x_hi)))
    for _ in range(n_band):
        x = rng.uniform(x_lo, x_hi)
        pts.append((math.sqrt(1 - 4 * x - 10 ** rng.uniform(-4, -2)), x))
    for _ in range(n_inner):
        x = rng.uniform(x_lo, x_hi)
        pts.append((rng.uniform(KPI_W_MIN, 0.97 * math.sqrt(1 - 4 * x)), x))
    return pts


def make_alpha(seed: int) -> list[list]:
    """Every route at each point of one seeded point set, the fixed
    Chebyshev cells, and the fixed inputs of the two named faults as the
    last eight requests."""
    rng = random.Random(seed)
    reqs: list[list] = []
    for x_lo, x_hi, n_w0, n_band, n_inner, routes in ALPHA_STRATA:
        for w, x in _points(rng, n_w0, n_band, n_inner, x_lo, x_hi):
            reqs += [[route, w, x] for route in routes if not (route == "kpi" and w == 0)]
    reqs += [["chebyshev", N, j] for N, j in CHEBYSHEV_CELLS]
    rng.shuffle(reqs)
    reqs += [["kpi", w, x] for w, x in KPI_FAULT_POINTS]
    reqs += [["series", w, x] for w, x in SERIES_FAULT_POINTS]
    return reqs


def alpha_faults(reqs) -> dict[int, str]:
    out = {}
    for i, (op, *args) in enumerate(reqs):
        if op == "kpi" and tuple(args) in KPI_FAULT_POINTS:
            out[i] = "kpi_small_x"
        elif op == "series" and tuple(args) in SERIES_FAULT_POINTS:
            out[i] = "series_tail_bound"
    return out


def _alpha_ok(op: str, w: float, x: float, value) -> bool:
    ref = oracles.alpha_reference(w, x)
    scale = max(1.0, abs(ref))
    if op == "series":
        val, tail = value
        ok = abs(val - ref) <= tail + ROUNDING * (1 + abs(ref))
    else:
        val = value
        ok = abs(val - ref) <= (KPI_TOL if op == "kpi" else ALPHA_TOL) * scale
    if ok and w == 0 and op != "series":
        ok = abs(val - oracles.alpha_at_w0(x)) <= W0_TOL * scale
    return ok


def check_alpha(reqs, results, extra) -> tuple[list[str], list[str]]:
    """Every route within its tolerance of the mpmath reference (the
    series within its own tail bound), every route at w = 0 also equal to
    (2/pi) K(16 x^2), Chebyshev bounds >= A (1 - 1e-9)."""
    faults = alpha_faults(reqs)
    failed: list[str] = []
    wrong: list[str] = []
    for i, ((op, *args), res) in enumerate(zip(reqs, results)):
        if "error" in res:
            failed.append(faults.get(i, "unexpected"))
            continue
        if op == "chebyshev":
            N, j = args
            if not res["ok"] >= oracles.a_product(N, j) * (1 - 1e-9):
                wrong.append(f"chebyshev({N},{j}) = {res['ok']}")
        elif not _alpha_ok(op, *args, res["ok"]):
            if faults.get(i) == "series_tail_bound":
                failed.append("series_tail_bound")
            else:
                wrong.append(f"{op}{tuple(args)} = {res['ok']}")
    return failed, wrong


# ------------------------------------------------------------------ walk

WALK_N = range(0, 7)
WALK_J_PER_N = 3
MC_N = range(1, 7)
MC_PER_N = 20
MC_SAMPLES = 1 << 17
MC_Z = 5.0


def make_walk(seed: int) -> list[list]:
    """Exact requests (the first one for each N sweeps all 4^{2N} paths),
    Monte Carlo requests at workers=1, and one Monte Carlo request repeated
    at workers=2 as the last request."""
    rng = random.Random(seed)
    reqs: list[list] = []
    for N in WALK_N:
        reqs += [["exact", N, j] for j in rng.sample(range(9), WALK_J_PER_N)]
    for N in MC_N:
        reqs += [["mc", N, rng.randint(0, 4), MC_SAMPLES, rng.getrandbits(32), 1]
                 for _ in range(MC_PER_N)]
    rng.shuffle(reqs)
    first_mc = next(r for r in reqs if r[0] == "mc")
    reqs.append(first_mc[:5] + [2])
    return reqs


def check_walk(reqs, results, extra) -> tuple[list[str], list[str]]:
    """Exact walk counts equal A; Monte Carlo estimates lie within 5
    standard errors of A; the workers=2 repeat equals its workers=1 twin."""
    failed: list[str] = []
    wrong: list[str] = []
    by_args: dict[tuple, list] = {}
    for (op, *args), res in zip(reqs, results):
        if "error" in res:
            failed.append("unexpected")
            continue
        a = oracles.a_product(args[0], args[1])
        if op == "exact":
            if res["ok"] != a:
                wrong.append(f"walk exact{tuple(args)} = {res['ok']}")
            continue
        est, err = res["ok"]
        if not abs(est - a) <= MC_Z * err and not (err == 0 and est == a):
            wrong.append(f"mc{tuple(args)} = {est} +- {err}, A = {a}")
        twin = by_args.setdefault(tuple(args[:4]), res["ok"])
        if twin != res["ok"]:
            wrong.append(f"mc{tuple(args)} differs between worker counts")
    return failed, wrong


# ------------------------------------------------------------------- cli

CLI_FAULT = ["elliptic", "--x", "0.02", "--w", "0.2"]


def _cli_verbs(rng: random.Random) -> list[list]:
    """Every verb once, with seeded arguments, as ``[label, argv]``."""
    f = lambda lo, hi: f"{rng.uniform(lo, hi):.6g}"  # noqa: E731
    gx = float(f(0.01, SERIES_X_MAX))
    ex = float(f(KPI_X_MIN, X_MAX))
    r = rng.randint(1, 2)
    pairs = ",".join(f"{rng.randint(100, 10**6)}:{rng.randint(2, 15)}" for _ in range(3))
    reqs = [
        ["table_A", ["table", "--A", "--nmax", str(rng.randint(4, 8)),
                     "--jmax", str(rng.randint(3, 6))]],
        ["table_moments", ["table", "--moments", "--nmax", str(rng.randint(8, 12))]],
        ["genfun", ["genfun", "--x", str(gx),
                    "--w", f(0.0, 0.9 * math.sqrt(1 - 4 * gx))]],
        ["elliptic", ["elliptic", "--x", str(ex),
                      "--w", f(KPI_W_MIN, 0.9 * math.sqrt(1 - 4 * ex))]],
        ["bounds_bracket", ["bounds", "--mode", "bracket", "--n", str(rng.randint(4, 8)),
                            "--k", str(rng.randint(2, 3)), "--r", str(r),
                            "--R-even", str(rng.choice((2, 4))), "--R-odd", "3"]],
        ["bounds_ratio", ["bounds", "--mode", "ratio", "--pairs", pairs]],
        ["bounds_chebyshev", ["bounds", "--mode", "chebyshev",
                              "--N", str(rng.choice(CHEBYSHEV_N)),
                              "--j", str(rng.choice(CHEBYSHEV_J))]],
        ["bounds_stirling", ["bounds", "--mode", "stirling",
                             "--n", str(rng.randint(1000, 10**4)),
                             "--k", str(rng.randint(10, 60))]],
        ["mc", ["mc", "--N", str(rng.randint(1, 5)), "--j", str(rng.randint(0, 3)),
                "--samples", "100000", "--seed", str(rng.getrandbits(32))]],
        ["polya", ["polya", "--z", f(0.1, 0.6), "--terms", "300"]],
        ["verify", ["verify", "--suite", "all"]],
    ]
    return reqs


def make_cli(seed: int) -> list[list]:
    """One cold ``python -m ulam_moments.cli`` per request: every verb once
    with seeded arguments, shuffled, then the named fault."""
    rng = random.Random(seed)
    reqs = _cli_verbs(rng)
    rng.shuffle(reqs)
    reqs.append(["elliptic", CLI_FAULT])
    return reqs


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _check_cli_one(label: str, argv: list[str], rows: list[dict[str, str]]) -> bool:
    num = lambda key: [float(r[key]) for r in rows]  # noqa: E731
    if label == "table_A":
        want = [(N, j) for N in range(int(_flag(argv, "--nmax")) + 1)
                for j in range(int(_flag(argv, "--jmax")) + 1)]
        return [(int(r["N"]), int(r["j"]), int(r["A"])) for r in rows] == \
            [(N, j, oracles.a_product(N, j)) for N, j in want]
    if label == "table_moments":
        nmax = int(_flag(argv, "--nmax"))
        want = [(n, k) for n in range(1, nmax + 1) for k in range(1, n + 1)]
        got = [(int(r["n"]), int(r["k"]), Fraction(r["first_moment"]),
                Fraction(r["second_moment"])) for r in rows]
        return got == [(n, k, oracles.first_moment(n, k), oracles.second_moment(n, k))
                       for n, k in want]
    if label == "genfun":
        (row,) = rows
        w, x = float(row["w"]), float(row["x"])
        return (_alpha_ok("series", w, x, (float(row["alpha_series"]), float(row["tail_bound"])))
                and _alpha_ok("contour", w, x, float(row["alpha_contour"])))
    if label == "elliptic":
        w, x = float(_flag(argv, "--w")), float(_flag(argv, "--x"))
        methods = [r["method"] for r in rows]
        if methods != ["closed", "checkpoint", "pi_combination"][: 3 if w > 0 else 2]:
            return False
        return all(_alpha_ok("kpi" if r["method"] == "pi_combination" else "closed",
                             w, x, float(r["alpha"])) for r in rows)
    if label == "bounds_bracket":
        from ulam_moments import perm_oracle

        (row,) = rows
        n, k, r = int(row["n"]), int(row["k"]), int(row["r"])
        dist = perm_oracle.z_distribution(n, k)
        hist, total = dict(dist.counts), sum(dist.counts.values())
        lo, hi, ex = (Fraction(row[c]) for c in ("lower", "upper", "exact"))
        sides = {}
        for R in (int(row["R_even"]), int(row["R_odd"])):
            sides["lower" if (R - r) % 2 else "upper"] = oracles.bonferroni_partial(hist, total, r, R)
        return (ex == oracles.prob_at_least(hist, total, r) and lo <= ex <= hi
                and (lo, hi) == (sides["lower"], sides["upper"]))
    if label == "bounds_ratio":
        return [(int(r["n"]), int(r["k"]), float(r["ratio"])) for r in rows] == \
            [(n, k, oracles.moment_ratio(n, k)) for n, k in
             (map(int, p.split(":")) for p in _flag(argv, "--pairs").split(","))]
    if label == "bounds_chebyshev":
        (row,) = rows
        a = oracles.a_product(int(row["N"]), int(row["j"]))
        return int(row["exact_A"]) == a and float(row["bound"]) >= a * (1 - 1e-9)
    if label == "bounds_stirling":
        (row,) = rows
        want = oracles.log_first_moment(int(row["n"]), int(row["k"]))
        return abs(float(row["exact_log"]) - want) <= 1e-12 * abs(want) \
            and math.isfinite(float(row["approx_log"]))
    if label == "mc":
        (row,) = rows
        a = oracles.a_product(int(row["N"]), int(row["j"]))
        return int(row["exact"]) == a and \
            abs(float(row["estimate"]) - a) <= MC_Z * float(row["stderr"])
    if label == "polya":
        (row,) = rows
        ref = oracles.polya_limit(float(row["z"]))
        return abs(float(row["elliptic_value"]) - ref) <= 1e-12 and \
            abs(float(row["partial_sum"]) - ref) <= 1e-12
    if label == "verify":
        return len(rows) > 0 and all(r["status"] == "ok" for r in rows)
    return False


def check_cli(reqs, results, extra) -> tuple[list[str], list[str]]:
    """Exit code 0 and CSV rows that match the oracles; the named fault
    request must exit 1."""
    failed: list[str] = []
    wrong: list[str] = []
    for (label, argv), res in zip(reqs, results):
        if argv == CLI_FAULT and res["code"] != 0:
            failed.append("cli_elliptic_small_x")
            if res["code"] != 1:
                wrong.append(f"{' '.join(argv)} exited {res['code']}")
            continue
        if res["code"] != 0:
            failed.append("unexpected")
            continue
        try:
            ok = _check_cli_one(label, argv, _rows(res["stdout"]))
        except (KeyError, ValueError) as exc:
            ok = False
            res["stderr"] += f"\nunparsable output: {exc!r}"
        if not ok:
            wrong.append(f"{' '.join(argv)} -> {res['stdout'][:300]!r}")
    return failed, wrong


WORKLOADS = {
    "moments": (make_moments, check_moments),
    "alpha": (make_alpha, check_alpha),
    "walk": (make_walk, check_walk),
    "cli": (make_cli, check_cli),
}
