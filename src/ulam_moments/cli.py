"""Command-line front end.

Verbs: table, verify, mc, genfun, elliptic, bounds, polya. CSV is the
primary output (headers always, rationals as "p/q", floats at 17
significant digits); --format json switches to a {"verb", "rows"} object.
Exit codes: 0 success, 1 domain error, 2 verification failure, 64
malformed flags.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import elliptic_engine as ell
from . import exact_core, genfun, perm_oracle, walk_lab

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse's default error exit code collides with the verification
    failure code, so malformed flags get their own."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit(header: list[str], rows: list[list], args) -> None:
    if args.format == "json":
        payload = {
            "verb": args.verb,
            "rows": [
                {h: (_fmt(v) if isinstance(v, (Fraction, float)) else v)
                 for h, v in zip(header, row)}
                for row in rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    _write(text, args)


def _write(text: str, args) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- verbs


def _cmd_table(args) -> int:
    if args.A:
        rows = [[N, j, exact_core.a_array(N, j)]
                for N in range(args.nmax + 1) for j in range(args.jmax + 1)]
        _emit(["N", "j", "A"], rows, args)
        return EXIT_OK
    if args.moments:
        rows = [[n, k, exact_core.first_moment(n, k), exact_core.second_moment(n, k)]
                for n in range(1, args.nmax + 1) for k in range(1, n + 1)]
        _emit(["n", "k", "first_moment", "second_moment"], rows, args)
        return EXIT_OK
    print("error: choose a table with --A or --moments", file=sys.stderr)
    return EXIT_USAGE


def _cmd_mc(args) -> int:
    est, err = walk_lab.a_monte_carlo(args.N, args.j, args.samples, args.seed, args.workers)
    exact = exact_core.a_array(args.N, args.j)
    if err > 0:
        z = (est - exact) / err
    else:  # no spread: 0 on the exact value, else infinite with the sign of the miss
        z = 0.0 if est == exact else math.copysign(math.inf, est - exact)
    _emit(
        ["N", "j", "samples", "seed", "estimate", "stderr", "exact", "z"],
        [[args.N, args.j, args.samples, args.seed, est, err, exact, z]],
        args,
    )
    return EXIT_OK


def _cmd_genfun(args) -> int:
    trunc = genfun.SeriesTruncation()
    ser = genfun.alpha_series(args.w, args.x, trunc)
    con = genfun.alpha_contour(args.w, args.x)
    _emit(
        ["w", "x", "alpha_series", "alpha_contour", "tail_bound", "abs_diff"],
        [[args.w, args.x, ser, con, trunc.tail_bound, abs(ser - con)]],
        args,
    )
    return EXIT_OK


def _cmd_elliptic(args) -> int:
    x, w = args.x, args.w
    if args.dump_reduction:
        _, k_coefficient, terms = ell.a2_pi_combination(x, w)
        payload = {"modulus_k": 4 * x, "k_coefficient": k_coefficient,
                   "terms": [list(t) for t in terms]}
        _write(json.dumps(payload, indent=2) + "\n", args)
        return EXIT_OK
    a1 = ell.a1_closed(x, w)
    a2_ref = ell.a2_quadrature(x, w)
    a2_cl = ell.a2_pi_combination(x, w)[0]  # the A2 of alpha_closed
    routes = [("closed", a2_cl), ("checkpoint", ell.a2_checkpoint(x, w))]
    if w > 0:
        routes.append(("pi_combination", a2_cl))
    rows = [[x, w, a1, a2, a1 + a2, method, abs(a2 - a2_ref)] for method, a2 in routes]
    _emit(["x", "w", "a1", "a2", "alpha", "method", "residual"], rows, args)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.mode == "bracket":
        b = bounds_mod.bonferroni_bracket(
            args.n, args.k, args.r, args.R_even, args.R_odd
        )
        _emit(
            ["n", "k", "r", "R_even", "R_odd", "lower", "upper", "exact"],
            [[b.n, b.k, b.r, b.R_even, b.R_odd, b.lower, b.upper, b.exact]],
            args,
        )
        return EXIT_OK
    if args.mode == "ratio":
        rows = [[r.n, r.k, r.ratio] for r in bounds_mod.ratio_table(args.pairs)]
        _emit(["n", "k", "ratio"], rows, args)
        return EXIT_OK
    if args.mode == "chebyshev":
        bound, (xs, ws) = bounds_mod.chebyshev_a_bound(args.N, args.j)
        exact = exact_core.a_array(args.N, args.j)
        _emit(
            ["N", "j", "bound", "x_star", "w_star", "exact_A"],
            [[args.N, args.j, bound, xs, ws, exact]],
            args,
        )
        return EXIT_OK
    # stirling
    approx_log, delta = bounds_mod.stirling_log_first_moment(args.n, args.k)
    exact_log = math.log(math.comb(args.n, args.k)) - math.log(math.factorial(args.k))
    _emit(
        ["n", "k", "approx_log", "delta", "exact_log"],
        [[args.n, args.k, approx_log, delta, exact_log]],
        args,
    )
    return EXIT_OK


def _cmd_polya(args) -> int:
    partial = walk_lab.polya_series(args.z, args.terms)
    reference = (2 / math.pi) * ell.elliptic_K(args.z)
    _emit(
        ["z", "terms", "partial_sum", "elliptic_value", "abs_diff"],
        [[args.z, args.terms, partial, reference, abs(partial - reference)]],
        args,
    )
    return EXIT_OK


# ---------------------------------------------------------- verify suites


def _require(ok: bool, *context) -> None:
    """AssertionError(*context) unless ok; unlike assert, it holds under python -O."""
    if not ok:
        raise AssertionError(*context)


def _check_exact_spot_values() -> None:
    _require(exact_core.a_array(1, 0) == 4)
    _require(exact_core.a_array(1, 1) == 10)
    _require(exact_core.a_array(1, 2) == 18)
    _require(exact_core.a_array(2, 0) == 36)
    _require(exact_core.a_array(0, 7) == 1)
    _require(exact_core.a_array_direct(2, 2) == exact_core.a_array(2, 2) == 300)
    _require(exact_core.second_moment(2, 1) == 4)
    _require(exact_core.second_moment(3, 2) == Fraction(19, 6))
    _require(exact_core.second_moment(4, 2) == Fraction(67, 6))


def _check_exact_identities() -> None:
    for N in range(21):
        _require(exact_core.a_row(N, 40) == [exact_core.a_array(N, j) for j in range(41)], N)
    for k in range(41):
        want = [exact_core.a_array(k - i, i) * math.perm(2 * k, i) ** 2 for i in range(k + 1)]
        _require(exact_core.moment_weights(k) == tuple(want), k)


def _check_perm_distribution() -> None:
    dist = perm_oracle.z_distribution(3, 2)
    _require(dist.counts == {0: 1, 1: 2, 2: 2, 3: 1})
    _require(perm_oracle.moment(dist, 2) == exact_core.second_moment(3, 2))
    d42 = perm_oracle.z_distribution(4, 2)
    _require(perm_oracle.moment(d42, 2) == exact_core.second_moment(4, 2))
    _require(perm_oracle.prob_at_least(4, 2, 1) >= perm_oracle.prob_at_least(4, 2, 2))


def _check_walk_array() -> None:
    for N in range(9):
        for j in range(3):
            _require(walk_lab.a_from_walk_exact(N, j) == exact_core.a_array(N, j))
    for N in range(9):
        returned = sum(walk_lab.enumerate_walks(N))
        _require(Fraction(returned, 16**N) == walk_lab.return_probability(N))


def _check_walk_mc() -> None:
    many = 2 * walk_lab._MC_CHUNK + 5  # three chunks, so the thread pool runs
    for N in (2, 5):  # the one-block kernel and the popcount-and-walk kernel
        one = walk_lab.a_monte_carlo(N, 1, many, 7)
        _require(one == walk_lab.a_monte_carlo(N, 1, many, 7))
        _require(one == walk_lab.a_monte_carlo(N, 1, many, 7, workers=3))
    _require(abs(walk_lab.polya_series(0.4, 300) - (2 / math.pi) * ell.elliptic_K(0.4)) < 1e-10)


def _check_alpha_routes() -> None:
    for w, x in ((0.1, 0.05), (0.3, 0.1)):
        trunc = genfun.SeriesTruncation()
        ser = genfun.alpha_series(w, x, trunc)
        con = genfun.alpha_contour(w, x)
        _require(abs(ser - con) < 1e-9, (w, x, ser, con))
        _require(abs(ser - con) <= trunc.tail_bound + 1e-13 * (1 + con), (w, x, trunc.tail_bound))


def _check_roots() -> None:
    x, w = 0.1, 0.2
    c1, c2, d1, d2 = ell.q1_roots(x)
    a1, a2, b1, b2 = ell.q2_roots(x, w)
    _require(abs(c1 * d2 - 1) < 1e-12 and abs(c2 * d1 - 1) < 1e-12)
    _require(abs(a1 * b2 - 1) < 1e-12 and abs(a2 * b1 - 1) < 1e-12)
    _require(0 < a1 < c1 < c2 < a2 < 1 < b1 < d1 < d2 < b2)
    for r in (c1, c2, d1, d2):
        _require(abs(ell.q1_eval(x, r)) < 1e-11)


def _check_a1_variants() -> None:
    for x, w in ((0.1, 0.2), (0.15, 0.3)):
        res = ell.a1_residue(x, w)
        _require(abs(ell.a1_closed(x, w) - res) <= 1e-11 * abs(res))


def _check_closed_route() -> None:
    for w, x in ((0.2, 0.1), (0.1, 0.05)):
        closed = ell.alpha_closed(w, x)
        con = genfun.alpha_contour(w, x)
        _require(abs(closed - con) < 1e-9, (w, x, closed, con))
    for x, w in ((0.2, 1e-6), (0.1, 0.2)):  # the terms below are the last point's
        ref = ell.a2_quadrature(x, w)
        val, k_coefficient, terms = ell.a2_pi_combination(x, w)
        _require(abs(val - ref) <= 1e-12 * (1 + ref))
        _require(abs(ell.a2_checkpoint(x, w) - ref) < 1e-10)
    (coef_a1, n_a1), (coef_a2, n_a2) = terms
    _require(n_a1 < 0 < 16 * x * x < n_a2 < 1)
    _require(abs(k_coefficient + coef_a1 + coef_a2) <= 1e-14 * max(1, abs(coef_a1), abs(coef_a2)))
    x, w = 1e-5, 0.5  # K/Pi at small x, where A2 is 8e-10
    ref = ell.a2_quadrature(x, w)
    _require(abs(ell.a2_pi_combination(x, w)[0] - ref) <= 1e-12 * (1 + ref))
    w, x = 0.9979196888896462, 0.0010098639841811686  # b1 - a2 is short as w -> 1
    closed, con = ell.alpha_closed(w, x), genfun.alpha_contour(w, x)
    _require(abs(closed / con - 1) <= 1e-12, (w, x, closed, con))
    w, x = math.sqrt(1 - 4 * 0.24 - 1e-10), 0.24  # 1e-10 from the curve
    closed, con = ell.alpha_closed(w, x), genfun.alpha_contour(w, x)
    _require(abs(closed / con - 1) <= 1e-13, (w, x, closed, con))


def _check_elliptic_k() -> None:
    series = (math.pi / 2) * walk_lab.polya_series(0.6, 400)
    _require(abs(ell.elliptic_K(0.6) - series) < 1e-12)


def _check_bonferroni() -> None:
    b = bounds_mod.bonferroni_bracket(4, 2, 1, 2, 1)
    _require(b.upper == 3)
    _require(b.lower == Fraction(-13, 12))
    _require(b.exact == Fraction(23, 24))
    _require(b.lower <= b.exact <= b.upper)


def _check_ratio_and_stirling() -> None:
    row = bounds_mod.ratio_table([(4, 2)])[0]
    _require(row.ratio == 67 / 54)
    approx_log, _ = bounds_mod.stirling_log_first_moment(2500, 50)
    exact_log = math.log(math.comb(2500, 50)) - math.log(math.factorial(50))
    _require(abs(approx_log - exact_log) <= 0.02 * abs(exact_log))


def _check_chebyshev() -> None:
    bound, _ = bounds_mod.chebyshev_a_bound(1, 1)
    _require(bound >= 10 - 1e-9)
    bound20, _ = bounds_mod.chebyshev_a_bound(2, 0)
    _require(bound20 >= exact_core.a_array(2, 0) - 1e-9)


SUITES: dict[str, list[tuple[str, callable]]] = {
    "exact_core": [
        ("spot_values", _check_exact_spot_values),
        ("identities", _check_exact_identities),
    ],
    "perm_oracle": [("distribution", _check_perm_distribution)],
    "walk_lab": [
        ("walk_equals_array", _check_walk_array),
        ("mc_determinism", _check_walk_mc),
    ],
    "genfun": [("alpha_routes", _check_alpha_routes)],
    "elliptic_engine": [
        ("roots", _check_roots),
        ("a1_variants", _check_a1_variants),
        ("closed_route", _check_closed_route),
        ("elliptic_k", _check_elliptic_k),
    ],
    "bounds": [
        ("bonferroni", _check_bonferroni),
        ("ratio_stirling", _check_ratio_and_stirling),
        ("chebyshev", _check_chebyshev),
    ],
}


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    rows = []
    failed = False
    for name in names:
        for check_name, fn in SUITES[name]:
            try:
                fn()
                status = "ok"
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                status = f"FAIL: {type(exc).__name__}"
                failed = True
                print(f"verify {name}.{check_name}: {exc}", file=sys.stderr)
            rows.append([name, check_name, status])
    _emit(["suite", "check", "status"], rows, args)
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> _Parser:
    parser = _Parser(prog="ulam-moments")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)

    p = sub.add_parser("table", help="exact tables (A array or moments)")
    p.add_argument("--A", action="store_true", help="emit the A(N,j) table")
    p.add_argument("--moments", action="store_true", help="emit moment table")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--jmax", type=int, default=4)
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run module invariant suites")
    p.add_argument(
        "--suite", choices=tuple(SUITES) + ("all",), default="all"
    )
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mc", help="Monte Carlo estimate of A(N,j)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    common(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("genfun", help="series and contour alpha routes")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_genfun)

    p = sub.add_parser("elliptic", help="closed-form alpha evaluators")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument(
        "--dump-reduction", action="store_true",
        help="emit A2's Legendre form (modulus, K coefficient, Pi terms) as JSON",
    )
    common(p)
    p.set_defaults(func=_cmd_elliptic)

    p = sub.add_parser("bounds", help="brackets, ratios, Stirling, Chebyshev")
    p.add_argument(
        "--mode", choices=("bracket", "ratio", "chebyshev", "stirling"),
        required=True,
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--R-even", dest="R_even", type=int, default=None)
    p.add_argument("--R-odd", dest="R_odd", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--pairs", type=_pairs, default=None,
                   help="comma list of n:k pairs for --mode ratio")
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("polya", help="return-probability series partial sums")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--terms", type=int, default=200)
    common(p)
    p.set_defaults(func=_cmd_polya)

    return parser


def _pairs(text: str) -> list[tuple[int, int]]:
    """--pairs "n:k,n:k,..."; a malformed list is a usage error."""
    if not re.fullmatch(r"\d+:\d+(,\d+:\d+)*", text):
        raise argparse.ArgumentTypeError(f"expected comma-separated n:k pairs, got {text!r}")
    return [tuple(map(int, chunk.split(":"))) for chunk in text.split(",")]


def _validate_bounds_args(args, parser: _Parser) -> None:
    needed = {
        "bracket": ("n", "k", "r", "R_even", "R_odd"),
        "ratio": ("pairs",),
        "chebyshev": ("N", "j"),
        "stirling": ("n", "k"),
    }[args.mode]
    missing = [f"--{name.replace('_', '-')}" for name in needed
               if getattr(args, name) is None]
    if missing:
        parser.error(f"bounds --mode {args.mode} requires {', '.join(missing)}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "bounds":
        _validate_bounds_args(args, parser)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
