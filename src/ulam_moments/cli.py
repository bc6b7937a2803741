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
    routes = [("closed", a2_cl), ("checkpoint", a2_ref)]  # the reference, residual 0
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


def _check(rel: float, points: list[tuple], got, want) -> None:
    """AssertionError(point, got, want) at the first point where
    |got - want| > rel (1 + |want|); rel = 0 asks for equality, of whole
    rows too. Unlike assert, it holds under python -O."""
    for point in points:
        g, w = got(*point), want(*point)
        if not (g == w if rel == 0 else abs(g - w) <= rel * (1 + abs(w))):
            raise AssertionError(point, g, w)


def _bracket_median(n: int, k: int, r: int, R_even: int, R_odd: int):
    """The exact P(Z >= r) clamped into its Bonferroni bracket: it is the
    exact value iff the bracket holds it."""
    b = bounds_mod.bonferroni_bracket(n, k, r, R_even, R_odd)
    return sorted((b.lower, b.exact, b.upper))[1]


# Each check compares one quantity with an independent route at every
# point: (name, rel, points, got, want), run as _check(rel, points, got,
# want). The routes are looked up when the check runs. Value pins, root
# algebra, coefficient identities and guards are left to the tests.
SUITES: dict[str, list[tuple]] = {
    "exact_core": [
        ("a_direct", 0, [(2, 2)],
         lambda N, j: exact_core.a_array_direct(N, j), lambda N, j: exact_core.a_array(N, j)),
        ("a_row", 0, [(N,) for N in range(21)], lambda N: exact_core.a_row(N, 40),
         lambda N: [exact_core.a_array(N, j) for j in range(41)]),
        ("moment_weights", 0, [(k,) for k in range(41)], lambda k: exact_core.moment_weights(k),
         lambda k: tuple(exact_core.a_array(k - i, i) * math.perm(2 * k, i) ** 2
                         for i in range(k + 1))),
    ],
    "perm_oracle": [
        ("distribution", 0, [(3, 2), (4, 2)],
         lambda n, k: perm_oracle.moment(perm_oracle.z_distribution(n, k), 2),
         lambda n, k: exact_core.second_moment(n, k)),
    ],
    "walk_lab": [
        ("walk_equals_array", 0, [(N, j) for N in range(9) for j in range(3)],
         lambda N, j: walk_lab.a_from_walk_exact(N, j), lambda N, j: exact_core.a_array(N, j)),
        # three chunks, so the thread pool runs, on the one-block kernel
        # (N = 2) and the popcount-and-walk kernel (N = 5)
        ("mc_determinism", 0, [(N, 1, 2 * walk_lab._MC_CHUNK + 5, 7) for N in (2, 5)],
         lambda *p: walk_lab.a_monte_carlo(*p, workers=3), lambda *p: walk_lab.a_monte_carlo(*p)),
    ],
    "genfun": [
        ("alpha_routes", 1e-14, [(0.1, 0.05), (0.3, 0.1)],
         lambda w, x: genfun.alpha_series(w, x), lambda w, x: genfun.alpha_contour(w, x)),
    ],
    "elliptic_engine": [
        ("a1_variants", 1e-14, [(0.1, 0.2), (0.15, 0.3)],
         lambda x, w: ell.a1_residue(x, w), lambda x, w: ell.a1_closed(x, w)),
        # b1 - a2 is short as w -> 1 at the third point; the last is 1e-10
        # from the curve 4x + w^2 = 1
        ("closed_route", 1e-14,
         [(0.2, 0.1), (0.1, 0.05), (0.9979196888896462, 0.0010098639841811686),
          (math.sqrt(1 - 4 * 0.24 - 1e-10), 0.24)],
         lambda w, x: ell.alpha_closed(w, x), lambda w, x: genfun.alpha_contour(w, x)),
        # at (1e-5, 0.5), K/Pi at small x, A2 is 8e-10
        ("a2_routes", 1e-12, [(0.2, 1e-6), (0.1, 0.2), (1e-5, 0.5)],
         lambda x, w: ell.a2_pi_combination(x, w)[0], lambda x, w: ell.a2_quadrature(x, w)),
        ("elliptic_k", 1e-14, [(0.4, 300), (0.6, 400)],
         lambda z, terms: (math.pi / 2) * walk_lab.polya_series(z, terms),
         lambda z, terms: ell.elliptic_K(z)),
    ],
    "bounds": [
        ("bonferroni", 0, [(4, 2, 1, 2, 1)], _bracket_median,
         lambda n, k, r, *_: perm_oracle.prob_at_least(n, k, r)),
        ("ratio", 0, [(4, 2)], lambda n, k: bounds_mod.ratio_table([(n, k)])[0].ratio,
         lambda n, k: float(exact_core.second_moment(n, k) / exact_core.first_moment(n, k) ** 2)),
        # the bound clamps the exact A from above: the clamp changes nothing
        ("chebyshev", 0, [(1, 1), (2, 0)],
         lambda N, j: min(bounds_mod.chebyshev_a_bound(N, j)[0], exact_core.a_array(N, j)),
         lambda N, j: exact_core.a_array(N, j)),
    ],
}


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    rows = []
    failed = False
    for name in names:
        for check_name, *check in SUITES[name]:
            try:
                _check(*check)
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
