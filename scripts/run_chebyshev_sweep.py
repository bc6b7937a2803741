"""Compare the Chebyshev-style upper bound on A(N, j) with the exact value.

For each (N, j) in the requested rectangle the script reports the bound,
the exact array entry, their ratio (always >= 1 up to float slack), and
the minimizing point (x*, w*) inside the feasible region.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ulam_moments import bounds, exact_core


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=10)
    parser.add_argument("--jmax", type=int, default=6)
    parser.add_argument("--out", default=None, help="write CSV here instead of stdout")
    args = parser.parse_args(argv)

    lines = ["N,j,bound,exact_A,bound_over_exact,x_star,w_star"]
    for N in range(1, args.nmax + 1):
        for j in range(args.jmax + 1):
            bound, (x_star, w_star) = bounds.chebyshev_a_bound(N, j)
            exact = exact_core.a_array(N, j)
            lines.append(
                f"{N},{j},{bound:.17g},{exact},{bound / exact:.6g},"
                f"{x_star:.10g},{w_star:.10g}"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
