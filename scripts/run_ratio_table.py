"""Tabulate the concentration ratio E[Z^2] / E[Z]^2 across growth regimes.

The ratio is the quantity a second-moment argument needs near 1: rows with
k well below sqrt(n) sit close to 1, rows with k past sqrt(n) blow up.
This is an exhibit table; the only enforced invariant is ratio >= 1.
Each row is exact, from the closed form of A(N, j), so any k < n is
tabulated at a cost that grows only polynomially in k.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ulam_moments import bounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-values", default="100,225,400,900",
                        help="comma list of n values")
    parser.add_argument("--k-powers", default="0.2,0.3,0.4,0.5",
                        help="comma list of exponents p; each row uses k = round(n^p)")
    parser.add_argument("--out", default=None, help="write CSV here instead of stdout")
    args = parser.parse_args(argv)

    ns = [int(tok) for tok in args.n_values.split(",") if tok]
    powers = [float(tok) for tok in args.k_powers.split(",") if tok]

    lines = ["n,k,k_power,ratio"]
    for n in ns:
        for p in powers:
            k = max(1, round(n**p))
            if k >= n:
                continue
            row = bounds.ratio_table([(n, k)])[0]
            lines.append(f"{n},{k},{p:g},{row.ratio:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
