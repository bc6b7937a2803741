"""Sweep the alpha evaluation routes over an (x, w) grid.

Emits one CSV row per feasible grid point with the series, contour and
closed-form values plus the worst pairwise disagreement, so route drift
shows up as a single sortable column, and the series' tail bound, which
bounds how far the series may lie below alpha.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ulam_moments import elliptic_engine, genfun


def parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--xs", default="0.02,0.05,0.1,0.15,0.2",
                        help="comma list of x values")
    parser.add_argument("--ws", default="0.0,0.1,0.3,0.5",
                        help="comma list of w values")
    parser.add_argument("--out", default=None, help="write CSV here instead of stdout")
    args = parser.parse_args(argv)

    lines = ["x,w,alpha_series,alpha_contour,alpha_closed,max_pairwise_diff,series_tail_bound"]
    for x in parse_floats(args.xs):
        for w in parse_floats(args.ws):
            if 4 * x + w * w >= 1:
                continue
            trunc = genfun.SeriesTruncation()
            ser = genfun.alpha_series(w, x, trunc)
            con = genfun.alpha_contour(w, x)
            clo = elliptic_engine.alpha_closed(w, x)
            spread = max(ser, con, clo) - min(ser, con, clo)
            lines.append(f"{x:.17g},{w:.17g},{ser:.17g},{con:.17g},{clo:.17g},{spread:.3e},"
                         f"{trunc.tail_bound:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
