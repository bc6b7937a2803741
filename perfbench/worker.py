"""One serving process of the benchmark: a fresh interpreter that loads the
program, pays the workload's lazy set-up, then answers one round of
requests in order, one at a time.

    PYTHONPATH=src python3 perfbench/worker.py <workload> <trace 0|1> < job.json

The job is ``{"requests": [...], "setup_only": bool, "seconds": float}``.
The worker writes ``ready`` once set-up is done, then (unless
``setup_only``) serves whole rounds of the requests until their timed spans
add up to ``seconds`` (one round when it is 0), and writes one JSON line
with each round's outputs, latencies and timed span, its peak RSS, the
exact moments the moments checks need, and the per-layer counters when
tracing.
"""
from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def _moments():
    from ulam_moments import bounds, exact_core

    def ratio(pairs):
        return [[r.n, r.k, r.ratio] for r in bounds.ratio_table([tuple(p) for p in pairs])]

    def exact_moments(requests):
        """First and second moments of every pair, as "p/q" strings."""
        out = {}
        for _, pairs in requests:
            for n, k in pairs:
                key = f"{n},{k}"
                if key not in out:
                    m1 = exact_core.first_moment(n, k)
                    m2 = exact_core.second_moment(n, k)
                    out[key] = [f"{m1.numerator}/{m1.denominator}",
                                f"{m2.numerator}/{m2.denominator}"]
        return out

    return (lambda: None), {"ratio": ratio}, exact_moments


def _alpha():
    from ulam_moments import bounds, genfun
    from ulam_moments import elliptic_engine as ee

    def series(w, x):
        trunc = genfun.SeriesTruncation()
        return [genfun.alpha_series(w, x, trunc), trunc.tail_bound]

    def setup():
        # Public calls that build the float diagonal table (and the exact
        # table behind it), the Gauss-Legendre rules and the Chebyshev grid.
        series(0.3, 0.1)
        genfun.alpha_contour(0.3, 0.1)
        ee.alpha_closed(0.3, 0.1)
        ee.a2_checkpoint(0.1, 0.3)
        ee.a2_pi_combination(0.1, 0.3)
        bounds.chebyshev_a_bound(1, 0)

    # Names are looked up at call time so that the traced run's wrappers are used.
    ops = {
        "series": series,
        "contour": lambda w, x: genfun.alpha_contour(w, x),
        "closed": lambda w, x: ee.alpha_closed(w, x),
        "checkpoint": lambda w, x: ee.a1_closed(x, w) + ee.a2_checkpoint(x, w),
        "kpi": lambda w, x: ee.a1_closed(x, w) + ee.a2_pi_combination(x, w)[0],
        "chebyshev": lambda N, j: bounds.chebyshev_a_bound(N, j)[0],
    }
    return setup, ops, None


def _walk():
    from ulam_moments import walk_lab

    ops = {
        "exact": lambda N, j: walk_lab.a_from_walk_exact(N, j),
        "mc": lambda N, j, samples, seed, workers: list(
            walk_lab.a_monte_carlo(N, j, samples, seed, workers=workers)),
    }
    return (lambda: None), ops, None


def _cli():
    import ulam_moments.cli  # noqa: F401 - the set-up every verb pays

    return (lambda: None), {}, None


SERVERS = {"moments": _moments, "alpha": _alpha, "walk": _walk, "cli": _cli}


def main() -> int:
    workload, trace = sys.argv[1], sys.argv[2] == "1"
    job = json.loads(sys.stdin.read())
    setup, ops, extra_fn = SERVERS[workload]()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup()
    print("ready", flush=True)
    if job["setup_only"]:
        return 0

    rounds = []
    timed = 0.0
    while not rounds or timed < job["seconds"]:
        results, latency = [], []
        t_start = perf_counter()
        for op, *args in job["requests"]:
            t0 = perf_counter()
            try:
                res = {"ok": ops[op](*args)}
            except Exception as exc:  # counted as failed by the workload's check
                res = {"error": f"{type(exc).__name__}: {exc}"}
            latency.append(perf_counter() - t0)
            results.append(res)
        elapsed = perf_counter() - t_start
        timed += elapsed
        rounds.append({"results": results, "latency_s": latency, "elapsed_s": elapsed})

    if tracer is not None:
        tracer.paused = True
    extra = extra_fn(job["requests"]) if extra_fn else {}
    out = {
        "rounds": rounds,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "extra": extra,
        "trace": tracer.report() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
