"""Benchmark of ulam-moments: one workload, one client in a closed loop.

    python3 perfbench/run.py --workload {moments,alpha,walk,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout. Requests are served by fresh
interpreters (``worker.py``; for ``cli``, one cold
``python -m ulam_moments.cli`` per request), one request at a time. Whole
rounds of the same request list repeat until the timed phases add up to
``--seconds``. Outputs are checked against ``oracles`` after the timing.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``tracer`` with ``--trace 1``. A fuller record goes
to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

# Cold starts per run; setup_s is their median. alpha's set-up costs about
# 4 s, the others' 0.15-0.8 s, so alpha takes fewer.
SETUP_SAMPLES = {"moments": 9, "alpha": 3, "walk": 21, "cli": 9}
PROBE_SAMPLES = 5  # cold starts of each CLI probe in the traced run
WALL_CAP = 3.0  # stop after this many times --seconds of wall time, rounds whole
# alpha's requests read only the state its set-up built, so each of its
# SETUP_SAMPLES interpreters serves an equal share of the timed phase, which
# spreads the timing over the run; in moments and walk the first requests
# fill the caches they measure, so every round gets a fresh interpreter.
REPEAT_IN_PROCESS = {"alpha"}
CLI_PROBES = {
    "python.start_s": "pass",
    "ulam_moments.import_s": "import ulam_moments",
    "cli.import_s": "import ulam_moments.cli",
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(argv: list[str]):
    """Run a child to completion; return (stdout, stderr, exit code, peak RSS
    in MB, wall seconds). The child's own rusage comes from wait4."""
    t0 = perf_counter()
    p = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err_chunks: list[bytes] = []
    reader = threading.Thread(target=lambda: err_chunks.append(p.stderr.read()))
    reader.start()
    out = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    wall = perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    p.stdout.close()
    p.stderr.close()
    return out.decode(), b"".join(err_chunks).decode(), p.returncode, usage.ru_maxrss / 1024, wall


def _worker(workload: str, requests: list, trace: bool, setup_only: bool,
            seconds: float = 0.0) -> dict:
    """One fresh worker: setup_s from spawn to its ``ready`` line."""
    job = json.dumps({"requests": requests, "setup_only": setup_only,
                      "seconds": seconds}).encode()
    t0 = perf_counter()
    p = subprocess.Popen([sys.executable, str(HERE / "worker.py"), workload, str(int(trace))],
                         cwd=ROOT, env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        p.stdin.write(job)
        p.stdin.close()
        ready = p.stdout.readline()
        setup = perf_counter() - t0
        rest = p.stdout.read()
    finally:
        p.stdout.close()
        code = p.wait()
    if ready.strip() != b"ready" or code != 0:
        raise RuntimeError(f"{workload} worker exited {code} before finishing")
    res = json.loads(rest) if not setup_only else {}
    res["setup_s"] = setup
    return res


def _cli_worker(requests: list) -> dict:
    """One round of cold CLI processes; peak RSS is the largest child's."""
    results, latency, rss = [], [], 0.0
    for _, argv in requests:
        out, err, code, peak, wall = _spawn([sys.executable, "-m", "ulam_moments.cli", *argv])
        results.append({"code": code, "stdout": out, "stderr": err})
        latency.append(wall)
        rss = max(rss, peak)
    per_verb: dict[str, float] = {}
    for (label, _), wall in zip(requests, latency):
        per_verb[f"cli.{label}.wall_s"] = per_verb.get(f"cli.{label}.wall_s", 0.0) + wall
    return {"rounds": [{"results": results, "latency_s": latency, "elapsed_s": sum(latency)}],
            "rss_mb": rss, "extra": {}, "trace": per_verb}


def _cli_probes() -> dict[str, float]:
    """Median cold wall of a bare interpreter and of the two imports; the
    import figures are net of interpreter start."""
    med = {}
    for name, code in CLI_PROBES.items():
        med[name] = statistics.median(
            _spawn([sys.executable, "-c", code])[4] for _ in range(PROBE_SAMPLES))
    start = med["python.start_s"]
    return {name: (v if name == "python.start_s" else v - start) for name, v in med.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    make, check = workloads.WORKLOADS[workload]
    requests = make(seed)
    workers: list[dict] = []
    setups: list[float] = []  # from set-up-only workers
    # Outside alpha, set-up-only workers come in groups before each serving
    # worker and at the end, so their samples spread over the run.
    group = 0 if trace or workload in REPEAT_IN_PROCESS else SETUP_SAMPLES[workload] // 3
    timed = 0.0
    t_run = perf_counter()
    # Each worker is a fresh interpreter. A traced run alternates untraced
    # and traced workers of one round each, so that the tracing overhead is
    # measured on the same requests.
    while True:
        for _ in range(group):
            setups.append(_worker(workload, [], False, setup_only=True)["setup_s"])
        traced = trace and len(workers) % 2 == 1
        if workload == "cli":
            wk = _cli_worker(requests)
        else:
            repeat = workload in REPEAT_IN_PROCESS and not trace
            wk = _worker(workload, requests, traced, setup_only=False,
                         seconds=seconds / SETUP_SAMPLES[workload] if repeat else 0.0)
        wk["traced"] = traced
        workers.append(wk)
        timed += sum(r["elapsed_s"] for r in wk["rounds"])
        enough = not trace or len(workers) >= 2
        if enough and (timed >= seconds or perf_counter() - t_run >= WALL_CAP * seconds):
            break

    failed: list[str] = []
    wrong: list[str] = []
    for wk in workers:
        for r in wk["rounds"]:
            f, w = check(requests, r["results"], wk["extra"])
            failed += f
            wrong += w
    n_rounds = sum(len(wk["rounds"]) for wk in workers)
    attempted = len(requests) * n_rounds

    record = {"workload": workload, "seed": seed, "trace": int(trace), "rounds": n_rounds,
              "workers": len(workers), "requests_per_round": len(requests),
              "attempted": attempted,
              "failed_by_fault": {name: failed.count(name) for name in sorted(set(failed))},
              "wrong": wrong[:20]}
    plain = [wk for wk in workers if not wk["traced"]]
    elapsed = lambda wks: sum(r["elapsed_s"] for wk in wks for r in wk["rounds"])  # noqa: E731
    if not trace:
        setups += [wk["setup_s"] for wk in plain if "setup_s" in wk]
        while len(setups) < SETUP_SAMPLES[workload]:
            setups.append(_worker(workload, [], False, setup_only=True)["setup_s"])
        latency = [t for wk in plain for r in wk["rounds"] for t in r["latency_s"]]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(latency) / elapsed(plain), "req/s"),
            "latency_p50_ms": (statistics.median(latency) * 1e3, "ms"),
            "peak_rss_mb": (max(wk["rss_mb"] for wk in plain), "MB"),
        }
        per_op: dict[str, list[float]] = {}
        for wk in plain:
            for r in wk["rounds"]:
                for req, t in zip(requests, r["latency_s"]):
                    per_op.setdefault(req[0], []).append(t * 1e3)
        record.update(setup_samples=setups, latency_samples=len(latency),
                      round_s=[r["elapsed_s"] for wk in plain for r in wk["rounds"]],
                      latency_ms_by_op={op: {"n": len(ts), "p50": statistics.median(ts),
                                             "sum": sum(ts)} for op, ts in per_op.items()})
    else:
        with_trace = [wk for wk in workers if wk["traced"]]
        layer = {name: 0.0 for name, _, _ in tracer.metric_specs()}
        for wk in with_trace:
            for name, v in wk["trace"].items():
                layer[name] += v / len(with_trace)
        if workload == "cli":
            layer.update(_cli_probes())
        layer["trace.overhead_pct"] = 100 * (
            elapsed(with_trace) / len(with_trace) / (elapsed(plain) / len(plain)) - 1)
        units = {name: unit for name, unit, _ in tracer.metric_specs()}
        metrics = {name: (v, units[name]) for name, v in layer.items()}
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    return {"correct": not wrong, "attempted": attempted, "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "record": record}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ulam_moments" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(1, str(SRC))  # perm_oracle, the moments checks' brute force

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = result.pop("record")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, correct=result["correct"]), indent=1) + "\n")
    for line in record["wrong"]:
        print(f"wrong output: {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} rounds={record['rounds']} "
          f"requests/round={record['requests_per_round']} "
          f"latency samples={record.get('latency_samples', '-')} "
          f"failed={record['failed_by_fault']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
