"""The benchmark's calls into the package, run in process on its seed-1
request lists, so that a renamed or deleted name that perfbench/ calls, or a
changed output it parses, fails here and not only in a benchmark run.

perfbench/ is read, never changed: its worker's servers answer the alpha,
walk and moments requests, cli.main answers the cli ones, and the
workloads' own checks judge the outputs. The moments list keeps its growth
rows, whose checks need no brute force over n! permutations.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402

from ulam_moments import cli  # noqa: E402

SEED = 1


def _serve(workload: str, requests: list) -> tuple[list[dict], dict]:
    """One round through worker.SERVERS, with the JSON round trip of the
    worker's output line."""
    setup, ops, extra_fn = worker.SERVERS[workload]()
    setup()
    results = []
    for op, *args in requests:
        try:
            results.append({"ok": ops[op](*args)})
        except Exception as exc:  # noqa: BLE001 - judged by the workload's check
            results.append({"error": f"{type(exc).__name__}: {exc}"})
    extra = extra_fn(requests) if extra_fn else {}
    out = json.loads(json.dumps({"results": results, "extra": extra}))
    return out["results"], out["extra"]


def _cli_round(requests: list) -> list[dict]:
    results = []
    for _, argv in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


@pytest.mark.parametrize("workload", ["moments", "alpha", "walk", "cli"])
def test_benchmark_requests_pass_its_checks(workload: str) -> None:
    make, check = workloads.WORKLOADS[workload]
    requests = make(SEED)
    if workload == "moments":
        requests = [req for req in requests if len(req[1]) == 1]  # the growth rows
        assert [tuple(req[1][0]) for req in requests] == workloads.growth_rows()
    if workload == "cli":
        results, extra = _cli_round(requests), {}
    else:
        results, extra = _serve(workload, requests)
    failed, wrong = check(requests, results, extra)
    assert wrong == [], wrong
    assert failed == [], (failed, [r for r in results if "error" in r or r.get("code")])
