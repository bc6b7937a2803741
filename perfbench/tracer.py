"""Per-layer counters for the traced run, installed from outside the program.

Each public function listed in ``WRAPPED`` is replaced, in every loaded
``ulam_moments`` module namespace that holds it, by a wrapper that counts
calls and failures and measures inclusive time and self time (inclusive
minus the wrapped functions it calls). A listed name that the program no
longer has reads as 0 calls instead of failing the run.
"""
from __future__ import annotations

import sys
from time import perf_counter

WRAPPED: dict[str, tuple[str, ...]] = {
    "exact_core": (
        "MomentTriangle.build", "ensure_table", "second_moment", "first_moment",
        "a_array",
    ),
    "genfun": ("diag_table", "alpha_series", "alpha_contour"),
    "elliptic_engine": (
        "alpha_closed", "a1_closed", "a2_quadrature", "a2_checkpoint",
        "a2_pi_combination", "legendre_reduce", "elliptic_K", "elliptic_Pi",
        "q1_roots", "q2_roots",
    ),
    "bounds": ("chebyshev_a_bound", "ratio_table"),
    "walk_lab": ("enumerate_walks", "a_from_walk_exact", "a_monte_carlo"),
}
WITH_FAILED = ("elliptic_engine.legendre_reduce", "elliptic_engine.a2_pi_combination")
# (counter, callee, caller): calls of callee made while caller is running.
NESTED = (
    ("genfun.alpha_contour.nodes", "elliptic_engine.q1_eval", "genfun.alpha_contour"),
    ("bounds.chebyshev_a_bound.alpha_evals", "elliptic_engine.alpha_closed",
     "bounds.chebyshev_a_bound"),
)
CLI_VERBS = (
    "table_A", "table_moments", "genfun", "elliptic", "bounds_bracket",
    "bounds_ratio", "bounds_chebyshev", "bounds_stirling", "mc", "polya", "verify",
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for mod, names in WRAPPED.items():
        for name in names:
            key = f"{mod}.{name}"
            specs += [(f"{key}.calls", "count", "lower"),
                      (f"{key}.time_s", "s", "lower"),
                      (f"{key}.self_s", "s", "lower")]
            if key in WITH_FAILED:
                specs.append((f"{key}.failed", "count", "lower"))
    specs.append(("exact_core.table_entries", "count", "lower"))
    specs += [(name, "count", "lower") for name, _, _ in NESTED]
    specs.append(("walk_lab.a_monte_carlo.samples_per_s", "1/s", "higher"))
    specs += [("python.start_s", "s", "lower"), ("ulam_moments.import_s", "s", "lower"),
              ("cli.import_s", "s", "lower")]
    specs += [(f"cli.{verb}.wall_s", "s", "lower") for verb in CLI_VERBS]
    specs.append(("trace.overhead_pct", "%", "lower"))
    return specs


class Tracer:
    """Counters of one worker process; ``paused`` stops counting."""

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}  # key -> [calls, time, self, failed]
        self.active: dict[str, int] = {}
        self.nested: dict[str, int] = {name: 0 for name, _, _ in NESTED}
        self.mc_samples = 0
        self.paused = False
        self._stack: list[list[float]] = []  # [start, child time] per open call

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        watch = [(name, caller) for name, callee, caller in NESTED if callee == key]
        is_mc = key == "walk_lab.a_monte_carlo"

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            for name, caller in watch:
                if self.active.get(caller):
                    self.nested[name] += 1
            if is_mc:
                self.mc_samples += kwargs.get("samples", args[2] if len(args) > 2 else 0)
            frame = [perf_counter(), 0.0]
            self._stack.append(frame)
            self.active[key] = self.active.get(key, 0) + 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                self.active[key] -= 1
                self._stack.pop()
                elapsed = perf_counter() - frame[0]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed

        return wrapper

    def _count_only(self, key: str, fn):
        """Nested-count wrapper with no timing, for functions called per node."""
        watch = [(name, caller) for name, callee, caller in NESTED if callee == key]

        def wrapper(*args, **kwargs):
            if not self.paused:
                for name, caller in watch:
                    if self.active.get(caller):
                        self.nested[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a program module holds it."""
        import ulam_moments  # noqa: F401 - loads every submodule namespace

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ulam_moments" or n.startswith("ulam_moments."))]
        targets = [(mod, name) for mod, names in WRAPPED.items() for name in names]
        for _, callee, _ in NESTED:
            mod, name = callee.split(".", 1)
            if name not in WRAPPED[mod]:
                targets.append((mod, name))
        for mod, name in targets:
            key = f"{mod}.{name}"
            home = sys.modules.get(f"ulam_moments.{mod}")
            if home is None:
                continue
            if "." in name:  # a classmethod such as MomentTriangle.build
                cls_name, meth = name.split(".")
                cls = getattr(home, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(key, raw.__func__)))
                continue
            orig = getattr(home, name, None)
            if orig is None:
                continue
            new = self._wrap(key, orig) if name in WRAPPED[mod] else self._count_only(key, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, new)

    def table_entries(self) -> int:
        table = getattr(sys.modules.get("ulam_moments.exact_core"), "_TABLE", None)
        if table is None:
            return 0
        return (table.n_max + 1) * (table.j_max + 1)

    def report(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key, (calls, total, own, failed) in self.stats.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.time_s"] = total
            out[f"{key}.self_s"] = own
            if key in WITH_FAILED:
                out[f"{key}.failed"] = failed
        out.update(self.nested)
        out["exact_core.table_entries"] = self.table_entries()
        mc = self.stats.get("walk_lab.a_monte_carlo")
        if mc and mc[1] > 0:
            out["walk_lab.a_monte_carlo.samples_per_s"] = self.mc_samples / mc[1]
        return out
