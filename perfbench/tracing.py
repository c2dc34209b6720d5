"""Spans around the library's public functions, recorded from outside.

install() replaces every public function of the rspaces modules, in every
module namespace that binds it, by one timing wrapper per function.  So a
call is seen whether it comes from the benchmark, from another library
module (two_number -> is_admissible) or from the CLI.  Generator functions
are left alone: a wrapper would time only the creation of the generator.

Spans are recorded only while a benchmark span (an op, or the set-up) is
open, so checks that call the library to build expected values stay out of
the trace.  Each span is (id, parent id, name, start, end); flush() folds
the spans into per-name calls, total time and self time, where self time is
a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LIBRARY_MODULES = (
    "rspaces",
    "rspaces.roots",
    "rspaces.admissible",
    "rspaces.antipodal",
    "rspaces.gamma",
    "rspaces.verify",
    "rspaces.cli",
)

# Work counted from a function's return value, at the boundary it happens.
RESULT_COUNTS = {
    "antipodal.orbit": lambda res: {"points": res.size} if res.method == "both" else {},
    "antipodal.elements_to_bytes": lambda data: {"bytes": len(data)},
}


def library_modules() -> list:
    return [importlib.import_module(name) for name in LIBRARY_MODULES]


def public_functions(modules):
    """{function: name} for the public non-generator functions the modules define."""
    found = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__.startswith("rspaces.")
                and not inspect.isgeneratorfunction(obj)
            ):
                found[obj] = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
    return found


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.work: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._covered: dict[int, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def install(self, modules) -> None:
        wrappers = {fn: self._wrap(fn, name) for fn, name in public_functions(modules).items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name):
        stack, spans, ids = self._stack, self.spans, self._ids
        count = RESULT_COUNTS.get(name)
        work = self.work[name]

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if count is not None:
                work.update(count(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- benchmark spans ----------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            yield sid
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def merge(self, stats: dict, work: dict, covered: float) -> None:
        """Add a child process's folded stats under the open span.

        covered is the time the child's own root spans took; it is taken off
        the open span's self time, so no interval is counted twice.
        """
        for name, (calls, total, self_s) in stats.items():
            st = self.stats[name]
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for name, counts in work.items():
            self.work[name].update(counts)
        self._covered[self._stack[-1]] += covered

    # -- folding ------------------------------------------------------------

    def flush(self) -> None:
        child = defaultdict(float)
        for sid, parent, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        for sid, _, name, t0, t1 in self.spans:
            st = self.stats[name]
            st[0] += 1
            st[1] += t1 - t0
            st[2] += t1 - t0 - child[sid] - self._covered.pop(sid, 0.0)
        self.spans.clear()

    def take(self) -> tuple[dict, dict]:
        """Fold pending spans and return (stats, work), leaving both empty."""
        self.flush()
        stats = {k: list(v) for k, v in self.stats.items() if v[0]}
        work = {k: dict(v) for k, v in self.work.items() if v}
        self.stats.clear()
        for counts in self.work.values():
            counts.clear()
        return stats, work


def wrapper_cost_s(calls: int = 10_000, repeats: int = 5) -> float:
    """Seconds a wrapped call adds to a bare one while a span is open; median of repeats."""

    def noop():
        return None

    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer._wrap(noop, "bench.noop")
        with tracer.span("bench.calibrate"):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            t1 = perf_counter()
            for _ in range(calls):
                traced()
            t2 = perf_counter()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
    return max(0.0, statistics.median(costs))
