#!/usr/bin/env python3
"""rspaces benchmark: run one workload for a while, check it, print its metrics.

    python3 perfbench/run.py --workload orbit-count --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a checkout; the library is imported from src/.  A run
repeats rounds of its workload (see workloads.py) until the next round would
end after --seconds, and makes at least the workload's minimum number of
ops.  Only the library calls are timed; each output is then checked against
an independent oracle, and an op that raises or disagrees counts as failed.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer ones.  A traced run alternates untraced and traced
rounds, so it also reports the tracing overhead, and ends with a reference
pass that calls every named layer once (workloads.reference_pass).  Earlier lines give every
figure by name with its unit, the provenance and the fail ratio.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("orbit-count", "orbit-points", "parity-suite", "cli-cold")
SETUP_PROBES = 15  # set-up is timed in this many fresh processes; the median is reported
CLI_PROBES = 5
RESOLVING_PAIRS = 4  # untraced-traced pairs needed before a measured overhead can count

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics read off the trace: "<module>.<function>.<kind>".
LAYER_UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "us_per_call": "us",
    "points": "count",
    "points_per_s": "1/s",
    "bytes": "bytes",
}
LAYERS = (
    "antipodal.orbit.calls",
    "antipodal.orbit.points",
    "antipodal.orbit.self_s",
    "antipodal.orbit.points_per_s",
    "antipodal.elements_to_bytes.s",
    "antipodal.elements_to_bytes.bytes",
    "admissible.is_admissible.calls",
    "admissible.is_admissible.us_per_call",
    "admissible.admissibility_witness.us_per_call",
    "admissible.enumerate_admissible.s",
    "admissible.verify_classification.s",
    "gamma.is_triple.calls",
    "gamma.is_triple.us_per_call",
    "gamma.fixed_root_set.us_per_call",
    "gamma.fixed_root_set_by_definition.us_per_call",
    "gamma.subgroup_span.us_per_call",
    "gamma.verify_maximality_proposition.s",
    "gamma.minimal_triple_subgroups.s",
    "antipodal.stabilizer_order.calls",
    "antipodal.stabilizer_order.us_per_call",
    "antipodal.two_number.us_per_call",
    "roots.build.calls",
    "roots.build.s",
)
CLI_SUBCOMMANDS = ("classify", "check", "two-number", "orbit", "subgroups")
OTHER_LAYERS = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.main_ms.{sub}": "ms" for sub in CLI_SUBCOMMANDS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_est_s": "s",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    return {m: LAYER_UNITS[m.rsplit(".", 1)[1]] for m in LAYERS} | OTHER_LAYERS


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)  # untraced ops, seconds
    rounds: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    round_ops: list[int] = field(default_factory=list)  # ops of each untraced round
    cpus: int = 1  # CPUs the rounds rotate over
    attempted: int = 0
    failed: int = 0
    work: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class SetupProbes:
    """Set-up timed in fresh processes at even times over the run, between ops.

    Each probe runs on the CPU of the round it falls in, so the probes rotate
    over the CPUs like the rounds, and their median follows the host over
    the same stretch of time.  Probes in one block would catch one moment of
    a host whose speed drifts by up to 1.5x.
    """

    def __init__(self, workload: str, seed: int, seconds: float, count: int = SETUP_PROBES) -> None:
        self.argv = ["setup", workload, str(seed)]
        self.due = [(i + 0.5) * seconds / count for i in range(count)]
        self.times: list[float] = []
        self.start = perf_counter()

    def poll(self) -> None:
        """Run the next probe if it is due; one at most, so late ones spread out."""
        if self.due and perf_counter() - self.start >= self.due[0]:
            self.run_next()

    def run_next(self) -> None:
        self.due.pop(0)
        self.times.append(child.timed_child(self.argv))


def run_round(ops, tally: Tally, tracer, probes: SetupProbes | None = None) -> tuple[float, Counter]:
    """Time each op's call, then check it; return the timed seconds and the work."""
    timed = 0.0
    work: Counter = Counter()
    for op in ops:
        if probes is not None:
            probes.poll()  # outside the timed call
        tally.attempted += 1
        span = tracer.span("bench.op." + op.kind) if tracer else nullcontext()
        t0 = perf_counter()
        try:
            with span:
                out = op.call()
        except Exception as exc:  # a raising op is a failed op, never the end of the run
            dt = perf_counter() - t0
            tally.fail(f"{op.label}: raised {type(exc).__name__}: {exc}")
        else:
            dt = perf_counter() - t0
            try:
                work.update(op.check(out))
            except Exception as exc:
                tally.fail(f"{op.label}: {type(exc).__name__}: {exc}")
            out = None  # free the output before the next op runs
        timed += dt
        if tracer is None:
            tally.latencies.append(dt)
    if tracer is None:
        tally.round_ops.append(len(ops))
    return timed, work


def pin(cpus) -> None:
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # not allowed here: leave placement to the scheduler
        pass


def run_rounds(workload, seconds: float, tracer=None, modules=(), probes=None) -> Tally:
    """Turns of rounds until the next, as long as the last, would end after `seconds`.

    Traced runs alternate untraced and traced rounds.

    Round k runs pinned to the k-th allowed CPU in turn, children included.
    Other load on the host slows one CPU at a time, by up to half, for tens
    of seconds; a run left on one CPU measures that CPU's spell, not the
    library.  Traced runs move on after each untraced-traced pair, so the
    overhead compares two rounds on the same CPU.  A run ends only after a
    whole turn over the CPUs, so each CPU runs as many rounds as the others
    and the latency quantiles weigh them alike.  Set-up probes due after the
    last round run then, still rotating over the CPUs.
    """
    tally = Tally()
    want = workload.round_work()
    cpus = sorted(os.sched_getaffinity(0))
    tally.cpus = len(cpus)
    start = t_turn = perf_counter()
    per_cpu = 2 if tracer else 1  # rounds in a row on one CPU
    turn = per_cpu * len(cpus)  # rounds in one turn over the CPUs
    for k in itertools.count():
        pin({cpus[k // per_cpu % len(cpus)]})
        traced = tracer is not None and k % 2 == 1
        ops = workload.ops(k, tracer if traced else None)
        if traced:
            tracer.install(modules)
        try:
            timed, work = run_round(ops, tally, tracer if traced else None, probes)
        finally:
            if traced:
                tracer.uninstall()
                tracer.flush()
        tally.rounds[traced].append(timed)
        tally.work.update(work)
        if want is not None:
            tally.attempted += 1
            if any(work[key] != value for key, value in want.items()):
                tally.fail(f"round {k}: work {dict(work)}, height formula {want}")
        if (k + 1) % turn:
            continue
        now = perf_counter()
        last_turn, t_turn = now - t_turn, now
        if tally.attempted >= workload.min_ops and now - start + last_turn > seconds:
            for j in range(len(probes.due) if probes else 0):
                pin({cpus[(k + 1 + j) % len(cpus)]})
                probes.run_next()
            pin(cpus)
            return tally


def cpu_groups(n_rounds: int, n_cpus: int) -> list[range]:
    """Runs of consecutive rounds that visit every CPU once; one group if too few."""
    groups = [range(i, i + n_cpus) for i in range(0, n_rounds - n_cpus + 1, n_cpus)]
    return groups or [range(n_rounds)]


def end_to_end(workload, tally: Tally, setup_times: list[float]) -> dict[str, float]:
    """Medians over round groups, ops and set-up probes, so one slow stretch moves little.

    Round times are averaged within a group that visited every CPU once
    before the median is taken: with one CPU fast and the other slow, the
    rounds fall in two clusters, and a plain median would jump between them.
    """
    times, ops = tally.rounds[False], tally.round_ops
    groups = cpu_groups(len(times), tally.cpus)
    if workload.children_memory:
        rss_kb = workload.query_maxrss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": statistics.median(statistics.mean(times[i] for i in g) for g in groups),
        "ops_per_s": statistics.median(
            sum(ops[i] for i in g) / sum(times[i] for i in g) for g in groups
        ),
        "query_p50_ms": statistics.median(tally.latencies) * 1e3,
        "query_p90_ms": statistics.quantiles(tally.latencies, n=10)[-1] * 1e3,
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setup_times),
    }


def trace_overhead(tally: Tally, calls_per_round: float, wrapper_s: float) -> tuple[float, float, bool]:
    """Measured overhead, its estimate from the wrapped calls, and whether the first is resolved.

    The measured figure is the median, over untraced-traced pairs on one
    CPU, of traced minus untraced round.  It is resolved only with
    RESOLVING_PAIRS pairs or more and when it exceeds the quartile spread of
    those differences;
    otherwise it is host noise, and the estimate (wrapped calls of a traced
    round times the cost of one wrapper) is the figure to read.
    """
    diffs = [t - u for u, t in zip(tally.rounds[False], tally.rounds[True])]
    measured = statistics.median(diffs)
    resolved = False
    if len(diffs) >= RESOLVING_PAIRS:
        q = statistics.quantiles(diffs, n=4)
        resolved = abs(measured) > q[2] - q[0]
    return measured, calls_per_round * wrapper_s, resolved


def per_layer(phases, workload, tally: Tally, cli_ms, overhead) -> dict:
    """Figures summed over the traced phases, each a ((stats, work), scale) pair."""
    stats: dict[str, list[float]] = {}
    work: Counter = Counter()
    for (st, wk), scale in phases:
        for name, values in st.items():
            acc = stats.setdefault(name, [0.0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v * scale
        for name, counts in wk.items():
            for key, v in counts.items():
                work[f"{name}.{key}"] += v * scale

    out = {}
    for metric in LAYERS:
        fn, kind = metric.rsplit(".", 1)
        calls, total, self_s = stats.get(fn, (0.0, 0.0, 0.0))
        if kind == "calls":
            value = calls
        elif kind == "s":
            value = total
        elif kind == "self_s":
            value = self_s
        elif kind == "us_per_call":
            value = total / calls * 1e6 if calls else 0.0
        elif kind == "points_per_s":
            value = work[f"{fn}.points"] / self_s if self_s else 0.0
        else:
            value = work[f"{fn}.{kind}"]
        out[metric] = (value, LAYER_UNITS[kind])
    out["cli.interpreter_ms"] = (cli_ms["interpreter"], "ms")
    out["cli.import_ms"] = (cli_ms["import"], "ms")
    for sub in CLI_SUBCOMMANDS:
        samples = workload.main_ms.get(sub)
        out[f"cli.main_ms.{sub}"] = (statistics.median(samples) if samples else 0.0, "ms")
    out["trace.wall_s"] = (statistics.median(tally.rounds[True]), "s")
    out["trace.untraced_wall_s"] = (statistics.median(tally.rounds[False]), "s")
    out["trace.overhead_s"] = (overhead[0], "s")
    out["trace.overhead_est_s"] = (overhead[1], "s")
    return out


def cli_probes() -> dict[str, float]:
    """Median bare interpreter start and `import rspaces.cli`, in fresh processes."""
    starts = []
    for _ in range(CLI_PROBES):
        t0 = perf_counter()
        child.run_python(["-c", "pass"])
        starts.append(perf_counter() - t0)
    imports = [child.timed_child(["import"]) for _ in range(CLI_PROBES)]
    return {
        "interpreter": statistics.median(starts) * 1e3,
        "import": statistics.median(imports) * 1e3,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, tally: Tally) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "round_s": [round(t, 4) for t in tally.rounds[False]],
        "traced_round_s": [round(t, 4) for t in tally.rounds[True]],
        "work": dict(sorted(tally.work.items())),
    }


def print_result(tally: Tally, metrics: dict, extra: dict) -> None:
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} = {value:.6g} {unit}")
    for message in tally.errors:
        print(f"failed: {message}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    child.timed_child(["import"])  # writes the bytecode caches before anything is timed
    cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    modules = tracing.library_modules() if tracer else ()
    if tracer:
        tracer.install(modules)
        with tracer.span("bench.setup"):
            workload = cls(args.seed)
        tracer.uninstall()
        setup_trace = tracer.take()
    else:
        workload = cls(args.seed)

    probes = None if tracer else SetupProbes(args.workload, args.seed, args.seconds)
    tally = run_rounds(workload, args.seconds, tracer, modules, probes)
    timed = sum(tally.rounds[False]) + sum(tally.rounds[True])
    extra = {"fail_ratio": (tally.failed / tally.attempted, "ratio")}
    if "points" in tally.work:
        extra["points_per_s"] = (tally.work["points"] / timed, "1/s")
    if tracer:
        round_trace = tracer.take()
        tracer.install(modules)
        with tracer.span("bench.reference"):
            workloads.reference_pass(workload.main_ms)
        tracer.uninstall()
        phases = [(setup_trace, 1.0), (round_trace, 1 / len(tally.rounds[True])), (tracer.take(), 1.0)]
        calls = sum(v[0] for v in round_trace[0].values()) / len(tally.rounds[True])
        overhead = trace_overhead(tally, calls, tracing.wrapper_cost_s())
        metrics = per_layer(phases, workload, tally, cli_probes(), overhead)
        self_sum = sum(v[2] for v in round_trace[0].values())
        extra["trace.self_s_sum"] = (self_sum, "s")
        extra["trace.traced_timed_s"] = (sum(tally.rounds[True]), "s")
        extra["trace.calls_per_round"] = (calls, "count")
        extra["trace.overhead_resolved"] = (int(overhead[2]), "flag")
    else:
        values = end_to_end(workload, tally, probes.times)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    print("provenance " + json.dumps(provenance(args, tally), sort_keys=True))
    print_result(tally, metrics, extra)
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    attempted = failed = 0
    metrics = {}
    code = 0
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"# {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            code = 1
        if not lines or not lines[-1].startswith("{"):
            code = 1
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0 and code == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Hermetic: an inherited RSPACES_ORBIT_BUDGET would change or break the
    # library, and numpy must not start a BLAS thread pool.
    for key in [k for k in os.environ if k.startswith("RSPACES_")]:
        del os.environ[key]
    os.environ.update(child.ONE_THREAD)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
