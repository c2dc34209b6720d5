"""Self-tests of the benchmark itself (stdlib unittest, about ten seconds).

    python3 perfbench/selftest.py

They run short slices of the real workloads against the library in src/.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Slice:
    """A workload cut down to the first n ops of each round."""

    def __init__(self, workload, n: int) -> None:
        self.workload, self.n = workload, n
        self.min_ops = 1
        self.children_memory = workload.children_memory

    def ops(self, k, tracer=None):
        return self.workload.ops(k, tracer)[: self.n]

    def round_work(self):
        return None


def sliced(name: str, seed: int, n: int) -> Slice:
    return Slice(workloads.WORKLOADS[name](seed), n)


class SameSeedSameInputs(unittest.TestCase):
    def test_inputs_repeat_for_a_seed_and_move_with_it(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                a, b, c = cls(11), cls(11), cls(12)
                for k in (0, 1):
                    labels = [op.label for op in a.ops(k)]
                    self.assertEqual(labels, [op.label for op in b.ops(k)])
                    self.assertNotEqual(labels, [op.label for op in c.ops(k)])

    def test_work_counts_repeat_for_a_seed(self):
        for name, n in (("orbit-points", 12), ("parity-suite", 200), ("cli-cold", 3)):
            with self.subTest(workload=name):
                first = run.run_rounds(sliced(name, 5, n), 0)
                second = run.run_rounds(sliced(name, 5, n), 0)
                self.assertEqual(first.failed, 0, first.errors)
                self.assertTrue(first.work)
                self.assertEqual(first.work, second.work)

    def test_round_work_is_the_height_formula_total(self):
        self.assertEqual(
            workloads.OrbitCount(1).round_work(), {"orbits": 465, "points": 17_629_878}
        )
        self.assertEqual(
            workloads.OrbitPoints(1).round_work(), {"orbits": 256, "points": 1_485_890}
        )


class CorruptedExpectationsFail(unittest.TestCase):
    def corrupt(self, workload) -> None:
        for t in workload.types:
            oracle = workload.oracle(t)
            size = oracle.orbit_size
            oracle.orbit_size = lambda mask, size=size: size(mask) + 1

    def test_wrong_orbit_size_counts_as_failure(self):
        for name in ("orbit-count", "orbit-points", "parity-suite"):
            with self.subTest(workload=name):
                part = sliced(name, 3, 40)
                self.corrupt(part.workload)
                tally = run.run_rounds(part, 0)
                self.assertGreater(tally.failed, 0)
                self.assertLessEqual(tally.failed, tally.attempted)

    def test_wrong_cli_expectation_counts_as_failure(self):
        part = sliced("cli-cold", 3, 2)
        cli = part.workload
        for argv in [op.label.split() for op in cli.ops(0)[:2]]:
            code, _ = cli.expected(tuple(argv))
            cli._expected[tuple(argv)] = (code + 1, None)
        tally = run.run_rounds(part, 0)
        self.assertEqual(tally.failed, 2)


class TraceAccounting(unittest.TestCase):
    def test_self_times_fit_inside_the_timed_region(self):
        for name, n in (("parity-suite", 300), ("orbit-points", 20), ("cli-cold", 3)):
            with self.subTest(workload=name):
                tracer = tracing.Tracer()
                tally = run.run_rounds(sliced(name, 9, n), 0, tracer, tracing.library_modules())
                stats, _ = tracer.take()
                self_sum = sum(v[2] for v in stats.values())
                self.assertEqual(tally.failed, 0, tally.errors)
                self.assertGreater(self_sum, 0)
                self.assertLessEqual(self_sum, sum(tally.rounds[True]))
                self.assertTrue(all(v[2] >= -1e-9 for v in stats.values()), stats)

    def test_a_call_is_seen_through_every_binding(self):
        tracer = tracing.Tracer()
        modules = tracing.library_modules()
        tracer.install(modules)
        try:
            bound = {m.__name__ for m in modules if getattr(m, "is_admissible", None)}
            wrappers = {id(getattr(m, "is_admissible")) for m in modules if m.__name__ in bound}
            self.assertTrue({"rspaces.admissible", "rspaces.antipodal", "rspaces.gamma"} <= bound)
            self.assertEqual(len(wrappers), 1)
        finally:
            tracer.uninstall()
        for m in modules:
            self.assertFalse(hasattr(getattr(m, "is_admissible", None), "__wrapped__"))


    def test_reference_pass_reaches_every_layer(self):
        tracer = tracing.Tracer()
        tracer.install(tracing.library_modules())
        main_ms: dict = {}
        try:
            with tracer.span("bench.reference"):
                workloads.reference_pass(main_ms)
        finally:
            tracer.uninstall()
        stats, work = tracer.take()
        for metric in run.LAYERS:
            self.assertGreater(stats.get(metric.rsplit(".", 1)[0], [0])[0], 0, metric)
        self.assertEqual(set(main_ms), set(run.CLI_SUBCOMMANDS))
        self.assertGreater(work["antipodal.orbit"]["points"], 0)
        self.assertGreater(work["antipodal.elements_to_bytes"]["bytes"], 0)


class Measurement(unittest.TestCase):
    def test_peak_rss_is_the_childs_own(self):
        ballast = b"x" * (96 << 20)  # this process's peak now exceeds any small child's
        spawner = child.Spawner()
        try:
            big = spawner.run(["-c", "b = b'x' * (64 << 20)"])
            small = spawner.run(["-c", "pass"])
        finally:
            spawner.close()
        self.assertEqual((big.returncode, small.returncode), (0, 0))
        self.assertLess(small.maxrss_kb, len(ballast) >> 10)
        self.assertGreater(big.maxrss_kb - small.maxrss_kb, 48 << 10)
        self.assertGreaterEqual(child.run_python(["-c", "pass"]).maxrss_kb, len(ballast) >> 10)

    def test_every_setup_probe_runs_during_the_rounds(self):
        probes = run.SetupProbes("parity-suite", 5, 0, count=3)
        tally = run.run_rounds(sliced("parity-suite", 5, 2), 0, probes=probes)
        self.assertEqual(tally.failed, 0, tally.errors)
        self.assertEqual((len(probes.times), probes.due), (3, []))
        self.assertTrue(all(t > 0 for t in probes.times))

    def test_overhead_from_few_pairs_is_unresolved(self):
        tally = run.Tally()
        tally.rounds = {False: [8.7, 8.6], True: [8.2, 8.1]}
        measured, estimate, resolved = run.trace_overhead(tally, 1000, 1e-6)
        self.assertAlmostEqual(measured, -0.5)
        self.assertAlmostEqual(estimate, 1e-3)
        self.assertFalse(resolved)
        tally.rounds = {False: [1.0, 1.01, 1.02, 1.0], True: [1.5, 1.52, 1.51, 1.5]}
        self.assertTrue(run.trace_overhead(tally, 1000, 1e-6)[2])
        self.assertGreater(tracing.wrapper_cost_s(calls=1000, repeats=3), 0)


class RoundGroups(unittest.TestCase):
    def test_groups_visit_every_cpu_once(self):
        self.assertEqual(run.cpu_groups(5, 2), [range(0, 2), range(2, 4)])
        self.assertEqual(run.cpu_groups(3, 1), [range(0, 1), range(1, 2), range(2, 3)])
        self.assertEqual(run.cpu_groups(1, 2), [range(0, 1)])


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_the_runner(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.NAMES))


if __name__ == "__main__":
    unittest.main()
