"""The four workloads: inputs made from a seed, the ops, and their checks.

Constructing a workload is its set-up: import (done by importing this
module), build of the root systems it uses, and generation of its inputs.
ops(k) returns round k as a list of Op.  Op.call is the only part that is
timed; Op.check runs afterwards, compares the output with an independent
oracle (raising on any disagreement) and returns the work the op did.

Every round of a workload does the same amount of work whatever the seed:
the seed decides order and which of equally sized inputs are drawn, so a
seed changes no figure but by noise.  The orbit workloads repeat their fixed
set of orbits in a new order each round; parity-suite and cli-cold draw
fresh inputs for every round.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from child import HERE, ROOT, Spawner, run_python, split_trace
from oracle import SystemOracle, classification_sections, expect, submasks, xor_closure

from rspaces import admissible as adm
from rspaces import antipodal as ant
from rspaces import gamma as gam
from rspaces import roots
from rspaces.verify import standard_types

ALL_TYPES = tuple(standard_types())  # the 40 standard types, A1 .. BC8


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], dict]


def rst(name: str) -> roots.RootSystemType:
    fam = name.rstrip("0123456789")
    return roots.RootSystemType(fam, int(name[len(fam):]))


class Workload:
    name = ""
    types: tuple = ()
    min_ops = 1  # ops a run must make, whatever --seconds says
    children_memory = False  # peak memory is that of the largest query child

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.systems = {t: roots.build(t) for t in self.types}
        self._oracles: dict = {}
        self.main_ms: dict[str, list[float]] = {}  # traced cli.main durations per subcommand

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def oracle(self, t) -> SystemOracle:
        if t not in self._oracles:
            system = self.systems[t]
            self._oracles[t] = SystemOracle(system.positive_roots, system.cartan)
        return self._oracles[t]

    def ops(self, k: int, tracer=None) -> list[Op]:
        raise NotImplementedError

    def round_work(self) -> dict | None:
        """Work every round must add up to, from the oracle; None if unchecked."""
        return None


# ---------------------------------------------------------------------------
# orbit-count and orbit-points: every admissible set of four types, shuffled


class OrbitWorkload(Workload):
    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sets = [(t, I) for t in self.types for I in adm.enumerate_admissible(self.systems[t])]

    def ops(self, k: int, tracer=None) -> list[Op]:
        order = list(self.sets)
        self.rng(k).shuffle(order)
        return [self._op(t, I) for t, I in order]

    def round_work(self) -> dict:
        points = sum(self.oracle(t).orbit_size(I.mask) for t, I in self.sets)
        return {"orbits": len(self.sets), "points": points}

    def _op(self, t, I) -> Op:
        raise NotImplementedError


class OrbitCount(OrbitWorkload):
    """Size-only BFS over A8, C7, D7 and E6: 465 orbits, 17,629,878 points."""

    name = "orbit-count"
    types = tuple(map(rst, ("A8", "C7", "D7", "E6")))

    def _op(self, t, I) -> Op:
        system = self.systems[t]

        def check(res) -> dict:
            want = self.oracle(t).orbit_size(I.mask)
            expect(res.method == "both", f"{t} {I}: enumeration did not run")
            expect(res.size == want, f"{t} {I}: {res.size} points, height formula {want}")
            return {"orbits": 1, "points": res.size}

        return Op("orbit", f"{t} {I}", lambda: ant.orbit(system, I, enumerate=True), check)


class OrbitPoints(OrbitWorkload):
    """Points of A7, C6, D6 and E6 kept and dumped: 256 orbits, 1,485,890
    points and 18,922,348 bytes of dumps per round."""

    name = "orbit-points"
    types = tuple(map(rst, ("A7", "C6", "D6", "E6")))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._verified: dict = {}  # (type, mask) -> digest of a dump that passed the full check

    def _op(self, t, I) -> Op:
        system = self.systems[t]

        def call():
            res = ant.orbit(system, I, keep_elements=True)
            return res, ant.elements_to_bytes(res.elements)

        def check(out) -> dict:
            res, data = out
            o = self.oracle(t)
            want = o.orbit_size(I.mask)
            expect(res.size == want, f"{t} {I}: {res.size} points, height formula {want}")
            digest = hashlib.blake2b(data, digest_size=16).digest()
            if self._verified.get((t, I.mask)) != digest:
                o.check_orbit_points(I.mask, res.elements, data, random.Random(I.mask))
                self._verified[(t, I.mask)] = digest
            return {"orbits": 1, "points": len(res.elements), "bytes": len(data)}

        return Op("orbit_points", f"{t} {I}", call, check)


# ---------------------------------------------------------------------------
# parity-suite: seeded (type, I, subgroup) draws plus one classification pass


class ParitySuite(Workload):
    """1,000 draws per round, ranks 5-8 drawn three times as often, then one
    pass of verify_classification and is_union_closed over all 40 types and
    of verify_maximality_proposition over the 17 types of rank <= 4."""

    name = "parity-suite"
    types = ALL_TYPES
    DRAWS = 1000
    WEIGHTS = tuple(3 if 5 <= t.rank <= 8 else 1 for t in ALL_TYPES)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._draws = {0: self.draws(0)}

    def draws(self, k: int) -> list[tuple]:
        rng = self.rng(k)
        out = []
        for t in rng.choices(self.types, self.WEIGHTS, k=self.DRAWS):
            full = (1 << t.rank) - 1
            mask = rng.randint(1, full)
            # half the subgroups lie inside Gamma^I, where triples live
            inside = rng.random() < 0.5
            gens = tuple(
                rng.randint(0, full) & (mask if inside else full) for _ in range(rng.randint(1, 3))
            )
            out.append((t, mask, gens))
        return out

    def ops(self, k: int, tracer=None) -> list[Op]:
        draws = self._draws.pop(k, None) or self.draws(k)
        ops = [self._draw_op(*d) for d in draws]
        ops += [self._classify_op(t) for t in self.types]
        ops += [self._union_op(t) for t in self.types]
        ops += [self._maximality_op(t) for t in self.types if t.rank <= 4]
        return ops

    def _draw_op(self, t, mask: int, gens: tuple) -> Op:
        system, r = self.systems[t], t.rank
        I = adm.IndexSet(mask)

        def call():
            ok = adm.is_admissible(system, I)
            witness = None if ok else adm.admissibility_witness(system, I)
            full = gam.gamma_full(I, r)
            full_triple = gam.is_triple(system, I, full)
            sub = gam.subgroup_span([adm.IndexSet(g) for g in gens], r)
            fixed = gam.fixed_root_set(system, sub)
            fixed_def = gam.fixed_root_set_by_definition(system, sub)
            triple = gam.is_triple(system, I, sub)
            triple_witness = gam.triple_witness(system, I, sub)
            two = ant.two_number(system, I) if ok else None
            return ok, witness, full, full_triple, sub, fixed, fixed_def, triple, triple_witness, two

        def check(out) -> dict:
            ok, witness, full, full_triple, sub, fixed, fixed_def, triple, triple_witness, two = out
            o = self.oracle(t)
            where = f"{t} {I} gens {gens}"
            expect(ok == o.is_admissible(mask), f"{where}: is_admissible {ok}")
            expect(ok == adm.closed_form(t, I), f"{where}: closed form disagrees with {ok}")
            expect(witness == o.admissibility_witness(mask), f"{where}: witness {witness}")
            expect({J.mask for J in full.elements} == submasks(mask), f"{where}: gamma_full")
            expect(full_triple == ok, f"{where}: Gamma^I triple {full_triple}, admissible {ok}")
            elements = xor_closure(gens)
            expect({J.mask for J in sub.elements} == elements, f"{where}: subgroup_span")
            want_fixed = o.fixed(elements)
            expect(set(fixed_def.roots) == want_fixed, f"{where}: fixed_root_set_by_definition")
            expect(fixed.roots == fixed_def.roots, f"{where}: fixed_root_set")
            differ = want_fixed ^ o.vanishing(mask)
            expect(triple == (not differ), f"{where}: is_triple {triple}")
            expect(triple_witness == (max(differ) if differ else None), f"{where}: triple_witness")
            if ok:
                expect(two == o.orbit_size(mask), f"{where}: two_number {two}")
            return {"draws": 1}

        return Op("draw", f"{t} {I} {gens}", call, check)

    def _classify_op(self, t) -> Op:
        def check(report) -> dict:
            o = self.oracle(t)
            want = [m for m in range(1, 1 << t.rank) if o.is_admissible(m)]
            expect(report.closed_form_agrees, f"{t}: closed form disagrees")
            expect([I.mask for I in report.admissible_sets] == want, f"{t}: admissible sets")
            return {"classifications": 1}

        return Op("classify", str(t), lambda: adm.verify_classification(t), check)

    def _union_op(self, t) -> Op:
        system = self.systems[t]

        def check(closed) -> dict:
            o = self.oracle(t)
            masks = {m for m in range(1, 1 << t.rank) if o.is_admissible(m)}
            expect(closed == all(a | b in masks for a in masks for b in masks), f"{t}: union")
            return {"union_checks": 1}

        return Op("union", str(t), lambda: adm.is_union_closed(system), check)

    def _maximality_op(self, t) -> Op:
        system = self.systems[t]

        def check(holds) -> dict:
            expect(holds is True, f"{t}: maximality proposition fails")
            return {"maximality_scans": 1}

        return Op("maximality", str(t), lambda: gam.verify_maximality_proposition(system), check)


# ---------------------------------------------------------------------------
# cli-cold: fresh `python -m rspaces.cli` processes, one at a time


class CliCold(Workload):
    """25 queries per round in a fixed mix; a run makes at least 100.

    The slow tail is `subgroups --set` on a 6-element set, which scans all
    2,825 subspaces of F_2^6.  Those draws come from the rank-7 types only,
    so their cost is even and query_p90_ms measures that scan rather than
    which type was drawn.  Each round holds four of them (16%), so the
    90th percentile falls inside that group, not at its edge, and a run of
    four rounds puts eight on each of two CPUs.
    """

    name = "cli-cold"
    types = ALL_TYPES
    min_ops = 100
    children_memory = True
    MIX = (
        ("classify", 4),
        ("check", 5),
        ("two-number", 4),
        ("orbit", 4),
        ("subgroups6", 4),
        ("subgroups", 1),
        ("usage", 3),
    )
    BAD_TYPES = (("E", "5"), ("D", "3"), ("G", "3"), ("BC", "0"))

    def __init__(self, seed: int) -> None:
        importlib.import_module("rspaces.cli")  # every query pays this import, so set-up does
        super().__init__(seed)
        admissible = {t: {I.mask for I in adm.enumerate_admissible(s)} for t, s in self.systems.items()}
        self.pools = {
            "classify": [(t, 0) for t in self.types],
            "check": [(t, m) for t in self.types for m in range(1, 1 << t.rank)],
            "two-number": [(t, m) for t in self.types for m in sorted(admissible[t])],
            "orbit": [(t, m) for t in self.types if t.rank <= 4 for m in range(1, 1 << t.rank)],
            "subgroups6": [
                (t, m) for t in self.types if t.rank == 7
                for m in sorted(admissible[t]) if m.bit_count() == 6
            ],
            "subgroups": [
                (t, m) for t in self.types for m in sorted(admissible[t]) if 3 <= m.bit_count() <= 5
            ],
            "inadmissible": [
                (t, m) for t in self.types for m in range(1, 1 << t.rank) if m not in admissible[t]
            ],
        }
        self._queries = {0: self.queries(0)}
        self.query_maxrss_kb = 0  # largest peak RSS of an untraced query child
        self.spawner = Spawner()
        self._expected: dict = {}
        self._docs = None

    def queries(self, k: int) -> list[tuple[str, ...]]:
        rng = self.rng(k)
        out = []
        for kind, count in self.MIX:
            for _ in range(count):
                out.append(self._query(kind, rng))
        rng.shuffle(out)
        return out

    def _query(self, kind: str, rng: random.Random) -> tuple[str, ...]:
        if kind == "usage":
            return self._usage_query(rng)
        t, m = rng.choice(self.pools[kind])
        head = (kind.rstrip("6"), t.family, str(t.rank))
        tail = ("--set", _set_arg(m)) if m else ()
        if kind == "classify":
            return head + ("--format", "markdown")
        if kind == "orbit":
            tail += ("--elements",)
        return head + tail + ("--format", "json")

    def _usage_query(self, rng: random.Random) -> tuple[str, ...]:
        choice = rng.randrange(4)
        if choice == 0:
            return ("classify", *rng.choice(self.BAD_TYPES))
        if choice == 1:
            t, _ = rng.choice(self.pools["check"])
            return ("check", t.family, str(t.rank), "--set", str(t.rank + 1))
        t, m = rng.choice(self.pools["inadmissible"])
        sub = "two-number" if choice == 2 else "subgroups"
        return (sub, t.family, str(t.rank), "--set", _set_arg(m), "--format", "json")

    def ops(self, k: int, tracer=None) -> list[Op]:
        queries = self._queries.pop(k, None) or self.queries(k)
        return [self._op(q, tracer) for q in queries]

    def _op(self, argv: tuple[str, ...], tracer) -> Op:
        def call():
            if tracer is None:
                proc = self.spawner.run(["-m", "rspaces.cli", *argv])
                self.query_maxrss_kb = max(self.query_maxrss_kb, proc.maxrss_kb)
                return proc.returncode, proc.stdout, proc.stderr
            proc = run_python([str(HERE / "child.py"), "cli", *argv])
            stderr, report = split_trace(proc.stderr)
            tracer.merge(report["stats"], report["work"], report["covered"])
            if proc.returncode == 0:
                self.main_ms.setdefault(argv[0], []).append(report["main_s"] * 1e3)
            return proc.returncode, proc.stdout, stderr

        def check(out) -> dict:
            code, stdout, stderr = out
            want_code, want_out = self.expected(argv)
            expect(code == want_code, f"{' '.join(argv)}: exit {code}, want {want_code}: {stderr}")
            if want_code == 2:
                expect(stdout == "" and "error:" in stderr, f"{' '.join(argv)}: usage output")
            elif isinstance(want_out, str):
                expect(stdout.rstrip("\n") == want_out, f"{' '.join(argv)}: markdown")
            else:
                expect(json.loads(stdout) == want_out, f"{' '.join(argv)}: json output")
            return {"queries": 1}

        return Op(argv[0], " ".join(argv), call, check)

    # -- expected results, from the library in this process and the oracles

    def expected(self, argv: tuple[str, ...]) -> tuple[int, Any]:
        if argv not in self._expected:
            self._expected[argv] = self._expect(argv)
        return self._expected[argv]

    def _expect(self, argv: tuple[str, ...]) -> tuple[int, Any]:
        sub, family, rank = argv[0], argv[1], int(argv[2])
        try:
            t = roots.RootSystemType(family, rank)
        except roots.RootSystemError:
            return 2, None
        if sub == "classify":
            if self._docs is None:
                self._docs = classification_sections((ROOT / "docs" / "classification.md").read_text())
            return 0, self._docs[str(t)]
        mask = sum(1 << (int(j) - 1) for j in argv[4].split(","))
        if mask >> rank:
            return 2, None
        system, o, I = self.systems[t], self.oracle(t), adm.IndexSet(mask)
        ok = adm.is_admissible(system, I)
        expect(ok == o.is_admissible(mask), f"{t} {I}: library admissibility {ok}")
        base = {"family": family, "rank": rank, "set": list(I)}
        if sub == "check":
            witness = None if ok else adm.admissibility_witness(system, I)
            expect(witness == o.admissibility_witness(mask), f"{t} {I}: witness {witness}")
            return 0, {**base, "admissible": ok, "witness": list(witness) if witness else None}
        if not ok and sub != "orbit":  # two-number and subgroups refuse it
            return 2, None
        if sub == "subgroups":
            return 0, self._expect_subgroups(t, I, base)
        res = ant.orbit(system, I, keep_elements=sub == "orbit")
        expect(res.size == o.orbit_size(mask), f"{t} {I}: orbit size {res.size}")
        payload = {
            **base,
            "admissible": ok,
            "two_number": res.size if ok else None,
            "size": res.size,
            "weyl_order": res.weyl_order,
            "stabilizer_order": res.stabilizer_order,
            "method": res.method,
            "budget_exceeded": res.budget_exceeded,
        }
        if sub == "orbit":
            points = [list(v) for v in res.elements]
            expect(points == [list(v) for v in o.orbit_points(mask)], f"{t} {I}: orbit points")
            payload["elements"] = points
        else:
            expect(ant.two_number(system, I) == o.orbit_size(mask), f"{t} {I}: two_number")
        return 0, payload

    def _expect_subgroups(self, t, I, base: dict) -> dict:
        o = self.oracle(t)
        full_order = gam.gamma_full(I, t.rank).order
        minimal = gam.minimal_triple_subgroups(self.systems[t], I)
        for s in minimal:
            expect(o.fixed(xor_closure(s.basis)) == o.vanishing(I.mask), f"{t} {I}: {s} no triple")
        return {
            **base,
            "gamma_full_order": full_order,
            "minimal_triple_subgroups": [
                {
                    "basis": [list(adm.IndexSet(b)) for b in s.basis],
                    "order": s.order,
                    "proper": s.order < full_order,
                }
                for s in minimal
            ],
            "exploratory": True,
        }


# ---------------------------------------------------------------------------
# reference pass: every traced layer once, on small fixed inputs

REFERENCE_CLI = (
    ("classify", "A", "3", "--format", "json"),
    ("check", "B", "3", "--set", "2", "--format", "json"),
    ("two-number", "A", "3", "--set", "2", "--format", "json"),
    ("orbit", "C", "3", "--set", "3", "--elements", "--format", "json"),
    ("subgroups", "A", "3", "--set", "1,3", "--gens", "1,3", "--format", "json"),
    ("subgroups", "A", "3", "--set", "1,2,3", "--format", "json"),
)


def reference_pass(main_ms: dict[str, list[float]]) -> None:
    """Call every per-layer function once on small inputs, cli.main in-process.

    Traced runs end with this pass, so a layer that a workload never reaches
    still reports a measured time, not a constant zero.
    """
    cli = importlib.import_module("rspaces.cli")
    for argv in REFERENCE_CLI:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(list(argv))
            main_s = perf_counter() - t0
        expect(code == 0, f"reference {' '.join(argv)}: exit {code}")
        main_ms.setdefault(argv[0], []).append(main_s * 1e3)
    a2, a3 = roots.build(rst("A2")), roots.build(rst("A3"))
    ant.elements_to_bytes(ant.orbit(a2, adm.IndexSet.of(1), keep_elements=True).elements)
    gam.fixed_root_set_by_definition(a3, gam.gamma_full(adm.IndexSet.of(1, 3), 3))
    gam.verify_maximality_proposition(a2)
    adm.enumerate_admissible(a3)


def _set_arg(mask: int) -> str:
    return ",".join(str(k + 1) for k in range(mask.bit_length()) if mask >> k & 1)


WORKLOADS = {w.name: w for w in (OrbitCount, OrbitPoints, ParitySuite, CliCold)}
