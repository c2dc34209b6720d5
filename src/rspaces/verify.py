"""Full verification pass: every published claim the library reproduces.

Each criterion is declared once, by _criterion on its check, and returns a
CriterionResult; run_all runs them in the order they are declared.  The CLI
command `verify-all` and the acceptance test suite both drive this module,
so a discrepancy fails in exactly one place.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterator

from . import admissible as adm
from . import antipodal as ant
from . import gamma as gam
from .admissible import IndexSet
from .roots import RootSystem, RootSystemType, build, standard_types

WEYL_ENUMERATION_CAP = 3 * 10**6  # admits E7 (|W| = 2,903,040), not D8 or B8
RANDOM_SEED = 20250805
RANDOM_CASES = 10**4


def _systems(*max_rank: int) -> Iterator[RootSystem]:
    return map(build, standard_types(*max_rank))


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    work: dict[str, int] | None = None  # what the criterion enumerated, where it counts

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number:2d} [{self.name}] {self.detail} ({self.elapsed:.1f}s)"

    def to_dict(self) -> dict:
        out = {
            "criterion": self.number,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "elapsed_s": round(self.elapsed, 3),
        }
        if self.work is not None:
            out["work"] = self.work
        return out


ALL_CRITERIA: list[Callable[[], CriterionResult]] = []  # in definition order, by _criterion


def _criterion(number: int, name: str, limit: float | None = None):
    """Declare criterion `number`: the decorated check becomes its runner in ALL_CRITERIA.

    The runner times the check, turns an exception into a failure, fails a pass
    over `limit` seconds, and reports what the check counted in `work` (None if empty).
    """

    def declare(check: Callable[..., tuple[bool, str]]) -> Callable[[], CriterionResult]:
        def run() -> CriterionResult:
            work: dict[str, int] = {}
            t0 = time.perf_counter()
            try:
                passed, detail = check(work)
            except Exception as exc:  # a crash is a failure with the reason attached
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if passed and limit is not None and elapsed > limit:
                passed = False
                detail += f"; exceeded {limit:.0f}s budget"
            return CriterionResult(number, name, passed, detail, elapsed, work or None)

        run.__name__ = run.__qualname__ = check.__name__
        ALL_CRITERIA.append(run)
        return run

    return declare


@_criterion(1, "classification reproduction", limit=5.0)
def criterion_1_classification(work: dict[str, int]) -> tuple[bool, str]:
    work.update(types=0, index_sets=0, admissible=0)
    bad = []
    for rst in standard_types(14):  # the 40 standard types, and A, B, C, D, BC at ranks 9-14
        report = adm.verify_classification(rst)
        work["types"] += 1
        work["index_sets"] += (1 << rst.rank) - 1  # every non-empty subset, against the closed form
        work["admissible"] += len(report.admissible_sets)
        if not report.closed_form_agrees:
            bad.append((rst, report.witness_discrepancies[:3]))
    if bad:
        return False, f"closed-form mismatches: {bad}"
    return True, f"{work['types']} types, zero discrepancies"


@_criterion(2, "type-specific counts")
def criterion_2_counts(work: dict[str, int]) -> tuple[bool, str]:
    expected = {
        "A": lambda r: 2**r - 1,
        "B": lambda r: r,
        "C": lambda r: 2 ** (r - 1),
        "G": lambda r: 1,
        "BC": lambda r: 0,
    }
    work.update(types=0, admissible=0)
    for rst in standard_types():
        if rst.family not in expected:
            continue
        got = len(adm.enumerate_admissible(build(rst)))
        work["types"] += 1
        work["admissible"] += got
        want = expected[rst.family](rst.rank)
        if got != want:
            return False, f"{rst}: {got} admissible sets, expected {want}"
    return True, "A/B/C/G/BC counts exact"


@_criterion(3, "union closure")
def criterion_3_union_closure(work: dict[str, int]) -> tuple[bool, str]:
    work.update(types=0)
    for rst in standard_types():
        work["types"] += 1
        if not adm.is_union_closed(build(rst)):
            return False, f"{rst}: union of admissible sets not admissible"
    return True, "closed under union everywhere"


@_criterion(4, "odd-coefficient lemma")
def criterion_4_odd_coefficient(work: dict[str, int]) -> tuple[bool, str]:
    work.update(types=0, non_reduced=0)
    for rst in standard_types():
        system = build(rst)
        witness = adm.find_all_even_root(system)
        work["types"] += 1
        if rst.reduced:
            if witness is not None:
                return False, f"{rst}: all-even root {witness} in a reduced system"
        else:
            work["non_reduced"] += 1
            want = tuple([2] * rst.rank)  # 2e_1
            if witness != want:
                return False, f"{rst}: witness {witness}, expected 2e_1 = {want}"
        if adm.full_set_admissible_iff_reduced(rst) != rst.reduced:
            return False, f"{rst}: full-set admissibility disagrees with reducedness"
    return True, "reduced systems odd-clean; BC witnesses 2e_1"


@_criterion(5, "extrinsic-symmetric subsets")
def criterion_5_extrinsic(work: dict[str, int]) -> tuple[bool, str]:
    work.update(systems=0, extrinsic_subsets=0)
    for system in _systems():
        ext = adm.extrinsic_symmetric_indices(system)
        work["systems"] += 1
        for m in range(1, 1 << system.rank):
            I = IndexSet(m)
            if I.issubset(ext):
                work["extrinsic_subsets"] += 1
                if not adm.is_admissible(system, I):
                    return False, f"{system}: extrinsic subset {I} not admissible"
    return True, "all extrinsic subsets admissible"


@_criterion(6, "antipodal orbit agreement", limit=60.0)
def criterion_6_orbit_agreement(work: dict[str, int]) -> tuple[bool, str]:
    work.update(orbits=0, points=0, closed_forms=0)
    for rst in standard_types():
        if ant.weyl_group_order(rst) > WEYL_ENUMERATION_CAP:
            continue
        system = build(rst)
        for I in adm.enumerate_admissible(system):
            res = ant.orbit(system, I, enumerate=True)  # raises on disagreement
            if res.method != "both":
                return False, f"{rst} {I}: enumeration did not run"
            work["orbits"] += 1
            work["points"] += res.size
    for rst, I, want, form in _two_number_closed_forms():
        got = ant.two_number(build(rst), I)
        work["closed_forms"] += 1
        if got != want:
            return False, f"{rst} {I}: two-number {got} != {form} = {want}"
    return True, f"{work['orbits']} orbits agree with the order formula; closed forms exact"


def _two_number_closed_forms() -> Iterator[tuple[RootSystemType, IndexSet, int, str]]:
    """(type, I, 2-number, its form) as published (Chen and Nagano 1988; Takeuchi 1989).

    Each I of A_r gives a flag manifold, (r+1)!/prod d_i! for the gaps d_i of 0 < I < r+1.
    B_r {1} and D_r {1} are quadrics, C_r {r} and D_r {r-1}, {r} Lagrangian and spinor.
    """
    for r in range(1, 9):
        for m in range(1, 1 << r):
            cuts = [0, *IndexSet(m), r + 1]
            gaps = [b - a for a, b in zip(cuts, cuts[1:])]
            want = math.factorial(r + 1) // math.prod(map(math.factorial, gaps))
            yield RootSystemType("A", r), IndexSet(m), want, f"{r + 1}!/({' '.join(f'{d}!' for d in gaps)})"
    for r in range(2, 9):
        yield RootSystemType("B", r), IndexSet.of(1), 2 * r, "2r"
        yield RootSystemType("C", r), IndexSet.of(r), 2**r, "2^r"
    for r in range(4, 9):
        yield RootSystemType("D", r), IndexSet.of(1), 2 * r, "2r"
        yield RootSystemType("D", r), IndexSet.of(r - 1), 2 ** (r - 1), "2^(r-1)"
        yield RootSystemType("D", r), IndexSet.of(r), 2 ** (r - 1), "2^(r-1)"


@_criterion(7, "Weyl order cross-validation", limit=120.0)
def criterion_7_weyl_orders(work: dict[str, int]) -> tuple[bool, str]:
    work.update(orbits=0, points=0)
    checked = []
    for rst in standard_types():
        if rst.family == "BC" or ant.weyl_group_order(rst) > WEYL_ENUMERATION_CAP:
            continue
        system = build(rst)
        res = ant.orbit(system, IndexSet.full(rst.rank), enumerate=True)
        if res.method != "both":
            return False, f"{rst}: regular orbit was not enumerated"
        work["orbits"] += 1
        work["points"] += res.size
        if res.size != ant.weyl_group_order(rst):
            return False, f"{rst}: regular orbit {res.size} != |W|"
        checked.append(str(rst))
    return True, f"regular orbits match closed forms: {', '.join(checked)}"


@_criterion(8, "subgroup maximality", limit=10.0)
def criterion_8_maximality(work: dict[str, int]) -> tuple[bool, str]:
    systems = list(_systems())
    for system in systems:
        if not gam.verify_maximality_proposition(system):
            return False, f"{system}: triple with subgroup outside Gamma^I or I inadmissible"
    # the bases all_subgroups wraps, counted without building a GammaSubgroup each
    subgroups_at = {r: sum(1 for _ in gam._echelon_bases(range(r), (0,) * r)) for r in {s.rank for s in systems}}
    work.update(systems=len(systems), subgroups=sum(subgroups_at[s.rank] for s in systems))
    return True, f"exhaustive over all subgroups, {len(systems)} systems at rank <= {max(subgroups_at)}"


@_criterion(9, "three-step flag example")
def criterion_9_flag_example(work: dict[str, int]) -> tuple[bool, str]:
    work.update(index_triples=0)
    for r in range(3, 7):
        system = build(RootSystemType("A", r))
        for i1, i2, i3 in combinations(range(1, r + 1), 3):
            I = IndexSet.of(i1, i2, i3)
            sub = gam.subgroup_span([IndexSet.of(i1, i3), IndexSet.of(i2)], r)
            if not gam.is_triple(system, I, sub):
                return False, f"A{r} {I}: flag-example subgroup is not a triple"
            if not (sub.order == 4 and gam.gamma_full(I, r).order == 8):
                return False, f"A{r} {I}: subgroup not proper of order 4 in order 8"
            work["index_triples"] += 1
    return True, f"{work['index_triples']} index triples across A3..A6"


def _nested_subgroups(max_rank: int) -> Iterator[tuple]:
    """(system, small, big, fixed(small), fixed(big)) for small <= big; one fixed set each."""
    for system in _systems(max_rank):
        fixed = {sub: gam.fixed_root_set(system, sub) for sub in gam.all_subgroups(system.rank)}
        for small, fixed_small in fixed.items():
            for big, fixed_big in fixed.items():
                if small.issubgroup_of(big):
                    yield system, small, big, fixed_small, fixed_big


def _seeded_cases(rng: random.Random, draw: Callable[[RootSystem], tuple]) -> Iterator[tuple]:
    """RANDOM_CASES cases: a seeded system of rank 5..8, then what draw(system) adds."""
    families = ("A", "B", "C", "D", "BC")
    systems = {(fam, r): build(RootSystemType(fam, r)) for fam in families for r in range(5, 9)}
    for _ in range(RANDOM_CASES):
        system = systems[rng.choice(families), rng.randint(5, 8)]
        yield (system, *draw(system))


@_criterion(10, "property suite")
def criterion_10_properties(work: dict[str, int]) -> tuple[bool, str]:
    rng = random.Random(RANDOM_SEED)

    def labels(rank: int, most: int) -> list[IndexSet]:
        return [IndexSet(rng.randrange(1, 1 << rank)) for _ in range(rng.randint(1, most))]

    def nested(system: RootSystem) -> tuple:
        gens = labels(system.rank, 4)
        k = rng.randint(0, len(gens))
        small = gam.subgroup_span(gens[:k], system.rank)
        big = gam.subgroup_span(gens, system.rank)
        return small, big, gam.fixed_root_set(system, small), gam.fixed_root_set(system, big)

    # Each property: its name in `work`, its exhaustive cases at small rank, the draw
    # that completes a seeded case (system, ...), a predicate and a failure message.
    properties = (
        (
            "involutivity",  # each simple reflection squares to the identity
            (
                (s, v, j)
                for s in _systems(4)
                for m in range(1, 1 << s.rank)
                for v in ant.orbit(s, IndexSet(m), keep_elements=True).elements
                for j in range(1, s.rank + 1)
            ),
            lambda s: (tuple(rng.randint(-9, 9) for _ in range(s.rank)), rng.randint(1, s.rank)),
            lambda s, v, j: ant.reflect(ant.reflect(v, j, s), j, s) == v,
            lambda s, v, j: f"{s.type}: reflection {j} not involutive at {v}",
        ),
        (
            "generator_sufficiency",  # the basis parity check equals the all-element check
            ((s, sub) for s in _systems(4) for sub in gam.all_subgroups(s.rank)),
            lambda s: (gam.subgroup_span(labels(s.rank, 3), s.rank),),
            lambda s, sub: gam.fixed_root_set(s, sub) == gam.fixed_root_set_by_definition(s, sub),
            lambda s, sub: f"{s.type}: basis parity check differs from definition for {sub}",
        ),
        (
            "anti_monotonicity",  # of the fixed set under subgroup inclusion
            _nested_subgroups(max_rank=3),
            nested,
            lambda s, small, big, f_small, f_big: set(f_big.roots) <= set(f_small.roots),
            lambda s, small, big, *_: f"{s.type}: fixed set grew from {small} to {big}",
        ),
        (
            "full_subgroup_triples",  # a triple with Gamma^I iff I is admissible
            ((s, IndexSet(m)) for s in _systems(4) for m in range(1, 1 << s.rank)),
            lambda s: (IndexSet(rng.randrange(1, 1 << s.rank)),),
            lambda s, I: gam.is_triple(s, I, gam.gamma_full(I, s.rank)) == adm.is_admissible(s, I),
            lambda s, I: f"{s.type} {I}: triple-with-full-subgroup mismatch",
        ),
    )
    # work counts each property's exhaustive cases, and the seeded cases of all four per rank
    for name, exhaustive, draw, holds, failure in properties:
        named = ((name, case) for case in exhaustive)
        seeded = ((f"seeded_rank_{case[0].rank}", case) for case in _seeded_cases(rng, draw))
        for counter, case in chain(named, seeded):
            work[counter] = work.get(counter, 0) + 1
            if not holds(*case):
                return False, failure(*case)
    return True, f"4 properties, exhaustive at rank <= 4 plus {RANDOM_CASES} seeded cases each"


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
