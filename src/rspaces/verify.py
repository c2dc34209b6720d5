"""Full verification pass: every published claim the library reproduces.

Each criterion function returns a CriterionResult; run_all executes the lot.
The CLI command `verify-all` and the acceptance test suite both drive this
module, so a discrepancy fails in exactly one place.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator

from . import admissible as adm
from . import antipodal as ant
from . import gamma as gam
from .admissible import IndexSet
from .roots import FAMILIES, RootSystem, RootSystemError, RootSystemType, build

CLASSICAL_MAX_RANK = 8
WEYL_ENUMERATION_CAP = 3 * 10**6  # admits E7 (|W| = 2,903,040), not D8 or B8
RANDOM_SEED = 20250805
RANDOM_CASES = 10**4


def standard_types(max_rank: int = CLASSICAL_MAX_RANK) -> Iterator[RootSystemType]:
    """Every family at every rank up to max_rank that the family admits, deterministic order."""
    for fam in FAMILIES:
        for r in range(1, max_rank + 1):
            try:
                rst = RootSystemType(fam, r)
            except RootSystemError:
                continue
            yield rst


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


def _timed(
    number: int,
    name: str,
    limit: float | None,
    body: Callable[[], tuple[bool, str]],
    work: dict[str, int] | None = None,
) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        passed, detail = body()
    except Exception as exc:  # a crash is a failure with the reason attached
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if passed and limit is not None and elapsed > limit:
        passed = False
        detail += f"; exceeded {limit:.0f}s budget"
    return CriterionResult(number, name, passed, detail, elapsed, work)


def criterion_1_classification() -> CriterionResult:
    def body() -> tuple[bool, str]:
        bad = []
        n_types = 0
        for rst in standard_types():
            n_types += 1
            report = adm.verify_classification(rst)
            if not report.closed_form_agrees:
                bad.append((rst, report.witness_discrepancies[:3]))
        if bad:
            return False, f"closed-form mismatches: {bad}"
        return True, f"{n_types} types, zero discrepancies"

    return _timed(1, "classification reproduction", 5.0, body)


def criterion_2_counts() -> CriterionResult:
    def body() -> tuple[bool, str]:
        expected = {
            "A": lambda r: 2**r - 1,
            "B": lambda r: r,
            "C": lambda r: 2 ** (r - 1),
            "G": lambda r: 1,
            "BC": lambda r: 0,
        }
        for rst in standard_types():
            if rst.family not in expected:
                continue
            got = len(adm.enumerate_admissible(build(rst)))
            want = expected[rst.family](rst.rank)
            if got != want:
                return False, f"{rst}: {got} admissible sets, expected {want}"
        return True, "A/B/C/G/BC counts exact"

    return _timed(2, "type-specific counts", None, body)


def criterion_3_union_closure() -> CriterionResult:
    def body() -> tuple[bool, str]:
        for rst in standard_types():
            if not adm.is_union_closed(build(rst)):
                return False, f"{rst}: union of admissible sets not admissible"
        return True, "closed under union everywhere"

    return _timed(3, "union closure", None, body)


def criterion_4_odd_coefficient() -> CriterionResult:
    def body() -> tuple[bool, str]:
        for rst in standard_types():
            system = build(rst)
            witness = adm.find_all_even_root(system)
            if rst.reduced:
                if witness is not None:
                    return False, f"{rst}: all-even root {witness} in a reduced system"
            else:
                want = tuple([2] * rst.rank)  # 2e_1
                if witness != want:
                    return False, f"{rst}: witness {witness}, expected 2e_1 = {want}"
            if adm.full_set_admissible_iff_reduced(rst) != rst.reduced:
                return False, f"{rst}: full-set admissibility disagrees with reducedness"
        return True, "reduced systems odd-clean; BC witnesses 2e_1"

    return _timed(4, "odd-coefficient lemma", None, body)


def criterion_5_extrinsic() -> CriterionResult:
    def body() -> tuple[bool, str]:
        for rst in standard_types():
            system = build(rst)
            ext = adm.extrinsic_symmetric_indices(system)
            for m in range(1, 1 << system.rank):
                I = IndexSet(m)
                if I.issubset(ext) and not adm.is_admissible(system, I):
                    return False, f"{rst}: extrinsic subset {I} not admissible"
        return True, "all extrinsic subsets admissible"

    return _timed(5, "extrinsic-symmetric subsets", None, body)


def criterion_6_orbit_agreement() -> CriterionResult:
    work = {"orbits": 0, "points": 0}

    def body() -> tuple[bool, str]:
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
        for n in range(2, 9):
            system = build(RootSystemType("A", n - 1))
            for k in range(1, n):
                got = ant.two_number(system, IndexSet.of(k))
                if got != math.comb(n, k):
                    return False, f"A{n-1} {{{k}}}: two-number {got} != C({n},{k})"
        return True, f"{work['orbits']} orbits agree with the order formula; A-type binomials exact"

    return _timed(6, "antipodal orbit agreement", 60.0, body, work)


def criterion_7_weyl_orders() -> CriterionResult:
    work = {"orbits": 0, "points": 0}

    def body() -> tuple[bool, str]:
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

    return _timed(7, "Weyl order cross-validation", 120.0, body, work)


def criterion_8_maximality() -> CriterionResult:
    def body() -> tuple[bool, str]:
        n_systems = 0
        for rst in standard_types(max_rank=4):
            system = build(rst)
            if not gam.verify_maximality_proposition(system):
                return False, f"{rst}: triple with subgroup outside Gamma^I or I inadmissible"
            n_systems += 1
        return True, f"exhaustive over all subgroups, {n_systems} systems at rank <= 4"

    return _timed(8, "subgroup maximality", 10.0, body)


def criterion_9_flag_example() -> CriterionResult:
    def body() -> tuple[bool, str]:
        n_cases = 0
        for r in range(3, 7):
            system = build(RootSystemType("A", r))
            for i1, i2, i3 in combinations(range(1, r + 1), 3):
                I = IndexSet.of(i1, i2, i3)
                sub = gam.subgroup_span([IndexSet.of(i1, i3), IndexSet.of(i2)], r)
                if not gam.is_triple(system, I, sub):
                    return False, f"A{r} {I}: flag-example subgroup is not a triple"
                if not (sub.order == 4 and gam.gamma_full(I, r).order == 8):
                    return False, f"A{r} {I}: subgroup not proper of order 4 in order 8"
                n_cases += 1
        return True, f"{n_cases} index triples across A3..A6"

    return _timed(9, "three-step flag example", None, body)


def _random_system(rng: random.Random) -> RootSystem:
    fam = rng.choice(("A", "B", "C", "D", "BC"))
    return build(RootSystemType(fam, rng.randint(5, 8)))


def criterion_10_properties() -> CriterionResult:
    def body() -> tuple[bool, str]:
        rng = random.Random(RANDOM_SEED)

        # reflection involutivity: exhaustive over small orbits, then random vectors
        for rst in standard_types(max_rank=4):
            system = build(rst)
            for m in range(1, 1 << system.rank):
                res = ant.orbit(system, IndexSet(m), keep_elements=True)
                for v in res.elements:
                    for j in range(1, system.rank + 1):
                        if ant.reflect(ant.reflect(v, j, system), j, system) != v:
                            return False, f"{rst}: reflection {j} not involutive at {v}"
        for _ in range(RANDOM_CASES):
            system = _random_system(rng)
            v = tuple(rng.randint(-9, 9) for _ in range(system.rank))
            j = rng.randint(1, system.rank)
            if ant.reflect(ant.reflect(v, j, system), j, system) != v:
                return False, f"{system.type}: reflection {j} not involutive at {v}"

        # parity generator-sufficiency: basis check == full-element check
        for rst in standard_types(max_rank=4):
            system = build(rst)
            for sub in gam.all_subgroups(system.rank):
                if gam.fixed_root_set(system, sub) != gam.fixed_root_set_by_definition(system, sub):
                    return False, f"{rst}: basis parity check differs from definition for {sub}"
        for _ in range(RANDOM_CASES):
            system = _random_system(rng)
            gens = [
                IndexSet(rng.randrange(1, 1 << system.rank))
                for _ in range(rng.randint(1, 3))
            ]
            sub = gam.subgroup_span(gens, system.rank)
            if gam.fixed_root_set(system, sub) != gam.fixed_root_set_by_definition(system, sub):
                return False, f"{system.type}: basis parity check differs for {sub}"

        # anti-monotonicity of the fixed set under subgroup inclusion
        for rst in standard_types(max_rank=3):
            system = build(rst)
            subs = list(gam.all_subgroups(system.rank))
            fixed = {s.basis: set(gam.fixed_root_set(system, s).roots) for s in subs}
            for s1 in subs:
                for s2 in subs:
                    if s1.issubgroup_of(s2) and not fixed[s2.basis] <= fixed[s1.basis]:
                        return False, f"{rst}: fixed set grew from {s1} to {s2}"
        for _ in range(RANDOM_CASES):
            system = _random_system(rng)
            gens = [
                IndexSet(rng.randrange(1, 1 << system.rank))
                for _ in range(rng.randint(1, 4))
            ]
            k = rng.randint(0, len(gens))
            small = gam.subgroup_span(gens[:k], system.rank)
            big = gam.subgroup_span(gens, system.rank)
            fixed_big = set(gam.fixed_root_set(system, big).roots)
            fixed_small = set(gam.fixed_root_set(system, small).roots)
            if not fixed_big <= fixed_small:
                return False, f"{system.type}: anti-monotonicity failed for {small} in {big}"

        # triple with the full subgroup <=> admissible
        for rst in standard_types(max_rank=4):
            system = build(rst)
            for m in range(1, 1 << system.rank):
                I = IndexSet(m)
                full = gam.gamma_full(I, system.rank)
                if gam.is_triple(system, I, full) != adm.is_admissible(system, I):
                    return False, f"{rst} {I}: triple-with-full-subgroup mismatch"
        for _ in range(RANDOM_CASES):
            system = _random_system(rng)
            I = IndexSet(rng.randrange(1, 1 << system.rank))
            full = gam.gamma_full(I, system.rank)
            if gam.is_triple(system, I, full) != adm.is_admissible(system, I):
                return False, f"{system.type} {I}: triple-with-full-subgroup mismatch"

        return True, f"4 properties, exhaustive at rank <= 4 plus {RANDOM_CASES} seeded cases each"

    return _timed(10, "property suite", None, body)


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_1_classification,
    criterion_2_counts,
    criterion_3_union_closure,
    criterion_4_odd_coefficient,
    criterion_5_extrinsic,
    criterion_6_orbit_agreement,
    criterion_7_weyl_orders,
    criterion_8_maximality,
    criterion_9_flag_example,
    criterion_10_properties,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
