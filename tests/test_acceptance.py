"""Acceptance gate: one test per published-claim criterion, with a printed verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; `rspaces verify-all` drives the same checks from the command line.
"""

import hashlib
import itertools
from types import SimpleNamespace

import pytest

from rspaces import verify
from rspaces.admissible import IndexSet
from rspaces.roots import RootSystemType

CRITERION_NAMES = [
    "criterion_1_classification",
    "criterion_2_counts",
    "criterion_3_union_closure",
    "criterion_4_odd_coefficient",
    "criterion_5_extrinsic",
    "criterion_6_orbit_agreement",
    "criterion_7_weyl_orders",
    "criterion_8_maximality",
    "criterion_9_flag_example",
    "criterion_10_properties",
]


def _run(criterion, work):
    """Run one criterion; it must pass, under its own number, and report `work`."""
    result = criterion()
    print(result.line())
    assert result.passed, result.line()
    assert criterion.__name__.startswith(f"criterion_{result.number}_")
    assert result.work == work
    return result


def test_criterion_01_classification_reproduction():
    """Brute-force parity enumeration equals the closed forms on every subset."""
    # the 40 standard types, then A, B, C, D and BC at ranks 9-14
    result = _run(
        verify.criterion_1_classification,
        {"types": 70, "index_sets": 164210, "admissible": 74089},
    )
    assert result.detail == "70 types, zero discrepancies"


def test_criterion_02_type_specific_counts():
    """A_r: 2^r - 1, B_r: r, C_r: 2^(r-1), G2: 1, BC_r: 0."""
    _run(verify.criterion_2_counts, {"types": 31, "admissible": 792})


def test_criterion_03_union_closure():
    """Unions of admissible subsets are admissible in every system."""
    _run(verify.criterion_3_union_closure, {"types": 40})


def test_criterion_04_odd_coefficient_lemma():
    """No reduced system has an all-even root; BC_r witnesses 2e_1."""
    _run(verify.criterion_4_odd_coefficient, {"types": 40, "non_reduced": 8})


def test_criterion_05_extrinsic_subsets():
    """Subsets of the coefficient-one indices of the highest root are admissible."""
    # the non-empty subsets of each system's extrinsic indices
    _run(verify.criterion_5_extrinsic, {"systems": 40, "extrinsic_subsets": 555})


def test_criterion_06_orbit_agreement():
    """BFS orbit size equals |W|/|W_parabolic| for every admissible set; published closed forms."""
    # the 502 sets of A1-A8, then B_r {1}, C_r {r} at ranks 2-8 and D_r {1}, {r-1}, {r} at 4-8
    _run(
        verify.criterion_6_orbit_agreement,
        {"orbits": 969, "points": 52_794_254, "closed_forms": 531},
    )


def test_criterion_07_weyl_order_cross_validation():
    """Enumerated regular orbits reproduce the closed-form Weyl orders."""
    _run(verify.criterion_7_weyl_orders, {"orbits": 28, "points": 5_103_828})


@pytest.mark.parametrize("raw", ["1", "abc"])
def test_criterion_07_ignores_budget_env(monkeypatch, raw):
    """RSPACES_ORBIT_BUDGET neither skips nor breaks the enumeration criteria."""
    monkeypatch.setenv("RSPACES_ORBIT_BUDGET", raw)
    result = verify.criterion_7_weyl_orders()
    assert result.passed, result.line()
    assert result.detail.endswith(
        "A1, A2, A3, A4, A5, A6, A7, A8, B2, B3, B4, B5, B6, B7, C2, C3, C4, C5, C6, C7, "
        "D4, D5, D6, D7, E6, E7, F4, G2"
    )


def test_criterion_07_requires_enumeration(monkeypatch):
    """A regular orbit answered by the order formula alone fails the criterion."""
    formula_only = verify.ant.orbit
    monkeypatch.setattr(verify.ant, "orbit", lambda system, I, **_: formula_only(system, I))
    result = verify.criterion_7_weyl_orders()
    assert not result.passed and "not enumerated" in result.detail


def test_criterion_08_subgroup_maximality():
    """Every triple forces the subgroup inside Gamma^I with I admissible (rank <= 7)."""
    result = _run(verify.criterion_8_maximality, {"systems": 34, "subgroups": 194_587})
    assert result.detail == "exhaustive over all subgroups, 34 systems at rank <= 7"


def test_criterion_09_flag_example():
    """The order-4 proper subgroup forms a triple for every index triple, A3..A6."""
    result = _run(verify.criterion_9_flag_example, {"index_triples": 35})
    assert result.detail == "35 index triples across A3..A6"


def test_criterion_10_property_suite(monkeypatch):
    """Involutivity, generator sufficiency, anti-monotonicity, triple-iff-admissible."""
    # every seeded case, (type, *drawn values), is hashed as drawn, before its predicate runs
    digest = hashlib.sha256()
    seeded_cases = verify._seeded_cases

    def recording(rng, draw):
        for case in seeded_cases(rng, draw):
            digest.update(repr((case[0].type, *case[1:])).encode())
            yield case

    monkeypatch.setattr(verify, "_seeded_cases", recording)
    # exhaustive cases per property, then the seeded cases of all four per rank
    work = {
        "involutivity": 48_028,
        "generator_sufficiency": 495,
        "anti_monotonicity": 330,
        "full_subgroup_triples": 135,
        "seeded_rank_5": 9_922,
        "seeded_rank_6": 9_866,
        "seeded_rank_7": 10_185,
        "seeded_rank_8": 10_027,
    }
    result = _run(verify.criterion_10_properties, work)
    assert result.detail == "4 properties, exhaustive at rank <= 4 plus 10000 seeded cases each"
    assert digest.hexdigest() == "92b881dc3845784f234483974b1ffb0b5fe41b254f4f48c2d5a60c50f2f3720d"


# ---------------------------------------------------------------------------
# the runner every criterion goes through


def test_all_criteria_in_numeric_order():
    assert [f.__name__ for f in verify.ALL_CRITERIA] == CRITERION_NAMES


def test_raising_check_fails_with_reason(monkeypatch):
    def boom(system):
        raise RuntimeError("no admissible sets today")

    monkeypatch.setattr(verify.adm, "enumerate_admissible", boom)
    result = verify.criterion_2_counts()
    assert not result.passed
    assert result.detail == "raised RuntimeError: no admissible sets today"


def _fake_clock(monkeypatch, step):
    """Every criterion then measures `step` seconds between its two clock reads."""
    ticks = itertools.count(0.0, step)
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))


def test_gate_fails_a_passing_check_that_overruns(monkeypatch):
    _fake_clock(monkeypatch, 6.0)
    gated = verify.criterion_1_classification()  # 5 s gate
    assert not gated.passed and gated.elapsed == 6.0
    assert gated.detail == "70 types, zero discrepancies; exceeded 5s budget"
    ungated = verify.criterion_2_counts()
    assert ungated.passed and ungated.elapsed == 6.0
    assert ungated.detail == "A/B/C/G/BC counts exact"


def test_gate_leaves_a_failed_check_unsuffixed(monkeypatch):
    _fake_clock(monkeypatch, 6.0)
    monkeypatch.setattr(verify.adm, "verify_classification", lambda rst: 1 / 0)
    result = verify.criterion_1_classification()
    assert not result.passed and result.elapsed == 6.0
    assert result.detail == "raised ZeroDivisionError: division by zero"


# ---------------------------------------------------------------------------
# each criterion fails, with its own detail, when a layer gives a wrong answer


def _fails(criterion, detail):
    result = criterion()
    assert result.passed is False
    assert result.detail == detail


def test_criterion_01_fails_on_a_closed_form_mismatch(monkeypatch):
    def report(rst):  # the detail quotes the first three discrepancies of each type
        return SimpleNamespace(
            admissible_sets=(),
            closed_form_agrees=rst != RootSystemType("G", 2),
            witness_discrepancies=[(IndexSet(m), True, False) for m in range(1, 5)],
        )

    monkeypatch.setattr(verify.adm, "verify_classification", report)
    _fails(
        verify.criterion_1_classification,
        "closed-form mismatches: [(RootSystemType(family='G', rank=2), "
        "[(IndexSet(mask=1), True, False), (IndexSet(mask=2), True, False), "
        "(IndexSet(mask=3), True, False)])]",
    )


def test_criterion_01_fails_on_a_mismatch_past_rank_8(monkeypatch):
    def report(rst):  # the rank-generic closed forms are checked past the standard types too
        agrees = rst != RootSystemType("D", 12)
        return SimpleNamespace(
            admissible_sets=(),
            closed_form_agrees=agrees,
            witness_discrepancies=[] if agrees else [(IndexSet(2), True, False)],
        )

    monkeypatch.setattr(verify.adm, "verify_classification", report)
    _fails(
        verify.criterion_1_classification,
        "closed-form mismatches: [(RootSystemType(family='D', rank=12), "
        "[(IndexSet(mask=2), True, False)])]",
    )


def test_criterion_02_fails_on_a_wrong_count(monkeypatch):
    monkeypatch.setattr(verify.adm, "enumerate_admissible", lambda system: [])
    _fails(verify.criterion_2_counts, "A1: 0 admissible sets, expected 1")


def test_criterion_03_fails_on_a_union_outside(monkeypatch):
    monkeypatch.setattr(verify.adm, "is_union_closed", lambda system: False)
    _fails(verify.criterion_3_union_closure, "A1: union of admissible sets not admissible")


def test_criterion_04_fails_on_an_even_root_in_a_reduced_system(monkeypatch):
    monkeypatch.setattr(verify.adm, "find_all_even_root", lambda system: (2,) * system.rank)
    _fails(verify.criterion_4_odd_coefficient, "A1: all-even root (2,) in a reduced system")


def test_criterion_04_fails_on_a_missing_bc_witness(monkeypatch):
    monkeypatch.setattr(verify.adm, "find_all_even_root", lambda system: None)
    _fails(verify.criterion_4_odd_coefficient, "BC1: witness None, expected 2e_1 = (2,)")


def test_criterion_04_fails_on_full_set_admissibility(monkeypatch):
    monkeypatch.setattr(verify.adm, "full_set_admissible_iff_reduced", lambda rst: not rst.reduced)
    _fails(
        verify.criterion_4_odd_coefficient,
        "A1: full-set admissibility disagrees with reducedness",
    )


def test_criterion_05_fails_on_an_inadmissible_extrinsic_subset(monkeypatch):
    monkeypatch.setattr(verify.adm, "is_admissible", lambda system, I: False)
    _fails(verify.criterion_5_extrinsic, "A1: extrinsic subset {1} not admissible")


def test_criterion_06_requires_enumeration(monkeypatch):
    formula_only = verify.ant.orbit
    monkeypatch.setattr(verify.ant, "orbit", lambda system, I, **_: formula_only(system, I))
    _fails(verify.criterion_6_orbit_agreement, "A1 {1}: enumeration did not run")


def test_criterion_06_fails_on_a_wrong_binomial(monkeypatch):
    monkeypatch.setattr(verify, "WEYL_ENUMERATION_CAP", 0)  # no orbit is enumerated
    monkeypatch.setattr(verify.ant, "two_number", lambda system, I: 0)
    _fails(verify.criterion_6_orbit_agreement, "A1 {1}: two-number 0 != 2!/(1! 1!) = 2")


def test_criterion_06_fails_on_a_wrong_spinor_variety(monkeypatch):
    monkeypatch.setattr(verify, "WEYL_ENUMERATION_CAP", 0)
    two_number = verify.ant.two_number
    spinor = (RootSystemType("D", 8), IndexSet.of(8))
    monkeypatch.setattr(
        verify.ant, "two_number", lambda system, I: two_number(system, I) + ((system.type, I) == spinor)
    )
    _fails(verify.criterion_6_orbit_agreement, "D8 {8}: two-number 129 != 2^(r-1) = 128")


def test_criterion_07_fails_on_a_wrong_regular_orbit(monkeypatch):
    wrong = SimpleNamespace(method="both", size=0)
    monkeypatch.setattr(verify.ant, "orbit", lambda system, I, **_: wrong)
    _fails(verify.criterion_7_weyl_orders, "A1: regular orbit 0 != |W|")


def test_criterion_08_fails_on_a_refuted_proposition(monkeypatch):
    monkeypatch.setattr(verify.gam, "verify_maximality_proposition", lambda system: False)
    _fails(
        verify.criterion_8_maximality,
        "A1: triple with subgroup outside Gamma^I or I inadmissible",
    )


def test_criterion_09_fails_on_a_non_triple(monkeypatch):
    monkeypatch.setattr(verify.gam, "is_triple", lambda system, I, sub: False)
    _fails(verify.criterion_9_flag_example, "A3 {1,2,3}: flag-example subgroup is not a triple")


def test_criterion_09_fails_on_a_wrong_order(monkeypatch):
    monkeypatch.setattr(verify.gam, "gamma_full", lambda I, rank: verify.gam.subgroup_span([], rank))
    _fails(
        verify.criterion_9_flag_example,
        "A3 {1,2,3}: subgroup not proper of order 4 in order 8",
    )


def test_criterion_10_fails_on_a_broken_property(monkeypatch):
    monkeypatch.setattr(verify, "RANDOM_CASES", 0)  # the exhaustive cases only
    monkeypatch.setattr(verify.gam, "fixed_root_set_by_definition", lambda system, sub: None)
    _fails(
        verify.criterion_10_properties,
        "A1: basis parity check differs from definition for <e>",
    )


@pytest.fixture(scope="module", autouse=True)
def _summary_banner():
    print("\n== acceptance criteria ==")
    yield
