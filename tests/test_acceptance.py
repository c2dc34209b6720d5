"""Acceptance gate: one test per published-claim criterion, with a printed verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; `rspaces verify-all` drives the same checks from the command line.
"""

import itertools
from types import SimpleNamespace

import pytest

from rspaces import verify

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


def _run(criterion, work=None):
    """Run one criterion; it must pass and report `work` (None where it counts nothing)."""
    result = criterion()
    print(result.line())
    assert result.passed, result.line()
    assert result.work == work
    return result


def test_criterion_01_classification_reproduction():
    """Brute-force parity enumeration equals the closed forms on every subset."""
    _run(verify.criterion_1_classification)


def test_criterion_02_type_specific_counts():
    """A_r: 2^r - 1, B_r: r, C_r: 2^(r-1), G2: 1, BC_r: 0."""
    _run(verify.criterion_2_counts)


def test_criterion_03_union_closure():
    """Unions of admissible subsets are admissible in every system."""
    _run(verify.criterion_3_union_closure)


def test_criterion_04_odd_coefficient_lemma():
    """No reduced system has an all-even root; BC_r witnesses 2e_1."""
    _run(verify.criterion_4_odd_coefficient)


def test_criterion_05_extrinsic_subsets():
    """Subsets of the coefficient-one indices of the highest root are admissible."""
    _run(verify.criterion_5_extrinsic)


def test_criterion_06_orbit_agreement():
    """BFS orbit size equals |W|/|W_parabolic| for every admissible set; A-type binomials."""
    _run(verify.criterion_6_orbit_agreement, {"orbits": 969, "points": 52_794_254})


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
    _run(verify.criterion_9_flag_example)


def test_criterion_10_property_suite():
    """Involutivity, generator sufficiency, anti-monotonicity, triple-iff-admissible."""
    _run(verify.criterion_10_properties)


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
    assert gated.detail == "40 types, zero discrepancies; exceeded 5s budget"
    ungated = verify.criterion_2_counts()
    assert ungated.passed and ungated.elapsed == 6.0
    assert ungated.detail == "A/B/C/G/BC counts exact"


def test_gate_leaves_a_failed_check_unsuffixed(monkeypatch):
    _fake_clock(monkeypatch, 6.0)
    monkeypatch.setattr(verify.adm, "verify_classification", lambda rst: 1 / 0)
    result = verify.criterion_1_classification()
    assert not result.passed and result.elapsed == 6.0
    assert result.detail == "raised ZeroDivisionError: division by zero"


@pytest.fixture(scope="module", autouse=True)
def _summary_banner():
    print("\n== acceptance criteria ==")
    yield
