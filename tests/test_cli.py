"""Command-line surface: outputs, determinism, exit codes, golden docs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rspaces.antipodal import COLD_ORBIT
from rspaces.cli import main

REPO = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_expecting_usage_error(*argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code


# ---------------------------------------------------------------------------
# happy paths


def test_classify_plain(capsys):
    code, out, _ = run(capsys, "classify", "G", "2")
    assert code == 0
    assert "G2: 1 admissible sets (closed form agrees)" in out
    assert "{1,2}" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "B", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible_sets"] == [[1], [1, 2], [1, 2, 3]]
    assert payload["closed_form_agrees"] is True


def test_classify_markdown_matches_docs(capsys):
    code, out, _ = run(capsys, "classify", "E", "6", "--format", "markdown")
    assert code == 0
    golden = (REPO / "docs" / "classification.md").read_text()
    assert out.strip() in golden


def test_classify_exits_1_on_disagreement(monkeypatch, capsys):
    import rspaces.admissible

    monkeypatch.setattr(rspaces.admissible, "closed_form", lambda rst, I: False)
    code, out, _ = run(capsys, "classify", "G", "2")
    assert code == 1
    assert "G2: 1 admissible sets (closed form DISAGREES)" in out
    assert "discrepancy at {1,2}: closed form False, brute force True" in out


def test_check_not_admissible_with_witness(capsys):
    code, out, _ = run(capsys, "check", "BC", "3", "--set", "1,2,3")
    assert code == 0
    assert "NOT admissible" in out and "(2, 2, 2)" in out


def test_check_admissible_json(capsys):
    code, out, _ = run(capsys, "check", "B", "3", "--set", "1,2", "--format", "json")
    payload = json.loads(out)
    assert payload == {
        "admissible": True,
        "family": "B",
        "rank": 3,
        "set": [1, 2],
        "witness": None,
    }


def test_two_number(capsys):
    code, out, _ = run(capsys, "two-number", "A", "4", "--set", "2")
    assert code == 0 and "10" in out
    code, out, _ = run(capsys, "two-number", "A", "4", "--set", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["two_number"] == 10
    assert payload["weyl_order"] == 120 and payload["stabilizer_order"] == 12


def test_orbit_json_deterministic(capsys):
    args = ("orbit", "C", "3", "--set", "3", "--enumerate", "--elements", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["size"] == 8 and payload["method"] == "both"
    assert len(payload["elements"]) == 8


def test_orbit_dump(tmp_path, capsys):
    dump = tmp_path / "orbit.bin"
    code, out, _ = run(capsys, "orbit", "A", "2", "--set", "1", "--dump", str(dump))
    assert code == 0
    # the points go to the file only, not to stdout as well
    assert out == "orbit of xi_{1} in A2: 3 points (both)\n  weyl order 6, stabilizer 2\n"
    data = np.frombuffer(dump.read_bytes(), dtype="<i2").reshape(-1, 2)
    assert [tuple(v) for v in data.tolist()] == [(-1, 1), (0, -1), (1, 0)]


def test_orbit_json_fields(capsys, tmp_path):
    base = ("orbit", "A", "2", "--set", "1", "--format", "json")
    keys = {
        "family", "rank", "set", "admissible", "two_number",
        "size", "weyl_order", "stabilizer_order", "method", "budget_exceeded",
    }
    _, out, _ = run(capsys, *base)
    assert set(json.loads(out)) == keys
    # points kept for --dump stay out of the JSON unless --elements asks for them
    _, out, _ = run(capsys, *base, "--dump", str(tmp_path / "orbit.bin"))
    assert set(json.loads(out)) == keys
    _, out, _ = run(capsys, *base, "--elements")
    assert json.loads(out)["elements"] == [[-1, 1], [0, -1], [1, 0]]
    # and an orbit over its budget has no points to show
    _, out, _ = run(capsys, *base, "--elements", "--budget", "1")
    assert set(json.loads(out)) == keys


def test_two_number_not_admissible_message(capsys):
    from rspaces import IndexSet, RootSystemType, build, two_number

    assert run_expecting_usage_error("two-number", "B", "3", "--set", "2") == 2
    err = capsys.readouterr().err
    with pytest.raises(ValueError) as info:
        two_number(build(RootSystemType("B", 3)), IndexSet.of(2))
    assert err.count("error:") == 1 and f"error: {info.value}\n" in err


def test_closed_stdout_exits_141_quietly():
    # about 1.3 MB of points, more than a pipe buffer holds, so the CLI is
    # still writing when the reader goes away
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rspaces.cli", "orbit", "E", "6", "--set", "1,2,3,4,5,6",
         "--elements"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"orbit of xi_{1,2,3,4,5,6} in E6: 51840 points")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_numpy_imported_only_to_enumerate():
    script = """
import contextlib, io, sys
import rspaces
assert [m for m in sys.modules if m.startswith("rspaces")] == ["rspaces"]
assert {"roots", "admissible", "antipodal", "gamma"} <= set(dir(rspaces))  # before their import
from rspaces.cli import main
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0
def loaded(*names):
    return [name in sys.modules for name in names]
if sys.argv[1] == "subgroups":
    run("subgroups", "A", "4", "--set", "1,2,3")
    assert loaded("rspaces.antipodal", "numpy") == [False, False]
    assert rspaces.antipodal.__name__ == "rspaces.antipodal"  # imported on first access
    sys.exit()
run("classify", "E", "7", "--format", "markdown")
run("check", "BC", "3", "--set", "1,2,3")
assert loaded("rspaces.antipodal", "rspaces.gamma") == [False, False]
run("two-number", "A", "4", "--set", "2", "--format", "json")
run("orbit", "E", "7", "--set", "1,2,3,4,5,6,7")
run("orbit", "A", "4", "--set", "2", "--enumerate")
run("orbit", "A", "4", "--set", "2", "--elements", "--format", "json")
run("orbit", "F", "4", "--set", "1,2,3,4", "--elements", "--format", "json")
assert loaded("rspaces.gamma") == [False]
run("subgroups", "A", "4", "--set", "1,2,3")
print("numpy" in sys.modules)
run("orbit", "E", "6", "--set", "1,2,3,4,5,6", "--enumerate")
print("numpy" in sys.modules, "rspaces.verify" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))

    def fresh(part):
        return subprocess.run(
            [sys.executable, "-c", script, part], capture_output=True, text=True, env=env, check=True
        ).stdout

    # `import rspaces` loads no submodule, and each subcommand only the ones
    # it runs: subgroups in a process of its own, since it loads gamma;
    # until numpy is loaded, orbits of at most COLD_ORBIT points (A4 {2} has
    # 10, F4 full 1,152, the most of any rank <= 4) are walked without it,
    # larger ones (E6 full has 51,840) with it; only verify-all loads the
    # acceptance suite
    assert 1152 <= COLD_ORBIT < 51840
    assert fresh("subgroups") == ""
    assert fresh("the rest") == "False\nTrue False\n"


def test_orbit_budget_exceeded_not_strict(capsys):
    code, out, err = run(capsys, "orbit", "E", "8", "--set", "1,2,3,4,5,6,7,8", "--enumerate")
    assert code == 0
    assert "order_formula" in out
    assert "exceeds enumeration budget" in err


def test_orbit_budget_exceeded_strict(capsys):
    code, _, _ = run(
        capsys, "orbit", "E", "8", "--set", "1,2,3,4,5,6,7,8", "--enumerate", "--strict"
    )
    assert code == 3


def test_subgroups_minimal(capsys):
    code, out, _ = run(capsys, "subgroups", "A", "4", "--set", "1,2,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exploratory"] is True
    assert {"basis": [[1, 3], [2]], "order": 4, "proper": True} in payload[
        "minimal_triple_subgroups"
    ]


@pytest.mark.parametrize("raw,proper", [("1,2", False), ("1,2,3", True)])
def test_subgroups_minimal_proper(capsys, raw, proper):
    """A minimal triple subgroup is proper exactly when it is smaller than Gamma^I."""
    code, out, _ = run(capsys, "subgroups", "A", "3", "--set", raw, "--format", "json")
    assert code == 0
    [minimal] = json.loads(out)["minimal_triple_subgroups"]
    assert minimal["order"] == 4 and minimal["proper"] is proper


def test_subgroups_gens_witness(capsys):
    code, out, _ = run(
        capsys, "subgroups", "A", "3", "--set", "1,3", "--gens", "1,3", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["is_triple"] is False
    assert payload["witness"] == [1, 1, 1]


def test_subgroups_preset(capsys):
    code, out, _ = run(
        capsys,
        "subgroups", "A", "5",
        "--preset", "a-r-flag-example",
        "--params", "1,3,5",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["is_triple"] is True
    assert payload["subgroup_basis"] == [[1, 5], [3]]
    assert payload["subgroup_order"] == 4


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_subgroups_preset_is_set_and_gens(capsys, fmt):
    """The preset is --set i1,i2,i3 --gens "i1,i3;i2", plus its own key."""
    _, preset, _ = run(
        capsys, "subgroups", "A", "5", "--preset", "a-r-flag-example", "--params", "1,3,5",
        "--format", fmt,
    )
    _, gens, _ = run(capsys, "subgroups", "A", "5", "--set", "1,3,5", "--gens", "1,5;3", "--format", fmt)
    if fmt == "json":
        assert json.loads(preset) == {**json.loads(gens), "preset": "a-r-flag-example"}
    else:
        assert preset == gens + "preset: a-r-flag-example\n"


def test_subgroups_refuses_set_before_build(monkeypatch, capsys):
    import rspaces.cli as cli

    def no_build(rst):
        raise AssertionError("build() ran before --set was checked")

    monkeypatch.setattr(cli, "build", no_build)
    assert run_expecting_usage_error("subgroups", "A", "5", "--set", "6") == 2
    assert "exceeds rank 5" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage errors exit 2


FLAG_PRESET = ("subgroups", "A", "5", "--preset", "a-r-flag-example", "--params", "1,3,5")


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "H", "3"),
        ("classify", "B", "1"),
        ("check", "B", "3", "--set", ""),
        ("check", "B", "3", "--set", "0"),
        ("check", "B", "3", "--set", "4"),
        ("check", "B", "3", "--set", "x"),
        ("two-number", "B", "3", "--set", "2"),  # not admissible
        ("subgroups", "B", "3"),  # needs --set or --preset
        ("subgroups", "B", "3", "--preset", "a-r-flag-example", "--params", "1,2,3"),  # not A
        ("subgroups", "A", "5", "--preset", "nope", "--params", "1,2,3"),
        ("subgroups", "A", "5", "--preset", "a-r-flag-example", "--params", "1,2"),
        ("subgroups", "A", "5", "--gens", "1,2"),  # --gens without --set
        ("subgroups", "A", "7", "--set", "1,2,3,4,5,6,7"),  # |I| > 6
        ("subgroups", "B", "3", "--set", "2"),  # not admissible
        ("orbit", "A", "3", "--set", "1", "--budget", "0"),
        ("orbit", "A", "3", "--set", "1", "--budget", "-5"),
        ("orbit", "A", "3", "--set", "1", "--budget", "many"),
        # an index this far above the rank must be refused before it is
        # shifted into a mask or printed
        ("check", "A", "3", "--set", "10000000"),
        ("check", "A", "3", "--set", "1000000000000"),
        # output paths that cannot be written; verify-all refuses its path
        # before any criterion runs, well inside the timeout (a path under
        # this test file, which every checkout has)
        ("orbit", "A", "2", "--set", "1", "--dump", "/nonexistent/d/f"),
        ("orbit", "A", "2", "--set", "1", "--dump", str(REPO)),
        ("verify-all", "--fixtures-dir", str(Path(__file__).resolve() / "docs")),
        # markdown is a format of classify only
        ("check", "B", "3", "--set", "1", "--format", "markdown"),
        ("two-number", "A", "4", "--set", "2", "--format", "markdown"),
        ("orbit", "A", "2", "--set", "1", "--format", "markdown"),
        ("subgroups", "A", "4", "--set", "1,2,3", "--format", "markdown"),
        ("verify-all", "--format", "markdown"),
        # arguments that do not apply are refused, not ignored
        (*FLAG_PRESET, "--set", "2", "--gens", "2"),
        (*FLAG_PRESET, "--set", "1,3,5"),
        (*FLAG_PRESET, "--gens", "1,3;2"),
        ("subgroups", "A", "5", "--set", "1,2", "--params", "9,9"),
        # ranks above the CLI's bounds: 20 for classify, 128 for every subcommand
        ("classify", "A", "21"),
        ("check", "A", "129", "--set", "1"),
    ],
)
def test_usage_errors(argv):
    # a real process, so an input that is slow to refuse fails the timeout
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "rspaces.cli", *argv],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 2
    # argparse and the handlers alike name the subcommand whose input is wrong
    assert proc.stdout == "" and f"rspaces {argv[0]}: error:" in proc.stderr


@pytest.mark.parametrize(
    "argv,bound",
    [
        # refused before classify allocates its 2^r tables or check builds the system
        (("classify", "A", "40", "--format", "json"), "rank 40 exceeds 20"),
        (("check", "A", "3000", "--set", "1"), "rank 3000 exceeds 128"),
    ],
)
def test_rank_bounds_are_named_on_one_error_line(capsys, argv, bound):
    assert run_expecting_usage_error(*argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("error:") == 1 and bound in out.err


def test_orbit_budget_env_default(monkeypatch):
    from rspaces.cli import make_parser

    monkeypatch.setenv("RSPACES_ORBIT_BUDGET", "1234")
    args = make_parser().parse_args(["orbit", "A", "3", "--set", "1"])
    assert args.budget == 1234


@pytest.mark.parametrize("raw", ["abc", "0", "-7", "1e6"])
def test_orbit_budget_env_malformed(monkeypatch, capsys, raw):
    monkeypatch.setenv("RSPACES_ORBIT_BUDGET", raw)
    code, _, _ = run(capsys, "classify", "G", "2")  # other subcommands ignore the budget
    assert code == 0
    code, out, _ = run(capsys, "two-number", "A", "4", "--set", "2")
    assert code == 0 and out.startswith("two-number of X_{2} in A4: 10\n")
    assert run_expecting_usage_error("orbit", "A", "3", "--set", "1") == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "RSPACES_ORBIT_BUDGET" in err
    # an explicit --budget overrides the environment
    code, _, _ = run(capsys, "orbit", "A", "3", "--set", "1", "--budget", "10")
    assert code == 0


def test_verify_all_exit_wiring(monkeypatch, capsys):
    import rspaces.verify
    from rspaces.verify import CriterionResult

    ok = CriterionResult(1, "stub", True, "fine", 0.0)
    bad = CriterionResult(2, "stub", False, "broken", 0.0)
    monkeypatch.setattr(rspaces.verify, "run_all", lambda: [ok])
    assert main(["verify-all"]) == 0
    monkeypatch.setattr(rspaces.verify, "run_all", lambda: [ok, bad])
    assert main(["verify-all"]) == 1
    out = capsys.readouterr().out
    assert "FAIL criterion  2" in out


def test_verify_all_json_reports_elapsed(monkeypatch, capsys):
    import rspaces.verify
    from rspaces.verify import CriterionResult

    fast = CriterionResult(1, "stub", True, "fine", 0.12345)
    slow = CriterionResult(2, "stub", True, "fine", 7.0)
    monkeypatch.setattr(rspaces.verify, "run_all", lambda: [fast, slow])
    assert main(["verify-all", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    keys = ["criterion", "detail", "elapsed_s", "name", "passed"]
    assert [sorted(row) for row in rows] == [keys, keys]
    assert [row["elapsed_s"] for row in rows] == [0.123, 7.0]


def test_verify_all_json_reports_work(monkeypatch, capsys):
    import rspaces.verify
    from rspaces.verify import CriterionResult

    plain = CriterionResult(1, "stub", True, "fine", 0.5)
    counted = CriterionResult(6, "stub", True, "fine", 0.5, {"orbits": 3, "points": 40})
    monkeypatch.setattr(rspaces.verify, "run_all", lambda: [plain, counted])
    assert main(["verify-all", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert "work" not in rows[0] and rows[1]["work"] == {"orbits": 3, "points": 40}
    assert main(["verify-all"]) == 0
    assert "orbits" not in capsys.readouterr().out  # the plain lines carry no counters


# ---------------------------------------------------------------------------
# golden docs stay in sync with the code


def test_docs_classification_up_to_date(tmp_path):
    from rspaces.cli import _write_fixtures

    _write_fixtures(tmp_path)
    fresh = (tmp_path / "classification.md").read_text()
    assert (REPO / "docs" / "classification.md").read_text() == fresh


def test_docs_root_fixtures_up_to_date(tmp_path):
    from rspaces.cli import _write_fixtures

    _write_fixtures(tmp_path)
    for path in sorted((tmp_path / "roots").glob("*.json")):
        golden = REPO / "docs" / "roots" / path.name
        assert golden.read_text() == path.read_text()
