"""Command-line interface: classification runs, orbit queries, subgroup analysis.

Commands
    classify    admissible subsets of one type, checked against the closed form
    check       admissibility verdict for one index set, with witness root
    two-number  maximal antipodal cardinality for an admissible index set
    orbit       Weyl orbit of xi_I: order formula, enumeration, element dumps
    subgroups   triple analysis for subgroups of the involution group
    verify-all  every published claim at desk scale; nonzero exit on failure

Index sets are 1-based comma lists in Bourbaki numbering, matching all output.
Exit codes: 0 success, 1 internal discrepancy, 2 usage error, 3 enumeration
budget exceeded under --strict, 141 stdout closed by its reader (the code a
shell reports for a writer killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import admissible as adm
from .admissible import IndexSet
from .roots import RootSystem, RootSystemError, RootSystemType, build, standard_types, to_json

if TYPE_CHECKING:  # each handler imports antipodal or gamma itself, only when it runs
    from .antipodal import OrbitResult
    from .gamma import GammaSubgroup

FIXTURE_TYPES = tuple(
    RootSystemType(fam, rank)
    for fam, rank in (("A", 3), ("B", 3), ("C", 3), ("D", 4), ("BC", 2), ("F", 4), ("G", 2), ("E", 6))
)
BUDGET_ENV_VAR = "RSPACES_ORBIT_BUDGET"
# The largest ranks the CLI serves; larger ones are usage errors, so every input
# exits 0-3.  build() takes seconds at rank 128 (check B 128: 4 s on a 2-core host),
# and classify walks all 2^r - 1 subsets (A20: 1,048,575 sets, 15 s with the listing).
MAX_RANK = 128
MAX_CLASSIFY_RANK = 20


def _emit_json(payload: dict | list) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _query(rst: RootSystemType, I: IndexSet) -> dict:
    """The query a JSON payload answers, echoed back: family, rank and index set."""
    return {"family": rst.family, "rank": rst.rank, "set": list(I)}


def _parse_type(
    parser: argparse.ArgumentParser, family: str, rank: int, max_rank: int = MAX_RANK
) -> RootSystemType:
    try:
        rst = RootSystemType(family.upper(), rank)
    except RootSystemError as exc:
        parser.error(str(exc))
    if rank > max_rank:
        parser.error(f"rank {rank} exceeds {max_rank}, the largest rank this subcommand serves")
    return rst


def _positive_int(raw: str) -> int:
    if not raw.strip().isdecimal() or int(raw) == 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {raw!r} (from --budget or ${BUDGET_ENV_VAR})"
        )
    return int(raw)


def _parse_set(parser: argparse.ArgumentParser, raw: str, rank: int) -> IndexSet:
    try:
        indices = [int(tok) for tok in raw.split(",") if tok.strip()]
        I = IndexSet.from_iterable(j for j in indices if j <= rank)
    except ValueError as exc:
        parser.error(f"invalid index set {raw!r}: {exc}")
    # check_index_set's message, without first shifting a huge index into a mask
    above = sorted({j for j in indices if j > rank})
    if above:
        parser.error(f"index set {{{','.join(map(str, [*I, *above]))}}} exceeds rank {rank}")
    try:
        adm.check_index_set(I, rank)
    except ValueError as exc:
        parser.error(str(exc))
    return I


def _cmd_classify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    rst = _parse_type(parser, args.family, args.rank, MAX_CLASSIFY_RANK)
    report = adm.verify_classification(rst)
    if args.format == "json":
        _emit_json(report.to_dict())
    elif args.format == "markdown":
        sys.stdout.write(report.to_markdown())
    else:
        agrees = "agrees" if report.closed_form_agrees else "DISAGREES"
        print(f"{rst}: {len(report.admissible_sets)} admissible sets (closed form {agrees})")
        for I in report.admissible_sets:
            print(f"  {I}")
        for I, expected, got in report.witness_discrepancies:
            print(f"  discrepancy at {I}: closed form {expected}, brute force {got}")
    return 0 if report.closed_form_agrees else 1


def _cmd_check(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    rst = _parse_type(parser, args.family, args.rank)
    I = _parse_set(parser, args.set, rst.rank)
    system = build(rst)
    verdict = adm.is_admissible(system, I)
    witness = None if verdict else adm.admissibility_witness(system, I)
    if args.format == "json":
        _emit_json(
            {
                **_query(rst, I),
                "admissible": verdict,
                "witness": list(witness) if witness else None,
            }
        )
    else:
        if verdict:
            print(f"{I} is admissible for {rst}")
        else:
            print(f"{I} is NOT admissible for {rst}: root {witness} is even and nonzero on it")
    return 0


def _orbit_payload(
    system: RootSystem, I: IndexSet, res: OrbitResult, include_elements: bool
) -> dict:
    admissible = adm.is_admissible(system, I)
    payload = {
        **_query(system.type, I),
        "admissible": admissible,
        "two_number": res.size if admissible else None,
        **res.to_dict(),
    }
    if include_elements and res.elements is not None:
        payload["elements"] = list(map(list, res.elements))
    return payload


def _cmd_two_number(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from . import antipodal as ant
    rst = _parse_type(parser, args.family, args.rank)
    I = _parse_set(parser, args.set, rst.rank)
    system = build(rst)
    try:
        value = ant.two_number(system, I)
    except ValueError as exc:
        parser.error(str(exc))
    res = ant.orbit(system, I)
    if args.format == "json":
        _emit_json(_orbit_payload(system, I, res, include_elements=False))
    else:
        print(f"two-number of X_{I} in {rst}: {value}")
        print(f"  = |W| / |stabilizer| = {res.weyl_order} / {res.stabilizer_order}")
    return 0


def _cmd_orbit(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from . import antipodal as ant
    rst = _parse_type(parser, args.family, args.rank)
    I = _parse_set(parser, args.set, rst.rank)
    system = build(rst)
    budget = args.budget or ant.DEFAULT_ORBIT_BUDGET
    want_elements = args.elements or args.dump is not None
    res = ant.orbit(
        system,
        I,
        enumerate=args.enumerate or want_elements,
        keep_elements=want_elements,
        budget=budget,
    )
    if res.budget_exceeded:
        print(
            f"orbit size {res.size} exceeds enumeration budget {budget}; "
            "reporting the order formula only",
            file=sys.stderr,
        )
    if args.dump is not None and res.elements is not None:
        try:
            Path(args.dump).write_bytes(ant.elements_to_bytes(res.elements))
        except OSError as exc:
            parser.error(f"cannot write --dump: {exc}")
    if args.format == "json":
        _emit_json(_orbit_payload(system, I, res, include_elements=args.elements))
    else:
        print(f"orbit of xi_{I} in {rst}: {res.size} points ({res.method})")
        print(f"  weyl order {res.weyl_order}, stabilizer {res.stabilizer_order}")
        if args.elements and res.elements is not None:
            for v in res.elements:
                print("  " + " ".join(f"{c:3d}" for c in v))
    if res.budget_exceeded and args.strict:
        return 3
    return 0


def _subgroup_analysis(system: RootSystem, I: IndexSet, sub: GammaSubgroup) -> dict:
    from . import gamma as gam
    triple = gam.is_triple(system, I, sub)
    witness = None if triple else gam.triple_witness(system, I, sub)
    return {
        **_query(system.type, I),
        "subgroup_basis": [list(IndexSet(b)) for b in sub.basis],
        "subgroup_order": sub.order,
        "is_triple": triple,
        "fixed_roots": len(gam.fixed_root_set(system, sub)),
        "witness": list(witness) if witness else None,
    }


def _cmd_subgroups(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from . import gamma as gam
    rst = _parse_type(parser, args.family, args.rank)
    if args.preset is not None:  # a-r-flag-example is --set i1,i2,i3 --gens "i1,i3;i2"
        if args.set is not None or args.gens is not None:
            parser.error("--preset gives the set and generators itself: drop --set and --gens")
        if rst.family != "A":
            parser.error("preset a-r-flag-example requires family A")
        if not args.params:
            parser.error("preset a-r-flag-example requires --params i1,i2,i3")
        params = _parse_set(parser, args.params, rst.rank)
        if len(params) != 3:
            parser.error("--params must name three distinct indices i1<i2<i3")
        i1, i2, i3 = params
        args.set, args.gens = args.params, f"{i1},{i3};{i2}"
    elif args.params is not None:
        parser.error("--params requires --preset")
    if not args.set:
        parser.error("--gens requires --set" if args.gens is not None else "subgroups requires --set (or --preset)")
    I = _parse_set(parser, args.set, rst.rank)
    system = build(rst)
    if args.gens is not None:
        gens = [_parse_set(parser, chunk, rst.rank) for chunk in args.gens.split(";") if chunk]
        payload = _subgroup_analysis(system, I, gam.subgroup_span(gens, rst.rank))
        if args.preset is not None:
            payload["preset"] = args.preset
    else:
        try:  # I inadmissible, or |I| past the subspace-enumeration bound
            minimal = gam.minimal_triple_subgroups(system, I)
        except ValueError as exc:
            parser.error(str(exc))
        full_order = gam.gamma_full(I, rst.rank).order
        payload = {
            **_query(rst, I),
            "gamma_full_order": full_order,
            "minimal_triple_subgroups": [
                {
                    "basis": [list(IndexSet(b)) for b in sub.basis],
                    "order": sub.order,
                    "proper": sub.order < full_order,
                }
                for sub in minimal
            ],
            "exploratory": True,
        }
    if args.format == "json":
        _emit_json(payload)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _write_fixtures(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["# Admissible subsets per irreducible type", ""]
    for rst in standard_types():
        lines.append(adm.verify_classification(rst).to_markdown())
    (directory / "classification.md").write_text("\n".join(lines))
    roots_dir = directory / "roots"
    roots_dir.mkdir(exist_ok=True)
    for rst in FIXTURE_TYPES:
        (roots_dir / f"{rst}.json").write_text(to_json(build(rst)) + "\n")


def _cmd_verify_all(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.fixtures_dir is not None:
        # first, so that a bad path is refused before any criterion runs
        try:
            _write_fixtures(Path(args.fixtures_dir))
        except OSError as exc:
            parser.error(f"cannot write --fixtures-dir: {exc}")
    from .verify import run_all  # imported here: no other command needs the acceptance suite
    results = run_all()
    if args.format == "json":
        _emit_json([r.to_dict() for r in results])
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


def _add_type_args(
    sub: argparse.ArgumentParser, formats: tuple[str, ...] = ("plain", "json")
) -> None:
    sub.add_argument("family", help="root-system family: A, B, C, D, E, F, G or BC")
    sub.add_argument("rank", type=int, help="rank of the system")
    sub.add_argument("--format", choices=formats, default="plain", help="output format")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rspaces",
        description="classify symmetric-structure-admitting R-spaces and compute antipodal sets",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("classify", help="admissible subsets of one type")
    _add_type_args(p, formats=("plain", "json", "markdown"))
    p.set_defaults(fn=_cmd_classify)

    p = commands.add_parser("check", help="admissibility of one index set")
    _add_type_args(p)
    p.add_argument("--set", required=True, help="comma list of 1-based indices, e.g. 1,3")
    p.set_defaults(fn=_cmd_check)

    p = commands.add_parser("two-number", help="maximal antipodal cardinality")
    _add_type_args(p)
    p.add_argument("--set", required=True, help="admissible index set")
    p.set_defaults(fn=_cmd_two_number)

    p = commands.add_parser("orbit", help="Weyl orbit of the canonical element")
    _add_type_args(p)
    p.add_argument("--set", required=True, help="index set defining xi_I")
    p.add_argument("--enumerate", action="store_true", help="run the BFS enumeration")
    p.add_argument("--elements", action="store_true", help="include sorted orbit points")
    p.add_argument("--dump", metavar="PATH", help="write points as little-endian int16 rows")
    # A string default is converted by type= only when orbit is parsed, so a bad
    # environment value is a usage error of orbit alone; None leaves it to _cmd_orbit.
    p.add_argument(
        "--budget",
        type=_positive_int,
        default=os.environ.get(BUDGET_ENV_VAR) or None,
        help=f"orbit element cap (default: ${BUDGET_ENV_VAR}, else antipodal.DEFAULT_ORBIT_BUDGET)",
    )
    p.add_argument("--strict", action="store_true", help="exit 3 when the budget is exceeded")
    p.set_defaults(fn=_cmd_orbit)

    p = commands.add_parser("subgroups", help="triple analysis for involution subgroups")
    _add_type_args(p)
    p.add_argument("--set", help="index set I")
    p.add_argument("--gens", help="semicolon-separated generator sets, e.g. '1,3;2'")
    p.add_argument("--preset", choices=("a-r-flag-example",), help="named scenario")
    p.add_argument("--params", help="preset parameters, e.g. 1,2,3")
    p.set_defaults(fn=_cmd_subgroups)

    p = commands.add_parser("verify-all", help="run every published-claim check")
    p.add_argument("--format", choices=("plain", "json"), default="plain", help="output format")
    p.add_argument("--fixtures-dir", help="regenerate golden files into this directory")
    p.set_defaults(fn=_cmd_verify_all)

    for p in commands.choices.values():  # a handler's usage errors name its subcommand
        p.set_defaults(parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        code = args.fn(args.parser, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: point fd 1 at devnull so that the flush at
        # interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
