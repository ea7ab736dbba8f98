"""Command-line interface.

Exit codes form a stable contract: 0 means success (all checks pass),
1 means a mathematical negative (an axiom fails, no preantipode exists),
2 means an input or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DimensionMismatch, DocumentError, InvariantViolation
from .io import MAX_FIELD_ORDER, load_antipode, load_bicomodule, load_dqb, load_preantipode
from .report import Check, Report, serialize_report

# Each command imports the layers above the algebra itself when it runs, and
# only after its algebra document has loaded, so a document that fails to
# load compiles nothing above the loader.  `verify` never loads the comodule,
# preantipode or group modules, only `from-antipode` loads the antipode
# module, only the commands that write a document load the writers, and `gen`
# loads no axiom suite.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualquasi",
        description="Exact verification and solving for dual quasi-bialgebras.")
    parser.add_argument("--report", choices=("text", "json-lines"), default="text",
                        help="report format (default: text)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check every defining axiom of an algebra document")
    p.add_argument("dqb", type=Path)

    p = sub.add_parser("solve-preantipode",
                       help="compute the full affine set of preantipodes")
    p.add_argument("dqb", type=Path)
    p.add_argument("--out", type=Path, help="write the particular solution here")

    p = sub.add_parser("from-antipode",
                       help="build and check the preantipode from antipode data")
    p.add_argument("dqb", type=Path)
    p.add_argument("antipode", type=Path)
    p.add_argument("--out", type=Path, help="write the resulting map here")

    p = sub.add_parser("structure-theorem",
                       help="verify the evaluation isomorphism on a bicomodule")
    p.add_argument("dqb", type=Path)
    p.add_argument("module", type=Path, nargs="?")
    p.add_argument("--use-hhat", action="store_true",
                   help="use the free bicomodule on the algebra itself")
    p.add_argument("--preantipode", type=Path,
                   help="use this map instead of solving for one")

    p = sub.add_parser("gen", help="generate cyclic-group example documents")
    p.add_argument("--cyclic", type=int, required=True, metavar="N",
                   help="order of the cyclic group")
    p.add_argument("--r", type=int, required=True,
                   help="cocycle exponent, 0 <= r < N")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


def _load_dqb(args, require_valid: bool = False):
    """The algebra document and its axiom report.

    With ``require_valid`` an algebra that fails an axiom is an input error
    (exit 2) rather than a reported negative."""
    H = load_dqb(args.dqb.read_text(encoding="utf-8"))
    from .axioms import validate_dqb

    rep = validate_dqb(H)
    if require_valid and not rep.ok:
        raise ValueError(f"input is not a dual quasi-bialgebra "
                         f"({rep.failures[0].axiom} fails)")
    return H, rep


def cmd_verify(args) -> int:
    _, rep = _load_dqb(args)
    print(serialize_report(rep, args.report))
    return 0 if rep.ok else 1


def cmd_solve_preantipode(args) -> int:
    H, _ = _load_dqb(args, require_valid=True)
    from .preantipode import solve_preantipode
    from .writers import dump_preantipode

    family = solve_preantipode(H)
    if family is None:
        if args.report == "json-lines":
            print('{"preantipode": null}')
        else:
            print("none")
        return 1
    doc = dump_preantipode(family.particular)
    if args.report == "json-lines":
        print(json.dumps({
            "preantipode": [[str(family.particular[i, j]) for j in range(H.dim)]
                            for i in range(H.dim)],
            "kernel_dimension": family.kernel_dimension,
        }))
    else:
        print(doc, end="")
        print(f"kernel dimension: {family.kernel_dimension}")
    if args.out:
        args.out.write_text(doc, encoding="utf-8")
    return 0


def cmd_from_antipode(args) -> int:
    H, _ = _load_dqb(args, require_valid=True)
    data = load_antipode(args.antipode.read_text(encoding="utf-8"), H)
    from .antipode import check_antipode, preantipode_with_report
    from .writers import dump_preantipode

    rep_a = check_antipode(H, data)
    if not rep_a.ok:
        print(serialize_report(rep_a, args.report))
        return 1
    S, rep_s = preantipode_with_report(H, data)
    print(serialize_report(rep_s, args.report))
    doc = dump_preantipode(S)
    if args.report == "text":
        print(doc, end="")
    if args.out:
        args.out.write_text(doc, encoding="utf-8")
    return 0


def cmd_structure_theorem(args) -> int:
    if args.use_hhat == (args.module is not None):
        print("error: provide exactly one of a module document or --use-hhat",
              file=sys.stderr)
        return 2
    H, rep = _load_dqb(args)
    if not rep.ok:
        print(serialize_report(rep, args.report))
        return 1
    from .adjunction import adjunction_counit
    from .comodules import coinvariants, hhat, validate_bicomodule
    from .elimination import rank
    from .preantipode import check_preantipode, solve_preantipode
    from .structure import retraction_report

    if args.use_hhat:
        M = hhat(H)
    else:
        M = load_bicomodule(args.module.read_text(encoding="utf-8"), H)
        rep_m = validate_bicomodule(H, M)
        if not rep_m.ok:
            print(serialize_report(rep_m, args.report))
            return 1

    checks: list[Check] = []

    def finish() -> int:
        report = Report(tuple(checks))
        print(serialize_report(report, args.report))
        return 0 if report.ok else 1

    # the coinvariants and the evaluation map are kept on M's coded view, so
    # the retraction checks below read them without computing them again
    coinv = coinvariants(H, M)
    checks.append(Check("coinvariant-dimension", True, None,
                        str(coinv.rank), str(M.dim)))
    eps = adjunction_counit(H, M)
    eps_rank = rank(eps)
    bijective = (coinv.rank * H.dim == M.dim) and eps_rank == M.dim
    checks.append(Check("counit-bijective", bijective, None,
                        f"rank {eps_rank} on {coinv.rank * H.dim} columns",
                        f"dimension {M.dim}"))

    if args.preantipode:
        S = load_preantipode(args.preantipode.read_text(encoding="utf-8"), H)
        rep_s = check_preantipode(H, S)
        checks.extend(rep_s.checks)
        if not rep_s.ok:
            return finish()
    else:
        family = solve_preantipode(H)
        if family is None:
            checks.append(Check("preantipode-exists", False, None,
                                "empty solution set", None))
            return finish()
        checks.append(Check("preantipode-exists", True, None,
                            f"kernel dimension {family.kernel_dimension}", None))
        S = family.particular

    # the five retraction identities, then ε∘ψ = id and ψ∘ε = id once they hold
    checks.extend(retraction_report(H, S, M, inverse=True).checks)
    return finish()


def cmd_gen(args) -> int:
    from .groups import cyclic_group_example
    from .writers import dump_antipode, dump_dqb

    n, r = args.cyclic, args.r
    if n < 1 or not 0 <= r < n:
        print(f"error: need N >= 1 and 0 <= r < N, got N={n} r={r}", file=sys.stderr)
        return 2
    if r and n > MAX_FIELD_ORDER:
        # checked before building n³ cocycle values over Q(zeta_N)
        print(f"error: r >= 1 needs N <= {MAX_FIELD_ORDER}, the largest field order a "
              f"document may declare, got N={n}", file=sys.stderr)
        return 2
    ex = cyclic_group_example(n, r)
    args.out.mkdir(parents=True, exist_ok=True)
    dqb_path = args.out / f"cyclic_{n}_r{r}.dqb.json"
    antipode_path = args.out / f"cyclic_{n}_r{r}.antipode.json"
    dqb_path.write_text(dump_dqb(ex.dqb), encoding="utf-8")
    antipode_path.write_text(dump_antipode(ex.antipode), encoding="utf-8")
    print(dqb_path)
    print(antipode_path)
    return 0


_DISPATCH = {
    "verify": cmd_verify,
    "solve-preantipode": cmd_solve_preantipode,
    "from-antipode": cmd_from_antipode,
    "structure-theorem": cmd_structure_theorem,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except InvariantViolation as exc:
        print(f"FAIL {exc}")
        return 1
    except (DocumentError, DimensionMismatch, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
