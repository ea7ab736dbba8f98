"""Command-line interface: ``dualquasi [--report FORMAT] COMMAND ...``.

The one global option, ``--report``, comes before the command.  A command's
options, written out in full as ``--opt value`` or ``--opt=value``, may come
before, between or after its positionals, and the last of a repeated option
wins.  ``-h`` or ``--help``, before or after the command, prints help.

Exit codes form a stable contract: 0 means success (all checks pass),
1 means a mathematical negative (an axiom fails, no preantipode exists),
2 means an input or usage error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

from .errors import DimensionMismatch, DocumentError, InvariantViolation
from .io import MAX_FIELD_ORDER, load_antipode, load_bicomodule, load_dqb, load_preantipode
from .report import Check, Report, serialize_report

# Each command imports the layers above the algebra itself when it runs, and
# only after its algebra document has loaded, so a document that fails to
# load compiles nothing above the loader.  `verify` never loads the comodule,
# preantipode or group modules, only `from-antipode` loads the antipode
# module, only the commands that write a document load the writers, and `gen`
# loads no axiom suite.


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
        raise _Usage("structure-theorem", "provide exactly one of a module document or --use-hhat")
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


# name: (handler, help line, positionals, options, required options).  A
# bracketed positional may be left out; each option maps to the converter of
# its value, or to None for a flag.  The global options come before the name.
_COMMANDS = {
    "verify": (cmd_verify, "check every defining axiom of an algebra document",
               ("dqb",), {}, ()),
    "solve-preantipode": (cmd_solve_preantipode, "compute the full affine set of preantipodes",
                          ("dqb",), {"--out": Path}, ()),
    "from-antipode": (cmd_from_antipode, "build and check the preantipode from antipode data",
                      ("dqb", "antipode"), {"--out": Path}, ()),
    "structure-theorem": (cmd_structure_theorem,
                          "verify the evaluation isomorphism on a bicomodule",
                          ("dqb", "[module]"), {"--use-hhat": None, "--preantipode": Path}, ()),
    "gen": (cmd_gen, "generate cyclic-group example documents",
            (), {"--cyclic": int, "--r": int, "--out": Path}, ("--cyclic", "--r", "--out")),
}


class _Usage(Exception):
    """A malformed command line: (command or None, message), or (…, None) for help."""


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: dualquasi [-h] [--report {text,json-lines}] COMMAND ..."
    _, _, positionals, options, required = _COMMANDS[command]
    words = [name if convert is None else f"{name} {name[2:].upper()}"
             for name, convert in options.items()]
    words = [word if word.split()[0] in required else f"[{word}]" for word in words]
    return " ".join([f"usage: dualquasi {command} [-h]", *words, *positionals])


def _help(command: str | None) -> str:
    if command is not None:
        return f"{_usage(command)}\n\n{_COMMANDS[command][1]}\n"
    return "\n".join([_usage(None), "", "commands:",
                      *(f"  {name:19}{entry[1]}" for name, entry in _COMMANDS.items()), ""])


def _is_option(token: str) -> bool:
    # a negative number or a lone "-" is a value or a positional, not an option
    return token[:1] == "-" and token != "-" and not token[1:].isdigit()


def _parse(argv: list[str]):
    """The handler of the command that argv names, and its arguments."""
    command, options, values, given = None, {"--report": str}, {"--report": "text"}, []
    tokens = iter(argv)
    for token in tokens:
        name, eq, value = token.partition("=")
        if not _is_option(token) and command is None:
            if token not in _COMMANDS:
                raise _Usage(None, f"unknown command {token!r} "
                                   f"(choose from {', '.join(_COMMANDS)})")
            command, options = token, _COMMANDS[token][3]
        elif not _is_option(token):
            given.append(token)
        elif token in ("-h", "--help"):
            raise _Usage(command, None)
        elif name not in options or eq and options[name] is None:
            raise _Usage(command, f"unrecognized option: {token}")
        elif options[name] is None:
            values[name] = True
        else:
            value = value if eq else next(tokens, None)
            if value is None or not eq and _is_option(value):
                raise _Usage(command, f"argument {name}: expected one value")
            try:
                values[name] = options[name](value)
            except ValueError:
                raise _Usage(command, f"argument {name}: invalid value: {value!r}") from None
    if values["--report"] not in ("text", "json-lines"):
        raise _Usage(None, f"argument --report: invalid value: {values['--report']!r}")
    if command is None:
        raise _Usage(None, f"a command is required: {', '.join(_COMMANDS)}")
    handler, _, positionals, options, required = _COMMANDS[command]
    missing = [name for name in positionals[len(given):] if name[0] != "["]
    missing += [name for name in required if name not in values]
    if missing:
        raise _Usage(command, f"the following arguments are required: {', '.join(missing)}")
    if len(given) > len(positionals):
        raise _Usage(command, f"unrecognized arguments: {' '.join(given[len(positionals):])}")
    args = {**dict.fromkeys(positionals),
            **{name: None if convert else False for name, convert in options.items()},
            **values, **{name: Path(token) for name, token in zip(positionals, given)}}
    return handler, SimpleNamespace(**{name.strip("-[]").replace("-", "_"): value
                                       for name, value in args.items()})


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        return handler(args)
    except _Usage as exc:  # from the parser, or a handler's check of its arguments
        command, message = exc.args
        if message is None:
            print(_help(command), end="")
            return 0
        print(f"{_usage(command)}\ndualquasi: error: {message}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"FAIL {exc}")
        return 1
    except (DocumentError, DimensionMismatch, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
