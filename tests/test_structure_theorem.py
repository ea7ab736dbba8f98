"""`structure-theorem`'s exit codes and json-lines reports, pinned byte for byte.

Each case runs the command in-process on cyclic 2 r=1 (or the idempotent
monoid, which has no preantipode) and compares the exit code and the whole
stdout with a recorded report: both forms, a zero S, the monoid, an algebra
that fails an axiom and a module that fails validation.  Then, on six
algebras, the command's stdout must be the json-lines form of the report
that the library's ``structure_theorem`` returns, which hands out ψ, the
inverse of the evaluation map, exactly when the command exits 0.
"""

import contextlib
import io

import pytest

from dualquasi import (HopfBicomodule, Matrix, adjunction_counit, cli, cyclic_group_example, hhat,
                       inverse, load_bicomodule, serialize_report, solve_preantipode,
                       structure_theorem)
from dualquasi.writers import dump_bicomodule, dump_dqb, dump_preantipode

from helpers import (bundled_examples, control_bialgebra, sweedler_four_dim_hopf,
                     symmetric_group_examples, twisted_sweedler, with_entry, with_parts)


def _main(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["--report", "json-lines", "structure-theorem", *map(str, argv)])
    return rc, out.getvalue()


def _pass(*axioms: str) -> list[str]:
    return [f'{{"axiom": "{axiom}", "pass": true, "witness": null, "lhs": null, "rhs": null}}'
            for axiom in axioms]


_DIMENSIONS = [
    '{"axiom": "coinvariant-dimension", "pass": true, "witness": null, "lhs": "2", "rhs": "4"}',
    '{"axiom": "counit-bijective", "pass": true, "witness": null, '
    '"lhs": "rank 4 on 4 columns", "rhs": "dimension 4"}',
]
_PREANTIPODE = ("preantipode-right-coaction", "preantipode-left-coaction",
                "preantipode-reassociator-counit", "preantipode-counit-left",
                "preantipode-counit-right")
_RETRACTION = ("retraction-into-coinvariants", "retraction-module-identity",
               "retraction-left-colinearity", "retraction-splits-counit",
               "retraction-fixes-coinvariants", "counit-after-inverse", "inverse-after-counit")

PINNED = {
    "hhat": (0, [
        *_DIMENSIONS,
        '{"axiom": "preantipode-exists", "pass": true, "witness": null, '
        '"lhs": "kernel dimension 0", "rhs": null}',
        *_pass(*_RETRACTION)]),
    "module": (0, [*_DIMENSIONS, *_pass(*_PREANTIPODE), *_pass(*_RETRACTION)]),
    "zero": (1, [
        *_DIMENSIONS, *_pass(*_PREANTIPODE[:2]),
        '{"axiom": "preantipode-reassociator-counit", "pass": false, "witness": [0], '
        '"lhs": "0", "rhs": "1"}',
        *_pass(*_PREANTIPODE[3:])]),
    "control": (1, [
        '{"axiom": "coinvariant-dimension", "pass": true, "witness": null, "lhs": "1", "rhs": "4"}',
        '{"axiom": "counit-bijective", "pass": false, "witness": null, '
        '"lhs": "rank 2 on 2 columns", "rhs": "dimension 4"}',
        '{"axiom": "preantipode-exists", "pass": false, "witness": null, '
        '"lhs": "empty solution set", "rhs": null}']),
    "bad_dqb": (1, [
        *_pass("coassociativity", "counit-left", "counit-right"),
        '{"axiom": "multiplication-comultiplicative", "pass": false, "witness": [1, 1], '
        '"lhs": "1*e(0,0) + 2*e(1,1)", "rhs": "1*e(0,0) + 2*e(0,1) + 2*e(1,0) + 4*e(1,1)"}',
        '{"axiom": "multiplication-counital", "pass": false, "witness": [1, 1], '
        '"lhs": "3", "rhs": "1"}',
        *_pass("unit-comultiplicative", "unit-counital", "reassociator-invertible"),
        '{"axiom": "cocycle-identity", "pass": false, "witness": [0, 0, 1, 1], '
        '"lhs": "3", "rhs": "1"}',
        *_pass("cocycle-normalization-left", "cocycle-normalization-middle",
               "cocycle-normalization-right", "quasi-associativity", "unit-left",
               "unit-right")]),
    "bad_module": (1, [
        *_pass("left-coassociativity", "left-counit", "right-coassociativity", "right-counit",
               "bicomodule-compatibility", "action-unit", "action-left-colinear",
               "action-right-colinear"),
        '{"axiom": "action-quasi-associativity", "pass": false, "witness": [2, 1, 1], '
        '"lhs": "1*e(2)", "rhs": "-1*e(2)"}']),
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Paths of cyclic 2 r=1, its Ĥ, its S and a zero S, the monoid, and
    copies of the algebra and of Ĥ with one structure constant changed."""
    ex = cyclic_group_example(2, 1)
    H, M = ex.dqb, hhat(ex.dqb)
    one = H.field.one
    # Ĥ's action without ω's twist: the module checks fail quasi-associativity
    untwisted = Matrix.from_terms(H.field, 4, 8, [
        ((h * 2 + (k + l) % 2), (h * 2 + k) * 2 + l, one)
        for h in range(2) for k in range(2) for l in range(2)])
    texts = {
        "dqb": dump_dqb(H), "module": dump_bicomodule(M),
        "S": dump_preantipode(ex.preantipode),
        "zero": dump_preantipode(Matrix.zeros(H.field, 2, 2)),
        "control": dump_dqb(control_bialgebra()),
        "bad_dqb": dump_dqb(with_parts(H, mul=with_entry(H.mul, 1, 3, H.field.from_fraction(2)))),
        "bad_module": dump_bicomodule(HopfBicomodule(4, M.rho_l, M.rho_r, untwisted)),
    }
    tmp = tmp_path_factory.mktemp("structure-theorem")
    for name, text in texts.items():
        (tmp / f"{name}.json").write_text(text)
    return {name: tmp / f"{name}.json" for name in texts}


def _argv(case: str, p) -> list:
    return {"hhat": [p["dqb"], "--use-hhat"],
            "module": [p["dqb"], p["module"], "--preantipode", p["S"]],
            "zero": [p["dqb"], p["module"], "--preantipode", p["zero"]],
            "control": [p["control"], "--use-hhat"],
            "bad_dqb": [p["bad_dqb"], "--use-hhat"],
            "bad_module": [p["dqb"], p["bad_module"]]}[case]


@pytest.mark.parametrize("case", PINNED)
def test_structure_theorem_exit_code_and_report(documents, case):
    rc, lines = PINNED[case]
    assert _main(*_argv(case, documents)) == (rc, "\n".join(lines) + "\n")


def _algebras():
    cyclic = {ex.name: ex.dqb for ex in bundled_examples()}
    return {"cyclic_2_r1": cyclic["cyclic_2_r1"], "cyclic_4_r1": cyclic["cyclic_4_r1"],
            "sweedler": sweedler_four_dim_hopf()[0], "twisted_sweedler": twisted_sweedler(),
            "s3": symmetric_group_examples()[0].dqb, "monoid": control_bialgebra()}


@pytest.mark.parametrize("name", ["cyclic_2_r1", "cyclic_4_r1", "sweedler", "twisted_sweedler",
                                  "s3", "monoid"])
def test_the_command_prints_the_library_report(tmp_path, name):
    # in both forms, with the solver's S (zero on the monoid, which has none)
    # given as a document and without one
    H = _algebras()[name]
    family = solve_preantipode(H)
    S = family.particular if family else Matrix.zeros(H.field, H.dim, H.dim)
    paths = {part: tmp_path / f"{part}.json" for part in ("dqb", "module", "S")}
    paths["dqb"].write_text(dump_dqb(H))
    paths["module"].write_text(dump_bicomodule(hhat(H)))
    paths["S"].write_text(dump_preantipode(S))
    module = load_bicomodule(paths["module"].read_text(), H)
    for form, M in (([paths["dqb"], "--use-hhat"], hhat(H)),
                    ([paths["dqb"], paths["module"]], module)):
        for given, options in ((None, []), (S, ["--preantipode", paths["S"]])):
            report, psi = structure_theorem(H, M, given)
            expected = (0 if report.ok else 1, serialize_report(report, "json-lines") + "\n")
            assert _main(*form, *options) == expected, (form, options)
            # ψ comes back exactly when every record passes, and inverts ε
            assert psi == (inverse(adjunction_counit(H, M)) if report.ok else None), \
                (form, options)
