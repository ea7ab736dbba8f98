"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines.  All
arithmetic is exact; every comparison below is equality, never approximate.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from dualquasi import (Matrix, adjunction_counit, anti_homomorphism_defect,
                       check_antipode, check_preantipode,
                       check_projection_formula,
                       coinvariants, free_hopf_bicomodule, hhat,
                       induce_bicomodule, rank, retraction_report,
                       solve_preantipode, structure_theorem, validate_dqb,
                       validate_bicomodule)
from dualquasi.io import load_antipode, load_bicomodule, load_dqb, load_preantipode
from dualquasi.writers import dump_antipode, dump_bicomodule, dump_dqb, dump_preantipode

from helpers import (bundled_examples, control_bialgebra, random_bicomodule,
                     random_left_comodule, rational, sympy_grouplike_preantipode)


def record(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def test_modules():
    """Per group example: the free module on H, three induced modules from
    pseudo-random comodules of dimension <= 3, and the free module on a
    pseudo-random bicomodule."""
    rng = random.Random(20240612)
    out = {}
    for ex in bundled_examples():
        H = ex.dqb
        modules = [("hhat", hhat(H))]
        for k in range(3):
            V = random_left_comodule(H, ex.group, rng, max_dim=3)
            modules.append((f"F(V{k})", induce_bicomodule(H, V)))
        B = random_bicomodule(H, ex.group, rng, max_dim=3)
        modules.append(("T(B)", free_hopf_bicomodule(H, B)))
        out[ex.name] = modules
    return out


def test_criterion_01_axiom_suite():
    started = time.monotonic()
    algebras = [(ex.name, ex.dqb) for ex in bundled_examples()]
    algebras.append(("idempotent-monoid", control_bialgebra()))
    bad = []
    for name, H in algebras:
        report = validate_dqb(H)
        if not report.ok:
            bad.append((name, [c.axiom for c in report.failures]))
    elapsed = time.monotonic() - started
    record("criterion 1: exhaustive axiom suite on all bundled algebras",
           not bad and elapsed < 5.0,
           f"{len(algebras)} algebras in {elapsed:.2f}s" + (f"; failures {bad}" if bad else ""))


def test_criterion_02_closed_formula_reproduction():
    ok = True
    details = []
    for ex in bundled_examples():
        from dualquasi import preantipode_from_antipode
        S = preantipode_from_antipode(ex.dqb, ex.antipode)
        if S != ex.preantipode:
            ok = False
            details.append(f"{ex.name}: construction differs from closed formula")
        if not check_preantipode(ex.dqb, S).ok:
            ok = False
            details.append(f"{ex.name}: axioms fail")
    ex2 = next(e for e in bundled_examples() if e.name == "cyclic_2_r1")
    minus_g = str(ex2.preantipode[1, 1]) == "-1" and str(ex2.preantipode[0, 1]) == "0"
    ok = ok and minus_g
    record("criterion 2: S(g) = omega(g,g^-1,g)^-1 g^-1 reproduced exactly",
           ok, "; ".join(details) or "six examples, S(g) = -g on the order-2 twist")


def test_criterion_03_antipode_gives_preantipode():
    failures = 0
    total = 0
    for ex in bundled_examples():
        if not check_antipode(ex.dqb, ex.antipode).ok:
            continue
        total += 1
        from dualquasi.antipode import _sandwich
        S = _sandwich(ex.dqb, ex.antipode)
        if not check_preantipode(ex.dqb, S).ok:
            failures += 1
    record("criterion 3: every verified antipode triple yields a verified preantipode",
           failures == 0 and total == len(bundled_examples()),
           f"{total} triples, {failures} failures")


def test_criterion_04_structure_theorem_positive(test_modules):
    ok = True
    details = []
    for ex in bundled_examples():
        H = ex.dqb
        n = H.dim
        for label, M in test_modules[ex.name]:
            if not validate_bicomodule(H, M).ok:
                ok, details = False, details + [f"{ex.name}/{label}: invalid module"]
                continue
            report, psi = structure_theorem(H, M, ex.preantipode)
            if not report.ok:
                ok, details = False, details + [f"{ex.name}/{label}: {report.failures[0].axiom}"]
                continue
            eps = adjunction_counit(H, M)
            r = coinvariants(H, M).rank
            if eps @ psi != Matrix.identity(H.field, M.dim):
                ok, details = False, details + [f"{ex.name}/{label}: eps∘psi ≠ id"]
            if psi @ eps != Matrix.identity(H.field, r * n):
                ok, details = False, details + [f"{ex.name}/{label}: psi∘eps ≠ id"]
        if coinvariants(H, hhat(H)).rank != n:
            ok, details = False, details + [f"{ex.name}: coinvariants of the free module ≠ {n}"]
    record("criterion 4: evaluation isomorphism exact on every test module",
           ok, "; ".join(details) or "30 modules across 6 algebras")


def test_criterion_05_structure_theorem_negative():
    H = control_bialgebra()
    no_preantipode = solve_preantipode(H) is None
    M = hhat(H)
    coinv = coinvariants(H, M)
    eps = adjunction_counit(H, M)
    not_bijective = (coinv.rank * H.dim != M.dim) or rank(eps) != M.dim
    record("criterion 5: control algebra fails on both certificates",
           no_preantipode and not_bijective,
           f"solver empty: {no_preantipode}; evaluation {coinv.rank * H.dim} -> {M.dim}, "
           f"rank {rank(eps)}")


def test_criterion_06_retraction_identity_suite(test_modules):
    ok = True
    details = []
    for ex in bundled_examples():
        for label, M in test_modules[ex.name]:
            report = retraction_report(ex.dqb, ex.preantipode, M)
            verdicts = {c.axiom: c.passed for c in report.checks}
            if not report.ok:
                ok = False
                details.append(f"{ex.name}/{label}: {[c.axiom for c in report.failures]}")
            # the fixed-point route and the structural route must agree
            if verdicts["retraction-fixes-coinvariants"] != (
                    verdicts["retraction-module-identity"]
                    and verdicts["retraction-left-colinearity"]):
                ok = False
                details.append(f"{ex.name}/{label}: equivalence mismatch")
    record("criterion 6: all retraction identities hold and both routes agree",
           ok, "; ".join(details) or "checked on every basis element of 30 modules")


def test_criterion_07_projection_formula():
    ok = True
    details = []
    for ex in bundled_examples():
        report, _ = check_projection_formula(ex.dqb, ex.antipode, hhat(ex.dqb))
        if not report.ok:
            ok = False
            details.append(ex.name)
    record("criterion 7: antipode-projection formula for the retraction",
           ok, "; ".join(details) or "holds on every basis element of H⊗H, six algebras")


def test_criterion_08_solver_vs_parametric_oracle():
    ok = True
    details = []
    for name in ("cyclic_2_r0", "cyclic_2_r1"):
        ex = next(e for e in bundled_examples() if e.name == name)
        oracle = sympy_grouplike_preantipode(
            ex.group, lambda g, h, k: rational(ex.cocycle.theta(g, h, k)))
        family = solve_preantipode(ex.dqb)
        if oracle is None or family is None:
            ok, details = False, details + [f"{name}: existence disagreement"]
            continue
        particular, free_count, residual = oracle
        ours = [rational(family.particular[i, j]) for i in range(2) for j in range(2)]
        if family.kernel_dimension != free_count:
            ok, details = False, details + [f"{name}: kernel {family.kernel_dimension} vs {free_count}"]
        if ours != particular:
            ok, details = False, details + [f"{name}: particular solutions differ"]
        if any(v != 0 for v in residual(ours)):
            ok, details = False, details + [f"{name}: our solution fails oracle equations"]
    ctrl_oracle = sympy_grouplike_preantipode(
        type("M", (), {"order": 2, "identity": 0,
                       "mul": staticmethod(lambda a, b: ((0, 1), (1, 1))[a][b])}),
        lambda g, h, k: 1)
    ctrl_ours = solve_preantipode(control_bialgebra())
    if (ctrl_oracle is None) != (ctrl_ours is None):
        ok, details = False, details + ["control: existence disagreement"]
    record("criterion 8: solution sets match the independent parametric oracle",
           ok, "; ".join(details) or "order-2 algebras and the control agree")


def test_criterion_09_antimorphism_defect():
    ok = True
    details = []
    for ex in bundled_examples():
        report, defects = anti_homomorphism_defect(ex.group, ex.dqb, ex.preantipode)
        if not report.ok:
            ok, details = False, details + [f"{ex.name}: identity fails"]
    ex2 = next(e for e in bundled_examples() if e.name == "cyclic_2_r1")
    _, defects = anti_homomorphism_defect(ex2.group, ex2.dqb, ex2.preantipode)
    generator_defect = str(defects[1])
    ok = ok and generator_defect == "-1"
    record("criterion 9: comultiplication-defect identity, -1 at the order-2 generator",
           ok, "; ".join(details) or f"defect at generator: {generator_defect}")


def test_criterion_10_round_trip_and_cli(tmp_path):
    ok = True
    details = []
    for ex in bundled_examples():
        text = dump_dqb(ex.dqb)
        if dump_dqb(load_dqb(text)) != text:
            ok, details = False, details + [f"{ex.name}: dqb round trip"]
        t2 = dump_bicomodule(hhat(ex.dqb))
        if dump_bicomodule(load_bicomodule(t2, ex.dqb)) != t2:
            ok, details = False, details + [f"{ex.name}: module round trip"]
        t3 = dump_antipode(ex.antipode)
        if dump_antipode(load_antipode(t3, ex.dqb)) != t3:
            ok, details = False, details + [f"{ex.name}: antipode round trip"]
        t4 = dump_preantipode(ex.preantipode)
        if load_preantipode(t4, ex.dqb) != ex.preantipode:
            ok, details = False, details + [f"{ex.name}: preantipode round trip"]

    def run_cli(*argv):
        return subprocess.run([sys.executable, "-m", "dualquasi", *argv],
                              capture_output=True, text=True).returncode

    good = tmp_path / "good.json"
    good.write_text(dump_dqb(bundled_examples()[1].dqb))
    ctrl = tmp_path / "control.json"
    ctrl.write_text(dump_dqb(control_bialgebra()))
    broken = tmp_path / "broken.json"
    doc = json.loads(good.read_text())
    doc["omega"] = [e for e in doc["omega"] if e[:3] != [0, 1, 1]] + [[0, 1, 1, "-1"]]
    doc["omega_inv"] = [e for e in doc["omega_inv"] if e[:3] != [0, 1, 1]] + [[0, 1, 1, "-1"]]
    broken.write_text(json.dumps(doc))
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{oops")

    matrix = [
        (("verify", str(good)), 0),
        (("verify", str(ctrl)), 0),
        (("verify", str(broken)), 1),
        (("verify", str(garbage)), 2),
        (("verify", str(tmp_path / "missing.json")), 2),
        (("solve-preantipode", str(good)), 0),
        (("solve-preantipode", str(ctrl)), 1),
        (("structure-theorem", str(good), "--use-hhat"), 0),
        (("structure-theorem", str(ctrl), "--use-hhat"), 1),
        (("gen", "--cyclic", "3", "--r", "7", "--out", str(tmp_path)), 2),
    ]
    for argv, expected in matrix:
        got = run_cli(*argv)
        if got != expected:
            ok, details = False, details + [f"{argv[0]}: exit {got}, expected {expected}"]
    record("criterion 10: bit-exact round trips and stable CLI exit codes",
           ok, "; ".join(details) or f"{len(matrix)} CLI invocations matched")
