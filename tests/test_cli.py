import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from dualquasi import Matrix, cyclic_group_example, hhat
from dualquasi.writers import dump_antipode, dump_bicomodule, dump_dqb, dump_preantipode

from helpers import bundled_examples, control_bialgebra


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "dualquasi", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    rc, out, _ = run_cli("gen", "--cyclic", "2", "--r", "1",
                         "--out", str(tmp))
    assert rc == 0
    ex = next(e for e in bundled_examples() if e.name == "cyclic_2_r1")
    (tmp / "control.dqb.json").write_text(dump_dqb(control_bialgebra()))
    (tmp / "hhat.module.json").write_text(dump_bicomodule(hhat(ex.dqb)))
    (tmp / "zero.preantipode.json").write_text(
        dump_preantipode(Matrix.zeros(ex.dqb.field, 2, 2)))
    return tmp


def test_gen_files_verify(workspace):
    rc, out, _ = run_cli("verify", str(workspace / "cyclic_2_r1.dqb.json"))
    assert rc == 0
    assert out.splitlines()[-1] == "OK (15 axioms)"


def test_gen_matches_bundled_example(tmp_path):
    # fields of degree 1, 2, 4 and 4: ℚ, ℚ(ζ₃), ℚ(ζ₅) and ℚ(ζ₈)
    for n, r in ((2, 1), (3, 1), (5, 2), (8, 3)):
        rc, _, _ = run_cli("gen", "--cyclic", str(n), "--r", str(r), "--out", str(tmp_path))
        assert rc == 0
        ex = cyclic_group_example(n, r)
        assert (tmp_path / f"{ex.name}.dqb.json").read_text() == dump_dqb(ex.dqb)
        assert (tmp_path / f"{ex.name}.antipode.json").read_text() == \
            dump_antipode(ex.antipode), ex.name


def test_gen_checks_its_cocycle_once(tmp_path, monkeypatch, capsys):
    from dualquasi import cli, groups
    calls = []
    check = groups.validate_cocycle
    monkeypatch.setattr(groups, "validate_cocycle",
                        lambda *args: calls.append(args) or check(*args))
    assert cli.main(["gen", "--cyclic", "3", "--r", "1", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_gen_rejects_bad_parameters(tmp_path):
    rc, _, err = run_cli("gen", "--cyclic", "3", "--r", "5", "--out", str(tmp_path))
    assert rc == 2
    assert "error" in err


class _Built(Exception):
    pass


_FIELD_ORDER = "error: r >= 1 needs N <= 1024, the largest field order a document may declare"
_DIM = "error: N must be at most 64, the largest dim a document may declare"


# the field order is checked first; an N that passes it is refused above dim 64
@pytest.mark.parametrize("n, r, field_order_refused", [
    (1025, 1, True), (1025, 1024, True), (1024, 1, False), (1025, 0, False), (65, 0, False),
    (64, 1, False), (64, 0, False)])
def test_gen_refuses_a_field_order_the_loader_rejects(tmp_path, monkeypatch, capsys,
                                                      n, r, field_order_refused):
    # the builder is replaced, so an accepted order allocates nothing either
    from dualquasi import cli, groups

    def build(*args):
        raise _Built

    monkeypatch.setattr(groups, "cyclic_group_example", build)
    argv = ["gen", "--cyclic", str(n), "--r", str(r), "--out", str(tmp_path / "out")]
    if field_order_refused or n > 64:
        assert cli.main(argv) == 2
        refusal = _FIELD_ORDER if field_order_refused else _DIM
        assert capsys.readouterr() == ("", f"{refusal}, got N={n}\n")
        assert not (tmp_path / "out").exists()
    else:
        with pytest.raises(_Built):
            cli.main(argv)


def test_gen_higher_orders(tmp_path):
    for n, r in ((3, 0), (4, 1)):
        rc, _, _ = run_cli("gen", "--cyclic", str(n), "--r", str(r),
                           "--out", str(tmp_path))
        assert rc == 0
        rc, out, _ = run_cli("verify", str(tmp_path / f"cyclic_{n}_r{r}.dqb.json"))
        assert rc == 0


def test_verify_missing_file():
    rc, _, err = run_cli("verify", "/nonexistent/file.json")
    assert rc == 2 and "error" in err


def test_verify_broken_axiom(workspace):
    doc = json.loads((workspace / "cyclic_2_r1.dqb.json").read_text())
    doc["omega"] = [e for e in doc["omega"] if e[:3] != [0, 1, 1]]
    doc["omega"].append([0, 1, 1, "-1"])
    doc["omega_inv"] = [e for e in doc["omega_inv"] if e[:3] != [0, 1, 1]]
    doc["omega_inv"].append([0, 1, 1, "-1"])
    bad = workspace / "broken.dqb.json"
    bad.write_text(json.dumps(doc))
    rc, out, _ = run_cli("verify", str(bad))
    assert rc == 1
    assert any(line.startswith("FAIL cocycle-normalization-left")
               for line in out.splitlines())


def test_verify_json_lines(workspace):
    rc, out, _ = run_cli("--report", "json-lines", "verify",
                         str(workspace / "cyclic_2_r1.dqb.json"))
    assert rc == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 15
    assert all(set(r) == {"axiom", "pass", "witness", "lhs", "rhs"}
               for r in records)
    assert all(r["pass"] for r in records)


def test_solve_preantipode(workspace):
    out_file = workspace / "solved.preantipode.json"
    rc, out, _ = run_cli("solve-preantipode", str(workspace / "cyclic_2_r1.dqb.json"),
                         "--out", str(out_file))
    assert rc == 0
    assert "kernel dimension: 0" in out
    doc = json.loads(out_file.read_text())
    assert doc["matrix"] == [["1", "0"], ["0", "-1"]]


def test_solve_preantipode_none(workspace):
    rc, out, _ = run_cli("solve-preantipode", str(workspace / "control.dqb.json"))
    assert rc == 1
    assert out.strip() == "none"


def test_from_antipode(workspace):
    rc, out, _ = run_cli("from-antipode",
                         str(workspace / "cyclic_2_r1.dqb.json"),
                         str(workspace / "cyclic_2_r1.antipode.json"))
    assert rc == 0
    assert '"-1"' in out


def test_from_antipode_invalid_data(workspace):
    doc = json.loads((workspace / "cyclic_2_r1.antipode.json").read_text())
    doc["beta"] = ["1", "1"]  # β = ε fails against the nontrivial cocycle
    bad = workspace / "flat-beta.antipode.json"
    bad.write_text(json.dumps(doc))
    rc, out, _ = run_cli("from-antipode",
                         str(workspace / "cyclic_2_r1.dqb.json"), str(bad))
    assert rc == 1
    assert any(line.startswith("FAIL antipode-reassociator")
               for line in out.splitlines())


def test_structure_theorem_hhat(workspace):
    rc, out, _ = run_cli("structure-theorem",
                         str(workspace / "cyclic_2_r1.dqb.json"), "--use-hhat")
    assert rc == 0
    lines = out.splitlines()
    assert "PASS counit-bijective" in lines
    assert "PASS retraction-splits-counit" in lines
    assert lines[-1] == "OK (10 axioms)"


def test_structure_theorem_module_file(workspace):
    rc, out, _ = run_cli("structure-theorem",
                         str(workspace / "cyclic_2_r1.dqb.json"),
                         str(workspace / "hhat.module.json"))
    assert rc == 0


def test_structure_theorem_control_negative(workspace):
    rc, out, _ = run_cli("structure-theorem",
                         str(workspace / "control.dqb.json"), "--use-hhat")
    assert rc == 1
    lines = out.splitlines()
    assert any(l.startswith("FAIL counit-bijective") for l in lines)
    assert any(l.startswith("FAIL preantipode-exists") for l in lines)


def test_structure_theorem_forced_zero_preantipode(workspace):
    rc, out, _ = run_cli("structure-theorem",
                         str(workspace / "control.dqb.json"), "--use-hhat",
                         "--preantipode", str(workspace / "zero.preantipode.json"))
    assert rc == 1


def test_structure_theorem_requires_exactly_one_module(workspace):
    # neither or both of a module document and --use-hhat: a usage error
    usage = ("usage: dualquasi structure-theorem [-h] [--use-hhat] [--preantipode PREANTIPODE] "
             "dqb [module]\ndualquasi: error: provide exactly one of a module document "
             "or --use-hhat\n")
    rc, out, err = run_cli("structure-theorem", str(workspace / "cyclic_2_r1.dqb.json"))
    assert (rc, out, err) == (2, "", usage)
    rc, out, err = run_cli("structure-theorem", str(workspace / "cyclic_2_r1.dqb.json"),
                           str(workspace / "hhat.module.json"), "--use-hhat")
    assert (rc, out, err) == (2, "", usage)


def test_hostile_documents_are_located_input_errors(tmp_path, capsys):
    # nesting deeper than the JSON decoder recurses, a dim of 5001 digits and
    # a scalar of 5000: every command that loads the document exits 2 with a
    # located message on stderr
    from dualquasi import cli

    ex = cyclic_group_example(2, 1)
    texts = {"dqb": dump_dqb(ex.dqb), "module": dump_bicomodule(hhat(ex.dqb)),
             "antipode": dump_antipode(ex.antipode),
             "preantipode": dump_preantipode(ex.preantipode)}
    paths = {name: tmp_path / f"{name}.json" for name in texts}
    for name, text in texts.items():
        paths[name].write_text(text)
    D, M, A, S = (str(paths[name]) for name in texts)
    commands = {"dqb": [["verify", D], ["solve-preantipode", D], ["from-antipode", D, A],
                        ["structure-theorem", D, "--use-hhat"], ["structure-theorem", D, M]],
                "module": [["structure-theorem", D, M]], "antipode": [["from-antipode", D, A]],
                "preantipode": [["structure-theorem", D, M, "--preantipode", S]]}
    for name, text in texts.items():
        long_scalar = text.replace('"1"', f'"1/{"9" * 5000}"', 1)
        assert long_scalar != text
        for hostile in ("[" * 100_000 + "]" * 100_000,
                        text.replace('"dim": ', f'"dim": {"1" * 5001}, "_": ', 1), long_scalar):
            paths[name].write_text(hostile)
            for argv in commands[name]:
                assert cli.main(argv) == 2, (name, argv)
                out, err = capsys.readouterr()
                assert out == "" and err.startswith(f"error: {name}"), (name, argv, err[:80])
        paths[name].write_text(text)


def test_a_large_dim_is_an_input_error(tmp_path, capsys):
    # the declared dim is refused before any section is read: an algebra
    # larger than 64, and a module larger than 64²
    from dualquasi import cli

    ex = cyclic_group_example(2, 1)
    dqb, module = tmp_path / "dqb.json", tmp_path / "module.json"
    dqb.write_text(dump_dqb(ex.dqb))
    module.write_text(dump_bicomodule(hhat(ex.dqb)).replace('"dim": ', '"dim": 4097, "_": ', 1))
    assert cli.main(["structure-theorem", str(dqb), str(module)]) == 2
    assert capsys.readouterr() == ("", "error: module.dim: dim must be at most 4096, got 4097\n")
    dqb.write_text(dump_dqb(ex.dqb).replace('"dim": ', '"dim": 65, "_": ', 1))
    assert cli.main(["verify", str(dqb)]) == 2
    assert capsys.readouterr() == ("", "error: dqb.dim: dim must be at most 64, got 65\n")


def test_running_out_of_memory_is_an_input_error(workspace, monkeypatch, capsys):
    # a valid document whose checks exhaust memory is no mathematical
    # negative: each command that loads an algebra exits 2 with one line
    import dualquasi.axioms
    from dualquasi import cli

    def exhausted(H):
        raise MemoryError

    monkeypatch.setattr(dualquasi.axioms, "validate_dqb", exhausted)
    D = str(workspace / "cyclic_2_r1.dqb.json")
    for argv in (["verify", D], ["solve-preantipode", D],
                 ["from-antipode", D, str(workspace / "cyclic_2_r1.antipode.json")],
                 ["structure-theorem", D, "--use-hhat"]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
        assert "out of memory" in err and "Traceback" not in err, (argv, err)


def test_determinism(workspace):
    a = run_cli("verify", str(workspace / "cyclic_2_r1.dqb.json"))
    b = run_cli("verify", str(workspace / "cyclic_2_r1.dqb.json"))
    assert a == b
    a = run_cli("--report", "json-lines", "structure-theorem",
                str(workspace / "cyclic_2_r1.dqb.json"), "--use-hhat")
    b = run_cli("--report", "json-lines", "structure-theorem",
                str(workspace / "cyclic_2_r1.dqb.json"), "--use-hhat")
    assert a == b


def test_parse_error_exit_code(workspace):
    bad = workspace / "garbage.json"
    bad.write_text("{not json")
    rc, _, err = run_cli("verify", str(bad))
    assert rc == 2
    assert "syntax error" in err


def test_boolean_dim_exit_code(workspace):
    doc = json.loads((workspace / "cyclic_2_r1.dqb.json").read_text())
    doc.update(dim=True, delta=[[0, 0, 0, "1"]], mul=[[0, 0, 0, "1"]],
               omega=[[0, 0, 0, "1"]], omega_inv=[[0, 0, 0, "1"]],
               counit=["1"], unit=["1"])
    bad = workspace / "booldim.dqb.json"
    bad.write_text(json.dumps(doc))
    for command in ("verify", "solve-preantipode"):
        rc, out, err = run_cli(command, str(bad))
        assert (rc, out) == (2, "")
        assert err == "error: dqb.dim: key 'dim' has the wrong type\n"


def test_noninvertible_reassociator_without_inverse_is_a_document_error(
        tmp_path, capsys):
    # with omega_inv left out the loader solves for ω⁻¹; an ω without one is
    # an input error like any other, in both report formats and every command
    from dualquasi import cli

    doc = {"version": 1, "field": {"kind": "rationals"}, "dim": 1,
           "delta": [[0, 0, 0, "1"]], "counit": ["1"], "mul": [[0, 0, 0, "1"]],
           "unit": ["1"], "omega": [[0, 0, 0, "0"]]}
    path = tmp_path / "singular.dqb.json"
    path.write_text(json.dumps(doc))
    for report in ("text", "json-lines"):
        for argv in (["verify", str(path)], ["solve-preantipode", str(path)],
                     ["from-antipode", str(path), str(path)],
                     ["structure-theorem", str(path), "--use-hhat"]):
            assert cli.main(["--report", report, *argv]) == 2, (report, argv)
            out, err = capsys.readouterr()
            assert out == "", (report, argv)
            assert err == "error: dqb.omega: reassociator is not convolution invertible\n"


def test_oversized_field_order_exit_code(workspace):
    doc = json.loads((workspace / "cyclic_2_r1.dqb.json").read_text())
    doc["field"] = {"kind": "cyclotomic", "order": 100000}
    bad = workspace / "bigorder.dqb.json"
    bad.write_text(json.dumps(doc))
    for command in ("verify", "solve-preantipode"):
        rc, out, err = run_cli(command, str(bad))
        assert (rc, out) == (2, "")
        assert err == "error: dqb.field.order: order must be at most 1024, got 100000\n"


def test_structure_theorem_on_induced_module_file(workspace, tmp_path):
    import random
    from dualquasi import induce_bicomodule
    from helpers import random_left_comodule, bundled_examples as _bundles
    ex = next(e for e in _bundles() if e.name == "cyclic_2_r1")
    rng = random.Random(77)
    V = random_left_comodule(ex.dqb, ex.group, rng)
    path = tmp_path / "induced.module.json"
    path.write_text(dump_bicomodule(induce_bicomodule(ex.dqb, V)))
    rc, out, _ = run_cli("structure-theorem",
                         str(workspace / "cyclic_2_r1.dqb.json"), str(path))
    assert rc == 0
    assert out.splitlines()[-1] == "OK (10 axioms)"


def test_structure_theorem_invalid_module_file(workspace, tmp_path):
    from dualquasi import HopfBicomodule, Matrix
    ex = next(e for e in bundled_examples() if e.name == "cyclic_2_r1")
    M = hhat(ex.dqb)
    one = ex.dqb.field.one
    untwisted = Matrix.from_terms(
        ex.dqb.field, 4, 8,
        [((h * 2 + (k + l) % 2), (h * 2 + k) * 2 + l, one)
         for h in range(2) for k in range(2) for l in range(2)])
    bad = HopfBicomodule(4, M.rho_l, M.rho_r, untwisted)
    path = tmp_path / "bad.module.json"
    path.write_text(dump_bicomodule(bad))
    rc, out, _ = run_cli("structure-theorem",
                         str(workspace / "cyclic_2_r1.dqb.json"), str(path))
    assert rc == 1
    assert any(l.startswith("FAIL action-quasi-associativity")
               for l in out.splitlines())


def test_from_antipode_checks_each_report_once(tmp_path, monkeypatch, capsys):
    import dualquasi.antipode as anti
    import dualquasi.cli as cli
    import dualquasi.preantipode as pre
    calls = {"check_antipode": 0, "check_preantipode": 0}
    for name, home in (("check_antipode", anti), ("check_preantipode", pre)):
        original = getattr(home, name)

        def counted(*args, _name=name, _f=original):
            calls[_name] += 1
            return _f(*args)
        for module in (cli, pre, anti):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert cli.main(["gen", "--cyclic", "4", "--r", "1", "--out", str(tmp_path)]) == 0
    rc = cli.main(["from-antipode", str(tmp_path / "cyclic_4_r1.dqb.json"),
                   str(tmp_path / "cyclic_4_r1.antipode.json")])
    assert rc == 0
    assert any(line.startswith("OK (") for line in capsys.readouterr().out.splitlines())
    assert calls == {"check_antipode": 1, "check_preantipode": 1}


def test_structure_theorem_module_form_on_twisted_sweedler(tmp_path):
    # a non-grouplike Δ together with a nontrivial ω, through the CLI
    from helpers import twisted_sweedler
    H = twisted_sweedler()
    dqb, module, S = (tmp_path / name for name in ("tw.dqb.json", "tw.module.json", "S.json"))
    dqb.write_text(dump_dqb(H))
    module.write_text(dump_bicomodule(hhat(H)))
    assert run_cli("solve-preantipode", str(dqb), "--out", str(S))[0] == 0
    rc, out, _ = run_cli("structure-theorem", str(dqb), str(module), "--preantipode", str(S))
    assert rc == 0, out
    assert out.splitlines()[-1] == "OK (14 axioms)"


def test_module_form_builds_the_identity_table_once(tmp_path, monkeypatch, capsys):
    import dualquasi.cli as cli
    import dualquasi.coded as coded
    ex = cyclic_group_example(3, 1)
    dqb, module, S = (tmp_path / name for name in ("c3.dqb.json", "c3.module.json", "S.json"))
    dqb.write_text(dump_dqb(ex.dqb))
    module.write_text(dump_bicomodule(hhat(ex.dqb)))
    S.write_text(dump_preantipode(ex.preantipode))
    calls = []
    build = coded._identities
    monkeypatch.setattr(coded, "_identities",
                        lambda *args: calls.append(args) or build(*args))
    assert cli.main(["structure-theorem", str(dqb), str(module), "--preantipode", str(S)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "OK (14 axioms)"
    assert len(calls) == 1


# -- the command line grammar ---------------------------------------------------------

_COMMAND_NAMES = ("verify", "solve-preantipode", "from-antipode", "structure-theorem", "gen")


@pytest.mark.parametrize("argv, command, values", [
    (["verify", "a.json"], "verify", {"report": "text", "dqb": Path("a.json")}),
    (["--report=json-lines", "verify", "a.json"], "verify",
     {"report": "json-lines", "dqb": Path("a.json")}),
    (["--report", "json-lines", "--report", "text", "verify", "a.json"], "verify",
     {"report": "text", "dqb": Path("a.json")}),
    (["solve-preantipode", "--out=S.json", "a.json"], "solve-preantipode",
     {"report": "text", "dqb": Path("a.json"), "out": Path("S.json")}),
    (["solve-preantipode", "a.json", "--out", "1.json", "--out", "2.json"],
     "solve-preantipode", {"report": "text", "dqb": Path("a.json"), "out": Path("2.json")}),
    (["solve-preantipode", "a.json"], "solve-preantipode",
     {"report": "text", "dqb": Path("a.json"), "out": None}),
    (["from-antipode", "--out", "S.json", "a.json", "b.json"], "from-antipode",
     {"report": "text", "dqb": Path("a.json"), "antipode": Path("b.json"), "out": Path("S.json")}),
    (["from-antipode", "a.json", "--out", "S.json", "b.json"], "from-antipode",
     {"report": "text", "dqb": Path("a.json"), "antipode": Path("b.json"), "out": Path("S.json")}),
    (["structure-theorem", "a.json", "--use-hhat"], "structure-theorem",
     {"report": "text", "dqb": Path("a.json"), "module": None, "use_hhat": True,
      "preantipode": None}),
    (["--report", "json-lines", "structure-theorem", "--preantipode=S.json", "a.json", "m.json"],
     "structure-theorem", {"report": "json-lines", "dqb": Path("a.json"), "module": Path("m.json"),
                           "use_hhat": False, "preantipode": Path("S.json")}),
    (["gen", "--out", "o", "--r=0", "--cyclic", "4"], "gen",
     {"report": "text", "cyclic": 4, "r": 0, "out": Path("o")}),
    (["gen", "--cyclic", "-3", "--r", "1", "--out", "-"], "gen",
     {"report": "text", "cyclic": -3, "r": 1, "out": Path("-")}),
])
def test_command_lines_parse_to_their_values(monkeypatch, argv, command, values):
    from dualquasi import cli
    seen = []
    for name, entry in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name,
                            (lambda args, name=name: seen.append((name, vars(args))) or 0,
                             *entry[1:]))
    assert cli.main(argv) == 0
    assert seen == [(command, values)]


@pytest.mark.parametrize("argv", [
    [], ["--report", "text"], ["check", "a.json"], ["verify", "--out", "S.json", "a.json"],
    ["--use", "verify", "a.json"], ["structure-theorem", "a.json", "--use"],
    ["structure-theorem", "a.json", "--use-hhat=1"], ["solve-preantipode", "a.json", "--out"],
    ["solve-preantipode", "a.json", "--out", "--out", "S.json"],
    ["verify", "a.json", "b.json"], ["from-antipode", "a.json"], ["verify"],
    ["gen", "--cyclic", "x", "--r", "1", "--out", "o"], ["gen", "--cyclic=", "--r", "1"],
    ["--report", "xml", "verify", "a.json"], ["--report=xml", "verify", "a.json"],
    ["gen", "--cyclic", "2", "--r", "1"], ["verify", "a.json", "--report", "text"],
    ["verify", "--", "a.json"],
])
def test_malformed_command_lines_are_usage_errors(capsys, argv):
    from dualquasi import cli
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: dualquasi ")
    assert "\ndualquasi: error: " in err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--report", "json-lines", "-h"]])
def test_help_names_every_command(capsys, argv):
    from dualquasi import cli
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: dualquasi ") and err == ""
    for name in _COMMAND_NAMES:
        assert f"\n  {name} " in out, name


@pytest.mark.parametrize("name", _COMMAND_NAMES)
def test_help_after_a_command(capsys, name):
    from dualquasi import cli
    for argv in ([name, "-h"], [name, "a.json", "--help"]):
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: dualquasi {name} [-h]") and err == ""


def test_exit_codes_under_fuzzed_command_lines(tmp_path, monkeypatch, capsys):
    # well-formed command lines with up to three tokens inserted, deleted or
    # replaced, on documents of dim <= 4, so each call takes milliseconds; the
    # documents are written again before each call, since --out may overwrite one
    from dualquasi import cli
    monkeypatch.chdir(tmp_path)
    ex = cyclic_group_example(2, 1)
    docs = {"c2.dqb.json": dump_dqb(ex.dqb), "c2.antipode.json": dump_antipode(ex.antipode),
            "c2.hhat.json": dump_bicomodule(hhat(ex.dqb)),
            "c2.S.json": dump_preantipode(ex.preantipode),
            "zero.S.json": dump_preantipode(Matrix.zeros(ex.dqb.field, 2, 2)),
            "control.dqb.json": dump_dqb(control_bialgebra())}
    lines = [["verify", "c2.dqb.json"], ["verify", "control.dqb.json"],
             ["solve-preantipode", "c2.dqb.json", "--out", "out.json"],
             ["solve-preantipode", "control.dqb.json"],
             ["from-antipode", "c2.dqb.json", "c2.antipode.json"],
             ["structure-theorem", "c2.dqb.json", "--use-hhat"],
             ["structure-theorem", "control.dqb.json", "--use-hhat"],
             ["structure-theorem", "c2.dqb.json", "c2.hhat.json", "--preantipode", "zero.S.json"],
             ["structure-theorem", "c2.dqb.json", "c2.hhat.json", "--preantipode=c2.S.json"],
             ["gen", "--cyclic", "4", "--r", "1", "--out", "out"]]
    values = [*docs, "missing.json", "out", "-1", "0", "1", "2", "3", "4", "x",
              "text", "json-lines", "xml", ""]
    options = ["--report", "--out", "--use-hhat", "--preantipode", "--cyclic", "--r"]
    tokens = [*values, *options, *_COMMAND_NAMES, "-h", "--help", "--"]
    tokens += [f"{option}={value}" for option in options for value in ("c2.S.json", "2", "")]
    rng = random.Random(23)
    codes = Counter()
    for _ in range(400):
        argv = list(rng.choice(lines))
        if rng.random() < 0.3:
            argv = ["--report", rng.choice(["text", "json-lines"]), *argv]
        for _ in range(rng.randrange(4)):
            i = rng.randrange(len(argv) + 1)
            if rng.random() < 0.5:
                argv.insert(i, rng.choice(tokens))
            elif i < len(argv):
                argv[i:i + 1] = [rng.choice(tokens)] if rng.random() < 0.5 else []
        for doc, text in docs.items():
            (tmp_path / doc).write_text(text)
        rc = cli.main(argv)
        capsys.readouterr()
        assert rc in (0, 1, 2), argv
        codes[rc] += 1
    assert min(codes[0], codes[1], codes[2]) >= 20, codes
