"""The package namespace, what each command imports, and the value classes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import dualquasi
from dualquasi import (AffineSolution, AntipodeData, Bicomodule, Check, Cocycle,
                       CoinvariantRetraction, DimensionMismatch, GroupData,
                       GroupExample, HopfBicomodule, LeftComodule, Matrix,
                       PreantipodeFamily, Report, Subspace, coinvariant_retraction,
                       coinvariants, cyclic_group_example, dump_antipode,
                       dump_bicomodule, dump_dqb, dump_preantipode, hhat,
                       regular_bicomodule, solve_affine, solve_preantipode)

# the names the package exported before they were loaded on first use
EXPORTED = [
    "AffineSolution", "AntipodeData", "Bicomodule", "Check", "Cocycle",
    "CoinvariantRetraction", "DimensionMismatch", "DocumentError",
    "DualQuasiBialgebra", "DualQuasiError", "Field", "GroupData", "GroupExample",
    "HopfBicomodule", "InvariantViolation", "LeftComodule", "Matrix",
    "PreantipodeFamily", "Report", "Scalar", "ScalarParseError", "Subspace",
    "adjunction_counit", "adjunction_unit", "anti_homomorphism_defect",
    "canonical_group_preantipode", "check_antipode", "check_preantipode",
    "check_projection_formula", "coinvariant_comodule", "coinvariant_retraction",
    "coinvariants", "convolution", "convolution_inverse", "cyclic_cocycle",
    "cyclic_group_example", "dump_antipode", "dump_bicomodule", "dump_dqb",
    "dump_preantipode", "free_hopf_bicomodule", "group_antipode_data",
    "group_dqb", "hhat", "idempotent_monoid_bialgebra", "induce_bicomodule",
    "inverse", "kernel", "load_antipode", "load_bicomodule", "load_dqb",
    "load_preantipode", "preantipode_from_antipode", "rank",
    "regular_bicomodule", "retraction_report", "serialize_report",
    "solve_affine", "solve_preantipode", "structure_isomorphism",
    "tensor_index", "tensor_unindex", "trivial_cocycle", "trivial_left_coaction",
    "trivial_right_coaction", "validate_bicomodule", "validate_cocycle",
    "validate_dqb", "validate_left_comodule",
]


def _imported_modules(*argv):
    """Modules a fresh interpreter imports while running argv, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True)
    return proc, {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:") and "|" in line}


# -- import path ------------------------------------------------------------------


def test_import_loads_no_submodule():
    proc, modules = _imported_modules("-c", "import dualquasi")
    assert proc.returncode == 0
    assert "dualquasi" in modules
    assert not [m for m in modules if m.startswith("dualquasi.")]


def test_verify_loads_only_the_algebra_layers(tmp_path):
    doc = tmp_path / "c2.dqb.json"
    doc.write_text(dump_dqb(cyclic_group_example(2, 1).dqb))
    proc, modules = _imported_modules("-m", "dualquasi", "verify", str(doc))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "OK (15 axioms)"
    assert "dualquasi.dqb" in modules and "dualquasi.io" in modules
    for name in ("dataclasses", "dualquasi.comodules", "dualquasi.preantipode",
                 "dualquasi.groups"):
        assert name not in modules


def test_gen_loads_neither_the_preantipode_nor_the_comodule_layer(tmp_path):
    proc, modules = _imported_modules("-m", "dualquasi", "gen", "--cyclic", "2",
                                      "--r", "1", "--out", str(tmp_path))
    assert proc.returncode == 0
    assert "dualquasi.groups" in modules and "dualquasi.dqb" in modules
    assert "dualquasi.preantipode" not in modules
    assert "dualquasi.comodules" not in modules


def test_solving_commands_do_not_load_the_comodule_layer(tmp_path):
    ex = cyclic_group_example(2, 1)
    doc = tmp_path / "c2.dqb.json"
    doc.write_text(dump_dqb(ex.dqb))
    antipode = tmp_path / "c2.antipode.json"
    antipode.write_text(dump_antipode(ex.antipode))
    for argv in (("solve-preantipode", str(doc)),
                 ("from-antipode", str(doc), str(antipode))):
        proc, modules = _imported_modules("-m", "dualquasi", *argv)
        assert proc.returncode == 0, argv
        assert "dualquasi.preantipode" in modules
        assert "dualquasi.comodules" not in modules, argv


def test_an_algebra_document_that_fails_to_load_compiles_nothing_above_the_loader(tmp_path):
    ex = cyclic_group_example(2, 1)
    doc = json.loads(dump_dqb(ex.dqb))
    doc["delta"][0][1] = 5
    bad = tmp_path / "bad.dqb.json"
    bad.write_text(json.dumps(doc))
    antipode = tmp_path / "c2.antipode.json"
    antipode.write_text(dump_antipode(ex.antipode))
    for argv in (("verify", str(bad)), ("solve-preantipode", str(bad)),
                 ("from-antipode", str(bad), str(antipode)),
                 ("structure-theorem", str(bad), "--use-hhat")):
        proc, modules = _imported_modules("-m", "dualquasi", *argv)
        assert proc.returncode == 2, argv
        assert proc.stdout == "", argv
        assert [line for line in proc.stderr.splitlines()
                if not line.startswith("import time:")] == [
            "error: dqb.delta[0]: index out of range: 5 not in [0, 2)"], argv
        assert "dualquasi.io" in modules, argv
        for name in ("axioms", "convolutions", "elimination", "preantipode", "comodules",
                     "antipode", "structure", "writers"):
            assert f"dualquasi.{name}" not in modules, (argv, name)


@pytest.fixture(scope="module")
def command_modules(tmp_path_factory):
    """For each command on cyclic 2 r=1, the modules its fresh process imports;
    also `verify` on that algebra without ``omega_inv`` and on S₃ with the
    coboundary-twisted cocycle, whose values include 1/2."""
    from helpers import symmetric_group_examples

    work = tmp_path_factory.mktemp("commands")
    ex = cyclic_group_example(2, 1)
    without_inverse = json.loads(dump_dqb(ex.dqb))
    del without_inverse["omega_inv"]
    docs = {"dqb": dump_dqb(ex.dqb), "antipode": dump_antipode(ex.antipode),
            "module": dump_bicomodule(hhat(ex.dqb)), "S": dump_preantipode(ex.preantipode),
            "no-inv": json.dumps(without_inverse),
            "s3-twisted": dump_dqb(symmetric_group_examples()[1].dqb)}
    for name, text in docs.items():
        (work / f"{name}.json").write_text(text)
    path = {name: str(work / f"{name}.json") for name in docs}
    commands = {
        "gen": ("gen", "--cyclic", "2", "--r", "1", "--out", str(work / "gen")),
        "verify": ("verify", path["dqb"]),
        "verify without omega_inv": ("verify", path["no-inv"]),
        "verify S3 twisted": ("verify", path["s3-twisted"]),
        "solve-preantipode": ("solve-preantipode", path["dqb"]),
        "from-antipode": ("from-antipode", path["dqb"], path["antipode"]),
        "structure-theorem --use-hhat": ("structure-theorem", path["dqb"], "--use-hhat"),
        "structure-theorem module": ("structure-theorem", path["dqb"], path["module"],
                                     "--preantipode", path["S"]),
    }
    loaded = {}
    for name, argv in commands.items():
        proc, modules = _imported_modules("-m", "dualquasi", *argv)
        assert proc.returncode == 0, (name, proc.stdout, proc.stderr[-2000:])
        loaded[name] = modules
    return loaded


def test_no_command_loads_fractions_or_decimal(command_modules):
    assert len(command_modules) == 8
    for name, modules in command_modules.items():
        assert "dualquasi.scalars" in modules, name
        for module in ("fractions", "decimal", "_decimal"):
            assert module not in modules, (name, module)


def test_no_command_imports_argparse_gettext_or_locale(command_modules):
    # the command table in cli parses argv itself; argparse would bring in
    # gettext and locale, a few milliseconds and near half a megabyte per process
    for name, modules in command_modules.items():
        for module in ("argparse", "gettext", "locale"):
            assert module not in modules, (name, module)


MAX_MODULE_LINES = 300


def _source_lines(module: str) -> int:
    name = module.partition(".")[2] or "__init__"
    path = Path(dualquasi.__file__).parent / f"{name}.py"
    return len(path.read_text(encoding="utf-8").splitlines())


def test_no_command_compiles_a_module_longer_than_300_lines(command_modules):
    # compiling a module adds peak memory in proportion to its size, and a
    # command compiles every module it loads when no bytecode is cached
    for name, modules in command_modules.items():
        for module in modules:
            if module == "dualquasi" or module.startswith("dualquasi."):
                assert _source_lines(module) <= MAX_MODULE_LINES, (name, module)


def test_verify_loads_neither_the_elimination_nor_the_writers(command_modules):
    for name in ("verify", "verify S3 twisted"):
        assert "dualquasi.axioms" in command_modules[name], name
        assert "dualquasi.elimination" not in command_modules[name], name
        assert "dualquasi.writers" not in command_modules[name], name


def test_only_solving_commands_load_the_elimination(command_modules):
    # verify solves for ω⁻¹ only when the document leaves it out
    loading = {name for name, modules in command_modules.items()
               if "dualquasi.elimination" in modules}
    assert loading == {"verify without omega_inv", "solve-preantipode",
                       "structure-theorem --use-hhat", "structure-theorem module"}


def test_only_writing_commands_load_the_writers(command_modules):
    loading = {name for name, modules in command_modules.items()
               if "dualquasi.writers" in modules}
    assert loading == {"gen", "solve-preantipode", "from-antipode"}


# runs a command in this process, then prints its exit code and every name
# the package's loaded modules define
_DEFINED_NAMES = """
import contextlib, io, sys
from dualquasi.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(rc, *sorted({name for key, module in list(sys.modules.items())
                   if key.startswith("dualquasi.") for name in vars(module)}))
"""


def test_solve_preantipode_loads_neither_the_antipode_nor_the_structure_layer(
        command_modules, tmp_path):
    modules = command_modules["solve-preantipode"]
    assert "dualquasi.preantipode" in modules
    assert "dualquasi.antipode" not in modules
    assert "dualquasi.structure" not in modules
    # nor does it compile their functions under another module's name
    doc = tmp_path / "c2.dqb.json"
    doc.write_text(dump_dqb(cyclic_group_example(2, 1).dqb))
    proc = subprocess.run([sys.executable, "-c", _DEFINED_NAMES, "solve-preantipode",
                           str(doc)], capture_output=True, text=True)
    rc, *names = proc.stdout.split()
    assert rc == "0", proc.stderr
    assert "solve_preantipode" in names
    for name in ("check_antipode", "preantipode_from_antipode", "retraction_report",
                 "coinvariant_retraction", "structure_isomorphism"):
        assert name not in names


def test_from_antipode_loads_the_antipode_layer_only(command_modules):
    modules = command_modules["from-antipode"]
    assert "dualquasi.antipode" in modules
    assert "dualquasi.structure" not in modules
    assert "dualquasi.comodules" not in modules


def test_structure_theorem_loads_the_structure_layer_without_the_antipode_layer(
        command_modules):
    for name in ("structure-theorem --use-hhat", "structure-theorem module"):
        modules = command_modules[name]
        assert "dualquasi.structure" in modules, name
        assert "dualquasi.antipode" not in modules, name


def test_antipode_data_is_one_class():
    import dualquasi.antipode
    import dualquasi.dqb
    assert dualquasi.AntipodeData is dualquasi.antipode.AntipodeData
    assert dualquasi.AntipodeData is dualquasi.dqb.AntipodeData


def test_exported_names_are_unchanged():
    assert sorted(dualquasi.__all__) == EXPORTED
    assert len(EXPORTED) == 69


def test_each_name_is_the_object_of_its_home_module():
    for name in EXPORTED:
        obj = getattr(dualquasi, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("dualquasi.")
        assert getattr(home, name) is obj, name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from dualquasi import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == EXPORTED
    for name in EXPORTED:
        assert namespace[name] is getattr(dualquasi, name)


def test_no_submodule_shadows_an_exported_name():
    # importing a submodule binds it on the package, over a function of its name
    assert not set(dualquasi._EXPORTS) & set(dualquasi.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        dualquasi.no_such_name


# -- value classes ------------------------------------------------------------------


def _instances():
    """One instance of each value class, built by the library."""
    ex = cyclic_group_example(2, 1)
    H = ex.dqb
    M = hhat(H)
    family = solve_preantipode(H)
    retraction = coinvariant_retraction(H, family.particular, M)
    return [
        Check("unit-left", False, (0, 1), "1", "2"),
        Report((Check("a", True), Check("b", False, (1,), "0", "1"))),
        solve_affine(Matrix.identity(H.field, 2), [H.field.one, H.field.zero]),
        LeftComodule(H.dim, H.delta),
        regular_bicomodule(H),
        M,
        coinvariants(H, M),
        ex.antipode,
        family,
        retraction,
        ex.group,
        ex.cocycle,
        ex,
    ]


VALUE_CLASSES = [Check, Report, AffineSolution, LeftComodule, Bicomodule,
                 HopfBicomodule, Subspace, AntipodeData, PreantipodeFamily,
                 CoinvariantRetraction, GroupData, Cocycle, GroupExample]


def _fields(value):
    return [name for name in type(value).__slots__ if name != "__dict__"]


def test_equality_hash_and_repr_go_by_fields():
    values = _instances()
    assert [type(v) for v in values] == VALUE_CLASSES
    for value in values:
        names = _fields(value)
        copy = type(value)(*(getattr(value, n) for n in names))
        assert copy == value and not copy != value
        assert value != object() and value != (getattr(value, names[0]),)
        fields = ", ".join(f"{n}={getattr(value, n)!r}" for n in names)
        assert repr(value) == f"{type(value).__name__}({fields})"
        if not any(isinstance(getattr(value, n), Matrix) for n in names):
            assert hash(copy) == hash(value)


def test_keyword_construction_and_defaults():
    assert Check(axiom="a", passed=True) == Check("a", True, None, None, None)
    assert repr(Check("a", True)) == \
        "Check(axiom='a', passed=True, witness=None, lhs=None, rhs=None)"
    assert Check("a", False, (0,), "1", "2") != Check("a", False, (1,), "1", "2")
    assert len({Check("a", True), Check("a", True), Check("b", True)}) == 2


def test_fields_cannot_be_assigned_or_deleted():
    for value in _instances():
        for name in _fields(value):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_constructors_reject_inconsistent_shapes():
    ex = cyclic_group_example(2, 1)
    H = ex.dqb
    F = H.field
    z = lambda r, c: Matrix.zeros(F, r, c)
    with pytest.raises(DimensionMismatch):
        LeftComodule(0, z(2, 0))
    with pytest.raises(DimensionMismatch):
        LeftComodule(2, z(3, 2))
    with pytest.raises(DimensionMismatch):
        Bicomodule(0, z(2, 0), z(2, 0))
    with pytest.raises(DimensionMismatch):
        Bicomodule(2, z(3, 2), z(4, 2))
    with pytest.raises(DimensionMismatch):
        Bicomodule(2, z(4, 2), z(3, 2))
    with pytest.raises(DimensionMismatch):
        Bicomodule(2, z(4, 2), z(6, 2))
    with pytest.raises(DimensionMismatch):
        HopfBicomodule(2, z(4, 2), z(6, 2), z(2, 4))
    with pytest.raises(DimensionMismatch):
        HopfBicomodule(2, z(4, 2), z(4, 2), z(2, 3))
    with pytest.raises(DimensionMismatch):
        AntipodeData(z(2, 3), z(1, 2), z(1, 2))
    with pytest.raises(DimensionMismatch):
        AntipodeData(z(2, 2), z(1, 3), z(1, 2))
    with pytest.raises(DimensionMismatch):
        AntipodeData(z(2, 2), z(1, 2), z(2, 1))
    with pytest.raises(ValueError):
        Cocycle(F, 2, ex.cocycle.values[:-1])
