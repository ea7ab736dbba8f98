import functools
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualquasi import (Check, DocumentError, Field, Matrix, Report, ScalarParseError, hhat,
                       solve_affine, validate_dqb)
from dualquasi.groups import cyclic_group_example
from dualquasi.io import (MAX_FIELD_ORDER, load_antipode, load_bicomodule, load_dqb,
                          load_preantipode)
from dualquasi.report import serialize_report
from dualquasi.writers import dump_antipode, dump_bicomodule, dump_dqb, dump_preantipode

from helpers import bundled_examples, control_bialgebra


def test_dqb_round_trip_bit_exact():
    for ex in bundled_examples() + [type("C", (), {"dqb": control_bialgebra()})]:
        H = ex.dqb
        text = dump_dqb(H)
        H2 = load_dqb(text)
        assert dump_dqb(H2) == text
        assert H2.delta == H.delta and H2.mul == H.mul
        assert H2.omega == H.omega and H2.omega_inv == H.omega_inv
        assert H2.counit == H.counit and H2.unit == H.unit
        assert validate_dqb(H2).ok


def test_module_round_trip_bit_exact():
    for ex in bundled_examples():
        M = hhat(ex.dqb)
        text = dump_bicomodule(M)
        M2 = load_bicomodule(text, ex.dqb)
        assert dump_bicomodule(M2) == text
        assert M2.rho_l == M.rho_l and M2.rho_r == M.rho_r and M2.act == M.act


def test_antipode_and_preantipode_round_trip():
    for ex in bundled_examples():
        text = dump_antipode(ex.antipode)
        data = load_antipode(text, ex.dqb)
        assert dump_antipode(data) == text
        text_s = dump_preantipode(ex.preantipode)
        assert load_preantipode(text_s, ex.dqb) == ex.preantipode


def test_omega_inverse_inserted_on_serialization():
    # a document without omega_inv gains a computed one after one round trip
    ex = bundled_examples()[1]
    doc = json.loads(dump_dqb(ex.dqb))
    del doc["omega_inv"]
    H = load_dqb(json.dumps(doc))
    assert H.omega_inv == ex.dqb.omega_inv
    assert "omega_inv" in json.loads(dump_dqb(H))


def test_all_zero_document_without_omega_inv_loads_in_small_memory():
    # the ω⁻¹ system of an all-zero dim 12 document is the zero 1728×1728
    # system: its solution set has dimension 1728, and no basis of it is built
    doc = json.dumps({"version": 1, "field": {"kind": "rationals"}, "dim": 12,
                      "delta": [], "counit": ["0"] * 12, "mul": [], "unit": ["0"] * 12,
                      "omega": []})
    import dualquasi.convolutions  # imported (and compiled) before tracing starts
    tracemalloc.start()
    try:
        H = load_dqb(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert H.omega_inv.is_zero()
    sol = solve_affine(Matrix.zeros(H.field, 12 ** 3, 12 ** 3), H.counit_power(3).entries)
    assert sol.kernel_dimension == 12 ** 3
    assert not any(sol.particular)


def test_sparse_entries_are_sorted_canonically():
    # the entries of a section, inputs then outputs, come in lexicographic
    # order, which is the column-major order of the section's matrix
    H = bundled_examples()[1].dqb
    for text, keys in ((dump_dqb(H), ("delta", "mul", "omega", "omega_inv")),
                       (dump_bicomodule(hhat(H)), ("rho_l", "rho_r", "act"))):
        doc = json.loads(text)
        for key in keys:
            idx = [tuple(e[:-1]) for e in doc[key]]
            assert idx and idx == sorted(idx), key


def test_index_out_of_range_reports_location():
    good = json.loads(dump_dqb(bundled_examples()[0].dqb))
    good["delta"].append([2, 0, 0, "1"])
    with pytest.raises(DocumentError) as err:
        load_dqb(json.dumps(good))
    assert "index out of range" in str(err.value)
    assert "delta" in err.value.location


def test_malformed_scalar_reports_location():
    good = json.loads(dump_dqb(bundled_examples()[0].dqb))
    good["counit"][1] = "3//4"
    with pytest.raises(DocumentError) as err:
        load_dqb(json.dumps(good))
    assert "malformed scalar" in str(err.value)
    assert err.value.location == "dqb.counit[1]"


def test_repeated_malformed_scalar_reports_its_first_position():
    doc = json.loads(dump_dqb(bundled_examples()[1].dqb))
    doc["omega"][2][-1] = doc["omega"][5][-1] = doc["omega_inv"][1][-1] = "3//4"
    with pytest.raises(DocumentError) as err:
        load_dqb(json.dumps(doc))
    assert err.value.location == "dqb.omega[2]"
    doc["delta"][1][-1] = ["1"]  # not a string, so never looked up by its text
    with pytest.raises(DocumentError) as err:
        load_dqb(json.dumps(doc))
    assert err.value.location == "dqb.delta[1]"
    assert "scalar must be a string" in str(err.value)


def test_repeated_scalars_round_trip_bit_exact():
    # cyclic 8 r=1 writes each of its few distinct values many times
    ex = cyclic_group_example(8, 1)
    text = dump_dqb(ex.dqb)
    H = load_dqb(text)
    assert dump_dqb(H) == text
    assert H.omega == ex.dqb.omega and H.omega_inv == ex.dqb.omega_inv
    assert H.delta == ex.dqb.delta and H.mul == ex.dqb.mul
    for load, dump, value in ((load_antipode, dump_antipode, ex.antipode),
                              (load_preantipode, dump_preantipode, ex.preantipode)):
        loaded = load(dump(value), H)
        assert loaded == value and dump(loaded) == dump(value)


def test_json_syntax_error_reports_line_and_column():
    with pytest.raises(DocumentError) as err:
        load_dqb("{\n  broken")
    assert err.value.location.startswith("line 2")


def test_unknown_field_kind_rejected():
    with pytest.raises(DocumentError) as err:
        load_dqb('{"version":1,"field":{"kind":"real"},"dim":1,"delta":[],'
                 '"counit":["1"],"mul":[],"unit":["1"],"omega":[]}')
    assert "unknown field kind" in str(err.value)


def test_oversized_field_order_rejected():
    doc = json.loads(dump_dqb(bundled_examples()[0].dqb))
    doc["field"] = {"kind": "cyclotomic", "order": MAX_FIELD_ORDER + 1}
    with pytest.raises(DocumentError) as err:
        load_dqb(json.dumps(doc))
    assert err.value.location == "dqb.field.order"
    assert str(err.value) == "dqb.field.order: order must be at most 1024, got 1025"
    doc["field"]["order"] = MAX_FIELD_ORDER
    assert load_dqb(json.dumps(doc)).field.order == 1024


@pytest.mark.parametrize("which, text, message, location", [
    (0, "[]", "expected a JSON object", "dqb"),
    (1, '"module"', "expected a JSON object", "module"),
    (2, "3", "expected a JSON object", "antipode"),
    (3, "null", "expected a JSON object", "preantipode"),
    (0, '{"version": 1, "field": {"kind": "cyclotomic", "order": 0}}',
     "order must be positive, got 0", "dqb.field.order"),
], ids=["dqb-list", "module-string", "antipode-number", "preantipode-null", "order-zero"])
def test_document_header_errors_are_located(which, text, message, location):
    load = _valid_documents()[which][0]
    with pytest.raises(DocumentError) as err:
        load(text)
    assert err.value.location == location
    assert str(err.value) == f"{location}: {message}"


def test_version_checked():
    with pytest.raises(DocumentError):
        load_dqb('{"version": 2}')


def _trivial_example():
    """The one-dimensional algebra, where a boolean true reads as a valid 1."""
    return cyclic_group_example(1, 0)


@pytest.mark.parametrize("key, value, location", [
    ("version", True, "dqb.version"),
    ("dim", True, "dqb.dim"),
    ("field", {"kind": "cyclotomic", "order": True}, "dqb.field.order"),
])
def test_boolean_rejected_where_integer_required(key, value, location):
    doc = json.loads(dump_dqb(_trivial_example().dqb))
    doc[key] = value
    with pytest.raises(DocumentError) as err:
        load_dqb(json.dumps(doc))
    assert err.value.location == location
    assert "wrong type" in str(err.value)


def test_boolean_dim_rejected_by_every_loader():
    ex = _trivial_example()
    for load, text, location in (
            (load_bicomodule, dump_bicomodule(hhat(ex.dqb)), "module.dim"),
            (load_antipode, dump_antipode(ex.antipode), "antipode.dim"),
            (load_preantipode, dump_preantipode(ex.preantipode), "preantipode.dim")):
        doc = json.loads(text)
        doc["dim"] = True
        with pytest.raises(DocumentError) as err:
            load(json.dumps(doc), ex.dqb)
        assert err.value.location == location


def test_duplicate_omega_entry_rejected():
    good = json.loads(dump_dqb(bundled_examples()[0].dqb))
    good["omega"].append(good["omega"][0])
    with pytest.raises(DocumentError) as err:
        load_dqb(json.dumps(good))
    assert "duplicate" in str(err.value)


def test_wrong_dimension_antipode_rejected():
    ex2, ex3 = bundled_examples()[1], bundled_examples()[2]
    text = dump_antipode(ex2.antipode)
    with pytest.raises(DocumentError):
        load_antipode(text, ex3.dqb)


# small values only: a large dim or field order allocates before it is checked.
# Numbers of 5000 digits are refused before anything is built: a scalar
# literal, and an integer, written into the text in place of its marker
# (json.dumps cannot write an integer that long).
_LONG_INTEGER = "<an integer of 5000 digits>"
_POOL = (None, True, False, 0, -1, 1.5, 4, 7, "", "x", "1/0", "z", "z^3", [], [[]], {},
         {"a": 1}, "9" * 5000, _LONG_INTEGER)


@functools.cache
def _valid_documents():
    """(loader, document) for cyclic 3 r=1: its algebra, Ĥ, antipode data and
    preantipode documents, each loader reading against the algebra."""
    ex = cyclic_group_example(3, 1)
    H = ex.dqb
    return ((load_dqb, dump_dqb(H)),
            (lambda text: load_bicomodule(text, H), dump_bicomodule(hhat(H))),
            (lambda text: load_antipode(text, H), dump_antipode(ex.antipode)),
            (lambda text: load_preantipode(text, H), dump_preantipode(ex.preantipode)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), st.data())
def test_loaders_load_or_reject_any_single_change(which, data):
    """One value anywhere in a valid document replaced by one from the pool,
    or one key or entry deleted: the loader returns or raises DocumentError."""
    load, text = _valid_documents()[which]
    doc = parent = json.loads(text)
    while True:  # a walk down from the root that stops at each level with odds 1/2
        key = data.draw(st.sampled_from(list(parent) if isinstance(parent, dict)
                                        else range(len(parent))))
        child = parent[key]
        if not isinstance(child, (dict, list)) or not child or data.draw(st.booleans()):
            break
        parent = child
    change = data.draw(st.sampled_from(range(len(_POOL) + 1)))
    if change == len(_POOL):
        del parent[key]
    else:
        parent[key] = _POOL[change]
    try:
        load(json.dumps(doc).replace(json.dumps(_LONG_INTEGER), "9" * 5000))
    except DocumentError:
        pass


def _spliced(doc: dict, key: str, raw: str) -> str:
    """doc as JSON, with the raw text as the value at key."""
    return json.dumps({**doc, key: "@"}).replace('"@"', raw)


_DEEP = "[" * 100_000 + "]" * 100_000  # deeper than the JSON decoder recurses


@pytest.mark.parametrize("which, location",
                         enumerate(("dqb", "module", "antipode", "preantipode")))
def test_loaders_locate_deep_nesting_and_long_integers(which, location):
    load, text = _valid_documents()[which]
    doc = json.loads(text)
    section = next(key for key, value in doc.items() if isinstance(value, list))
    for hostile in (_DEEP, _spliced(doc, section, _DEEP), _spliced(doc, "dim", "1" * 5001),
                    _spliced(doc, section, f"[[{'9' * 5000}]]")):
        with pytest.raises(DocumentError) as err:
            load(hostile)
        assert err.value.location == location
        assert str(err.value) in (f"{location}: nesting too deep to read",
                                  f"{location}: a number has too many digits to read")


def test_an_overlong_scalar_is_malformed_at_its_place():
    doc = json.loads(dump_dqb(cyclic_group_example(3, 1).dqb))
    doc["unit"][0] = "1/" + "9" * 5000
    with pytest.raises(DocumentError, match=r"^dqb\.unit\[0\]: malformed scalar '1/9+': "
                                            r"number has too many digits \(at character 2\)$"):
        load_dqb(json.dumps(doc))
    with pytest.raises(ScalarParseError, match=r"^number has too many digits \(at character 2\)$"):
        Field.cyclotomic(4).parse("z^" + "9" * 5000)


def test_report_serialization_text():
    report = Report((Check("alpha", True), Check("beta", False, (0, 1), "1", "2")))
    text = serialize_report(report, "text")
    lines = text.splitlines()
    assert lines[0] == "PASS alpha"
    assert lines[1].startswith("FAIL beta")
    assert "witness=(0, 1)" in lines[1]
    assert lines[-1] == "FAIL (1 of 2 axioms)"


def test_report_serialization_all_pass_and_empty():
    report = Report((Check("alpha", True),))
    assert serialize_report(report).splitlines()[-1] == "OK (1 axioms)"
    assert serialize_report(Report(())) == "OK (0 axioms)"


def test_report_serialization_json_lines():
    report = Report((Check("alpha", True), Check("beta", False, (3,), "x", "y")))
    lines = serialize_report(report, "json-lines").splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0] == {"axiom": "alpha", "pass": True, "witness": None,
                          "lhs": None, "rhs": None}
    assert records[1] == {"axiom": "beta", "pass": False, "witness": [3],
                          "lhs": "x", "rhs": "y"}


# -- document layout -------------------------------------------------------------------


def _reference_document(kind, value):
    """The document as a dict, for json.dumps(doc, indent=2) + "\\n"."""
    def sparse(matrix, from_rc):
        return sorted((list(from_rc(r, c)) + [str(v)] for r in range(matrix.rows)
                       for c, v in matrix.row_terms(r)), key=lambda e: e[:-1])

    def dense(matrix):
        return [[str(v) for v in matrix.row_list(i)] for i in range(matrix.rows)]

    if kind == "dqb":
        n = value.dim
        triple = lambda r, c: (c // n // n, c // n % n, c % n)
        field = ({"kind": "rationals"} if value.field.kind == "rationals"
                 else {"kind": "cyclotomic", "order": value.field.order})
        return {"version": 1, "field": field, "dim": n,
                "delta": sparse(value.delta, lambda r, c: (c, r // n, r % n)),
                "counit": dense(value.counit)[0],
                "mul": sparse(value.mul, lambda r, c: (c // n, c % n, r)),
                "unit": [row[0] for row in dense(value.unit)],
                "omega": sparse(value.omega, triple),
                "omega_inv": sparse(value.omega_inv, triple)}
    if kind == "module":
        d, n = value.dim, value.hopf_dim
        return {"version": 1, "dim": d,
                "rho_l": sparse(value.rho_l, lambda r, c: (c, r // d, r % d)),
                "rho_r": sparse(value.rho_r, lambda r, c: (c, r // n, r % n)),
                "act": sparse(value.act, lambda r, c: (c // n, c % n, r))}
    if kind == "antipode":
        return {"version": 1, "dim": value.s.rows, "s": dense(value.s),
                "alpha": dense(value.alpha)[0], "beta": dense(value.beta)[0]}
    return {"version": 1, "dim": value.rows, "matrix": dense(value)}


def test_documents_are_laid_out_as_json_dumps_with_indent():
    from dualquasi import HopfBicomodule, Matrix
    from helpers import sweedler_four_dim_hopf

    examples = {(n, r): cyclic_group_example(n, r) for n, r in ((2, 1), (8, 1), (12, 5))}
    sweedler, sweedler_data = sweedler_four_dim_hopf()
    H3 = cyclic_group_example(3, 2).dqb
    zero = lambda r, c: Matrix.zeros(H3.field, r, c)
    cases = [("dqb", ex.dqb, dump_dqb) for ex in examples.values()] + [
        ("dqb", sweedler, dump_dqb),
        ("dqb", control_bialgebra(), dump_dqb),
        ("module", hhat(H3), dump_bicomodule),
        # empty sparse sections
        ("module", HopfBicomodule(1, zero(3, 1), zero(3, 1), zero(1, 3)), dump_bicomodule),
        ("antipode", examples[8, 1].antipode, dump_antipode),
        ("antipode", sweedler_data, dump_antipode),
        ("preantipode", examples[12, 5].preantipode, dump_preantipode)]
    for kind, value, dump in cases:
        assert dump(value) == json.dumps(_reference_document(kind, value), indent=2) + "\n"
