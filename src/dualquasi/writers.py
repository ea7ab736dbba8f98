"""Canonical serialization of the four document kinds (see ``io`` for the
formats).

Documents are written in the layout of json.dumps(doc, indent=2), whose
pure-Python encoder (the only one that indents) is several times slower.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

from .dqb import AntipodeData, DualQuasiBialgebra
from .fields import Field
from .io import FORMAT_VERSION
from .linalg import Matrix
from .scalars import Scalar

if TYPE_CHECKING:
    from .comodules import HopfBicomodule


def _json_list(items: list[str], depth: int) -> str:
    """The JSON list of rendered items as json.dumps(..., indent=2) lays it
    out at nesting depth ``depth``."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _json_object(fields, depth: int = 0) -> str:
    """The JSON object of (key, rendered value) pairs, laid out likewise."""
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(f"{_quote(key)}: {value}" for key, value in fields)
    return "{" + inner + body + "\n" + "  " * depth + "}"


class _Texts(dict):
    """Each distinct scalar's JSON string, rendered once per document.

    A document's scalars share one field, so (num, den) names each of them,
    and looking it up hashes a tuple in C instead of calling the Python
    ``Scalar.__hash__``."""

    def __call__(self, value: Scalar) -> str:
        key = value.num, value.den
        text = self.get(key)
        if text is None:
            text = self[key] = _quote(str(value))
        return text


def _field_doc(field: Field) -> str:
    fields = [("kind", _quote(field.kind))]
    if field.kind == "cyclotomic":
        fields.append(("order", str(field.order)))
    return _json_object(fields, 1)


def _sparse_entries(texts: _Texts, matrix: Matrix, from_rc) -> str:
    """Entries [indices…, scalar] sorted by their indices."""
    entries = sorted(((from_rc(r, c), v) for r in range(matrix.rows)
                      for c, v in matrix.row_terms(r)), key=lambda e: e[0])
    return _json_list([_json_list([*map(str, idx), texts(v)], 2) for idx, v in entries], 1)


def _json_row(texts: _Texts, values) -> str:
    return _json_list(list(map(texts, values)), 1)


def _json_rows(texts: _Texts, matrix: Matrix) -> str:
    return _json_list([_json_list(list(map(texts, matrix.row_list(i))), 2)
                       for i in range(matrix.rows)], 1)


def dump_dqb(H: DualQuasiBialgebra) -> str:
    """Canonical serialization; inserts omega_inv when it was computed."""
    n = H.dim
    texts = _Texts()
    return _json_object([
        ("version", str(FORMAT_VERSION)),
        ("field", _field_doc(H.field)),
        ("dim", str(n)),
        ("delta", _sparse_entries(texts, H.delta, lambda r, c: (c, r // n, r % n))),
        ("counit", _json_row(texts, H.counit.entries)),
        ("mul", _sparse_entries(texts, H.mul, lambda r, c: (c // n, c % n, r))),
        ("unit", _json_row(texts, H.unit.entries)),
        ("omega", _sparse_entries(
            texts, H.omega, lambda r, c: ((c // n) // n, (c // n) % n, c % n))),
        ("omega_inv", _sparse_entries(
            texts, H.omega_inv, lambda r, c: ((c // n) // n, (c // n) % n, c % n))),
    ]) + "\n"


def dump_bicomodule(M: HopfBicomodule) -> str:
    d = M.dim
    n = M.hopf_dim
    texts = _Texts()
    return _json_object([
        ("version", str(FORMAT_VERSION)),
        ("dim", str(d)),
        ("rho_l", _sparse_entries(texts, M.rho_l, lambda r, c: (c, r // d, r % d))),
        ("rho_r", _sparse_entries(texts, M.rho_r, lambda r, c: (c, r // n, r % n))),
        ("act", _sparse_entries(texts, M.act, lambda r, c: (c // n, c % n, r))),
    ]) + "\n"


def dump_antipode(data: AntipodeData) -> str:
    texts = _Texts()
    return _json_object([
        ("version", str(FORMAT_VERSION)),
        ("dim", str(data.s.rows)),
        ("s", _json_rows(texts, data.s)),
        ("alpha", _json_row(texts, data.alpha.entries)),
        ("beta", _json_row(texts, data.beta.entries)),
    ]) + "\n"


def dump_preantipode(S: Matrix) -> str:
    return _json_object([
        ("version", str(FORMAT_VERSION)),
        ("dim", str(S.rows)),
        ("matrix", _json_rows(_Texts(), S)),
    ]) + "\n"
