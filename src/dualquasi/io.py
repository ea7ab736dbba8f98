"""Document formats (UTF-8 JSON) and their readers.

Algebra documents carry ``version``, ``field`` ({"kind":"rationals"} or
{"kind":"cyclotomic","order":n}), ``dim`` and sparse/dense sections:

* ``delta``:  4-arrays [i, j, k, "c"] meaning Δ(e_i) += c·e_j⊗e_k,
* ``mul``:    4-arrays [i, j, k, "c"] meaning e_i·e_j += c·e_k,
* ``omega``:  4-arrays [i, j, k, "c"] meaning ω(e_i⊗e_j⊗e_k) = c,
* ``counit``, ``unit``: dense arrays of n scalar strings,
* ``omega_inv`` (optional): same layout as omega.

Module documents carry ``dim`` and sparse sections with input indices first
and the output index last: ``rho_l`` [i, a, j, "c"] (ρ(e_i) += c·e_a⊗e_j),
``rho_r`` [i, j, a, "c"] (ρ(e_i) += c·e_j⊗e_a), ``act`` [i, a, j, "c"]
(e_i·e_a += c·e_j).  Antipode documents hold dense matrices/functionals
(``s``, ``alpha``, ``beta``), preantipode documents a dense ``matrix``; both
use the column-as-image convention matrix[row][col] = coefficient of e_row
in the image of e_col.

Unspecified sparse entries are zero.  Canonical serialization (in
``writers``) sorts sparse entries lexicographically by indices and prints
scalars canonically, so parse → serialize → parse is bit-exact.  Parsing
never coerces: every malformed scalar or out-of-range index aborts with its
location.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .dqb import AntipodeData, DualQuasiBialgebra
from .errors import DocumentError, ScalarParseError
from .fields import Field
from .linalg import Matrix
from .scalars import Scalar

if TYPE_CHECKING:
    from .comodules import HopfBicomodule

FORMAT_VERSION = 1
# Field set-up builds tables quadratic in the degree φ(order), so a document
# may not declare a larger order than this.
MAX_FIELD_ORDER = 1024


# -- primitive readers -----------------------------------------------------------


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"syntax error: {exc.msg}",
                            f"line {exc.lineno} column {exc.colno}") from None


def _require(doc: dict, key: str, kind, location: str):
    if not isinstance(doc, dict):
        raise DocumentError("expected a JSON object", location)
    if key not in doc:
        raise DocumentError(f"missing key {key!r}", location)
    value = doc[key]
    # bool is a subclass of int, but true/false are not counts or versions
    if kind is not None and (not isinstance(value, kind)
                             or kind is int and isinstance(value, bool)):
        raise DocumentError(f"key {key!r} has the wrong type", f"{location}.{key}")
    return value


def _check_version(doc: dict, location: str) -> None:
    version = _require(doc, "version", int, location)
    if version != FORMAT_VERSION:
        raise DocumentError(f"unsupported version {version}", f"{location}.version")


def _field_from_doc(doc: dict, location: str) -> Field:
    fdoc = _require(doc, "field", dict, location)
    kind = _require(fdoc, "kind", str, f"{location}.field")
    if kind == "rationals":
        return Field.rationals()
    if kind == "cyclotomic":
        order = _require(fdoc, "order", int, f"{location}.field")
        if order < 1:
            raise DocumentError(f"order must be positive, got {order}",
                                f"{location}.field.order")
        if order > MAX_FIELD_ORDER:
            raise DocumentError(f"order must be at most {MAX_FIELD_ORDER}, got {order}",
                                f"{location}.field.order")
        return Field.cyclotomic(order)
    raise DocumentError(f"unknown field kind {kind!r}", f"{location}.field.kind")


class _ScalarReader:
    """Parses the scalar strings of one document, each distinct string once.

    A failure is not remembered, so a malformed string raises at its first
    occurrence, with that location, ``location[pos]``."""

    def __init__(self, field: Field):
        self.field = field
        self._parsed: dict[str, Scalar] = {}

    def __call__(self, text, location: str, pos: int) -> Scalar:
        value = self._parsed.get(text) if type(text) is str else None
        if value is None:
            where = f"{location}[{pos}]"
            if not isinstance(text, str):
                raise DocumentError("scalar must be a string", where)
            try:
                value = self.field.parse(text)
            except ScalarParseError as exc:
                raise DocumentError(f"malformed scalar {text!r}: {exc}", where) from None
            self._parsed[text] = value
        return value


def _index_error(value, dim: int, location: str) -> DocumentError:
    """The error for an index that failed the fast check in ``_sparse_matrix``."""
    if not isinstance(value, int) or isinstance(value, bool):
        return DocumentError("index must be an integer", location)
    return DocumentError(f"index out of range: {value} not in [0, {dim})", location)


def _dense_row(read: _ScalarReader, values, length: int, location: str) -> list[Scalar]:
    if not isinstance(values, list) or len(values) != length:
        raise DocumentError(f"expected a list of {length} scalars", location)
    return [read(v, location, i) for i, v in enumerate(values)]


def _sparse_matrix(read: _ScalarReader, entries, dims: tuple[int, ...], to_rc,
                   rows: int, cols: int, location: str,
                   allow_duplicates: bool) -> Matrix:
    terms = []
    seen: set[tuple[int, ...]] = set()
    width = len(dims) + 1
    # an entry's location is built only when the entry fails a check
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != width:
            raise DocumentError(
                f"expected [{len(dims)} indices, scalar]", f"{location}[{pos}]")
        idx = tuple(entry[:-1])
        for v, d in zip(idx, dims):
            if type(v) is not int or not 0 <= v < d:
                raise _index_error(v, d, f"{location}[{pos}]")
        if not allow_duplicates:
            if idx in seen:
                raise DocumentError(f"duplicate entry for indices {list(idx)}",
                                    f"{location}[{pos}]")
            seen.add(idx)
        r, c = to_rc(idx)
        terms.append((r, c, read(entry[-1], location, pos)))
    return Matrix.from_terms(read.field, rows, cols, terms)


# -- dual quasi-bialgebra documents ------------------------------------------------


def load_dqb(text: str) -> DualQuasiBialgebra:
    """Parse a dual quasi-bialgebra document; validation is a separate step."""
    doc = _parse_json(text)
    loc = "dqb"
    _check_version(doc, loc)
    field = _field_from_doc(doc, loc)
    n = _require(doc, "dim", int, loc)
    if n < 1:
        raise DocumentError(f"dim must be positive, got {n}", f"{loc}.dim")
    read = _ScalarReader(field)
    delta = _sparse_matrix(
        read, _require(doc, "delta", list, loc), (n, n, n),
        lambda idx: (idx[1] * n + idx[2], idx[0]), n * n, n, f"{loc}.delta", True)
    mul = _sparse_matrix(
        read, _require(doc, "mul", list, loc), (n, n, n),
        lambda idx: (idx[2], idx[0] * n + idx[1]), n, n * n, f"{loc}.mul", True)
    omega = _sparse_matrix(
        read, _require(doc, "omega", list, loc), (n, n, n),
        lambda idx: (0, (idx[0] * n + idx[1]) * n + idx[2]),
        1, n ** 3, f"{loc}.omega", False)
    counit = Matrix.row_vector(
        field, _dense_row(read, _require(doc, "counit", list, loc), n, f"{loc}.counit"))
    unit = Matrix.column_vector(
        field, _dense_row(read, _require(doc, "unit", list, loc), n, f"{loc}.unit"))
    omega_inv = None
    if "omega_inv" in doc:
        omega_inv = _sparse_matrix(
            read, _require(doc, "omega_inv", list, loc), (n, n, n),
            lambda idx: (0, (idx[0] * n + idx[1]) * n + idx[2]),
            1, n ** 3, f"{loc}.omega_inv", False)
    return DualQuasiBialgebra(field, n, delta, counit, mul, unit, omega, omega_inv)

# -- module documents ---------------------------------------------------------------


def load_bicomodule(text: str, H: DualQuasiBialgebra) -> HopfBicomodule:
    """Parse a Hopf-bicomodule document over the given algebra."""
    from .comodules import HopfBicomodule

    doc = _parse_json(text)
    loc = "module"
    _check_version(doc, loc)
    d = _require(doc, "dim", int, loc)
    if d < 1:
        raise DocumentError(f"dim must be positive, got {d}", f"{loc}.dim")
    n = H.dim
    read = _ScalarReader(H.field)
    rho_l = _sparse_matrix(
        read, _require(doc, "rho_l", list, loc), (d, n, d),
        lambda idx: (idx[1] * d + idx[2], idx[0]), n * d, d, f"{loc}.rho_l", True)
    rho_r = _sparse_matrix(
        read, _require(doc, "rho_r", list, loc), (d, d, n),
        lambda idx: (idx[1] * n + idx[2], idx[0]), d * n, d, f"{loc}.rho_r", True)
    act = _sparse_matrix(
        read, _require(doc, "act", list, loc), (d, n, d),
        lambda idx: (idx[2], idx[0] * n + idx[1]), d, d * n, f"{loc}.act", True)
    return HopfBicomodule(d, rho_l, rho_r, act)


# -- antipode and preantipode documents ------------------------------------------------


def _dense_matrix(read: _ScalarReader, rows, n: int, location: str) -> Matrix:
    if len(rows) != n:
        raise DocumentError(f"expected {n} rows", location)
    flat: list[Scalar] = []
    for i, row in enumerate(rows):
        flat.extend(_dense_row(read, row, n, f"{location}[{i}]"))
    return Matrix(read.field, n, n, flat)


def load_antipode(text: str, H: DualQuasiBialgebra) -> AntipodeData:

    doc = _parse_json(text)
    loc = "antipode"
    _check_version(doc, loc)
    n = _require(doc, "dim", int, loc)
    if n != H.dim:
        raise DocumentError(f"dim {n} disagrees with the algebra dimension {H.dim}",
                            f"{loc}.dim")
    field = H.field
    read = _ScalarReader(field)
    s = _dense_matrix(read, _require(doc, "s", list, loc), n, f"{loc}.s")
    alpha = Matrix.row_vector(
        field, _dense_row(read, _require(doc, "alpha", list, loc), n, f"{loc}.alpha"))
    beta = Matrix.row_vector(
        field, _dense_row(read, _require(doc, "beta", list, loc), n, f"{loc}.beta"))
    return AntipodeData(s, alpha, beta)

def load_preantipode(text: str, H: DualQuasiBialgebra) -> Matrix:
    doc = _parse_json(text)
    loc = "preantipode"
    _check_version(doc, loc)
    n = _require(doc, "dim", int, loc)
    if n != H.dim:
        raise DocumentError(f"dim {n} disagrees with the algebra dimension {H.dim}",
                            f"{loc}.dim")
    return _dense_matrix(_ScalarReader(H.field), _require(doc, "matrix", list, loc), n,
                         f"{loc}.matrix")
