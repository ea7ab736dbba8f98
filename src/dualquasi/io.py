"""Document formats (UTF-8 JSON) and their readers.

Algebra documents carry ``version``, ``field`` ({"kind":"rationals"} or
{"kind":"cyclotomic","order":n}), ``dim`` and sparse/dense sections:

* ``delta``:  4-arrays [i, j, k, "c"] meaning Δ(e_i) += c·e_j⊗e_k,
* ``mul``:    4-arrays [i, j, k, "c"] meaning e_i·e_j += c·e_k,
* ``omega``:  4-arrays [i, j, k, "c"] meaning ω(e_i⊗e_j⊗e_k) = c,
* ``counit``, ``unit``: dense arrays of n scalar strings,
* ``omega_inv`` (optional): same layout as omega.

Module documents carry ``dim`` and sparse sections ``rho_l`` [i, a, j, "c"]
(ρ(e_i) += c·e_a⊗e_j), ``rho_r`` [i, j, a, "c"] (ρ(e_i) += c·e_j⊗e_a) and
``act`` [i, a, j, "c"] (e_i·e_a += c·e_j).  Antipode documents hold dense
matrices/functionals (``s``, ``alpha``, ``beta``), preantipode documents a
dense ``matrix``.

Every section uses the column-as-image convention: matrix[row][col] is the
coefficient of e_row in the image of e_col.  A sparse entry lists the
indices of its inputs (the column), then those of its outputs (the row), so
its indices are the digits of col·rows + row, and lexicographic order of
entries is the matrix's column-major order.  Unspecified sparse entries are
zero.  Canonical serialization (in ``writers``) writes entries in that order
and prints scalars canonically, so parse → serialize → parse is bit-exact.
Parsing never coerces: every malformed scalar or out-of-range index aborts
with its location.
"""

from __future__ import annotations

import json
from math import prod
from typing import TYPE_CHECKING

from .dqb import AntipodeData, DualQuasiBialgebra
from .errors import DocumentError, InvariantViolation, ScalarParseError
from .fields import Field
from .linalg import Matrix
from .scalars import Scalar

if TYPE_CHECKING:
    from .comodules import HopfBicomodule

FORMAT_VERSION = 1
# Field set-up builds tables quadratic in the degree φ(order), so a document
# may not declare a larger order than this.
MAX_FIELD_ORDER = 1024


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


def _index_error(value, dim: int, location: str) -> DocumentError:
    """The error for an index that failed the fast check in ``_Reader.sparse``."""
    if not isinstance(value, int) or isinstance(value, bool):
        return DocumentError("index must be an integer", location)
    return DocumentError(f"index out of range: {value} not in [0, {dim})", location)


class _Reader:
    """One document, read one section per call.

    The constructor parses the JSON, checks the version and, unless a field
    is given, reads the ``field`` key.  Each distinct scalar string is parsed
    once; a failure is not remembered, so a malformed string raises at its
    first occurrence."""

    def __init__(self, text: str, location: str, field: Field | None = None):
        try:
            self.doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"syntax error: {exc.msg}",
                                f"line {exc.lineno} column {exc.colno}") from None
        except RecursionError:
            raise DocumentError("nesting too deep to read", location) from None
        except ValueError:  # an integer longer than the interpreter converts
            raise DocumentError("a number has too many digits to read", location) from None
        self.location = location
        version = self.get("version", int)
        if version != FORMAT_VERSION:
            raise DocumentError(f"unsupported version {version}", f"{location}.version")
        self.field = _field_from_doc(self.doc, location) if field is None else field
        self._parsed: dict[str, Scalar] = {}

    def get(self, key: str, kind=list):
        return _require(self.doc, key, kind, self.location)

    def dim(self, expected: int | None = None) -> int:
        """``dim``, which must be positive, or equal ``expected`` if given."""
        n = self.get("dim", int)
        if expected is None and n < 1:
            raise DocumentError(f"dim must be positive, got {n}", f"{self.location}.dim")
        if expected is not None and n != expected:
            raise DocumentError(f"dim {n} disagrees with the algebra dimension {expected}",
                                f"{self.location}.dim")
        return n

    def scalar(self, text, location: str, pos: int) -> Scalar:
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

    def _row(self, values, length: int, location: str) -> list[Scalar]:
        if not isinstance(values, list) or len(values) != length:
            raise DocumentError(f"expected a list of {length} scalars", location)
        return [self.scalar(v, location, i) for i, v in enumerate(values)]

    def vector(self, key: str, n: int) -> list[Scalar]:
        """A dense list of n scalars."""
        return self._row(self.get(key), n, f"{self.location}.{key}")

    def square(self, key: str, n: int) -> Matrix:
        """A dense n×n matrix, as a list of rows."""
        rows = self.get(key)
        location = f"{self.location}.{key}"
        if len(rows) != n:
            raise DocumentError(f"expected {n} rows", location)
        flat: list[Scalar] = []
        for i, row in enumerate(rows):
            flat.extend(self._row(row, n, f"{location}[{i}]"))
        return Matrix(self.field, n, n, flat)

    def sparse(self, key: str, dims: tuple[int, ...], rows: int,
               unique: bool = False) -> Matrix:
        """A sparse section as a matrix with ``rows`` rows: the indices of an
        entry, with ranges ``dims``, are the digits of col·rows + row.  Values
        at repeated indices add up, unless ``unique`` forbids repeats."""
        entries = self.get(key)
        location = f"{self.location}.{key}"
        width = len(dims) + 1
        scalar = self.scalar
        seen: set[int] = set()
        terms = []
        # an entry's location is built only when the entry fails a check
        for pos, entry in enumerate(entries):
            if not isinstance(entry, list) or len(entry) != width:
                raise DocumentError(
                    f"expected [{len(dims)} indices, scalar]", f"{location}[{pos}]")
            flat = 0
            for v, d in zip(entry, dims):
                if type(v) is not int or not 0 <= v < d:
                    raise _index_error(v, d, f"{location}[{pos}]")
                flat = flat * d + v
            if unique:
                if flat in seen:
                    raise DocumentError(f"duplicate entry for indices {entry[:-1]}",
                                        f"{location}[{pos}]")
                seen.add(flat)
            col, row = divmod(flat, rows)
            terms.append((row, col, scalar(entry[-1], location, pos)))
        return Matrix.from_terms(self.field, rows, prod(dims) // rows, terms)


# -- the four document kinds ---------------------------------------------------------


def load_dqb(text: str) -> DualQuasiBialgebra:
    """Parse a dual quasi-bialgebra document; validation is a separate step."""
    read = _Reader(text, "dqb")
    n = read.dim()
    cube = (n, n, n)
    delta = read.sparse("delta", cube, n * n)
    mul = read.sparse("mul", cube, n)
    omega = read.sparse("omega", cube, 1, unique=True)
    counit = Matrix.row_vector(read.field, read.vector("counit", n))
    unit = Matrix.column_vector(read.field, read.vector("unit", n))
    omega_inv = None
    if "omega_inv" in read.doc:
        omega_inv = read.sparse("omega_inv", cube, 1, unique=True)
    try:
        return DualQuasiBialgebra(read.field, n, delta, counit, mul, unit, omega, omega_inv)
    except InvariantViolation as exc:  # ω has no inverse to fill in omega_inv
        raise DocumentError(str(exc), "dqb.omega") from None


def load_bicomodule(text: str, H: DualQuasiBialgebra) -> HopfBicomodule:
    """Parse a Hopf-bicomodule document over the given algebra."""
    from .comodules import HopfBicomodule

    read = _Reader(text, "module", H.field)
    d = read.dim()
    n = H.dim
    rho_l = read.sparse("rho_l", (d, n, d), n * d)
    rho_r = read.sparse("rho_r", (d, d, n), d * n)
    act = read.sparse("act", (d, n, d), d)
    return HopfBicomodule(d, rho_l, rho_r, act)


def load_antipode(text: str, H: DualQuasiBialgebra) -> AntipodeData:
    read = _Reader(text, "antipode", H.field)
    n = read.dim(H.dim)
    s = read.square("s", n)
    alpha = Matrix.row_vector(H.field, read.vector("alpha", n))
    beta = Matrix.row_vector(H.field, read.vector("beta", n))
    return AntipodeData(s, alpha, beta)


def load_preantipode(text: str, H: DualQuasiBialgebra) -> Matrix:
    read = _Reader(text, "preantipode", H.field)
    return read.square("matrix", read.dim(H.dim))
