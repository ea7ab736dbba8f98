"""Exact matrices over a Field, stored as sparse rows.

Each row keeps only its nonzero entries, so products, Kronecker products,
sums, equality and zero tests on the very sparse structure-constant matrices
do no work on zero entries; the dense row-major ``entries`` view and the
column view are built on first use.  Elimination on the same rows is in
``elimination``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from numbers import Rational
from operator import add, sub
from typing import Iterable, Sequence

from .errors import DimensionMismatch
from .fields import Field
from .scalars import Scalar


class Matrix:
    """Immutable matrix of exact scalars, stored as sparse rows.

    Row i is a tuple of (column, value) terms in increasing column order,
    holding exactly the nonzero entries.  Every scalar is canonical, so two
    matrices are equal exactly when their shapes and row terms are.
    """

    def __init__(self, field: Field, rows: int, cols: int, entries: Sequence[Scalar]):
        _check_shape(rows, cols)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self._set(field, rows, cols, tuple(
            _nonzero_terms(entries[i * cols:(i + 1) * cols]) for i in range(rows)))

    def _set(self, field: Field, rows: int, cols: int, row_terms) -> None:
        self.field = field
        self.rows = rows
        self.cols = cols
        self._rows = row_terms

    @classmethod
    def _of_rows(cls, field: Field, rows: int, cols: int, row_terms) -> "Matrix":
        """A matrix from its sparse rows, taken as they are."""
        m = object.__new__(cls)
        m._set(field, rows, cols, tuple(row_terms))
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        _check_shape(rows, cols)
        return cls._of_rows(field, rows, cols, ((),) * rows)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        _check_shape(n, n)
        one = field.one
        return cls._of_rows(field, n, n, (((i, one),) for i in range(n)))

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        return cls._of_rows(field, nrows, ncols, map(_nonzero_terms, rows))

    @classmethod
    def from_terms(cls, field: Field, rows: int, cols: int,
                   terms: Iterable[tuple[int, int, Scalar]]) -> "Matrix":
        """The matrix whose entry (i, j) is the sum of the values given at (i, j),
        each a scalar of ``field``."""
        _check_shape(rows, cols)
        acc: list[dict[int, Scalar]] = [{} for _ in range(rows)]
        for i, j, v in terms:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"({i}, {j}) out of range for {rows}x{cols}")
            row = acc[i]
            # a position's first term is stored as it is
            row[j] = row[j] + v if j in row else v
        return cls._of_rows(field, rows, cols, map(_sorted_terms, acc))

    @classmethod
    def row_vector(cls, field: Field, values: Sequence[Scalar]) -> "Matrix":
        return cls._of_rows(field, 1, len(values), (_nonzero_terms(values),))

    @classmethod
    def column_vector(cls, field: Field, values: Sequence[Scalar]) -> "Matrix":
        return cls._of_rows(field, len(values), 1, (((0, v),) if v else () for v in values))

    @cached_property
    def entries(self) -> tuple[Scalar, ...]:
        """All entries, row-major; built on first use."""
        cols = self.cols
        out = [self.field.zero] * (self.rows * cols)
        for i, row in enumerate(self._rows):
            base = i * cols
            for j, v in row:
                out[base + j] = v
        return tuple(out)

    @cached_property
    def _columns(self) -> tuple[tuple[tuple[int, Scalar], ...], ...]:
        """The nonzero terms (i, value) of each column, by increasing i."""
        columns: list[list[tuple[int, Scalar]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self._rows):
            for c, v in row:
                columns[c].append((i, v))
        return tuple(map(tuple, columns))

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row_terms(self, i: int) -> tuple[tuple[int, Scalar], ...]:
        """The nonzero entries (j, value) of row i, by increasing j."""
        return self._rows[i]

    def column_terms(self, j: int) -> tuple[tuple[int, Scalar], ...]:
        """The nonzero entries (i, value) of column j, by increasing i."""
        return self._columns[j]

    def row_list(self, i: int) -> list[Scalar]:
        out = [self.field.zero] * self.cols
        for j, v in self._rows[i]:
            out[j] = v
        return out

    def column_list(self, j: int) -> list[Scalar]:
        out = [self.field.zero] * self.rows
        for i, v in self.column_terms(j):
            out[i] = v
        return out

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        zero = self.field.zero
        orows = other._rows
        out = []
        for row in self._rows:
            acc: dict[int, Scalar] = {}
            for k, a in row:
                for j, b in orows[k]:
                    acc[j] = acc.get(j, zero) + a * b
            out.append(_sorted_terms(acc))
        return Matrix._of_rows(self.field, self.rows, other.cols, out)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker (tensor) product, leftmost factor most significant."""
        oc = other.cols
        # a product of nonzero scalars is nonzero, and the columns j1·oc + j2
        # come out in increasing order
        return Matrix._of_rows(
            self.field, self.rows * other.rows, self.cols * oc,
            (tuple((j1 * oc + j2, a * b) for j1, a in arow for j2, b in orow)
             for arow in self._rows for orow in other._rows))

    def _combine(self, other: "Matrix", op, name: str) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"shape mismatch in {name}")
        if other.field != self.field:
            raise ValueError(f"scalars from different fields: {self.field!r} vs {other.field!r}")
        zero = self.field.zero
        out = []
        for arow, brow in zip(self._rows, other._rows):
            if not brow:
                out.append(arow)
                continue
            acc = dict(arow)
            for j, b in brow:
                acc[j] = op(acc.get(j, zero), b)
            out.append(_sorted_terms(acc))
        return Matrix._of_rows(self.field, self.rows, self.cols, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, add, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, sub, "subtraction")

    def __neg__(self) -> "Matrix":
        return Matrix._of_rows(self.field, self.rows, self.cols,
                               (tuple((j, -v) for j, v in row) for row in self._rows))

    def __mul__(self, other) -> "Matrix":
        if isinstance(other, Matrix):
            raise TypeError("use @ for matrix composition, * for scalars")
        if isinstance(other, Rational):
            other = self.field.from_fraction(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Matrix._of_rows(self.field, self.rows, self.cols,
                               (tuple((j, p) for j, v in row if (p := v * other))
                                for row in self._rows))

    __rmul__ = __mul__

    def transpose(self) -> "Matrix":
        return Matrix._of_rows(self.field, self.cols, self.rows,
                               map(self.column_terms, range(self.cols)))

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self._rows == other._rows)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<Matrix {self.rows}x{self.cols} over {self.field!r}>"

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(map(str, self.row_list(i))) + "]"
                         for i in range(self.rows))


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise DimensionMismatch(f"negative shape {rows}x{cols}")


def _nonzero_terms(values: Iterable[Scalar]) -> tuple[tuple[int, Scalar], ...]:
    """The (index, value) pairs of the nonzero values, in order."""
    return tuple(compress(enumerate(values), values))


def _sorted_terms(acc: dict[int, Scalar]) -> tuple[tuple[int, Scalar], ...]:
    """The nonzero (index, value) pairs of an accumulator, by index."""
    return tuple((j, v) for j, v in sorted(acc.items()) if v)


def tensor_index(indices: Sequence[int], dim: int) -> int:
    """Flatten basis indices of a tensor power; leftmost factor most significant."""
    flat = 0
    for idx in indices:
        if not 0 <= idx < dim:
            raise IndexError(f"basis index {idx} out of range for dimension {dim}")
        flat = flat * dim + idx
    return flat


def tensor_unindex(flat: int, dim: int, length: int) -> tuple[int, ...]:
    """Inverse of tensor_index on [0, dim**length)."""
    if not 0 <= flat < dim ** length:
        raise IndexError(f"flat index {flat} out of range for {dim}**{length}")
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        flat, out[pos] = divmod(flat, dim)
    return tuple(out)
