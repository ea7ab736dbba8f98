"""Dense exact matrices over a Field, with deterministic Gaussian elimination.

Entries are stored row-major.  Multiplication and Kronecker products skip
zero entries, which keeps the very sparse structure-constant matrices cheap
without a separate sparse type.  Pivoting always takes the first nonzero
entry, so solution sets and kernel bases are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch
from .scalars import Field, Scalar


class Matrix:
    """Immutable dense matrix of exact scalars."""

    __slots__ = ("field", "rows", "cols", "entries", "_row_terms")

    def __init__(self, field: Field, rows: int, cols: int, entries: Sequence[Scalar]):
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"negative shape {rows}x{cols}")
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)
        self._row_terms = None

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, [field.zero] * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        entries = [field.zero] * (n * n)
        for i in range(n):
            entries[i * n + i] = field.one
        return cls(field, n, n, entries)

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Scalar] = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            flat.extend(r)
        return cls(field, nrows, ncols, flat)

    @classmethod
    def from_terms(cls, field: Field, rows: int, cols: int,
                   terms: Iterable[tuple[int, int, Scalar]]) -> "Matrix":
        entries = [field.zero] * (rows * cols)
        for i, j, v in terms:
            entries[i * cols + j] = entries[i * cols + j] + v
        return cls(field, rows, cols, entries)

    @classmethod
    def row_vector(cls, field: Field, values: Sequence[Scalar]) -> "Matrix":
        return cls(field, 1, len(values), list(values))

    @classmethod
    def column_vector(cls, field: Field, values: Sequence[Scalar]) -> "Matrix":
        return cls(field, len(values), 1, list(values))

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list[Scalar]:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def column_list(self, j: int) -> list[Scalar]:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def column_terms(self, j: int) -> list[tuple[int, Scalar]]:
        out = []
        for i in range(self.rows):
            v = self.entries[i * self.cols + j]
            if v:
                out.append((i, v))
        return out

    def _get_row_terms(self) -> list[list[tuple[int, Scalar]]]:
        if self._row_terms is None:
            terms = []
            for i in range(self.rows):
                base = i * self.cols
                terms.append([(j, self.entries[base + j])
                              for j in range(self.cols) if self.entries[base + j]])
            self._row_terms = terms
        return self._row_terms

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        zero = self.field.zero
        out = [zero] * (self.rows * other.cols)
        oterms = other._get_row_terms()
        for i in range(self.rows):
            base = i * self.cols
            obase = i * other.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if not a:
                    continue
                for j, b in oterms[k]:
                    out[obase + j] = out[obase + j] + a * b
        return Matrix(self.field, self.rows, other.cols, out)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker (tensor) product, leftmost factor most significant."""
        R, C = self.rows * other.rows, self.cols * other.cols
        zero = self.field.zero
        out = [zero] * (R * C)
        oterms = other._get_row_terms()
        for i1 in range(self.rows):
            for j1 in range(self.cols):
                a = self.entries[i1 * self.cols + j1]
                if not a:
                    continue
                for i2 in range(other.rows):
                    rbase = (i1 * other.rows + i2) * C + j1 * other.cols
                    for j2, b in oterms[i2]:
                        out[rbase + j2] = a * b
        return Matrix(self.field, R, C, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return Matrix(self.field, self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in subtraction")
        return Matrix(self.field, self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other) -> "Matrix":
        if isinstance(other, Matrix):
            raise TypeError("use @ for matrix composition, * for scalars")
        if isinstance(other, (int, Fraction)):
            other = self.field.from_fraction(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Matrix(self.field, self.rows, self.cols,
                      [a * other for a in self.entries])

    __rmul__ = __mul__

    def transpose(self) -> "Matrix":
        out = [self.field.zero] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self.entries[i * self.cols + j]
        return Matrix(self.field, self.cols, self.rows, out)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<Matrix {self.rows}x{self.cols} over {self.field!r}>"

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(self[i, j]) for j in range(self.cols)) + "]"
                         for i in range(self.rows))


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


@dataclass(frozen=True)
class AffineSolution:
    """The full solution set of a linear system: particular + kernel basis."""

    particular: tuple[Scalar, ...]
    kernel: tuple[tuple[Scalar, ...], ...]


def _rref(rows_data: list[list[Scalar]], width: int, field: Field) -> list[int]:
    """In-place reduced row echelon form; returns pivot column indices.

    First-nonzero pivoting, full (Gauss-Jordan) reduction, pivots scaled to 1.
    """
    pivots: list[int] = []
    r = 0
    nrows = len(rows_data)
    one = field.one
    for c in range(width):
        pr = None
        for i in range(r, nrows):
            if rows_data[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows_data[r], rows_data[pr] = rows_data[pr], rows_data[r]
        prow = rows_data[r]
        if prow[c] != one:
            inv = prow[c].inverse()
            for j in range(c, width):
                if prow[j]:
                    prow[j] = prow[j] * inv
        for i in range(nrows):
            if i == r:
                continue
            f = rows_data[i][c]
            if f:
                row_i = rows_data[i]
                for j in range(c, width):
                    pv = prow[j]
                    if pv:
                        row_i[j] = row_i[j] - f * pv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def solve_affine(A: Matrix, b) -> AffineSolution | None:
    """Full solution set of A x = b, or None when the system is inconsistent.

    Free variables are zero in the particular solution; each kernel basis
    vector carries 1 in one free coordinate (textbook back-substitution).
    """
    if isinstance(b, Matrix):
        if b.cols != 1:
            raise DimensionMismatch("right-hand side must be a column")
        b = b.column_list(0)
    else:
        b = list(b)
    if len(b) != A.rows:
        raise DimensionMismatch(f"system has {A.rows} rows but rhs has {len(b)}")
    field = A.field
    width = A.cols + 1
    rows_data = [A.row_list(i) + [b[i]] for i in range(A.rows)]
    pivots = _rref(rows_data, width, field)
    if pivots and pivots[-1] == A.cols:
        return None
    pivot_set = set(pivots)
    zero, one = field.zero, field.one
    particular = [zero] * A.cols
    for r_i, c in enumerate(pivots):
        particular[c] = rows_data[r_i][A.cols]
    kernel: list[tuple[Scalar, ...]] = []
    for f in range(A.cols):
        if f in pivot_set:
            continue
        v = [zero] * A.cols
        v[f] = one
        for r_i, c in enumerate(pivots):
            if rows_data[r_i][f]:
                v[c] = -rows_data[r_i][f]
        kernel.append(tuple(v))
    return AffineSolution(tuple(particular), tuple(kernel))


def kernel(A: Matrix) -> list[tuple[Scalar, ...]]:
    """Basis of the null space of A (deterministic)."""
    sol = solve_affine(A, [A.field.zero] * A.rows)
    assert sol is not None
    return list(sol.kernel)


def rank(A: Matrix) -> int:
    rows_data = [A.row_list(i) for i in range(A.rows)]
    return len(_rref(rows_data, A.cols, A.field))


def inverse(A: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    if A.rows != A.cols:
        raise ValueError("only square matrices can be inverted")
    n = A.rows
    field = A.field
    rows_data = []
    for i in range(n):
        row = A.row_list(i) + [field.zero] * n
        row[n + i] = field.one
        rows_data.append(row)
    pivots = _rref(rows_data, 2 * n, field)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix.from_rows(field, [rows_data[i][n:] for i in range(n)])
