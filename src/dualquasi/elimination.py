"""Deterministic Gauss-Jordan elimination on sparse rows: exact solution
sets, kernels, ranks, inverses and coordinates in a subspace.

Elimination works on the sparse rows of ``linalg.Matrix``, pivoting on the
shortest row that uses a column.  The reduced row echelon form is unique, so
solution sets and kernel bases are reproducible.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .errors import DimensionMismatch
from .linalg import Matrix, _nonzero_terms, _sorted_terms
from .scalars import Scalar
from .values import Value


class AffineSolution(Value):
    """The full solution set of a linear system: particular + kernel basis."""

    __slots__ = ("particular", "kernel")

    def __init__(self, particular: tuple[Scalar, ...],
                 kernel: tuple[tuple[Scalar, ...], ...]):
        self._set(particular, kernel)


def _rref(rows: list[dict[int, Scalar]]) -> list[tuple[int, dict[int, Scalar]]]:
    """In-place reduced row echelon form of rows mapping column → nonzero value.

    Columns go in increasing order.  A column's pivot is the shortest remaining
    row that uses it (the first of equals), scaled to 1 and cleared from every
    other row.  Returns the (column, pivot row) pairs in column order.
    """
    users: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            users.setdefault(j, set()).add(i)
    remaining = set(range(len(rows)))
    pivots = []
    for c in sorted(users):
        candidates = users[c] & remaining
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        remaining.remove(p)
        prow = rows[p]
        lead = prow[c]
        if lead != lead.field.one:
            inv = lead.inverse()
            for j, v in prow.items():
                prow[j] = v * inv
        for i in users[c] - {p}:
            row = rows[i]
            f = row[c]
            for j, v in prow.items():
                if j in row:
                    w = row[j] - f * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                        users[j].remove(i)
                else:
                    row[j] = -(f * v)
                    users[j].add(i)
        pivots.append((c, prow))
    return pivots


def solve_affine(A: Matrix, b) -> AffineSolution | None:
    """Full solution set of A x = b, or None when the system is inconsistent.

    Free variables are zero in the particular solution; each kernel basis
    vector carries 1 in one free coordinate (textbook back-substitution).
    """
    if isinstance(b, Matrix):
        if b.cols != 1:
            raise DimensionMismatch("right-hand side must be a column")
        size, rhs = b.rows, b.column_terms(0)
    else:
        b = list(b)
        size, rhs = len(b), _nonzero_terms(b)
    if size != A.rows:
        raise DimensionMismatch(f"system has {A.rows} rows but rhs has {size}")
    cols = A.cols
    rows = list(map(dict, A._rows))
    for i, v in rhs:
        rows[i][cols] = v
    pivots = _rref(rows)
    if pivots and pivots[-1][0] == cols:
        return None
    zero, one = A.field.zero, A.field.one
    particular = [zero] * cols
    pivot_cols = {c for c, _ in pivots}
    basis = {f: [zero] * cols for f in range(cols) if f not in pivot_cols}
    for f, v in basis.items():
        v[f] = one
    for c, row in pivots:
        for j, v in row.items():
            if j == cols:
                particular[c] = v
            elif j != c:
                basis[j][c] = -v
    return AffineSolution(tuple(particular), tuple(map(tuple, basis.values())))


def kernel(A: Matrix) -> list[tuple[Scalar, ...]]:
    """Basis of the null space of A (deterministic)."""
    sol = solve_affine(A, Matrix.zeros(A.field, A.rows, 1))
    assert sol is not None
    return list(sol.kernel)


def rank(A: Matrix) -> int:
    return len(_rref(list(map(dict, A._rows))))


def inverse(A: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    if A.rows != A.cols:
        raise ValueError("only square matrices can be inverted")
    n = A.rows
    # [A | I] reduces to [I | A⁻¹]
    rows = [dict(terms) | {n + i: A.field.one} for i, terms in enumerate(A._rows)]
    pivots = _rref(rows)
    if [c for c, _ in pivots] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix._of_rows(A.field, n, n, (_sorted_terms({j - n: v for j, v in row.items()
                                                          if j >= n}) for _, row in pivots))


class Subspace(Value):
    """A subspace of a coordinate space, spanned by the columns of ``basis``.

    The columns may be dependent.  ``rank`` is their number, the dimension
    only when they are independent (as the coinvariant kernel bases are), and
    ``coordinates`` reads the free coordinates of a dependent basis as zero."""

    # the __dict__ slot holds the cached elimination
    __slots__ = ("ambient", "basis", "__dict__")

    def __init__(self, ambient: int, basis: Matrix):
        # basis: ambient x rank, columns are the basis vectors
        self._set(ambient, basis)

    @property
    def rank(self) -> int:
        return self.basis.cols

    @cached_property
    def _elimination(self) -> list[tuple[int, tuple[tuple[int, Scalar], ...]]]:
        """Per pivot column j of the basis, the terms (i, c) with coordinate
        j = Σ c·vector[i]; computed once per subspace.

        Rows I of the basis span its row space, and the inverse of the block
        basis[I, J] on the pivot columns J maps vector[I] to coordinates J."""
        B = self.basis
        rows = [i for i, _ in _rref([dict(B.column_terms(j)) for j in range(B.cols)])]
        # [basis[I, :] | identity] reduces to [R | basis[I, J]⁻¹]
        block = [dict(B.row_terms(i)) | {B.cols + t: B.field.one} for t, i in enumerate(rows)]
        return [(j, tuple((rows[t - B.cols], v) for t, v in row.items() if t >= B.cols))
                for j, row in _rref(block)]

    def coordinates(self, vector: Sequence[Scalar]) -> tuple[Scalar, ...] | None:
        """Coordinates of a vector in this basis, or None if it lies outside.

        The free coordinates of a dependent basis are zero."""
        B = self.basis
        if len(vector) != B.rows:
            raise DimensionMismatch(f"vector has {len(vector)} entries, ambient {B.rows}")
        zero = B.field.zero
        coords = [zero] * B.cols
        for j, terms in self._elimination:
            acc = zero
            for i, e in terms:
                if vector[i]:
                    acc = acc + e * vector[i]
            coords[j] = acc
        # the vector lies in the subspace when the basis maps coords back onto it
        image = [zero] * B.rows
        for j, c in enumerate(coords):
            if c:
                for i, b in B.column_terms(j):
                    image[i] = image[i] + b * c
        if image != list(vector):
            return None
        return tuple(coords)
