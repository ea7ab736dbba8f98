"""Deterministic Gauss-Jordan elimination on sparse rows: exact solutions,
null spaces, ranks and inverses.

Elimination works on the sparse rows of ``linalg.Matrix``, pivoting on the
shortest row that uses a column.  The reduced row echelon form is unique, so
solutions and null-space bases are reproducible.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatch
from .linalg import Matrix, _nonzero_terms, _sorted_terms
from .scalars import Scalar
from .values import Value


class AffineSolution(Value):
    """A solution of a linear system with its free variables at zero, and the
    number of free variables: the dimension of the solution set."""

    __slots__ = ("particular", "kernel_dimension")

    def __init__(self, particular: tuple[Scalar, ...], kernel_dimension: int):
        self._set(particular, kernel_dimension)


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


def solve_affine(A: Matrix, b: Sequence[Scalar]) -> AffineSolution | None:
    """A solution of A x = b with every free variable zero, or None when the
    system is inconsistent."""
    if len(b) != A.rows:
        raise DimensionMismatch(f"system has {A.rows} rows but rhs has {len(b)}")
    cols = A.cols
    rows = list(map(dict, A._rows))
    for i, v in _nonzero_terms(b):
        rows[i][cols] = v
    pivots = _rref(rows)
    if pivots and pivots[-1][0] == cols:
        return None
    particular = [A.field.zero] * cols
    for c, row in pivots:
        if cols in row:
            particular[c] = row[cols]
    return AffineSolution(tuple(particular), cols - len(pivots))


def kernel(A: Matrix) -> list[tuple[Scalar, ...]]:
    """Basis of the null space of A: the columns of ``Subspace.null_space(A)``."""
    basis = Subspace.null_space(A).basis
    return [tuple(basis.column_list(k)) for k in range(basis.cols)]


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
    """The null space of a matrix, in the basis its reduced row echelon form
    gives: column k of ``basis`` is 1 at coordinate ``free[k]`` and 0 at the
    other free coordinates, and A x = 0 fixes its pivot coordinates."""

    __slots__ = ("ambient", "basis", "free")

    def __init__(self, ambient: int, basis: Matrix, free: tuple[int, ...]):
        # basis: ambient x rank, columns are the basis vectors
        self._set(ambient, basis, free)

    @classmethod
    def null_space(cls, A: Matrix) -> "Subspace":
        """The null space of A, from one elimination of its rows."""
        pivots = _rref(list(map(dict, A._rows)))
        pivot_cols = {c for c, _ in pivots}
        free = tuple(f for f in range(A.cols) if f not in pivot_cols)
        column = {f: k for k, f in enumerate(free)}
        one = A.field.one
        terms = [(f, k, one) for k, f in enumerate(free)]
        terms.extend((c, column[j], -v) for c, row in pivots for j, v in row.items() if j != c)
        return cls(A.cols, Matrix.from_terms(A.field, A.cols, len(free), terms), free)

    @property
    def rank(self) -> int:
        return self.basis.cols

    def coordinates(self, vectors: Matrix) -> Matrix | None:
        """Coordinates of the columns of ``vectors`` in this basis, as the
        columns of a rank×k matrix, or None if one of them lies outside.

        A vector of the null space is the sum of the basis vectors weighted by
        its own free coordinates."""
        B = self.basis
        if vectors.rows != B.rows:
            raise DimensionMismatch(f"vectors have {vectors.rows} entries, ambient {B.rows}")
        coords = Matrix._of_rows(B.field, B.cols, vectors.cols, map(vectors.row_terms, self.free))
        # the vectors lie in the subspace when the basis maps coords back onto them
        return coords if B @ coords == vectors else None
