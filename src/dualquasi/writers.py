"""Canonical serialization of the four document kinds (see ``io`` for the
formats): each document is json.dumps(doc, indent=2) of a dict, with sparse
sections as [indices…, scalar] arrays in column-major order, which is the
lexicographic order of their indices.
"""

from __future__ import annotations

import io
import json
from typing import TYPE_CHECKING

from .dqb import AntipodeData, DualQuasiBialgebra
from .io import FORMAT_VERSION
from .linalg import Matrix
from .scalars import Scalar

if TYPE_CHECKING:
    from .comodules import HopfBicomodule


class _Texts(dict):
    """Each distinct scalar's string, rendered once per document.

    A document's scalars share one field, so (num, den) names each of them,
    and looking it up hashes a tuple in C instead of calling the Python
    ``Scalar.__hash__``."""

    def __call__(self, value: Scalar) -> str:
        key = value.num, value.den
        text = self.get(key)
        if text is None:
            text = self[key] = str(value)
        return text

    def rows(self, matrix: Matrix) -> list[list[str]]:
        return [list(map(self, matrix.row_list(i))) for i in range(matrix.rows)]

    def sparse(self, matrix: Matrix, dims: tuple[int, int, int]) -> list[tuple]:
        """Entries (i, j, k, scalar), where i, j, k are the digits of
        col·rows + row in the ranges ``dims``, sorted by their indices;
        json.dumps writes each tuple as an array."""
        rows, (_, d1, d2) = matrix.rows, dims
        d12 = d1 * d2
        return sorted(((f := c * rows + r) // d12, f // d2 % d1, f % d2, self(v))
                      for r in range(rows) for c, v in matrix.row_terms(r))


def _document(**sections) -> str:
    # json.dump hands each chunk of the encoder to the buffer as it comes;
    # json.dumps would hold a list of every chunk beside the joined string
    out = io.StringIO()
    json.dump({"version": FORMAT_VERSION, **sections}, out, indent=2)
    out.write("\n")
    return out.getvalue()


def dump_dqb(H: DualQuasiBialgebra) -> str:
    """Canonical serialization; inserts omega_inv when it was computed."""
    n = H.dim
    texts = _Texts()
    cube = (n, n, n)
    field = {"kind": H.field.kind}
    if H.field.kind == "cyclotomic":
        field["order"] = H.field.order
    return _document(
        field=field, dim=n,
        delta=texts.sparse(H.delta, cube),
        counit=list(map(texts, H.counit.entries)),
        mul=texts.sparse(H.mul, cube),
        unit=list(map(texts, H.unit.entries)),
        omega=texts.sparse(H.omega, cube),
        omega_inv=texts.sparse(H.omega_inv, cube))


def dump_bicomodule(M: HopfBicomodule) -> str:
    d = M.dim
    n = M.hopf_dim
    texts = _Texts()
    return _document(
        dim=d,
        rho_l=texts.sparse(M.rho_l, (d, n, d)),
        rho_r=texts.sparse(M.rho_r, (d, d, n)),
        act=texts.sparse(M.act, (d, n, d)))


def dump_antipode(data: AntipodeData) -> str:
    texts = _Texts()
    return _document(dim=data.s.rows, s=texts.rows(data.s),
                     alpha=list(map(texts, data.alpha.entries)),
                     beta=list(map(texts, data.beta.entries)))


def dump_preantipode(S: Matrix) -> str:
    return _document(dim=S.rows, matrix=_Texts().rows(S))
