import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualquasi import (DimensionMismatch, Field, Matrix, Scalar, inverse, kernel, rank,
                       solve_affine, tensor_index, tensor_unindex)

Q = Field.rationals()


def mat(rows):
    return Matrix.from_rows(Q, [[Q.from_fraction(v) for v in row] for row in rows])


def vec(values):
    return [Q.from_fraction(v) for v in values]


def as_fractions(scalars):
    return [s.coeffs[0] for s in scalars]


# -- tensor indices -------------------------------------------------------------


def test_tensor_index_examples():
    assert tensor_index([], 5) == 0
    assert tensor_index([1, 0], 2) == 2
    assert tensor_index([1, 2, 0], 3) == 15


def test_tensor_index_range_check():
    with pytest.raises(IndexError):
        tensor_index([2], 2)
    with pytest.raises(IndexError):
        tensor_index([0, -1], 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.data())
def test_tensor_index_bijection(n, k, data):
    idx = tuple(data.draw(st.integers(0, n - 1)) for _ in range(k))
    flat = tensor_index(idx, n)
    assert 0 <= flat < n ** k
    assert tensor_unindex(flat, n, k) == idx


def test_tensor_index_exhaustive_bijection():
    n, k = 3, 3
    flats = {tensor_index((a, b, c), n)
             for a in range(n) for b in range(n) for c in range(n)}
    assert flats == set(range(n ** k))


# -- solving ----------------------------------------------------------------------


def test_solve_identity():
    sol = solve_affine(Matrix.identity(Q, 2), vec([1, 0]))
    assert as_fractions(sol.particular) == [1, 0]
    assert sol.kernel_dimension == 0


def test_solve_inconsistent():
    assert solve_affine(mat([[0, 0]]), vec([1])) is None


def test_solve_underdetermined():
    sol = solve_affine(mat([[1, 1]]), vec([2]))
    assert as_fractions(sol.particular) == [2, 0]
    assert sol.kernel_dimension == 1
    assert [as_fractions(v) for v in kernel(mat([[1, 1]]))] == [[-1, 1]]


def test_kernel_examples():
    assert kernel(Matrix.identity(Q, 3)) == []
    assert len(kernel(Matrix.zeros(Q, 2, 2))) == 2
    basis = kernel(mat([[1, -1]]))
    assert [as_fractions(v) for v in basis] == [[1, 1]]


def test_inverse_examples():
    A = mat([[2, 1], [1, 1]])
    Ainv = inverse(A)
    assert A @ Ainv == Matrix.identity(Q, 2)
    assert Ainv @ A == Matrix.identity(Q, 2)
    with pytest.raises(ValueError):
        inverse(mat([[1, 1], [2, 2]]))


def _random_matrix(rng, rows, cols):
    return mat([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)])


def test_rank_nullity_and_resubstitution():
    rng = random.Random(20240521)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        A = _random_matrix(rng, rows, cols)
        assert rank(A) + len(kernel(A)) == cols
        x = vec([rng.randint(-3, 3) for _ in range(cols)])
        b = A @ Matrix.column_vector(Q, x)
        sol = solve_affine(A, b.entries)
        assert sol is not None
        assert sol.kernel_dimension == len(kernel(A))
        Ak = A @ Matrix.column_vector(Q, list(sol.particular))
        assert Ak == b
        for v in kernel(A):
            assert (A @ Matrix.column_vector(Q, list(v))).is_zero()


def test_matmul_and_kron_agree_with_definition():
    A = mat([[1, 2], [0, 1]])
    B = mat([[0, 1], [1, 0]])
    C = A @ B
    for i in range(2):
        for j in range(2):
            total = sum(A[i, k].coeffs[0] * B[k, j].coeffs[0] for k in range(2))
            assert C[i, j].coeffs[0] == total
    K = A.kron(B)
    assert K.rows == 4 and K.cols == 4
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert K[i1 * 2 + i2, j1 * 2 + j2] == A[i1, j1] * B[i2, j2]


def test_kron_mixed_identity():
    A = mat([[1, 2], [3, 4]])
    I = Matrix.identity(Q, 3)
    K = I.kron(A)
    assert K.rows == 6 and K.cols == 6
    assert K[2, 3] == A[0, 1]
    assert K[5, 4] == A[1, 0]


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        mat([[1, 2]]) @ mat([[1, 2]])
    with pytest.raises(DimensionMismatch):
        solve_affine(mat([[1, 2]]), vec([1, 2]))
    with pytest.raises(DimensionMismatch, match="^ragged rows$"):
        mat([[1, 2], [3]])
    with pytest.raises(DimensionMismatch, match="^negative shape -1x2$"):
        Matrix.zeros(Q, -1, 2)
    with pytest.raises(IndexError, match=r"^\(2, 0\) out of range for 2x2$"):
        Matrix.from_terms(Q, 2, 2, [(2, 0, Q.one)])


@pytest.mark.parametrize("call, error, message", [
    (lambda: Matrix(Q, 2, 2, vec([1, 2, 3])), DimensionMismatch,
     r"^2x2 matrix needs 4 entries, got 3$"),
    (lambda: mat([[1, 2]])[0, 2], IndexError, r"^\(0, 2\) out of range for 1x2$"),
    (lambda: mat([[1, 2]])[-1, 0], IndexError, r"^\(-1, 0\) out of range for 1x2$"),
    (lambda: mat([[1, 2]]) + mat([[1], [2]]), DimensionMismatch,
     "^shape mismatch in addition$"),
    (lambda: mat([[1, 2]]) - mat([[1], [2]]), DimensionMismatch,
     "^shape mismatch in subtraction$"),
    (lambda: mat([[1]]) + Matrix.identity(QI, 1), ValueError, "^scalars from different fields"),
    (lambda: mat([[1]]) - Matrix.identity(QI, 1), ValueError, "^scalars from different fields"),
    (lambda: mat([[1]]) * mat([[1]]), TypeError,
     r"^use @ for matrix composition, \* for scalars$"),
    (lambda: mat([[1]]) * 1.5, TypeError, None),
    (lambda: mat([[1]]) + 1, TypeError, None),
    (lambda: tensor_unindex(8, 2, 3), IndexError, r"^flat index 8 out of range for 2\*\*3$"),
    (lambda: tensor_unindex(-1, 2, 3), IndexError, r"^flat index -1 out of range"),
], ids=["entry-count", "column-range", "row-range", "add-shape", "sub-shape", "add-field",
        "sub-field", "matrix-product", "float", "add-number", "unindex-high", "unindex-low"])
def test_matrix_operations_reject_bad_operands(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("expression, expected", [
    (lambda a: -a, [[-1, 2], [0, Fraction(-1, 2)]]),
    (lambda a: -a + a, [[0, 0], [0, 0]]),
    (lambda a: a * Fraction(2, 3), [[Fraction(2, 3), Fraction(-4, 3)], [0, Fraction(1, 3)]]),
    (lambda a: Fraction(2, 3) * a, [[Fraction(2, 3), Fraction(-4, 3)], [0, Fraction(1, 3)]]),
    (lambda a: a * 0, [[0, 0], [0, 0]]),
    (lambda a: a * Q.from_fraction(-2), [[-2, 4], [0, -1]]),
], ids=["neg", "neg-add", "times-fraction", "fraction-times", "times-zero", "times-scalar"])
def test_negation_and_scalar_multiples(expression, expected):
    result = expression(mat([[1, -2], [0, Fraction(1, 2)]]))
    assert result == mat(expected)
    assert all(v for i in range(result.rows) for _, v in result.row_terms(i))


# -- sparse rows against a dense reference -------------------------------------

QI = Field.cyclotomic(4)


def mostly_zero(field):
    """Scalars that are zero two times in three."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    value = st.tuples(*[coeff] * field.degree).map(lambda t: Scalar(field, t))
    return st.tuples(st.integers(0, 2), value).map(lambda t: t[1] if t[0] == 0 else field.zero)


def dense(field, rows, cols):
    return st.lists(mostly_zero(field), min_size=rows * cols, max_size=rows * cols)


def build(route, field, rows, cols, flat, rng):
    """The matrix with row-major entries ``flat``, built along one route
    (``from_rows`` cannot give a matrix without rows; those take the last one)."""
    if route == "dense":
        return Matrix(field, rows, cols, flat)
    if route == "rows" and rows:
        return Matrix.from_rows(field, [flat[i * cols:(i + 1) * cols] for i in range(rows)])
    if route == "terms":
        # every entry, zeros too, as two terms in random order; a zero's terms cancel
        terms = []
        for k, v in enumerate(flat):
            i, j = divmod(k, cols)
            part = field.from_fraction(rng.randint(-2, 2))
            terms += [(i, j, part), (i, j, v - part)]
        rng.shuffle(terms)
        return Matrix.from_terms(field, rows, cols, terms)
    if route == "matmul":
        return Matrix(field, rows, cols, flat) @ Matrix.identity(field, cols)
    # "sub": subtract a matrix that shares entries with the target
    other = Matrix(field, rows, cols, [v if k % 2 else field.zero for k, v in enumerate(flat)])
    return (Matrix(field, rows, cols, flat) + other) - other


ROUTES = ["dense", "rows", "terms", "matmul", "sub"]


def ref_matmul(field, a, b, r, k, c):
    return [sum((a[i * k + t] * b[t * c + j] for t in range(k)), field.zero)
            for i in range(r) for j in range(c)]


def ref_kron(a, b, r1, c1, r2, c2):
    return [a[(i // r2) * c1 + j // c2] * b[(i % r2) * c2 + j % c2]
            for i in range(r1 * r2) for j in range(c1 * c2)]


@pytest.mark.parametrize("field", [Q, QI], ids=["Q", "Q(i)"])
def test_sparse_operations_match_dense_reference(field):
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
    def run(r, k, c, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        a, b, a2 = data.draw(dense(field, r, k)), data.draw(dense(field, k, c)), \
            data.draw(dense(field, r, k))
        A, B, A2 = (build(data.draw(st.sampled_from(ROUTES)), field, rows, cols, flat, rng)
                    for rows, cols, flat in ((r, k, a), (k, c, b), (r, k, a2)))
        for got, rows, cols, want in (
                (A, r, k, a),
                (A @ B, r, c, ref_matmul(field, a, b, r, k, c)),
                (A.kron(B), r * k, k * c, ref_kron(a, b, r, k, k, c)),
                (A + A2, r, k, [x + y for x, y in zip(a, a2)]),
                (A - A2, r, k, [x - y for x, y in zip(a, a2)]),
                (A.transpose(), k, r, [a[i * k + j] for j in range(k) for i in range(r)])):
            assert (got.rows, got.cols) == (rows, cols)
            assert got.entries == tuple(want)
            # the sparse rows are canonical: equal to the dense constructor's
            assert got == Matrix(field, rows, cols, want)
        assert A.is_zero() == (not any(a))
        for j in range(k):
            assert A.column_terms(j) == tuple((i, a[i * k + j]) for i in range(r)
                                              if a[i * k + j])
            assert A.column_list(j) == [a[i * k + j] for i in range(r)]
        for i in range(r):
            assert A.row_terms(i) == tuple((j, a[i * k + j]) for j in range(k)
                                           if a[i * k + j])
            assert A.row_list(i) == a[i * k:(i + 1) * k]
            for j in range(k):
                assert A[i, j] == a[i * k + j]

    run()


@pytest.mark.parametrize("field", [Q, QI], ids=["Q", "Q(i)"])
def test_equality_across_construction_routes(field):
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3), st.data())
    def run(r, c, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        x = data.draw(dense(field, r, c))
        y = data.draw(st.one_of(st.just(list(x)), dense(field, r, c)))
        routes = st.sampled_from(ROUTES)
        X1 = build(data.draw(routes), field, r, c, x, rng)
        X2 = build(data.draw(routes), field, r, c, x, rng)
        Y = build(data.draw(routes), field, r, c, y, rng)
        assert X1 == X2
        assert (X1 == Y) == (x == y)
        assert (X1 != Y) == (x != y)
        assert (X1 - Y).is_zero() == (x == y)

    run()


# -- elimination against sympy's reduced row echelon form -----------------------


def _sympy_rref(rows, width):
    """(pivot columns, reduced rows as Fractions) of sympy's ``Matrix.rref()``."""
    import sympy
    R, pivots = sympy.Matrix(len(rows), width,
                             [sympy.Rational(v.numerator, v.denominator)
                              for row in rows for v in row]).rref()
    reduced = [[Fraction(int(R[i, j].p), int(R[i, j].q)) for j in range(width)]
               for i in range(len(pivots))]
    return list(pivots), reduced


def _reference_solution(a, b, cols):
    """particular and kernel of A x = b read off the RREF of [A | b], or None:
    free variables are zero in particular, and each kernel vector has 1 in its
    own free column."""
    pivots, reduced = _sympy_rref([row + [v] for row, v in zip(a, b)], cols + 1)
    if cols in pivots:
        return None
    particular = [Fraction(0)] * cols
    for c, row in zip(pivots, reduced):
        particular[c] = row[cols]
    basis = []
    for f in (f for f in range(cols) if f not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for c, row in zip(pivots, reduced):
            v[c] = -row[f]
        basis.append(v)
    return particular, basis


@st.composite
def systems(draw):
    """(rows, cols, A as Fraction rows, b): dense, sparse, rank-deficient or
    all-zero A, with b in A's image or arbitrary (mostly inconsistent when A
    is rank-deficient)."""
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    kind = draw(st.sampled_from(["dense", "sparse", "deficient", "zero"]))
    if kind == "zero":
        a = [[Fraction(0)] * c for _ in range(r)]
    elif kind == "deficient":
        # a product through an inner dimension below min(r, c)
        k = draw(st.integers(0, max(min(r, c) - 1, 0)))
        left = [[draw(coeff) for _ in range(k)] for _ in range(r)]
        right = [[draw(coeff) for _ in range(c)] for _ in range(k)]
        a = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
              for j in range(c)] for i in range(r)]
    else:
        entry = coeff if kind == "dense" else st.one_of(st.just(Fraction(0)), coeff)
        a = [[draw(entry) for _ in range(c)] for _ in range(r)]
    if draw(st.booleans()):
        x = [draw(coeff) for _ in range(c)]
        b = [sum((row[j] * x[j] for j in range(c)), Fraction(0)) for row in a]
    else:
        b = [draw(coeff) for _ in range(r)]
    return r, c, a, b


@settings(max_examples=200, deadline=None)
@given(systems())
def test_elimination_matches_sympy_rref(system):
    r, c, a, b = system
    A = Matrix(Q, r, c, [Q.from_fraction(v) for row in a for v in row])

    want = _reference_solution(a, b, c)
    sol = solve_affine(A, vec(b))
    if want is None:
        assert sol is None
    else:
        assert as_fractions(sol.particular) == want[0]
        assert sol.kernel_dimension == len(want[1])

    pivots, _ = _sympy_rref(a, c)
    _, basis = _reference_solution(a, [Fraction(0)] * r, c)
    assert [as_fractions(v) for v in kernel(A)] == basis
    assert rank(A) == len(pivots)

    if r != c or len(pivots) != r:
        with pytest.raises(ValueError):
            inverse(A)
    else:
        identity = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
        _, reduced = _sympy_rref([row + e for row, e in zip(a, identity)], 2 * r)
        Ainv = inverse(A)
        assert [as_fractions(Ainv.row_list(i)) for i in range(r)] == \
            [row[r:] for row in reduced]
