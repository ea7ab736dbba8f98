"""Full pipeline on Sweedler's four-dimensional Hopf algebra.

Every other bundled algebra is grouplike (single-term comultiplications);
this one has dense comultiplications and sign cancellations, so it covers
the Sweedler-expansion paths the group algebras never reach.
"""

import random

import pytest

from dualquasi import (AntipodeData, InvariantViolation, LeftComodule, Matrix,
                       adjunction_counit, check_antipode, check_preantipode,
                       check_projection_formula, coinvariants, convolution,
                       free_hopf_bicomodule, hhat, induce_bicomodule,
                       preantipode_from_antipode, regular_bicomodule,
                       retraction_report, solve_preantipode,
                       structure_theorem, validate_bicomodule,
                       validate_dqb)

from helpers import sweedler_four_dim_hopf, taft_algebra


def test_validates():
    H, _ = sweedler_four_dim_hopf()
    report = validate_dqb(H)
    assert report.ok, [c.axiom for c in report.failures]


def test_antipode_and_preantipode():
    H, data = sweedler_four_dim_hopf()
    assert check_antipode(H, data).ok
    S = preantipode_from_antipode(H, data)
    assert S == data.s  # trivial sandwich functionals: S = s
    assert check_preantipode(H, S).ok


def test_solver_unique_solution_is_the_antipode():
    H, data = sweedler_four_dim_hopf()
    family = solve_preantipode(H)
    assert family is not None
    assert family.kernel_dimension == 0
    assert family.particular == data.s


def test_convolution_with_dense_comultiplication():
    H, _ = sweedler_four_dim_hopf()
    rng = random.Random(8)
    field = H.field

    def random_functional(k):
        return Matrix.row_vector(
            field, [field.from_fraction(rng.randint(-2, 2))
                    for _ in range(H.dim ** k)])

    for k in (1, 2):
        unit = H.counit_power(k)
        for _ in range(3):
            f, g, h = (random_functional(k) for _ in range(3))
            assert convolution(H, convolution(H, f, g, arity=k), h, arity=k) \
                == convolution(H, f, convolution(H, g, h, arity=k), arity=k)
            assert convolution(H, unit, f, arity=k) == f
            assert convolution(H, f, unit, arity=k) == f


def test_free_bicomodule_and_structure_theorem():
    H, data = sweedler_four_dim_hopf()
    M = hhat(H)
    assert M.dim == 16
    assert validate_bicomodule(H, M).ok
    assert coinvariants(H, M).rank == 4
    report, psi = structure_theorem(H, M, data.s)
    assert report.ok
    eps = adjunction_counit(H, M)
    assert eps @ psi == Matrix.identity(H.field, 16)
    assert psi @ eps == Matrix.identity(H.field, 16)


def test_retraction_identities_with_dense_sweedlers():
    H, data = sweedler_four_dim_hopf()
    report = retraction_report(H, data.s, hhat(H))
    assert report.ok, [c.axiom for c in report.failures]


def test_projection_formula_classical_case():
    H, data = sweedler_four_dim_hopf()
    report, gamma_matches = check_projection_formula(H, data, hhat(H))
    assert report.ok
    assert gamma_matches  # ordinary Hopf algebra: the candidate is the inverse


def test_projection_formula_raises_on_a_failed_retraction():
    # with α = 0 the sandwich β∗s∗α is the zero map, so τ = 0 and
    # τ(m₀)·m₁ = m fails first, at the first basis vector
    H, data = sweedler_four_dim_hopf()
    zero_alpha = AntipodeData(data.s, Matrix.zeros(H.field, 1, H.dim), data.beta)
    with pytest.raises(InvariantViolation) as raised:
        check_projection_formula(H, zero_alpha, hhat(H))
    assert str(raised.value) == \
        "retraction identity retraction-splits-counit failed at witness (0,)"


def test_induced_and_free_constructions():
    H, data = sweedler_four_dim_hopf()
    # the algebra over itself as a left comodule
    V = LeftComodule(4, H.delta)
    FV = induce_bicomodule(H, V)
    assert validate_bicomodule(H, FV).ok
    assert coinvariants(H, FV).rank == 4
    report, psi = structure_theorem(H, FV, data.s)
    assert report.ok
    eps = adjunction_counit(H, FV)
    assert eps @ psi == Matrix.identity(H.field, 16)
    T = free_hopf_bicomodule(H, regular_bicomodule(H))
    assert validate_bicomodule(H, T).ok
    report, psi = structure_theorem(H, T, data.s)
    assert report.ok
    eps = adjunction_counit(H, T)
    assert psi @ eps == Matrix.identity(H.field, coinvariants(H, T).rank * 4)


def test_taft_algebras_have_the_antipode_as_their_only_preantipode():
    for n in (2, 3):
        H, data = taft_algebra(n)
        assert validate_dqb(H).ok, n
        assert check_antipode(H, data).ok, n
        family = solve_preantipode(H)
        assert family.kernel_dimension == 0, n
        assert family.particular == preantipode_from_antipode(H, data) == data.s, n
