import random

import pytest

from dualquasi import (AntipodeData, DimensionMismatch, Field, InvariantViolation, Matrix,
                       adjunction_counit, anti_homomorphism_defect,
                       check_antipode, check_preantipode,
                       check_projection_formula, coinvariant_retraction,
                       coinvariants, hhat, induce_bicomodule, inverse,
                       free_hopf_bicomodule, preantipode_from_antipode, rank,
                       retraction_report, serialize_report, solve_preantipode,
                       structure_isomorphism)

from helpers import (bundled_examples, control_bialgebra, random_bicomodule,
                     random_left_comodule, sympy_grouplike_preantipode, rational,
                     symmetric_group_examples, with_entry)

Q = Field.rationals()


def example(name):
    return next(ex for ex in bundled_examples() if ex.name == name)


# -- preantipode checking -------------------------------------------------------------


def test_ordinary_antipode_is_a_preantipode():
    ex = example("cyclic_2_r0")
    assert check_preantipode(ex.dqb, ex.antipode.s).ok


def test_z2_twisted_preantipode_values():
    ex = example("cyclic_2_r1")
    S = ex.preantipode
    assert str(S[1, 1]) == "-1" and str(S[0, 0]) == "1"
    assert str(S[0, 1]) == "0" and str(S[1, 0]) == "0"
    assert check_preantipode(ex.dqb, S).ok


def test_identity_map_fails_with_witness():
    ex = example("cyclic_2_r1")
    report = check_preantipode(ex.dqb, Matrix.identity(ex.dqb.field, 2))
    failures = {c.axiom: c for c in report.failures}
    assert set(failures) == {"preantipode-reassociator-counit"}
    c = failures["preantipode-reassociator-counit"]
    assert c.witness == (1,) and c.lhs == "-1" and c.rhs == "1"


def test_preantipode_check_rejects_a_map_of_another_shape_or_field():
    H = example("cyclic_2_r1").dqb
    with pytest.raises(DimensionMismatch, match="^S must be 2x2, got 2x3$"):
        check_preantipode(H, Matrix.zeros(H.field, 2, 3))
    with pytest.raises(DimensionMismatch, match="^S lives over a different field than H$"):
        check_preantipode(H, Matrix.identity(Field.cyclotomic(3), 2))


def test_derived_scalar_identities_follow():
    # h₁S(h₂) = εS(h)·1 = S(h₁)h₂ holds for every bundled preantipode
    for ex in bundled_examples():
        report = check_preantipode(ex.dqb, ex.preantipode)
        verdicts = {c.axiom: c.passed for c in report.checks}
        assert verdicts["preantipode-counit-left"]
        assert verdicts["preantipode-counit-right"]
        assert report.ok


# -- solving ---------------------------------------------------------------------------


def test_solver_finds_the_formula_solution():
    # the kernel dimension is 0 on every valid algebra: a preantipode is unique
    for ex in bundled_examples() + symmetric_group_examples():
        family = solve_preantipode(ex.dqb)
        assert family is not None
        assert family.particular == ex.preantipode
        assert family.kernel_dimension == 0
        assert check_preantipode(ex.dqb, family.particular).ok


def test_solver_preantipode_is_unique_on_twisted_sweedler():
    # a non-grouplike Δ with a nontrivial ω: the bundled algebras have one or
    # the other, never both
    from helpers import twisted_sweedler

    H = twisted_sweedler()
    family = solve_preantipode(H)
    assert family is not None
    assert family.kernel_dimension == 0
    assert check_preantipode(H, family.particular).ok


def test_control_has_no_preantipode():
    assert solve_preantipode(control_bialgebra()) is None


def test_control_inconsistency_by_hand():
    # the left-coaction identity forces S(e) = 0 while the counit identity
    # demands εS(e) = 1; re-derive both from the library's own checkers
    H = control_bialgebra()
    field = H.field
    for a, b in ((0, 0), (1, 0), (0, 1)):
        S = Matrix.from_terms(field, 2, 2,
                              [(0, 1, field.from_fraction(a)),
                               (1, 1, field.from_fraction(b)),
                               (0, 0, field.one)])
        report = check_preantipode(H, S)
        verdicts = {c.axiom: c.passed for c in report.checks}
        if (a, b) != (0, 0):
            assert not verdicts["preantipode-left-coaction"]
        else:
            assert verdicts["preantipode-left-coaction"]
            assert not verdicts["preantipode-reassociator-counit"]


def test_trivial_algebra_has_identity_preantipode():
    one = Q.one
    from dualquasi import DualQuasiBialgebra
    H1 = DualQuasiBialgebra(Q, 1, Matrix.column_vector(Q, [one]),
                            Matrix.row_vector(Q, [one]),
                            Matrix.row_vector(Q, [one]),
                            Matrix.column_vector(Q, [one]),
                            Matrix.row_vector(Q, [one]))
    family = solve_preantipode(H1)
    assert family.particular == Matrix.identity(Q, 1)
    assert family.kernel_dimension == 0


def test_zero_reassociator_has_no_preantipode():
    # with ω = 0 the reassociator-counit identity reads 0 = ε(x), which no S
    # satisfies; the two coaction identities alone would admit S = 0
    from dualquasi import DualQuasiBialgebra
    H = example("cyclic_2_r0").dqb
    zero = Matrix.zeros(Q, 1, 8)
    H0 = DualQuasiBialgebra(Q, 2, H.delta, H.counit, H.mul, H.unit, zero, zero)
    assert solve_preantipode(H0) is None
    report = check_preantipode(H0, Matrix.zeros(Q, 2, 2))
    assert [c.axiom for c in report.failures] == ["preantipode-reassociator-counit"]


def test_solver_agrees_with_independent_parametric_oracle():
    # exhaustive symbolic substitution into the grouplike equations (sympy)
    for ex in [example("cyclic_2_r0"), example("cyclic_2_r1"), *symmetric_group_examples()]:
        theta, n = ex.cocycle, ex.group.order

        def theta_fraction(g, h, k):
            return rational(theta.theta(g, h, k))

        oracle = sympy_grouplike_preantipode(ex.group, theta_fraction)
        assert oracle is not None
        particular, free_count, residual = oracle
        family = solve_preantipode(ex.dqb)
        assert family.kernel_dimension == free_count == 0
        ours = [rational(family.particular[i, j]) for i in range(n) for j in range(n)]
        assert ours == particular
        assert all(v == 0 for v in residual(ours))


def test_control_oracle_is_inconsistent_too():
    H = control_bialgebra()
    group_like_table = ((0, 1), (1, 1))

    class Monoid:
        order = 2
        identity = 0

        @staticmethod
        def mul(a, b):
            return group_like_table[a][b]

    assert sympy_grouplike_preantipode(Monoid, lambda g, h, k: 1) is None


# -- antipode data ----------------------------------------------------------------------


def test_antipode_data_checks():
    for ex in bundled_examples() + symmetric_group_examples():
        assert check_antipode(ex.dqb, ex.antipode).ok


def test_beta_must_compensate_the_cocycle():
    ex = example("cyclic_2_r1")
    data = ex.antipode
    flat_beta = AntipodeData(data.s, data.alpha, data.alpha)  # β = ε
    report = check_antipode(ex.dqb, flat_beta)
    failing = {c.axiom for c in report.failures}
    assert "antipode-reassociator" in failing
    witness = next(c for c in report.failures
                   if c.axiom == "antipode-reassociator").witness
    assert witness == (1,)


def test_preantipode_from_antipode_matches_formula():
    for ex in bundled_examples() + symmetric_group_examples():
        S = preantipode_from_antipode(ex.dqb, ex.antipode)
        assert S == ex.preantipode
        assert check_preantipode(ex.dqb, S).ok


def test_preantipode_from_invalid_antipode_raises():
    ex = example("cyclic_2_r1")
    bad = AntipodeData(ex.antipode.s, ex.antipode.alpha, ex.antipode.alpha)
    with pytest.raises(ValueError):
        preantipode_from_antipode(ex.dqb, bad)


def test_convolution_with_trivial_functionals_returns_s():
    ex = example("cyclic_3_r0")
    S = preantipode_from_antipode(ex.dqb, ex.antipode)
    assert S == ex.antipode.s


def test_z4_preantipode_values():
    # S(g^a) = θ(g^a, g^(−a), g^a)⁻¹·g^(−a) with θ-values i^a
    ex = example("cyclic_4_r1")
    S = ex.preantipode
    field = ex.dqb.field
    i = field.zeta(1)
    expected = {0: field.one, 1: i ** 3, 2: i ** 2, 3: i}
    for a in range(4):
        col = S.column_terms(a)
        assert len(col) == 1
        row, value = col[0]
        assert row == (-a) % 4
        assert value == expected[a]


# -- retraction and structure isomorphism ------------------------------------------------


def test_tau_values_on_twisted_hhat():
    ex = example("cyclic_2_r1")
    H = ex.dqb
    M = hhat(H)
    retr = coinvariant_retraction(H, ex.preantipode, M)
    # coinvariant basis columns are 1⊗1 and g⊗g, in that order
    # τ(g⊗1) = −(g⊗g): in coordinates, column of flat index 2 is (0, −1)
    col = retr.retraction.column_list(2)
    assert [str(v) for v in col] == ["0", "-1"]
    # τ(g⊗g) = g⊗g
    col = retr.retraction.column_list(3)
    assert [str(v) for v in col] == ["0", "1"]
    # τ(1⊗1) = 1⊗1
    col = retr.retraction.column_list(0)
    assert [str(v) for v in col] == ["1", "0"]


def test_retraction_report_all_identities():
    rng = random.Random(31)
    for ex in bundled_examples() + symmetric_group_examples():
        H = ex.dqb
        for M in (hhat(H),
                  induce_bicomodule(H, random_left_comodule(H, ex.group, rng)),
                  free_hopf_bicomodule(H, random_bicomodule(H, ex.group, rng))):
            report = retraction_report(H, ex.preantipode, M)
            assert report.ok, (ex.name, [c.axiom for c in report.failures])
            verdicts = {c.axiom: c.passed for c in report.checks}
            # the single fixed-point identity is equivalent to the two
            # structural identities; both routes must agree
            assert verdicts["retraction-fixes-coinvariants"] == (
                verdicts["retraction-module-identity"]
                and verdicts["retraction-left-colinearity"])


def test_structure_isomorphism_exact_inverse():
    for ex in [example("cyclic_2_r1"), *symmetric_group_examples()]:
        M = hhat(ex.dqb)
        d = M.dim
        eps, psi = structure_isomorphism(ex.dqb, ex.preantipode, M)
        assert eps.rows == eps.cols == d == ex.dqb.dim ** 2
        assert eps @ psi == Matrix.identity(ex.dqb.field, d)
        assert psi @ eps == Matrix.identity(ex.dqb.field, d)
        # independent route: invert the evaluation matrix directly
        assert inverse(eps) == psi


def test_counit_fixed_points_under_unit_element():
    # on an induced module, v⊗1 is coinvariant and τ fixes it
    rng = random.Random(41)
    ex = example("cyclic_3_r1")
    V = random_left_comodule(ex.dqb, ex.group, rng)
    FV = induce_bicomodule(ex.dqb, V)
    report = retraction_report(ex.dqb, ex.preantipode, FV)
    assert report.ok


def test_structure_negative_on_control():
    H = control_bialgebra()
    M = hhat(H)
    coinv = coinvariants(H, M)
    assert coinv.rank == 1  # only 1⊗1 survives the coinvariance condition
    eps = adjunction_counit(H, M)
    assert eps.rows == 4 and eps.cols == 2  # cannot be bijective
    assert rank(eps) == 2


def test_classical_fundamental_theorem_comparison():
    # ordinary Hopf case: ψ must agree with the classical inverse
    # (x⊗y) ↦ (x ⊗ x⁻¹) ⊗ xy, computed here from the group table alone
    ex = example("cyclic_2_r0")
    H = ex.dqb
    M = hhat(H)
    retr = coinvariant_retraction(H, ex.preantipode, M)
    embedded = retr.coinvariants.basis.kron(
        Matrix.identity(H.field, 2)) @ retr.counit_inverse
    n, D = 2, 4
    classical = Matrix.from_terms(
        H.field, D * n, D,
        [((x * n + ((-x) % n)) * n + (x + y) % n, x * n + y, H.field.one)
         for x in range(n) for y in range(n)])
    assert embedded == classical


def test_projection_formula_for_all_bundles():
    for ex in bundled_examples():
        M = hhat(ex.dqb)
        report, gamma_matches = check_projection_formula(ex.dqb, ex.antipode, M)
        assert report.ok, ex.name
        trivial_twist = all(
            ex.cocycle.theta(g, h, k) == ex.dqb.field.one
            for g in range(ex.group.order)
            for h in range(ex.group.order)
            for k in range(ex.group.order))
        assert gamma_matches == trivial_twist


def test_antihomomorphism_defects():
    ex = example("cyclic_2_r1")
    report, defects = anti_homomorphism_defect(ex.group, ex.dqb, ex.preantipode)
    assert report.ok
    assert [str(d) for d in defects] == ["1", "-1"]

    ex0 = example("cyclic_3_r0")
    report, defects = anti_homomorphism_defect(ex0.group, ex0.dqb, ex0.preantipode)
    assert report.ok
    assert all(d == ex0.dqb.field.one for d in defects)

    ex4 = example("cyclic_4_r1")
    report, defects = anti_homomorphism_defect(ex4.group, ex4.dqb, ex4.preantipode)
    assert report.ok
    i = ex4.dqb.field.zeta(1)
    assert defects == [ex4.dqb.field.one, i ** 3, i ** 2, i]

    with pytest.raises(DimensionMismatch, match="^group order disagrees with the algebra dimension$"):
        anti_homomorphism_defect(ex0.group, ex.dqb, ex.preantipode)
    # the identity map is not a preantipode of cyclic 2 r=1: at the generator
    # S(g₂)⊗S(g₁) = g⊗g, but the defect −1 scales ΔS(g) to −g⊗g
    report, defects = anti_homomorphism_defect(ex.group, ex.dqb, Matrix.identity(Q, 2))
    assert serialize_report(report, "json-lines").splitlines() == [
        '{"axiom": "antimorphism-defect[0]", "pass": true, "witness": [0], "lhs": "1", "rhs": null}',
        '{"axiom": "antimorphism-defect[1]", "pass": false, "witness": [1], '
        '"lhs": "1*e(1,1)", "rhs": "-1*e(1,1)"}',
    ]
    assert [str(d) for d in defects] == ["1", "-1"]


def test_retraction_report_flags_zero_map():
    ex = example("cyclic_2_r1")
    H = ex.dqb
    report = retraction_report(H, Matrix.zeros(H.field, 2, 2), hhat(H))
    assert [c.axiom for c in report.failures] == [
        "retraction-splits-counit", "retraction-fixes-coinvariants"]
    with pytest.raises(Exception):
        coinvariant_retraction(H, Matrix.zeros(H.field, 2, 2), hhat(H))


def test_retraction_report_with_evaluation_map_adds_composites():
    ex = example("cyclic_3_r1")
    H, M = ex.dqb, hhat(ex.dqb)
    plain = retraction_report(H, ex.preantipode, M)
    full = retraction_report(H, ex.preantipode, M, inverse=True)
    assert full.checks[:5] == plain.checks
    assert [(c.axiom, c.passed) for c in full.checks[5:]] == [
        ("counit-after-inverse", True), ("inverse-after-counit", True)]
    # the composites need τ to land in the coinvariants, so a failing
    # retraction stops the report after its five identities
    zero = Matrix.zeros(H.field, 3, 3)
    assert (retraction_report(H, zero, M, inverse=True)
            == retraction_report(H, zero, M))


def test_composite_failures_raise_and_report(monkeypatch):
    # ε with one entry moved: τ and its five identities do not read ε, so
    # only the composites with ψ see the change
    import dualquasi.structure

    ex = example("cyclic_4_r1")
    H, M = ex.dqb, hhat(ex.dqb)
    eps = adjunction_counit(H, M)
    moved = with_entry(eps, 0, 0, eps[0, 0] + H.field.one)
    monkeypatch.setattr(dualquasi.structure, "adjunction_counit", lambda H, M: moved)
    for call in (coinvariant_retraction, structure_isomorphism):
        with pytest.raises(InvariantViolation,
                           match="^evaluation ∘ inverse is not the identity$"):
            call(H, ex.preantipode, M)
    report = retraction_report(H, ex.preantipode, M, inverse=True)
    assert all(c.passed for c in report.checks[:5])
    # ε and ψ are square, so ε∘ψ = id and ψ∘ε = id fail together
    assert [(c.axiom, c.passed) for c in report.checks[5:]] == [
        ("counit-after-inverse", False), ("inverse-after-counit", False)]


def test_structure_entry_points_compute_coinvariants_and_evaluation_map_once(monkeypatch):
    # M's coded view keeps its coinvariant basis and its verified evaluation
    # map, so four entry points on one (H, M) eliminate once and build ε once
    import dualquasi.adjunction
    from dualquasi import coinvariant_comodule, cyclic_group_example
    from dualquasi.elimination import Subspace

    null_space = Subspace.null_space.__func__
    eliminations = []

    def counted_null_space(cls, A):
        eliminations.append(A.cols)
        return null_space(cls, A)

    check_identity = dualquasi.adjunction.check_identity
    verified = []

    def counted_check(axiom, *args):
        verified.append(axiom)
        return check_identity(axiom, *args)

    monkeypatch.setattr(Subspace, "null_space", classmethod(counted_null_space))
    monkeypatch.setattr(dualquasi.adjunction, "check_identity", counted_check)
    ex = cyclic_group_example(8, 1)
    H, M = ex.dqb, hhat(ex.dqb)
    S = solve_preantipode(H).particular
    structure_isomorphism(H, S, M)
    coinvariant_retraction(H, S, M)
    retraction_report(H, S, M)
    coinvariant_comodule(H, M)
    assert len(eliminations) == 1
    # each build of ε ends with its right linearity
    assert verified.count("action-quasi-associativity") == 1


# -- reference evaluation of the five retraction identities ---------------------------


def _reference_retraction_checks(H, S, M):
    """The five retraction identities evaluated one basis tuple at a time from
    the columns of M's, S's and H's matrices, in scalars.  τ expands
    m₋₁⊗m₀⊗m₁⊗m₂ as (H⊗ρ^r)ρ^l followed by Δ on the last leg, the bracketing
    the library uses, so a corrupted module is read the same way by both."""
    from dualquasi.report import Check, basis_tuples, format_terms, terms_equal

    d, n = M.dim, H.dim
    act, rho_l, rho_r = M.act.column_terms, M.rho_l.column_terms, M.rho_r.column_terms
    delta, mul, s_col = H.delta.column_terms, H.mul.column_terms, S.column_terms
    omega, omega_inv = H.omega.entries, H.omega_inv.entries
    eps, unit = H.counit.entries, H.unit.column_terms(0)

    def put(acc, key, value):
        acc[key] = acc[key] + value if key in acc else value

    def tau_of(i):
        acc = {}
        for row, c in rho_l(i):
            x, j = divmod(row, d)
            for row2, c2 in rho_r(j):
                j2, b = divmod(row2, n)
                for r3, c3 in delta(b):
                    b1, b2 = divmod(r3, n)
                    for q, sq in s_col(b1):
                        for r4, cq in delta(q):
                            q1, q2 = divmod(r4, n)
                            w = omega[(x * n + q1) * n + b2]
                            for j3, ca in act(j2 * n + q2):
                                put(acc, j3, c * c2 * c3 * sq * cq * w * ca)
        return {j: v for j, v in acc.items() if v}

    tau = [tau_of(i) for i in range(d)]
    basis = coinvariants(H, M).basis

    def into_coinvariants(i):
        lhs, rhs = {}, {}
        for j, v in tau[i].items():
            for row, c in rho_r(j):
                put(lhs, divmod(row, n), v * c)
            for u, cu in unit:
                put(rhs, (j, u), v * cu)
        return lhs, rhs

    def module_identity(i, a):
        lhs, rhs = {}, {}
        for j, c in act(i * n + a):
            for j2, v in tau[j].items():
                put(lhs, (j2,), c * v)
        for row, c in rho_r(i):
            j, b = divmod(row, n)
            for j2, v in tau[j].items():
                for row2, c2 in rho_l(j2):
                    x, j3 = divmod(row2, d)
                    put(rhs, (j3,), c * v * c2 * omega_inv[(x * n + b) * n + a])
        return lhs, rhs

    def left_colinearity(i):
        lhs, rhs = {}, {}
        for row, c in rho_l(i):
            x, j = divmod(row, d)
            for j2, v in tau[j].items():
                put(lhs, (x, j2), c * v)
        for row, c in rho_r(i):
            j, b = divmod(row, n)
            for j2, v in tau[j].items():
                for row2, c2 in rho_l(j2):
                    y, j3 = divmod(row2, d)
                    for t, cm in mul(y * n + b):
                        put(rhs, (t, j3), c * v * c2 * cm)
        return lhs, rhs

    def splits_counit(i):
        acc = {}
        for row, c in rho_r(i):
            j, b = divmod(row, n)
            for j2, v in tau[j].items():
                for j3, c3 in act(j2 * n + b):
                    put(acc, (j3,), c * v * c3)
        return acc, {(i,): H.field.one}

    def fixes_coinvariants(alpha, a):
        lhs, rhs = {}, {}
        for i, v in basis.column_terms(alpha):
            for j, c in act(i * n + a):
                for j2, v2 in tau[j].items():
                    put(lhs, (j2,), v * c * v2)
            put(rhs, (i,), v * eps[a])
        return lhs, rhs

    checks = []
    for axiom, dims, sides in (
            ("retraction-into-coinvariants", (d,), into_coinvariants),
            ("retraction-module-identity", (d, n), module_identity),
            ("retraction-left-colinearity", (d,), left_colinearity),
            ("retraction-splits-counit", (d,), splits_counit),
            ("retraction-fixes-coinvariants", (basis.cols, n), fixes_coinvariants)):
        check = Check(axiom, True)
        for witness in basis_tuples(*dims):
            lhs, rhs = sides(*witness)
            if not terms_equal(lhs, rhs):
                check = Check(axiom, False, witness, format_terms(lhs), format_terms(rhs))
                break
        checks.append(check)
    return checks


def _map_corruptions(S, seed):
    """S with one seeded entry changed: once at a random position and once at
    one of its terms."""
    rng = random.Random(seed)
    field = S.field
    value = field.from_fraction(rng.choice([-2, -1, 1, 2, 3]))
    terms = [(r, c, v) for r in range(S.rows) for c, v in S.row_terms(r)]
    positions = [(rng.randrange(S.rows), rng.randrange(S.cols)),
                 rng.choice([(r, c) for r, c, _ in terms])]
    for row, col in positions:
        yield Matrix.from_terms(field, S.rows, S.cols, terms + [(row, col, value)])


def test_retraction_identities_match_the_definitions():
    from dualquasi import cyclic_group_example
    from helpers import sweedler_four_dim_hopf, twisted_sweedler
    from test_comodules import _module_corruptions

    algebras = [("cyclic_3_r2", cyclic_group_example(3, 2).dqb),
                ("cyclic_4_r1", cyclic_group_example(4, 1).dqb),
                ("sweedler", sweedler_four_dim_hopf()[0]),
                ("twisted_sweedler", twisted_sweedler())]
    failed = {}
    for index, (name, H) in enumerate(algebras):
        S = solve_preantipode(H).particular
        base = hhat(H)
        cases = [("base", S, base)]
        for seed in range(3):
            cases.extend(("S", bad, base) for bad in _map_corruptions(S, 10 * index + seed))
            cases.extend((key, S, M) for key, M in
                         _module_corruptions(H, base, 10 * index + seed))
        for label, S_case, M in cases:
            got = retraction_report(H, S_case, M).checks
            expected = _reference_retraction_checks(H, S_case, M)
            assert list(got) == expected, (name, label)
            for check in expected:
                failed[check.axiom] = failed.get(check.axiom, 0) + (not check.passed)
    # the reference has to see failures of every identity to mean anything
    assert len(failed) == 5 and min(failed.values()) >= 5, failed
