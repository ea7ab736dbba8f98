"""First-failure reports of every axiom suite, pinned byte for byte.

Each case corrupts one structure constant of a valid example (Δ, ε, m, ω or
the unit of an algebra; ρˡ, ρʳ or the action of a bicomodule; one entry of S,
s, α or β; one value of a cocycle) so that several identities fail, most of them
at a witness other than the first basis tuple.  The whole json-lines report
is compared, so witness order, rendered values and PASS lines are all fixed.
"""

import functools

import pytest

from dualquasi import (HopfBicomodule, LeftComodule, Matrix,
                       check_antipode, check_preantipode, check_projection_formula,
                       coinvariant_comodule, hhat, retraction_report,
                       serialize_report, validate_bicomodule, validate_dqb, validate_left_comodule)
from dualquasi.groups import Cocycle, cyclic_group_example, validate_cocycle
from dualquasi.dqb import AntipodeData

from helpers import sweedler_four_dim_hopf, with_entry, with_parts


@functools.cache
def _cyclic(n: int, r: int):
    return cyclic_group_example(n, r)


@functools.cache
def _hhat(n: int, r: int):
    return hhat(_cyclic(n, r).dqb)


def _num(H, value):
    return H.field.from_fraction(value)


def dqb_delta():
    H, _ = sweedler_four_dim_hopf()
    return validate_dqb(with_parts(H, delta=with_entry(H.delta, 2 * 4 + 1, 3, _num(H, 2))))


def dqb_mul():
    H = _cyclic(3, 1).dqb
    return validate_dqb(with_parts(H, mul=with_entry(H.mul, 1, 1 * 3 + 2, _num(H, 2))))


def dqb_mul_sweedler():
    H, _ = sweedler_four_dim_hopf()
    return validate_dqb(with_parts(H, mul=with_entry(H.mul, 3, 2 * 4 + 1, _num(H, 2))))


def dqb_omega():
    H = _cyclic(3, 1).dqb
    omega = with_entry(H.omega, 0, (2 * 3 + 1) * 3 + 1, H.field.zeta(1))
    return validate_dqb(with_parts(H, omega=omega))


def dqb_counit():
    H, _ = sweedler_four_dim_hopf()
    return validate_dqb(with_parts(H, counit=with_entry(H.counit, 0, 3, H.field.one)))


def dqb_unit():
    H, _ = sweedler_four_dim_hopf()
    return validate_dqb(with_parts(H, unit=with_entry(H.unit, 1, 0, _num(H, 2))))


def left_comodule_rho_l():
    H = _cyclic(2, 1).dqb
    V = coinvariant_comodule(H, _hhat(2, 1))
    return validate_left_comodule(
        H, LeftComodule(V.dim, with_entry(V.rho_l, 1 * V.dim + 1, 1, _num(H, 3))))


def bicomodule_rho_l():
    H, M = _cyclic(2, 1).dqb, _hhat(2, 1)
    return validate_bicomodule(
        H, HopfBicomodule(M.dim, with_entry(M.rho_l, 1 * 4 + 2, 2, H.field.one), M.rho_r, M.act))


def bicomodule_rho_r():
    H, M = _cyclic(2, 1).dqb, _hhat(2, 1)
    return validate_bicomodule(
        H, HopfBicomodule(M.dim, M.rho_l, with_entry(M.rho_r, 3 * 2 + 0, 3, _num(H, 2)), M.act))


def bicomodule_act():
    H, M = _cyclic(2, 1).dqb, _hhat(2, 1)
    return validate_bicomodule(
        H, HopfBicomodule(M.dim, M.rho_l, M.rho_r, with_entry(M.act, 1, 3 * 2 + 1, _num(H, 2))))


def preantipode_entry():
    ex = _cyclic(3, 1)
    return check_preantipode(ex.dqb, with_entry(ex.preantipode, 0, 2, _num(ex.dqb, 5)))


def preantipode_entry_sweedler():
    H, data = sweedler_four_dim_hopf()
    S = with_entry(data.s, 2, 3, _num(H, 5))  # α = β = ε, so S = s before the change
    return check_preantipode(H, S)


def antipode_s():
    ex = _cyclic(3, 1)
    d = ex.antipode
    return check_antipode(ex.dqb, AntipodeData(with_entry(d.s, 1, 2, ex.dqb.field.zeta(1)),
                                               d.alpha, d.beta))


def antipode_alpha():
    ex = _cyclic(3, 1)
    d = ex.antipode
    return check_antipode(ex.dqb, AntipodeData(d.s, with_entry(d.alpha, 0, 2, _num(ex.dqb, 2)),
                                               d.beta))


def antipode_beta():
    ex = _cyclic(3, 1)
    d = ex.antipode
    return check_antipode(ex.dqb, AntipodeData(d.s, d.alpha,
                                               with_entry(d.beta, 0, 1, _num(ex.dqb, 2))))


def antipode_s_sweedler():
    H, data = sweedler_four_dim_hopf()
    return check_antipode(H, AntipodeData(with_entry(data.s, 2, 3, _num(H, 2)),
                                          data.alpha, data.beta))


def antipode_alpha_sweedler():
    H, data = sweedler_four_dim_hopf()
    return check_antipode(H, AntipodeData(data.s, with_entry(data.alpha, 0, 1, _num(H, 3)),
                                          data.beta))


def antipode_beta_sweedler():
    H, data = sweedler_four_dim_hopf()
    return check_antipode(H, AntipodeData(data.s, data.alpha,
                                          with_entry(data.beta, 0, 3, _num(H, 2))))


def _sweedler_delta_changed():
    """Sweedler's algebra with e₀⊗e₁ added to Δ(e₀), with its antipode data.
    Δ is then not coassociative, so the values below pin the expansion
    Δ² = (id⊗Δ)Δ: under (Δ⊗id)Δ both reassociator sides read other values."""
    H, data = sweedler_four_dim_hopf()
    return with_parts(H, delta=with_entry(H.delta, 0 * 4 + 1, 0, H.field.one)), data


def preantipode_delta_order():
    H, data = _sweedler_delta_changed()
    return check_preantipode(H, data.s)


def antipode_delta_order():
    return check_antipode(*_sweedler_delta_changed())


def retraction_zero():
    H = _cyclic(2, 1).dqb
    return retraction_report(H, Matrix.zeros(H.field, 2, 2), _hhat(2, 1))


def retraction_perturbed():
    ex = _cyclic(3, 1)
    return retraction_report(ex.dqb, with_entry(ex.preantipode, 0, 2, _num(ex.dqb, 5)),
                             _hhat(3, 1))


def retraction_dropped_entry():
    ex = _cyclic(3, 1)
    return retraction_report(ex.dqb, with_entry(ex.preantipode, 1, 2, ex.dqb.field.zero),
                             _hhat(3, 1))


def _cocycle_with(changes):
    ex = _cyclic(3, 1)
    values = list(ex.cocycle.values)
    for (g, h, k), v in changes:
        values[(g * 3 + h) * 3 + k] = v
    return validate_cocycle(ex.group, Cocycle(ex.cocycle.field, 3, tuple(values)))


def cocycle_value():
    return _cocycle_with([((1, 2, 2), _cyclic(3, 1).cocycle.field.zeta(2))])


def cocycle_zero_and_unnormalized():
    field = _cyclic(3, 1).cocycle.field
    return _cocycle_with([((2, 0, 1), field.zeta(1)), ((2, 2, 1), field.zero)])


def _rescaled_antipode():
    """s(g₁) scaled by 2 and β(g₁) by 1/2: β∗s∗α is still the preantipode,
    but the projection formula weighs s twice and β once."""
    ex = _cyclic(3, 1)
    d = ex.antipode
    two = _num(ex.dqb, 2)
    return AntipodeData(with_entry(d.s, 2, 1, d.s[2, 1] * two), d.alpha,
                        with_entry(d.beta, 0, 1, d.beta[0, 1] / two))


def projection_formula():
    report, gamma_matches = check_projection_formula(
        _cyclic(3, 1).dqb, _rescaled_antipode(), _hhat(3, 1))
    assert gamma_matches is False
    return report


def antipode_rescaled():
    return check_antipode(_cyclic(3, 1).dqb, _rescaled_antipode())


CASES = [dqb_delta, dqb_mul, dqb_mul_sweedler, dqb_omega, dqb_counit, dqb_unit,
         left_comodule_rho_l, bicomodule_rho_l, bicomodule_rho_r, bicomodule_act,
         preantipode_entry, preantipode_entry_sweedler,
         antipode_s, antipode_alpha, antipode_beta, antipode_s_sweedler,
         antipode_alpha_sweedler, antipode_beta_sweedler, antipode_rescaled,
         preantipode_delta_order, antipode_delta_order,
         retraction_zero, retraction_perturbed, retraction_dropped_entry,
         cocycle_value, cocycle_zero_and_unnormalized, projection_formula]


EXPECTED = {
    'dqb_delta': [
        '{"axiom": "coassociativity", "pass": false, "witness": [3], "lhs": "1*e(0,0,3) + 1*e(0,3,1) + 2*e(1,2,1) + 2*e(2,0,1) + 2*e(2,1,1) + 1*e(3,1,1)", "rhs": "1*e(0,0,3) + 2*e(0,2,1) + 1*e(0,3,1) + 2*e(2,1,1) + 1*e(3,1,1)"}',
        '{"axiom": "counit-left", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "counit-right", "pass": false, "witness": [3], "lhs": "2*e(2) + 1*e(3)", "rhs": "1*e(3)"}',
        '{"axiom": "multiplication-comultiplicative", "pass": false, "witness": [1, 2], "lhs": "1*e(0,3) + 2*e(2,1) + 1*e(3,1)", "rhs": "1*e(0,3) + 1*e(3,1)"}',
        '{"axiom": "multiplication-counital", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-comultiplicative", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-counital", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "reassociator-invertible", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-identity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-normalization-left", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-normalization-middle", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-normalization-right", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "quasi-associativity", "pass": false, "witness": [0, 0, 3], "lhs": "2*e(2) + 1*e(3)", "rhs": "1*e(3)"}',
        '{"axiom": "unit-left", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-right", "pass": true, "witness": null, "lhs": null, "rhs": null}',
    ],
    'dqb_mul': [
        '{"axiom": "coassociativity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "counit-left", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "counit-right", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "multiplication-comultiplicative", "pass": false, "witness": [1, 2], "lhs": "1*e(0,0) + 2*e(1,1)", "rhs": "1*e(0,0) + 2*e(0,1) + 2*e(1,0) + 4*e(1,1)"}',
        '{"axiom": "multiplication-counital", "pass": false, "witness": [1, 2], "lhs": "3", "rhs": "1"}',
        '{"axiom": "unit-comultiplicative", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-counital", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "reassociator-invertible", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-identity", "pass": false, "witness": [0, 0, 1, 2], "lhs": "3", "rhs": "1"}',
        '{"axiom": "cocycle-normalization-left", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-normalization-middle", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-normalization-right", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "quasi-associativity", "pass": false, "witness": [1, 1, 1], "lhs": "1*e(0) + 2*e(1)", "rhs": "1*e(0)"}',
        '{"axiom": "unit-left", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-right", "pass": true, "witness": null, "lhs": null, "rhs": null}',
    ],
    'dqb_mul_sweedler': [
        '{"axiom": "coassociativity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "counit-left", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "counit-right", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "multiplication-comultiplicative", "pass": false, "witness": [2, 2], "lhs": "0", "rhs": "3*e(3,2)"}',
        '{"axiom": "multiplication-counital", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-comultiplicative", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-counital", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "reassociator-invertible", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-identity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-normalization-left", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-normalization-middle", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-normalization-right", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "quasi-associativity", "pass": false, "witness": [1, 2, 1], "lhs": "2*e(2)", "rhs": "-1*e(2)"}',
        '{"axiom": "unit-left", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-right", "pass": true, "witness": null, "lhs": null, "rhs": null}',
    ],
    'dqb_omega': [
        '{"axiom": "coassociativity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "counit-left", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "counit-right", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "multiplication-comultiplicative", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "multiplication-counital", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-comultiplicative", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-counital", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "reassociator-invertible", "pass": false, "witness": [2, 1, 1], "lhs": "z", "rhs": "1"}',
        '{"axiom": "cocycle-identity", "pass": false, "witness": [1, 1, 1, 1], "lhs": "-z - 1", "rhs": "z"}',
        '{"axiom": "cocycle-normalization-left", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-normalization-middle", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-normalization-right", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "quasi-associativity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-left", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-right", "pass": true, "witness": null, "lhs": null, "rhs": null}',
    ],
    'dqb_counit': [
        '{"axiom": "coassociativity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "counit-left", "pass": false, "witness": [3], "lhs": "1*e(1) + 1*e(3)", "rhs": "1*e(3)"}',
        '{"axiom": "counit-right", "pass": false, "witness": [3], "lhs": "1*e(0) + 1*e(3)", "rhs": "1*e(3)"}',
        '{"axiom": "multiplication-comultiplicative", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "multiplication-counital", "pass": false, "witness": [1, 2], "lhs": "1", "rhs": "0"}',
        '{"axiom": "unit-comultiplicative", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-counital", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "reassociator-invertible", "pass": false, "witness": [0, 0, 3], "lhs": "0", "rhs": "1"}',
        '{"axiom": "cocycle-identity", "pass": false, "witness": [0, 0, 0, 3], "lhs": "0", "rhs": "1"}',
        '{"axiom": "cocycle-normalization-left", "pass": false, "witness": [0, 3], "lhs": "0", "rhs": "1"}',
        '{"axiom": "cocycle-normalization-middle", "pass": false, "witness": [0, 3], "lhs": "0", "rhs": "1"}',
        '{"axiom": "cocycle-normalization-right", "pass": false, "witness": [0, 3], "lhs": "0", "rhs": "1"}',
        '{"axiom": "quasi-associativity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-left", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-right", "pass": true, "witness": null, "lhs": null, "rhs": null}',
    ],
    'dqb_unit': [
        '{"axiom": "coassociativity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "counit-left", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "counit-right", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "multiplication-comultiplicative", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "multiplication-counital", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-comultiplicative", "pass": false, "witness": null, "lhs": "1*e(0,0) + 2*e(1,1)", "rhs": "1*e(0,0) + 2*e(0,1) + 2*e(1,0) + 4*e(1,1)"}',
        '{"axiom": "unit-counital", "pass": false, "witness": null, "lhs": "3", "rhs": "1"}',
        '{"axiom": "reassociator-invertible", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-identity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-normalization-left", "pass": false, "witness": [0, 0], "lhs": "3", "rhs": "1"}',
        '{"axiom": "cocycle-normalization-middle", "pass": false, "witness": [0, 0], "lhs": "3", "rhs": "1"}',
        '{"axiom": "cocycle-normalization-right", "pass": false, "witness": [0, 0], "lhs": "3", "rhs": "1"}',
        '{"axiom": "quasi-associativity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "unit-left", "pass": false, "witness": [0], "lhs": "1*e(0) + 2*e(1)", "rhs": "1*e(0)"}',
        '{"axiom": "unit-right", "pass": false, "witness": [0], "lhs": "1*e(0) + 2*e(1)", "rhs": "1*e(0)"}',
    ],
    'left_comodule_rho_l': [
        '{"axiom": "left-coassociativity", "pass": false, "witness": [1], "lhs": "3*e(1,1,1)", "rhs": "9*e(1,1,1)"}',
        '{"axiom": "left-counit", "pass": false, "witness": [1], "lhs": "3*e(1)", "rhs": "1*e(1)"}',
    ],
    'bicomodule_rho_l': [
        '{"axiom": "left-coassociativity", "pass": false, "witness": [2], "lhs": "1*e(0,0,2) + 1*e(1,1,2)", "rhs": "1*e(0,0,2) + 1*e(0,1,2) + 1*e(1,0,2) + 1*e(1,1,2)"}',
        '{"axiom": "left-counit", "pass": false, "witness": [2], "lhs": "2*e(2)", "rhs": "1*e(2)"}',
        '{"axiom": "right-coassociativity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "right-counit", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "bicomodule-compatibility", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "action-unit", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "action-left-colinear", "pass": false, "witness": [2, 1], "lhs": "1*e(1,3)", "rhs": "1*e(0,3) + 1*e(1,3)"}',
        '{"axiom": "action-right-colinear", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "action-quasi-associativity", "pass": false, "witness": [2, 0, 0], "lhs": "1*e(2)", "rhs": "2*e(2)"}',
    ],
    'bicomodule_rho_r': [
        '{"axiom": "left-coassociativity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "left-counit", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "right-coassociativity", "pass": false, "witness": [3], "lhs": "2*e(3,0,0)", "rhs": "4*e(3,0,0)"}',
        '{"axiom": "right-counit", "pass": false, "witness": [3], "lhs": "2*e(3)", "rhs": "1*e(3)"}',
        '{"axiom": "bicomodule-compatibility", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "action-unit", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "action-left-colinear", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "action-right-colinear", "pass": false, "witness": [2, 1], "lhs": "2*e(3,0)", "rhs": "1*e(3,0)"}',
        '{"axiom": "action-quasi-associativity", "pass": false, "witness": [3, 0, 0], "lhs": "1*e(3)", "rhs": "2*e(3)"}',
    ],
    'bicomodule_act': [
        '{"axiom": "left-coassociativity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "left-counit", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "right-coassociativity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "right-counit", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "bicomodule-compatibility", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "action-unit", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "action-left-colinear", "pass": false, "witness": [3, 1], "lhs": "-1*e(0,2) + 2*e(1,1)", "rhs": "2*e(0,1) + -1*e(0,2)"}',
        '{"axiom": "action-right-colinear", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "action-quasi-associativity", "pass": false, "witness": [2, 1, 1], "lhs": "2*e(1) + -1*e(2)", "rhs": "-1*e(2)"}',
    ],
    'preantipode_entry': [
        '{"axiom": "preantipode-right-coaction", "pass": false, "witness": [2], "lhs": "5*e(0,2) + z*e(1,0)", "rhs": "5*e(0,0) + z*e(1,0)"}',
        '{"axiom": "preantipode-left-coaction", "pass": false, "witness": [2], "lhs": "z*e(0,1) + 5*e(2,0)", "rhs": "5*e(0,0) + z*e(0,1)"}',
        '{"axiom": "preantipode-reassociator-counit", "pass": false, "witness": [2], "lhs": "6", "rhs": "1"}',
        '{"axiom": "preantipode-counit-left", "pass": false, "witness": [2], "lhs": "z*e(0) + 5*e(2)", "rhs": "(z + 5)*e(0)"}',
        '{"axiom": "preantipode-counit-right", "pass": false, "witness": [2], "lhs": "z*e(0) + 5*e(2)", "rhs": "(z + 5)*e(0)"}',
    ],
    'preantipode_entry_sweedler': [
        '{"axiom": "preantipode-right-coaction", "pass": false, "witness": [3], "lhs": "4*e(1,2) + 5*e(2,0)", "rhs": "5*e(2,0)"}',
        '{"axiom": "preantipode-left-coaction", "pass": false, "witness": [3], "lhs": "5*e(0,2) + -4*e(3,0)", "rhs": "5*e(0,2)"}',
        '{"axiom": "preantipode-reassociator-counit", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "preantipode-counit-left", "pass": false, "witness": [3], "lhs": "4*e(2)", "rhs": "0"}',
        '{"axiom": "preantipode-counit-right", "pass": false, "witness": [3], "lhs": "-4*e(3)", "rhs": "0"}',
    ],
    'antipode_s': [
        '{"axiom": "antipode-comultiplication", "pass": false, "witness": [2], "lhs": "z*e(1,1)", "rhs": "(-z - 1)*e(1,1)"}',
        '{"axiom": "antipode-counit", "pass": false, "witness": [2], "lhs": "z", "rhs": "1"}',
        '{"axiom": "antipode-left-contraction", "pass": false, "witness": [2], "lhs": "(-z - 1)*e(0)", "rhs": "z*e(0)"}',
        '{"axiom": "antipode-right-contraction", "pass": false, "witness": [2], "lhs": "z*e(0)", "rhs": "1*e(0)"}',
        '{"axiom": "antipode-reassociator", "pass": false, "witness": [2], "lhs": "z", "rhs": "1"}',
        '{"axiom": "antipode-reassociator-inverse", "pass": false, "witness": [2], "lhs": "-z - 1", "rhs": "1"}',
    ],
    'antipode_alpha': [
        '{"axiom": "antipode-comultiplication", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-counit", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-left-contraction", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-right-contraction", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-reassociator", "pass": false, "witness": [2], "lhs": "2", "rhs": "1"}',
        '{"axiom": "antipode-reassociator-inverse", "pass": false, "witness": [2], "lhs": "2", "rhs": "1"}',
    ],
    'antipode_beta': [
        '{"axiom": "antipode-comultiplication", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-counit", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-left-contraction", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-right-contraction", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-reassociator", "pass": false, "witness": [1], "lhs": "2*z", "rhs": "1"}',
        '{"axiom": "antipode-reassociator-inverse", "pass": false, "witness": [1], "lhs": "2*z", "rhs": "1"}',
    ],
    'antipode_s_sweedler': [
        '{"axiom": "antipode-comultiplication", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-counit", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-left-contraction", "pass": false, "witness": [3], "lhs": "1*e(2)", "rhs": "0"}',
        '{"axiom": "antipode-right-contraction", "pass": false, "witness": [3], "lhs": "-1*e(3)", "rhs": "0"}',
        '{"axiom": "antipode-reassociator", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-reassociator-inverse", "pass": true, "witness": null, "lhs": null, "rhs": null}',
    ],
    'antipode_alpha_sweedler': [
        '{"axiom": "antipode-comultiplication", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-counit", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-left-contraction", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-right-contraction", "pass": false, "witness": [2], "lhs": "2*e(3)", "rhs": "0"}',
        '{"axiom": "antipode-reassociator", "pass": false, "witness": [1], "lhs": "3", "rhs": "1"}',
        '{"axiom": "antipode-reassociator-inverse", "pass": false, "witness": [1], "lhs": "3", "rhs": "1"}',
    ],
    'antipode_beta_sweedler': [
        '{"axiom": "antipode-comultiplication", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-counit", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-left-contraction", "pass": false, "witness": [3], "lhs": "2*e(1)", "rhs": "2*e(0)"}',
        '{"axiom": "antipode-right-contraction", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-reassociator", "pass": false, "witness": [3], "lhs": "2", "rhs": "0"}',
        '{"axiom": "antipode-reassociator-inverse", "pass": false, "witness": [3], "lhs": "2", "rhs": "0"}',
    ],
    'antipode_rescaled': [
        '{"axiom": "antipode-comultiplication", "pass": false, "witness": [1], "lhs": "2*e(2,2)", "rhs": "4*e(2,2)"}',
        '{"axiom": "antipode-counit", "pass": false, "witness": [1], "lhs": "2", "rhs": "1"}',
        '{"axiom": "antipode-left-contraction", "pass": false, "witness": [1], "lhs": "(-z - 1)*e(0)", "rhs": "(-1/2*z - 1/2)*e(0)"}',
        '{"axiom": "antipode-right-contraction", "pass": false, "witness": [1], "lhs": "2*e(0)", "rhs": "1*e(0)"}',
        '{"axiom": "antipode-reassociator", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-reassociator-inverse", "pass": false, "witness": [1], "lhs": "2", "rhs": "1"}',
    ],
    'preantipode_delta_order': [
        '{"axiom": "preantipode-right-coaction", "pass": false, "witness": [0], "lhs": "1*e(0,0) + 1*e(0,1) + 1*e(1,1)", "rhs": "1*e(0,0)"}',
        '{"axiom": "preantipode-left-coaction", "pass": false, "witness": [0], "lhs": "1*e(0,0) + 1*e(0,1) + 1*e(1,0) + 1*e(1,1)", "rhs": "1*e(0,0)"}',
        '{"axiom": "preantipode-reassociator-counit", "pass": false, "witness": [0], "lhs": "3", "rhs": "1"}',
        '{"axiom": "preantipode-counit-left", "pass": false, "witness": [0], "lhs": "1*e(0) + 1*e(1)", "rhs": "1*e(0)"}',
        '{"axiom": "preantipode-counit-right", "pass": false, "witness": [0], "lhs": "1*e(0) + 1*e(1)", "rhs": "1*e(0)"}',
    ],
    'antipode_delta_order': [
        '{"axiom": "antipode-comultiplication", "pass": false, "witness": [0], "lhs": "1*e(0,0) + 1*e(0,1)", "rhs": "1*e(0,0) + 1*e(1,0)"}',
        '{"axiom": "antipode-counit", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "antipode-left-contraction", "pass": false, "witness": [0], "lhs": "2*e(0) + 2*e(1)", "rhs": "1*e(0)"}',
        '{"axiom": "antipode-right-contraction", "pass": false, "witness": [0], "lhs": "2*e(0) + 2*e(1)", "rhs": "1*e(0)"}',
        '{"axiom": "antipode-reassociator", "pass": false, "witness": [0], "lhs": "7", "rhs": "1"}',
        '{"axiom": "antipode-reassociator-inverse", "pass": false, "witness": [0], "lhs": "7", "rhs": "1"}',
    ],
    'retraction_zero': [
        '{"axiom": "retraction-into-coinvariants", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "retraction-module-identity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "retraction-left-colinearity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "retraction-splits-counit", "pass": false, "witness": [0], "lhs": "0", "rhs": "1*e(0)"}',
        '{"axiom": "retraction-fixes-coinvariants", "pass": false, "witness": [0, 0], "lhs": "0", "rhs": "1*e(0)"}',
    ],
    'retraction_perturbed': [
        '{"axiom": "retraction-into-coinvariants", "pass": false, "witness": [2], "lhs": "1*e(0,0) + 5*e(2,2)", "rhs": "1*e(0,0) + 5*e(2,0)"}',
        '{"axiom": "retraction-module-identity", "pass": false, "witness": [0, 2], "lhs": "1*e(0) + 5*e(2)", "rhs": "1*e(0)"}',
        '{"axiom": "retraction-left-colinearity", "pass": false, "witness": [2], "lhs": "1*e(2,0) + 5*e(2,2)", "rhs": "5*e(1,2) + 1*e(2,0)"}',
        '{"axiom": "retraction-splits-counit", "pass": false, "witness": [2], "lhs": "5*e(1) + 1*e(2)", "rhs": "1*e(2)"}',
        '{"axiom": "retraction-fixes-coinvariants", "pass": false, "witness": [0, 2], "lhs": "1*e(0) + 5*e(2)", "rhs": "1*e(0)"}',
    ],
    'retraction_dropped_entry': [
        '{"axiom": "retraction-into-coinvariants", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "retraction-module-identity", "pass": false, "witness": [0, 2], "lhs": "0", "rhs": "1*e(0)"}',
        '{"axiom": "retraction-left-colinearity", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "retraction-splits-counit", "pass": false, "witness": [2], "lhs": "0", "rhs": "1*e(2)"}',
        '{"axiom": "retraction-fixes-coinvariants", "pass": false, "witness": [0, 2], "lhs": "0", "rhs": "1*e(0)"}',
    ],
    'cocycle_value': [
        '{"axiom": "cocycle-nonzero", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-normalized", "pass": true, "witness": null, "lhs": null, "rhs": null}',
        '{"axiom": "cocycle-identity", "pass": false, "witness": [1, 1, 1, 2], "lhs": "1", "rhs": "-z - 1"}',
    ],
    'cocycle_zero_and_unnormalized': [
        '{"axiom": "cocycle-nonzero", "pass": false, "witness": [2, 2, 1], "lhs": "0", "rhs": "nonzero"}',
        '{"axiom": "cocycle-normalized", "pass": false, "witness": [2, 0, 1], "lhs": "z", "rhs": "1"}',
        '{"axiom": "cocycle-identity", "pass": false, "witness": [1, 1, 0, 1], "lhs": "1", "rhs": "z"}',
    ],
    'projection_formula': [
        '{"axiom": "retraction-projection-formula", "pass": false, "witness": [1], "lhs": "1*e(0)", "rhs": "2*e(0)"}',
    ],
}


@pytest.mark.parametrize("case", CASES, ids=lambda fn: fn.__name__)
def test_failure_report(case):
    assert serialize_report(case(), "json-lines") == "\n".join(EXPECTED[case.__name__])


def test_every_case_fails_somewhere():
    for case in CASES:
        assert any('"pass": false' in line for line in EXPECTED[case.__name__]), case.__name__
