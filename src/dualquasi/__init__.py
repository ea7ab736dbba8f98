"""Exact-arithmetic toolkit for finite-dimensional dual quasi-bialgebras.

Represents algebras, bicomodules and (pre)antipodes by structure constants
over the rationals or a cyclotomic field, verifies every defining axiom by
exhaustive exact evaluation on basis tuples, solves for preantipodes as
linear systems, and constructively checks the evaluation isomorphism
M^coH⊗H → M on concrete bicomodules.

Each public name is loaded from its submodule on first use, so a command
imports only the layers it runs.
"""

from importlib import import_module

_EXPORTS = {
    "comodules": ("Bicomodule", "HopfBicomodule", "LeftComodule", "Subspace",
                  "adjunction_counit", "adjunction_unit", "coinvariant_comodule",
                  "coinvariants", "free_hopf_bicomodule", "hhat",
                  "induce_bicomodule", "regular_bicomodule",
                  "trivial_left_coaction", "trivial_right_coaction",
                  "validate_bicomodule", "validate_left_comodule"),
    "antipode": ("check_antipode", "preantipode_from_antipode"),
    "dqb": ("AntipodeData", "DualQuasiBialgebra", "convolution",
            "convolution_inverse", "validate_dqb"),
    "errors": ("DimensionMismatch", "DocumentError", "DualQuasiError",
               "InvariantViolation", "ScalarParseError"),
    "groups": ("Cocycle", "GroupData", "GroupExample", "anti_homomorphism_defect",
               "canonical_group_preantipode", "cyclic_cocycle",
               "cyclic_group_example", "group_antipode_data", "group_dqb",
               "idempotent_monoid_bialgebra", "trivial_cocycle",
               "validate_cocycle"),
    "io": ("dump_antipode", "dump_bicomodule", "dump_dqb", "dump_preantipode",
           "load_antipode", "load_bicomodule", "load_dqb", "load_preantipode",
           "serialize_report"),
    "linalg": ("AffineSolution", "Matrix", "inverse", "kernel", "rank",
               "solve_affine", "tensor_index", "tensor_unindex"),
    "preantipode": ("PreantipodeFamily", "check_preantipode", "solve_preantipode"),
    "report": ("Check", "Report"),
    "scalars": ("Field", "Scalar"),
    "structure": ("CoinvariantRetraction", "check_projection_formula",
                  "coinvariant_retraction", "retraction_report",
                  "structure_isomorphism"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
