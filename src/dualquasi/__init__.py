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
    "adjunction": ("adjunction_counit", "adjunction_unit", "coinvariant_comodule"),
    "antipode": ("anti_homomorphism_defect", "check_antipode",
                 "preantipode_from_antipode"),
    "axioms": ("validate_dqb",),
    "comodules": ("Bicomodule", "HopfBicomodule", "LeftComodule", "coinvariants",
                  "free_hopf_bicomodule", "hhat", "induce_bicomodule",
                  "regular_bicomodule", "trivial_left_coaction",
                  "trivial_right_coaction", "validate_bicomodule",
                  "validate_left_comodule"),
    "convolutions": ("convolution", "convolution_inverse"),
    "dqb": ("AntipodeData", "DualQuasiBialgebra"),
    "elimination": ("AffineSolution", "Subspace", "inverse", "kernel", "rank",
                    "solve_affine"),
    "errors": ("DimensionMismatch", "DocumentError", "DualQuasiError",
               "InvariantViolation", "ScalarParseError"),
    "fields": ("Field",),
    "groups": ("Cocycle", "GroupData", "GroupExample", "canonical_group_preantipode",
               "cyclic_cocycle", "cyclic_group_example", "group_antipode_data",
               "group_dqb", "idempotent_monoid_bialgebra", "trivial_cocycle",
               "validate_cocycle"),
    "io": ("load_antipode", "load_bicomodule", "load_dqb", "load_preantipode"),
    "linalg": ("Matrix", "tensor_index", "tensor_unindex"),
    "preantipode": ("PreantipodeFamily", "check_preantipode", "solve_preantipode"),
    "report": ("Check", "Report", "serialize_report"),
    "scalars": ("Scalar",),
    "structure": ("check_projection_formula", "retraction_report", "structure_theorem"),
    "writers": ("dump_antipode", "dump_bicomodule", "dump_dqb", "dump_preantipode"),
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
