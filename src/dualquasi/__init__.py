"""Exact-arithmetic toolkit for finite-dimensional dual quasi-bialgebras.

Represents algebras, bicomodules and (pre)antipodes by structure constants
over the rationals or a cyclotomic field, verifies every defining axiom by
exhaustive exact evaluation on basis tuples, solves for preantipodes as
linear systems, and constructively checks the evaluation isomorphism
M^coH⊗H → M on concrete bicomodules.
"""

from .comodules import (Bicomodule, HopfBicomodule, LeftComodule, Subspace,
                        adjunction_counit, adjunction_unit, coinvariant_comodule,
                        coinvariants, free_hopf_bicomodule, hhat,
                        induce_bicomodule, regular_bicomodule,
                        trivial_left_coaction, trivial_right_coaction,
                        validate_bicomodule, validate_left_comodule)
from .dqb import (DualQuasiBialgebra, convolution, convolution_inverse,
                  validate_dqb)
from .errors import (DimensionMismatch, DocumentError, DualQuasiError,
                     InvariantViolation, ScalarParseError)
from .groups import (Cocycle, GroupData, GroupExample, anti_homomorphism_defect,
                     canonical_group_preantipode, cyclic_cocycle,
                     cyclic_group_example, group_antipode_data, group_dqb,
                     idempotent_monoid_bialgebra, trivial_cocycle,
                     validate_cocycle)
from .io import (dump_antipode, dump_bicomodule, dump_dqb, dump_preantipode,
                 load_antipode, load_bicomodule, load_dqb, load_preantipode,
                 serialize_report)
from .linalg import (AffineSolution, Matrix, inverse, kernel, rank, solve_affine,
                     tensor_index, tensor_unindex)
from .preantipode import (AntipodeData, CoinvariantRetraction,
                          PreantipodeFamily, check_antipode, check_preantipode,
                          check_projection_formula, coinvariant_retraction,
                          preantipode_from_antipode, retraction_report,
                          solve_preantipode, structure_isomorphism)
from .report import Check, Report
from .scalars import Field, Scalar

__version__ = "0.1.0"
