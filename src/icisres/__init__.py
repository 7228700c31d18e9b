"""Exact index and residue computations for 1-forms on surface germs.

The package computes the index of a holomorphic 1-form on an isolated
complete-intersection surface singularity two independent ways, as the
dimension of a local algebra and as a Grothendieck residue, over exact
rational arithmetic.  Entry points:

* :func:`solve` runs both computations on a germ and compares them.
* :func:`pairing_report` analyses the residue pairing on the algebras.
* :func:`run_verification` replays randomized identity suites.
* ``icisres`` (console script) drives everything from germ files.
"""

from .errors import (ArityError, CapExceeded, GermFileError, GermSyntaxError,
                     GoodCoordsNotFound, IcisresError, NonRationalCoefficient,
                     NotIsolated, NotMember, NotRegularSequence,
                     NotZeroDimensional, PowerCapExceeded)
from .polycore import Poly, PolyMatrix, default_names, series_determinant
from .localalg import (CAP_STEP, DEFAULT_CAP, INFINITE, MAX_CAP,
                       LiftCertificate, LocalOrder, QuotientAlgebra,
                       StandardBasis, colength, is_regular_on_V, lift,
                       minimal_power_membership, normal_form,
                       quotient_algebra, standard_basis)
from .residues import (ResidueForm, form_index_basis, grothendieck_residue,
                       intersection_multiplicity_both_ways, jacobian_minor,
                       lambda_map, lift_rows, monomial_residue,
                       relative_residue, residue_via_lift)
from .index import (CoordinateChange, GOOD_COORD_ATTEMPTS, GermProblem,
                    MinorSet, SigmaData, SurfaceIndexReport, curve_index,
                    eg_index, find_good_coordinates, germ_residue, ideal_J,
                    identity_change, main_residue, minor, minors, sigma_data,
                    solve)
from .pairing import (CQuotient, GramData, PairingReport, ResidueFunctional,
                      algebra_B, algebra_C, gram_beta, index_algebra,
                      kernel_basis, matrix_rank, pairing_report,
                      residue_functional, socle)
from .verify import (DEFAULT_TRIALS, SUITES, VerificationOutcome,
                     VerificationPlan, builtin_corpus)
from .verify import run as run_verification
from .germfile import GermFile, parse_germ_file

__version__ = "0.1.0"

__all__ = [
    "ArityError", "CapExceeded", "GermFileError", "GermSyntaxError",
    "GoodCoordsNotFound", "IcisresError", "NonRationalCoefficient",
    "NotIsolated", "NotMember", "NotRegularSequence", "NotZeroDimensional",
    "PowerCapExceeded",
    "Poly", "PolyMatrix", "default_names", "series_determinant",
    "CAP_STEP", "DEFAULT_CAP", "INFINITE", "MAX_CAP", "LiftCertificate",
    "LocalOrder", "QuotientAlgebra", "StandardBasis", "colength",
    "is_regular_on_V", "lift", "minimal_power_membership", "normal_form",
    "quotient_algebra", "standard_basis",
    "ResidueForm", "form_index_basis",
    "grothendieck_residue", "intersection_multiplicity_both_ways",
    "jacobian_minor", "lambda_map", "lift_rows", "monomial_residue",
    "relative_residue", "residue_via_lift",
    "CoordinateChange", "GOOD_COORD_ATTEMPTS", "GermProblem", "MinorSet",
    "SigmaData", "SurfaceIndexReport", "curve_index", "eg_index",
    "find_good_coordinates", "germ_residue", "ideal_J", "identity_change",
    "main_residue", "minor", "minors", "sigma_data", "solve",
    "CQuotient", "GramData", "PairingReport", "ResidueFunctional",
    "algebra_B", "algebra_C", "gram_beta", "index_algebra", "kernel_basis",
    "matrix_rank", "pairing_report", "residue_functional", "socle",
    "DEFAULT_TRIALS", "SUITES", "VerificationOutcome", "VerificationPlan",
    "builtin_corpus", "run_verification",
    "GermFile", "parse_germ_file",
    "__version__",
]
