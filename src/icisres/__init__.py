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
from .polycore import Poly
from .localalg import Ctx
from .index import GermProblem, solve
from .pairing import pairing_report
from .verify import VerificationPlan
from .verify import run as run_verification
from .germfile import GermFile, parse_germ_file

__version__ = "0.1.0"

__all__ = [
    "Poly", "GermProblem", "solve", "pairing_report", "run_verification",
    "VerificationPlan", "Ctx", "parse_germ_file", "GermFile",
    "ArityError", "CapExceeded", "GermFileError", "GermSyntaxError",
    "GoodCoordsNotFound", "IcisresError", "NonRationalCoefficient",
    "NotIsolated", "NotMember", "NotRegularSequence", "NotZeroDimensional",
    "PowerCapExceeded",
    "__version__",
]
