"""Shared exception types.

Computation errors carry enough context (caps, generators, positions) to
reproduce the failing call; parser errors carry line and column.
"""

from __future__ import annotations


class IcisresError(Exception):
    """Base class for all package errors."""


class CapExceeded(IcisresError):
    """A certified standard basis needs a cap above the hard maximum.

    The message names the cause: the requested cap or a generator's degree
    above the ceiling, a finite staircase that still reaches the cap at
    the ceiling, or an infinite one that has not stabilized by it.
    """


class NotMember(IcisresError):
    """Lift target is not in the ideal up to the working cap."""


class PowerCapExceeded(IcisresError):
    """No pure variable power below the requested bound lies in the ideal."""


class NotZeroDimensional(IcisresError):
    """Quotient algebra construction needs a finite staircase."""


class NotRegularSequence(IcisresError):
    """Residue denominators do not cut out a finite dimensional quotient."""


class NotIsolated(IcisresError):
    """The zero locus of the form data is not isolated on the germ."""


class GoodCoordsNotFound(IcisresError):
    """Random coordinate search exhausted its attempt budget."""


class GermFileError(IcisresError):
    """Problem in a germ description file; knows its position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        base = super().__str__()
        if self.line:
            return f"line {self.line}, column {self.column}: {base}"
        return base


class GermSyntaxError(GermFileError):
    """Malformed expression or file structure."""


class NonRationalCoefficient(GermFileError):
    """Decimal or otherwise non rational literal in an expression."""


class ArityError(GermFileError):
    """Wrong number of equations or form components for the command."""
