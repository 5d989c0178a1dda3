"""Shared exception types.

Every failure mode that a caller is expected to branch on gets its own
class; generic misuse raises ValueError.
"""


class SpwError(Exception):
    """Base class for all workbench errors."""


class CompositionNonzero(SpwError):
    """A complex was given maps whose composite is not zero."""


class NoSolution(SpwError):
    """solve_linear() was fed a right hand side outside the image."""


class IdentityViolated(SpwError):
    """An exact identity that holds by construction failed: an internal fault."""


class BidegreeMismatch(SpwError):
    """A structure map does not land in its declared (weight, degree) slot."""


class WindowTooSmall(SpwError):
    """A truncation window is not closed under the differentials.

    Raised instead of silently truncating; carries a witness monomial or
    basis element when available.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SignError(SpwError):
    """A graded Leibniz/sign consistency check failed; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ShiftMismatch(SpwError):
    """Two polyvectors from different algebras or shifts were combined."""


class BidegreeError(SpwError):
    """An element does not have the (weight, degree) required by an operation."""


class NotRegular(SpwError):
    """Koszul probe detected higher homotopy for an asserted regular sequence."""


class NotFreeOnV(SpwError):
    """Input mixed cdga is not free on weight-1, degree-1 generators."""


class NotInvariant(SpwError):
    """A tensor failed an invariance precondition."""


class Degenerate(SpwError):
    """A pairing required to be invertible at the augmentation is not."""


class NotMinimal(SpwError):
    """The differential does not vanish at the augmentation point."""


class GaugeNotFound(SpwError):
    """A bounded gauge search found no solution: the form has no strict
    representative with a gauge in the window (an obstruction there)."""


class ArityTooLarge(SpwError):
    """Operad computations are capped at arity 4."""


class ParseError(SpwError):
    """DSL parse failure with position and expectation info."""

    def __init__(self, message, line, col, expected=()):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.expected = tuple(expected)


class DuplicateName(SpwError):
    """Two DSL blocks, or two generators of an algebra, share a name."""


class UnresolvedReference(SpwError):
    """A DSL block refers to a name that is not defined."""
