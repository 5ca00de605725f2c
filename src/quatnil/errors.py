"""Exception types shared across the package."""


class QuatnilError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(QuatnilError, ValueError):
    """An argument violates a basic parameter requirement (e.g. zero where nonzero needed)."""


class AlgebraMismatchError(ParameterError):
    """Two values from different quaternion algebras were combined."""


class NotDivisionAlgebraError(ParameterError):
    """The pair (a, b) defines a split algebra, not a division algebra."""


class DimensionMismatchError(ParameterError):
    """Matrix/vector shapes are incompatible for the requested operation."""


class PreconditionError(QuatnilError, ValueError):
    """A documented precondition of an operation does not hold."""


class ObstructionError(PreconditionError):
    """A witness was requested for a relation that provably does not hold."""


class ParseError(QuatnilError, ValueError):
    """Malformed serialized input."""


class SearchBudgetExceeded(QuatnilError, RuntimeError):
    """A bounded constructive search ran out.

    Distinct from a negative decision: the existence question was answered
    yes (or is guaranteed), only the construction failed to find a witness.
    Two construction searches can run out: the candidate list for a cyclic
    vector at n = 3, and the cap on trial decisions that non-cyclic corner
    vectors spend at n >= 4.  Neither the decision nor the n = 2 reduction
    raises it: `sqrt_pure` ends by a conic descent, `_diag_zero_2x2` by a proof.
    """


class CertificateError(QuatnilError, RuntimeError):
    """A certificate failed the final check before it would have been returned.

    This is a defect in a construction, never a property of the input: no
    public function returns a certificate that has not passed its check, and
    the check is an explicit test that `python -O` keeps.
    """
