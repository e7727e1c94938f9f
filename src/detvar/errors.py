"""Exception types shared across the package."""


class DetvarError(Exception):
    """Base class for all package-specific errors."""


class DivisionByZero(DetvarError, ZeroDivisionError):
    pass


class NonSquare(DetvarError):
    pass


class NotHermitian(DetvarError):
    pass


class NoConvergence(DetvarError):
    pass


class DimensionMismatch(DetvarError):
    pass


class ArityMismatch(DetvarError):
    pass


class BadOrder(DetvarError):
    pass


class ZeroDirection(DetvarError):
    pass


class DegenerateLeadingCoefficient(DetvarError):
    pass


class MissingEnsemble(DetvarError):
    pass


class NotAState(DetvarError):
    pass


class BadDims(DetvarError):
    pass


class BadParams(DetvarError):
    pass


class SamplingExhausted(DetvarError):
    pass


class SingularPoint(DetvarError):
    pass


class InconsistentRepresentations(DetvarError):
    """The two membership criteria (the pencil's rank, rank N(r) < n, vs.
    the Hermitian determinant) disagreed beyond tolerance.  This signals a
    bug or a badly chosen tolerance, never a property of the input state."""


class FloatMinors(DetvarError):
    """The symbolic minors of a float pencil were asked for.  A float
    variety is decided on its pencil alone (its count of nonzero minors is
    numerical), so it has no polynomial generators to give."""


class NotHesseShape(DetvarError):
    pass


class SymbolicMismatch(DetvarError):
    pass


class StateFileError(DetvarError):
    """Structured parse error; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
