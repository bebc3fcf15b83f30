"""Exception types shared across the package."""


class InexactDivisionError(ArithmeticError):
    """Raised when a Laurent-polynomial division has a nonzero remainder."""


class NotSkewSymmetrizableError(ValueError):
    """Raised when no positive integer diagonal symmetrizes the matrix."""


class UnclassifiableTileError(ValueError):
    """Raised when a tile does not match any of the five admitted shapes."""


class InfiniteDimensionalAlgebraError(ValueError):
    """Raised when relation-avoiding path enumeration fails to terminate."""


class InvalidStringError(ValueError):
    """Raised when a letter sequence is not a valid reduced walk."""


class WitnessedFault(AssertionError):
    """Raised when a cross-check fails; `witness` is a JSON-ready dict of
    the check's name ("check") and the inputs that reproduce it."""

    def __init__(self, witness):
        super().__init__(witness)
        self.witness = witness
