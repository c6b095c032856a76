"""Exception hierarchy shared across the package."""


class TorsionLabError(Exception):
    """Base class for all torsionlab errors."""


class InputError(TorsionLabError, ValueError):
    """Bad input, the one error the command line exits 2 on; a ``ValueError`` for callers."""


class RingSpecError(InputError):
    """A ring / module / axiom specification failed to parse."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at {position})"
        super().__init__(message)


class TableError(InputError):
    """An operation table violates a structural axiom.

    Carries the name of the failed axiom and a witness tuple of element
    indices that falsifies it.
    """

    def __init__(self, axiom, witness, message=None):
        self.axiom = axiom
        self.witness = tuple(witness)
        super().__init__(message or f"axiom {axiom!r} fails at witness {self.witness}")


class ReductionError(TorsionLabError):
    """A delta axiom does not reduce: a coefficient condition failed."""

    def __init__(self, row, coefficient, message):
        self.row = row
        self.coefficient = coefficient
        super().__init__(message)


class InvariantError(TorsionLabError):
    """Internal hard fault: a consequence that must hold was falsified.

    Raised when a computation contradicts a proved property; it always
    indicates a bug or a genuine counterexample and is never caught by
    the library itself.
    """
