"""Exception types shared across the package."""


class CoxboundaryError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(CoxboundaryError):
    """A Coxeter matrix violates one of its defining conditions."""


class AsymmetricMatrix(InvalidMatrix):
    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(f"matrix is not symmetric at ({i}, {j})")


class BadDiagonal(InvalidMatrix):
    def __init__(self, i):
        self.index = i
        super().__init__(f"diagonal entry at ({i}, {i}) must be 1")


class EntryBelowTwo(InvalidMatrix):
    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(f"off-diagonal entry at ({i}, {j}) must be >= 2")


class DuplicateLabel(InvalidMatrix):
    def __init__(self, label, i, j):
        self.label = label
        self.pair = (i, j)
        super().__init__(f"generator label {label!r} appears at both {i} and {j}")


class BadShape(InvalidMatrix, ValueError):
    """The matrix is not square, or not of the size of the label list."""


class BadLetter(CoxboundaryError, ValueError):
    """A word letter is not the index of a generator of the system."""


class NotRightAngled(CoxboundaryError):
    """Operation requires every off-diagonal entry to be 2 or infinity."""


class NotIrreducible(CoxboundaryError):
    """Operation requires a connected non-commuting graph."""


class DescentContainsS0(CoxboundaryError):
    """descent_update was called with a generator already in the descent set."""


class ForbiddenCoversS(CoxboundaryError):
    """No admissible chain start: the forbidden set covers all generators."""


class ChainStartsInDescent(CoxboundaryError):
    """A chain cannot start with a letter in the word's descent set."""


class NoSuchX(CoxboundaryError):
    """No length-<=1 step keeps the joint descent union proper.

    Under the documented preconditions this never fires; seeing it means a
    hypothesis was violated (or a bug).
    """


class HorizonTooSmall(CoxboundaryError):
    """Ray validation horizon below the head + two periods minimum."""


class Unstable(CoxboundaryError):
    """Translated ray prefixes did not stabilize; enlarge the margin."""


class OrderNotInfinite(CoxboundaryError):
    """The selected generator pair must have infinite product order."""


class BoundaryTooSmallError(CoxboundaryError):
    """Operation requires a boundary with more than two points."""


class UnknownGenerator(CoxboundaryError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"unknown generator {label!r}")


class UnknownRay(CoxboundaryError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"no ray named {name!r} in the system file")


class SystemFileError(CoxboundaryError):
    """Parse failure in a system file, with 1-based position info."""

    def __init__(self, message, line, column=None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")
