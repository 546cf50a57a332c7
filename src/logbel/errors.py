"""Exception types shared across the package."""


class LogbelError(Exception):
    """Base class for every error raised by this package."""


# -- network model / tree construction ---------------------------------------

class FormatError(LogbelError):
    """Malformed network description or command stream."""


class DuplicateId(LogbelError):
    pass


class MissingRoot(LogbelError):
    pass


class MultipleRoots(LogbelError):
    pass


class Cycle(LogbelError):
    """Parent links contain a cycle (or a component unreachable from the root)."""


class RowNotStochastic(LogbelError):
    """A conditional-probability row is negative or does not sum to one."""

    def __init__(self, node: str, row, message: str | None = None):
        self.node = node
        self.row = row
        super().__init__(message or f"node {node!r}: row {row} is not a probability distribution")


class DimensionMismatch(LogbelError):
    pass


class LeafWithoutEvidence(LogbelError):
    pass


class InvalidProbability(LogbelError):
    """A probability vector contains a negative or non-finite entry."""


class UnknownNode(LogbelError):
    pass


class NotALeaf(LogbelError):
    pass


class AllZeroLikelihood(LogbelError):
    pass


class StateSpaceTooLarge(LogbelError):
    pass


class ImpossibleEvidence(LogbelError):
    """The evidence in force has probability zero under the model."""


# -- contraction --------------------------------------------------------------

class TreeTooSmall(LogbelError):
    pass


class LevelOutOfRange(LogbelError):
    pass


# -- polytrees / join trees ----------------------------------------------------

class NotAPolytree(LogbelError):
    pass


class ConstructionError(LogbelError):
    """A join-tree structural guarantee failed verification."""


class DimensionOverflow(LogbelError):
    pass


class UnknownVariable(LogbelError):
    pass
