"""Exception types shared across the engine."""


class StarqError(Exception):
    """Base class for all engine errors."""


class InvalidArgument(StarqError):
    """An argument lies outside what a library call accepts: a negative
    degree bound, a morphism whose order-0 operator is not the identity,
    connection symbols that are not symmetric in the lower indices."""


class DimensionMismatch(StarqError):
    """Operands live on phase spaces of different dimension."""


class OrderMismatch(StarqError):
    """Series operands have different truncation orders."""


class OperatorOrderExceeded(StarqError):
    """An operator term exceeds the configured maximum derivative order."""


class NonFlatConnection(StarqError):
    """A construction that requires zero curvature received a curved connection."""


class InvalidFrame(StarqError):
    """A vector-field frame is not pairwise commuting or does not reproduce
    the requested Poisson tensor."""


class CanonicityFailure(StarqError):
    """The coordinates are not quantum canonical for the given product."""


class IncompatibleFamily(StarqError):
    """A per-coordinate operator family admits no common solution of the
    coordinate-commutator equations."""

    def __init__(self, coordinate, message=None):
        self.coordinate = coordinate
        super().__init__(message or f"no solution for coordinate index {coordinate}")


class FamilyKeepsConstants(IncompatibleFamily):
    """An operator of a per-coordinate family does not kill constants, so
    no T with T(1) = T(x^alpha) = 0 has those commutators: such a T gives
    [T, x^alpha](1) = T(x^alpha) - x^alpha T(1) = 0."""

    def __init__(self, coordinate, message=None):
        super().__init__(
            coordinate, message or f"operator for coordinate {coordinate} does not kill constants"
        )


class ExprParseError(StarqError):
    """A polynomial expression string could not be parsed."""


class ProblemSpecError(StarqError):
    """A CLI problem-specification file is malformed."""
