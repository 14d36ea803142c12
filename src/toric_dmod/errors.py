"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ParseError -> 2, FanValidationError
subclasses -> 3, PreconditionViolated and friends and ChartRewriteError -> 4.
"""


class ToricDmodError(Exception):
    pass


class ParseError(ToricDmodError):
    pass


class FanValidationError(ToricDmodError):
    pass


class NonSimplicialCone(FanValidationError):
    pass


class NonSmoothCone(FanValidationError):
    pass


class RaysDoNotSpan(FanValidationError):
    pass


class UnknownCone(ToricDmodError):
    pass


class PreconditionViolated(ToricDmodError):
    pass


class InhomogeneousInput(PreconditionViolated):
    pass


class NotInJp(PreconditionViolated):
    pass


class BoxTooSmall(PreconditionViolated):
    pass


class ConeNotMaximal(PreconditionViolated):
    pass


class ConeNotSmooth(PreconditionViolated):
    pass


class PointTooLarge(PreconditionViolated):
    """A lattice point beyond the bounds of the local oracles."""


class ChartRewriteError(ToricDmodError):
    """A chart computation broke one of its own invariants (a bug, not bad input)."""
