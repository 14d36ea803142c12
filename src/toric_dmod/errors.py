"""Exception hierarchy shared across the package.

Each error type carries the exit code the CLI returns for it: 3 for a
semantic validation error (the default), 2 for ParseError, 4 for
PreconditionViolated, its subclasses and ChartRewriteError.
"""


class ToricDmodError(Exception):
    exit_code = 3


class ParseError(ToricDmodError):
    exit_code = 2


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
    exit_code = 4


class InhomogeneousInput(PreconditionViolated):
    pass


class NotInJp(PreconditionViolated):
    pass


class ConeNotMaximal(PreconditionViolated):
    pass


class PointTooLarge(PreconditionViolated):
    """A lattice point beyond the bounds of the local oracles."""


class ChartRewriteError(ToricDmodError):
    """A chart computation broke one of its own invariants (a bug, not bad input)."""

    exit_code = 4
