"""Exception types shared across the package."""


class FvsError(Exception):
    """Base class for all package errors."""


class MemberNotInGraph(FvsError):
    """A vertex or edge argument is not part of the graph."""


class PreconditionViolated(FvsError):
    """An operation was called on input outside its stated domain."""


class InternalInvariantBroken(FvsError):
    """A structural guarantee the algorithms rely on failed; signals a bug."""


class InvalidRotation(FvsError):
    """A rotation system is structurally inconsistent with its graph."""


class NonPlanarRotation(FvsError):
    """A rotation system fails the Euler check, so it encodes no plane embedding."""


class InvalidMerger(FvsError):
    """A merger specification does not match the plane graph it is applied to."""


class WouldCreateParallelEdge(FvsError):
    """Suppressing a degree-2 vertex whose neighbors are already adjacent."""


class UnknownInstanceName(FvsError):
    """No named instance under that name."""


class GenerationFailed(FvsError):
    """A randomized generator exhausted its retry budget."""


class ParseError(FvsError):
    """A graph file failed to parse; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TooLarge(FvsError):
    """Input exceeds the hard size limit of an exhaustive routine."""
