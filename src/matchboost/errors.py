"""Exception types shared across the package."""

from __future__ import annotations


class MatchboostError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(MatchboostError):
    """Input graph or matching text could not be parsed.

    Carries the offending line number (1-based) when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateEdgeError(GraphFormatError):
    pass


class SelfLoopError(GraphFormatError):
    pass


class UnknownVertexError(MatchboostError):
    pass


class InvalidPathError(MatchboostError):
    """A path failed alternation / distinctness / endpoint validation."""


class InvalidEpsilonError(MatchboostError):
    pass


class PreconditionError(MatchboostError):
    """An operation precondition did not hold.

    ``code`` identifies which one (e.g. "P1", "P2", "P3" for the
    overtaking preconditions).
    """

    def __init__(self, message: str, code: str = ""):
        self.code = code
        super().__init__(f"[{code}] {message}" if code else message)


class InternalConsistencyError(MatchboostError):
    """State reached a configuration the algorithm's contracts rule out."""


class OracleContractError(InternalConsistencyError):
    """A matching oracle's answer is not a matching of the graph it was given."""
