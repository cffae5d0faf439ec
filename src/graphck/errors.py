"""Exception hierarchy.

Errors fall into two classes mirrored by the CLI exit codes: every
`GraphCKError` but `InternalInvariantError` is an input or hypothesis
problem (exit 2, as is an unreadable graph file), and
`InternalInvariantError` is an internal consistency failure (exit 1).
"""


class GraphCKError(Exception):
    """Base class for all package errors."""


class GraphSyntaxError(GraphCKError):
    """Bad graph file: syntax, duplicate ids, undeclared vertices."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ExprSyntaxError(GraphCKError):
    """Bad element expression."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"at position {pos}: {message}"
        super().__init__(message)


class ArgumentRangeError(GraphCKError):
    """A command argument is outside its range (a negative horizon)."""


class GraphMismatchError(GraphCKError):
    """Operands live over different ambient graphs."""


class SinkObstructionError(GraphCKError):
    """A rewrite needed to expand past a sink vertex."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"expansion blocked at sink vertex {vertex!r}")


class HypothesisError(GraphCKError):
    """A graph-level precondition (no sinks / no sources / connected) fails."""


class NotAProjectionError(GraphCKError):
    """An operation required a projection (in the fixed-point algebra)."""


class AdmissibilityError(GraphCKError):
    """A partial isometry fails the admissibility checks for pairing."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics) or "not admissible")


class InternalInvariantError(GraphCKError):
    """An internal consistency check failed; indicates a bug, not bad input."""
