"""Exception hierarchy shared by every layer of the analyzer.

Each class carries a stable machine-readable ``code`` and the CLI's
``exit_status`` for it: 2 for an input error, 3 for a resource limit.
"""

from __future__ import annotations


class AnalysisError(Exception):
    """Base class for all analyzer errors."""

    code = "E_ERROR"
    exit_status = 2

    def __init__(self, message: str, *, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(AnalysisError):
    code = "E_PARSE"


class DeclarationError(AnalysisError):
    """A name is undeclared, duplicated, or not a legal identifier."""

    code = "E_UNDECLARED"


class SelfReferenceError(AnalysisError):
    """An assignment's right-hand side mentions the assigned variable."""

    code = "E_SELF_REF"


class GraphError(AnalysisError):
    code = "E_GRAPH"

    def __init__(self, message: str, *, line: int | None = None, node: int | None = None):
        super().__init__(message, line=line)
        self.node = node


class UniverseMismatchError(AnalysisError):
    """Two values built over different term universes were combined."""

    code = "E_UNIVERSE"


class IterationLimitError(AnalysisError):
    code = "E_ITER_LIMIT"
    exit_status = 3


class PathLimitError(AnalysisError):
    code = "E_PATH_LIMIT"
    exit_status = 3
