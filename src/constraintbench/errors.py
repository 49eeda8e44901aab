"""Exception types shared across the harness."""


class ConstraintBenchError(Exception):
    """Base class for all harness errors."""


class PatchParseError(ConstraintBenchError):
    """Raised on a malformed unified diff; carries the offending line number."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"{message} (line {line_number})"
        super().__init__(message)


class PromptRenderError(ConstraintBenchError):
    """Raised when a rendered prompt still contains unresolved placeholders."""


class TaskSchemaError(ConstraintBenchError):
    """Raised when a task document is missing or mismatching required fields."""


class CollectionSchemaError(ConstraintBenchError):
    """Raised when a test-collection document violates the collection schema."""


class TaskSetupError(ConstraintBenchError):
    """Raised when preparing a task workspace fails (distinct from a run failure)."""


class MetricError(ConstraintBenchError):
    """Raised when a statistic is undefined for the given input."""


class NotAFailureError(ConstraintBenchError):
    """Raised when failure-analysis helpers receive a passing run."""


class URLSchemeError(ConstraintBenchError, ValueError):
    """Raised for a server URL that is not http://, the one scheme the harness speaks."""
