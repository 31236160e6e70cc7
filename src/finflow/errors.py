"""Exception types shared across the package."""


class FinflowError(Exception):
    """Base class for every error raised by finflow."""


class CycleError(FinflowError):
    """Declared relations violate antisymmetry (a < b and b < a)."""


class UnknownLabelError(FinflowError):
    """A relation or lookup references a label that was never declared."""


class SizeLimitError(FinflowError):
    """Input exceeds the configured size guard of an operation."""


def check_size(what, n, limit, max_n):
    """Refuse ``n`` elements above ``max_n``, or above ``limit`` when it is None."""
    limit = limit if max_n is None else max_n
    if n > limit:
        raise SizeLimitError(f"{what} limited to {limit} elements (got {n})")


class InvalidSequenceError(FinflowError):
    """A removal sequence fails one of its validity conditions."""


class NegativeTimeError(FinflowError):
    """Semiflows are only defined for non-negative times."""


class ParseError(FinflowError):
    """Malformed poset text; carries the offending line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class SchemaError(FinflowError):
    """JSON input does not match the expected schema."""


class InvalidSpecError(FinflowError):
    """Generator spec has an unknown kind or bad parameters."""
