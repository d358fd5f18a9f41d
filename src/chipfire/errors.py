"""Exception types shared across the package."""


def quoted(text: str) -> str:
    """``repr(text)`` for an error message, cut to 40 characters when longer."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


class ChipfireError(Exception):
    """Base class for every error raised by this package."""


class GraphError(ChipfireError):
    """Structurally invalid graph input: unknown vertex, bad weight, bad edge."""


class DisconnectedError(ChipfireError):
    """The operation is only defined on connected graphs."""


class DomainError(ChipfireError):
    """Arguments outside an operation's domain (non-effective divisor, mismatched graphs, ...)."""


class BudgetError(ChipfireError):
    """An enumeration would exceed its configured budget; refuse loudly instead of hanging."""

    def __init__(self, message: str, count: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.count = count
        self.budget = budget


class ParseError(ChipfireError):
    """Malformed graph file or divisor literal."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class FixtureError(ChipfireError):
    """A pinned fixture failed its load-time self-validation."""


class InternalError(ChipfireError):
    """An internal consistency guard tripped; this indicates a bug, not bad input."""
