"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition or format contract;
    a message about one row of a file carries its line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(ValidationError):
    """Raised on malformed tabular input."""


class SearchSpaceError(ValidationError):
    """Raised when an exhaustive search would exceed its configured cap."""
