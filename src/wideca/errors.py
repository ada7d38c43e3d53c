"""Exception types shared across the package.

The CLI maps these onto stable exit codes: validation problems exit 1,
numerical failures exit 2, and I/O failures (OSError) exit 3. A
MemoryError (an input too large to hold) also exits 1.
"""


class ValidationError(ValueError):
    """Input data or parameters violate a documented contract."""


class ParseError(ValidationError):
    """A text file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericalError(RuntimeError):
    """A numerical routine failed (non-convergence, indefinite operator)."""
