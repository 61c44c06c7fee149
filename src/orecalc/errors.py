"""Error taxonomy shared by the whole package.

DomainError: the caller violated a documented precondition (bad input, value
outside the supported range, parse failure).  The CLI maps it to exit code 1.

InternalCheckError: a built-in consistency check failed (an oracle disagreed
with a structured computation, a mathematical invariant did not hold).  This
is never the caller's fault; the CLI maps it to exit code 2.
"""


class DomainError(ValueError):
    """A documented precondition was violated by the input."""


class ParseError(DomainError):
    """Bad textual input; carries a human-readable position."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at column {pos + 1}: {text!r}")


class InternalCheckError(AssertionError):
    """An internal cross-check (oracle vs. structured path) failed; stage,
    when given, names the step and prefixes the message "stage=<stage>: "."""

    def __init__(self, message: str = "", stage: str | None = None):
        super().__init__(message if stage is None else f"stage={stage}: {message}")
        self.stage = stage
