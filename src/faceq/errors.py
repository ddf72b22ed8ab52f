"""Shared exception types.

Parse failures and unsupported input shapes get their own classes so the
command line layer can map them to distinct exit codes.  shown() names an
input text in an error message without echoing all of an over-long one.
"""

SHOWN_CHARS = 40


def shown(value):
    """repr(value), or for a text past SHOWN_CHARS characters its first ones and its length."""
    if not isinstance(value, str) or len(value) <= SHOWN_CHARS:
        return repr(value)
    return f"{value[:SHOWN_CHARS]!r}... ({len(value)} characters)"


class ParseError(ValueError):
    """Malformed input document (quiver, relations, coaction, ...)."""


class UnsupportedShapeError(ValueError):
    """Structurally valid input that the library deliberately refuses."""


class VerificationError(RuntimeError):
    """A construction refused to proceed because a prerequisite check failed.

    Carries the offending report so callers can surface the witness.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
