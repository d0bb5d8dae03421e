"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: parse/IO problems -> 2,
validation failures -> 3, artifact incompatibilities -> 4.
"""


class MMDTError(Exception):
    """Base class for all package errors."""


class FormatError(MMDTError):
    """Malformed or unreadable input artifact (JSON/CSV), or unwritable output."""


class ValidationError(MMDTError, ValueError):
    """Input violates an invariant or precondition."""


class IncompatibilityError(MMDTError):
    """Two otherwise valid artifacts do not fit together."""
