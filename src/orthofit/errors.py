"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems (missing files, bad
flags) exit 2, data/model problems exit 3, numeric failures exit 4.
"""


class FieldError(ValueError):
    """A setting outside its range.  ``fields`` lists the settings the
    message names, so a front end can put its own names for them."""

    def __init__(self, message, *fields):
        super().__init__(message)
        self.fields = fields


class OrthofitError(Exception):
    """Base class for all package-specific errors."""


class ParseError(OrthofitError):
    """A data file could not be parsed.  Carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateAxisError(OrthofitError):
    """An independent coordinate takes a single value, so it cannot be
    mapped onto [0, 1]."""


class InsufficientDataError(OrthofitError):
    """Too few points for the requested split or fit."""


class DegenerateFitError(OrthofitError):
    """The fit produced no usable polynomial columns."""


class ModelFormatError(OrthofitError):
    """A model file is unreadable or has an unsupported version."""
