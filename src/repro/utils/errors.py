"""Exception types used across the library.

A small, explicit hierarchy so that callers can either catch the broad
:class:`ReproError` or a specific subclass.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """An object was configured with invalid or inconsistent options.

    Also a :class:`ValueError`: an invalid option *is* an invalid value, and
    callers holding only standard-library expectations (e.g. the campaign
    executor factory's unknown-backend rejection) can catch it without
    importing this module.
    """


class ShapeError(ReproError):
    """An array argument has an incompatible shape."""

