"""Exception classes shared by all kcompress modules.

A class is added only when a caller can tell it apart by more than its
name: a base to catch everything, a ValueError for bad input and a config
error that names its field. Each raise site is told apart by its message.
"""


class KCompressError(Exception):
    """Base class for all kcompress errors."""


class ValidationError(KCompressError, ValueError):
    """Invalid input data or parameters."""


class ConfigError(KCompressError):
    """Bad experiment configuration (parse or validation failure)."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
