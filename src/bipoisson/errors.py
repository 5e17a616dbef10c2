"""The shared constants, the size cap and the side tags, and the shared
exception types; every module may import it without loading another."""

# Largest ground set (partitions) or word (transform plans) the engine
# builds; Catalan(12) = 208012 partitions are kept in memory.
DEFAULT_CAP = 12

# The side tags of a two-faced word's letters: left and right
LEFT = "l"
RIGHT = "r"


class CliError(Exception):
    """A command's failure, printed as `ERROR <code>: <message>`. It lives
    here, not in `cli`, because both `cli` and `reports` raise it and
    `reports` imports nothing from `cli`."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class CapExceededError(ValueError):
    """Ground-set size or word degree exceeds the configured cap."""


class ShapeMismatchError(ValueError):
    """Objects defined on incompatible ground sets / alphabets."""


class MissingEntryError(KeyError):
    """Dense table queried for a word it does not carry."""
