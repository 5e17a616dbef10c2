"""Shared exception types and the size cap they enforce."""

# Largest ground set (partitions) or word (transform plans) the engine
# builds; Catalan(12) = 208012 partitions are kept in memory.
DEFAULT_CAP = 12


class CapExceededError(ValueError):
    """Ground-set size or word degree exceeds the configured cap."""


class ShapeMismatchError(ValueError):
    """Objects defined on incompatible ground sets / alphabets."""


class MissingEntryError(KeyError):
    """Dense table queried for a word it does not carry."""
