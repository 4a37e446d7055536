"""Exception hierarchy shared by all modules.

The CLI maps these to exit codes: InputError -> 2, BoundError -> 3,
ConsistencyError -> 4.  ConsistencyError marks a violated internal identity
and must never fire on valid inputs; seeing one means a bug in the engine
itself.
"""


class AtlasError(Exception):
    pass


class InputError(AtlasError):
    """Invalid user-supplied data (bad rank, non-bijective permutation, ...)."""


class BoundError(AtlasError):
    """The element bound was exceeded: too many elements materialized, or a
    group too large for the oracle to enumerate."""


class ConsistencyError(AtlasError):
    """An internal invariant failed; indicates a bug, not bad input."""
