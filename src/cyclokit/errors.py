"""Exception types shared across the library.

Two error families matter to callers (and to the CLI's exit codes):
mathematical precondition violations, and size-bound violations.
Both derive from ValueError so generic callers may catch either uniformly.
"""

from __future__ import annotations

__all__ = ["PreconditionError", "SizeBoundError"]


class PreconditionError(ValueError):
    """A documented mathematical precondition was violated.

    Examples: the field characteristic divides a root order, a requested
    extension is not quadratic, or inputs are not coprime.
    """


class SizeBoundError(ValueError):
    """An input exceeds a documented size bound: a field too large to
    describe, an explicit-field construction, or a factorization input."""
