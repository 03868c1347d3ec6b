"""Exception types shared across the package.

The CLI maps DomainError to exit code 1 (bad input) and the numeric
family to exit code 2 (computation failed or did not certify).
"""

from __future__ import annotations


class DomainError(ValueError):
    """Input outside the admissible parameter domain (e.g. alpha >= 0, c <= 0)."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge or produced an inconsistent state."""


class ResourceError(RuntimeError):
    """A request would exceed a hard resource cap (e.g. mesh refinement level)."""
