"""Exception types shared across the package, and the one copy of each input rule.

The CLI maps DomainError to exit code 1 (bad input) and the numeric
family to exit code 2 (computation failed or did not certify).  A rule
check_<rule>(name, *values) raises DomainError "<name> must be <rule>, got <v>"
at the first value v that breaks it.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import partial


class DomainError(ValueError):
    """Input outside the admissible parameter domain (e.g. alpha >= 0, c <= 0)."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge or produced an inconsistent state."""


class ResourceError(RuntimeError):
    """A request would exceed a hard resource cap (e.g. mesh refinement level)."""


def _rule(holds, text: str):
    """check(name, *values): each value must be a finite real number v with holds(v);
    a bool is not a number here."""
    def check(name: str, *values) -> None:
        for v in values:
            # float first: the numbers.Real check alone costs ~0.8 us a call
            real = isinstance(v, float) or (isinstance(v, numbers.Real)
                                            and not isinstance(v, bool))
            if not (real and math.isfinite(v) and holds(v)):
                raise DomainError(f"{name} must be {text}, got {v!r}")
    return check


check_coupling = _rule(partial(operator.gt, 0.0), "finite and strictly negative")
check_length = _rule(partial(operator.lt, 0.0), "positive and finite")
check_finite = _rule(math.isfinite, "finite")
check_unit_interval = _rule(lambda v: 0.0 < v < 1.0, "in (0, 1)")
check_rel_tol = _rule(partial(operator.le, 1e-8), "finite and >= 1e-8")
check_level = _rule(lambda v: isinstance(v, (int, numbers.Integral)) and v >= 0,
                    "a non-negative integer")
check_area = partial(check_length, "area S")
