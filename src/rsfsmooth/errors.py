"""Exception types shared across the package.

The CLI maps these onto exit codes: bad inputs exit 3, numerical
failures exit 4.
"""

import numbers


class DataError(ValueError):
    """Invalid input data: malformed files, infeasible parameters, size limits."""


class NumericalError(RuntimeError):
    """Numerical failure: solver non-convergence, exhausted step budgets."""


def integer(value, name):
    """int(value) for an integral value (2 or 2.0, not 2.5 or None): every count and seed."""
    if not isinstance(value, numbers.Integral) and not (
            isinstance(value, numbers.Real) and float(value).is_integer()):
        raise DataError(f"{name} must be an integer, got {value!r}")
    return int(value)
