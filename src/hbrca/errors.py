"""Exception taxonomy shared across the package, and its one value check.

CLI exit codes map onto these: ConfigError -> 2, DataError -> 3,
NumericalError -> 4.
"""

import math
import numbers


class HbrcaError(Exception):
    """Base class for all package errors."""


class DimensionError(HbrcaError):
    """Array shapes do not satisfy an operation's contract."""


class ParameterError(HbrcaError):
    """A scalar argument is outside its valid range."""


class ConfigError(HbrcaError):
    """Run configuration is malformed or inconsistent."""


class DataError(HbrcaError):
    """Input data violates the corpus contract."""


class DegenerateInputError(DataError):
    """Input is structurally valid but degenerate (e.g. all-zero corpus)."""


class ParseError(DataError):
    """A corpus or config file failed to parse.

    Carries the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericalError(HbrcaError):
    """A numeric invariant failed (non-finite value, divergence)."""


class InstabilityError(NumericalError):
    """Simulated dynamics blew up; suggests a smaller integration step."""


class AbsentGradientError(HbrcaError):
    """Gradient requested for a tensor not on the recorded path."""


def check_number(name: str, value, integer: bool = False, minimum=None, above: bool = False):
    """`value` if it is a finite number (an integer if `integer`) that is at
    least `minimum` (greater than it if `above`); otherwise a ParameterError
    that names `name`. Booleans and numeric strings are not numbers here."""
    kind = numbers.Integral if integer else numbers.Real
    ok = (not isinstance(value, bool) and isinstance(value, kind)
          and (integer or math.isfinite(value))
          and (minimum is None or (value > minimum if above else value >= minimum)))
    if not ok:
        what = "an integer" if integer else "a finite number"
        bound = "" if minimum is None else f" {'>' if above else '>='} {minimum}"
        raise ParameterError(f"{name} must be {what}{bound}, got {value!r}")
    return value
