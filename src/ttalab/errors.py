"""Exception types shared across the package, and the one rule that
checks an integer argument."""

import numbers
import operator


class TTALabError(Exception):
    """Base class for all ttalab errors."""


class InvalidInput(TTALabError):
    """An argument violates a documented precondition."""


class DegenerateBatch(TTALabError):
    """A batch is too small for the requested normalization mode."""


class ParseError(TTALabError):
    """A checkpoint or report file could not be parsed."""


class SchemaError(TTALabError):
    """A parsed file has the wrong structure or shapes."""


class TrainingDiverged(TTALabError):
    """Source training or adaptation overflowed or went non-finite."""


def _integer(name, value, low, high=None):
    """``value`` as a Python int if it is an integer (a numpy one included,
    a bool not) in ``low``..``high``; InvalidInput naming ``name`` and the
    value otherwise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or (high is not None and value > high)):
        want = f"at least {low}" if high is None else f"in {low}..{high}"
        raise InvalidInput(f"{name} must be an integer {want}, got {value!r}")
    return operator.index(value)
