"""The package's exception types, whose type is the fault: InvalidInput the
caller's (exit 3), TrainingDiverged the program's (exit 2); the one
floating-point rule; and the three rules that check a scalar argument, whose
error reads ``<name> <rule>, got <value!r>`` and carries ``name``, ``value``
and ``rule``, so the command line can report it as the flag that set it."""

import math
import numbers
import operator
from contextlib import contextmanager

import numpy as np


class TTALabError(Exception):
    """Base class for all ttalab errors."""


class InvalidInput(TTALabError):
    """The caller's argument, batch, flag or checkpoint file is invalid."""

    name = value = rule = None


class TrainingDiverged(TTALabError):
    """Source training or adaptation overflowed or went non-finite."""


def _broken(name, value, rule):
    error = InvalidInput(f"{name} {rule}, got {value!r}")
    error.name, error.value, error.rule = name, value, rule
    return error


def _integer(name, value, low, high=None, why=None):
    """``value`` as a Python int if it is an integer (a numpy one included,
    a bool not) in ``low``..``high``; InvalidInput naming ``name``, the
    value and, for a value below ``low``, ``why`` the bound holds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise _broken(name, value, "must be an integer")
    if value < low:
        raise _broken(name, value, f"too small, need >= {low}"
                      + (f" ({why})" if why else ""))
    if high is not None and value > high:
        raise _broken(name, value, f"too large, need <= {high}")
    return operator.index(value)


_REAL_RULES = {
    "finite and positive": lambda x: math.isfinite(x) and x > 0,
    "finite and non-negative": lambda x: math.isfinite(x) and x >= 0,
    "positive": lambda x: x > 0,  # inf included
}


def _real(name, value, rule):
    """``value`` as a float if it is a real number (a numpy one included, a
    bool not; an int beyond the float range counts as +-inf) that keeps
    ``rule``, a key of ``_REAL_RULES``; InvalidInput naming ``name`` and the
    value otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise _broken(name, value, "must be a real number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    if not _REAL_RULES[rule](value):
        raise _broken(name, value, f"must be {rule}")
    return value


def _bool(name, value):
    """``value`` as a Python bool if it is a bool (a numpy one included);
    InvalidInput naming ``name`` and the value otherwise."""
    if not isinstance(value, (bool, np.bool_)):
        raise _broken(name, value, "must be a bool")
    return bool(value)


@contextmanager
def _float_rule(fault):
    """Run the block under the package's one floating-point rule: overflow,
    an invalid value and division by zero raise, underflow is benign; the
    ``FloatingPointError`` leaves as the caller's ``fault(error)``."""
    try:
        with np.errstate(all="raise", under="ignore"):
            yield
    except FloatingPointError as e:
        raise fault(e) from None
