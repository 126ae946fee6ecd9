"""The package's exception types, whose type is the fault: InvalidInput the
caller's (exit 3), TrainingDiverged the program's (exit 2); the one
floating-point rule; the three rules that check a scalar argument, whose
error reads ``<name> <rule>, got <value!r>`` and carries ``name``, ``value``
and ``rule``, so the command line can report it as the flag that set it; and
the one rule that checks an array argument, ``_array``, whose error reads
``<name> must be a (<axes>) array..., got shape <shape>`` or ``<name>
contains non-finite values``."""

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


def _array(name, value, dims, finite=False, kind="f", **sizes):
    """``value`` as an array whose axes are ``dims``; InvalidInput naming
    ``name``, the rule and the array's shape otherwise.

    ``dims`` names the axes, space-separated, as in ``"m d"``. Names in
    brackets are optional leading axes: ``"[S] N d"`` takes (N, d) and
    (S, N, d). A size passed by name binds its axis, as ``d=4``; any other
    axis must be non-empty unless its name ends in ``*``, as in ``"[R*] K"``.
    ``kind`` "f" converts to float64, "i" takes an integer dtype only, None
    any dtype as it is, and "out" the caller's own writeable float ndarray,
    never a copy, as numpy's ``out=`` does. With ``finite``, a NaN or an
    infinity raises ``<name> contains non-finite values``. A value numpy
    cannot convert raises the rule with numpy's message.
    """
    axes = dims.split()
    try:
        array = (np.asarray(value, dtype=np.float64) if kind == "f"
                 else np.asarray(value))
    except (TypeError, ValueError, OverflowError) as e:
        raise InvalidInput(f"{name} must be {_array_rule(axes, kind, sizes)},"
                           f" got a value numpy cannot convert: {e}") from None
    shape = array.shape
    # the array has the last len(shape) axes; all before them are optional
    skipped = len(axes) - len(shape)
    fits = skipped == 0 or 0 < skipped and axes[skipped - 1][0] == "["
    if fits:
        for axis, n in zip(axes[skipped:], shape):
            size = sizes.get(axis.strip("[]*"))
            if (n != size if size is not None
                    else not n and "*" not in axis):
                fits = False
                break
    if kind == "i":
        fits = fits and array.dtype.kind in "iu"
    elif kind == "out":
        fits = (fits and array is value and array.dtype.kind == "f"
                and array.flags.writeable)
    if fits:
        if finite and not np.isfinite(array).all():
            raise InvalidInput(f"{name} contains non-finite values")
        return array
    got = f"shape {shape}"
    if kind == "out" and array is not value:
        got = f"a {type(value).__name__} of {got}"
    elif kind in ("i", "out"):
        got += f" of dtype {array.dtype}"
        if not array.flags.writeable and kind == "out":
            got = f"a read-only array of {got}"
    raise InvalidInput(f"{name} must be {_array_rule(axes, kind, sizes)},"
                       f" got {got}")


def _array_rule(axes, kind, sizes):
    """The rule ``_array`` states, as in ``a non-empty (N, d) or (S, N, d)
    array with d=4``."""
    names = [axis.strip("[]*") for axis in axes]
    optional = sum(axis[0] == "[" for axis in axes)
    shapes = " or ".join(
        f"({', '.join(names[i:])}{',' if i == len(names) - 1 else ''})"
        for i in range(optional, -1, -1))
    free = [name for name in names if name not in sizes]
    nonempty = [name for name, axis in zip(names, axes)
                if name in free and "*" not in axis]
    rules = [f"{name}={sizes[name]}" for name in names if name in sizes]
    everywhere = nonempty and len(nonempty) == len(free)
    if not everywhere:
        rules += [f"{name} >= 1" for name in nonempty]
    dtype = {"i": "integer ", "out": "writeable float "}.get(kind, "")
    return (f"a {'non-empty ' if everywhere else ''}{shapes} {dtype}array"
            + (f" with {', '.join(rules)}" if rules else ""))
