"""The one rule for an array argument, ``errors._array``: it takes exactly
the arrays whose axes match its dims and bound sizes, and its error names
the argument and the array's shape; and a guard that no hand-written shape
check raising InvalidInput is left in ``src/ttalab`` outside ``errors.py``.
The guard reads the files, never imports them."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttalab.errors import InvalidInput, _array

from oracles import array_shapes

SRC = Path(__file__).resolve().parents[1] / "src" / "ttalab"

# Functions whose hand-written shape check stays, each with its reason.
SHAPE_CHECKS_KEPT = {
    "backward_all": "its argument is a forward cache, not an array, and the"
                    " error names the stack the cache was made from",
}

LARGEST = 3  # the largest axis size drawn


@st.composite
def rules(draw):
    """Axes as (optional, may_be_empty, bound size or None), the optional
    ones leading, and the dims text and sizes that state them."""
    count = draw(st.integers(1, 4))
    optional = draw(st.integers(0, count))
    axes = [(i < optional, draw(st.booleans()),
             draw(st.none() | st.integers(0, LARGEST)))
            for i in range(count)]
    names = [f"a{i}" for i in range(count)]
    dims = " ".join(f"[{name}{'*' * empty}]" if opt else name + "*" * empty
                    for name, (opt, empty, _) in zip(names, axes))
    sizes = {name: size for name, (_, _, size) in zip(names, axes)
             if size is not None}
    return axes, dims, sizes


@settings(max_examples=300)
@given(rule=rules(), data=st.data())
def test_exactly_the_matching_shapes_are_taken(rule, data):
    axes, dims, sizes = rule
    taken = array_shapes(axes, LARGEST)
    shape = data.draw(st.sampled_from(sorted(taken)) if taken
                      and data.draw(st.booleans())
                      else st.lists(st.integers(0, LARGEST), max_size=5)
                      .map(tuple))
    value = np.zeros(shape, dtype=np.int32)
    if shape in taken:
        array = _array("x", value, dims, **sizes)
        assert array.shape == shape and array.dtype == np.float64
    else:
        with pytest.raises(InvalidInput) as err:
            _array("x", value, dims, **sizes)
        assert re.fullmatch(rf"x must be a .* array.*, got shape"
                            rf" {re.escape(str(shape))}", str(err.value))


# numpy's message for a list of rows of other lengths
RAGGED = ("setting an array element with a sequence. The requested array has"
          " an inhomogeneous shape after 1 dimensions. The detected shape was"
          " (2,) + inhomogeneous part.")


@pytest.mark.parametrize("value, dims, options, message", [
    (np.zeros((1, 2, 5)), "[S] N d", {"d": 4},
     "must be a non-empty (N, d) or (S, N, d) array with d=4, got shape"
     " (1, 2, 5)"),
    (np.zeros((3,)), "S P*", {},
     "must be a (S, P) array with S >= 1, got shape (3,)"),
    (np.zeros(2), "k", {"k": 2, "kind": "i"},
     "must be a (k,) integer array with k=2, got shape (2,) of dtype"
     " float64"),
    ([1.0, np.inf], "n", {"finite": True}, "contains non-finite values"),
    ([["a", "b"]], "N d", {},
     "must be a non-empty (N, d) array, got a value numpy cannot convert:"
     " could not convert string to float: 'a'"),
    ([[10**400, 1]], "N d", {},
     "must be a non-empty (N, d) array, got a value numpy cannot convert:"
     " int too large to convert to float"),
    ([[1], [1, 2]], "N d", {"kind": "i"},
     "must be a non-empty (N, d) integer array, got a value numpy cannot"
     " convert: " + RAGGED),
    ([[1], [1, 2]], "N d", {"kind": None},
     "must be a non-empty (N, d) array, got a value numpy cannot convert: "
     + RAGGED),
    (np.zeros((2, 3), dtype=np.int32), "S P", {"kind": "out"},
     "must be a non-empty (S, P) writeable float array, got shape (2, 3) of"
     " dtype int32"),
    ([[0.0, 1.0]], "S P", {"kind": "out"},
     "must be a non-empty (S, P) writeable float array, got a list of shape"
     " (1, 2)"),
    (np.zeros((2, 3)), "S P", {"kind": "out", "S": 3},
     "must be a non-empty (S, P) writeable float array with S=3, got shape"
     " (2, 3) of dtype float64"),
], ids=["optional axis", "may be empty", "integer", "finite", "string",
        "beyond the float range", "ragged integer", "ragged",
        "integer out", "list out", "shape out"])
def test_the_error_states_the_rule(value, dims, options, message):
    with pytest.raises(InvalidInput, match=f"^x {re.escape(message)}$"):
        _array("x", value, dims, **options)


def test_an_array_of_any_dtype_is_taken_as_it_is():
    labels = np.array([True, False])
    assert _array("labels", labels, "n", kind=None) is labels
    counts = np.array([2, 1], dtype=np.uint8)
    assert _array("counts", counts, "k", kind="i", k=2) is counts
    rows = np.zeros((2, 3), dtype=np.float32)[:, 1:]
    assert _array("rows", rows, "S P", kind="out") is rows


def hand_written_checks(path):
    """(function, line) of each ``if`` in the file whose test reads
    ``.ndim`` or compares whole shapes and whose body raises InvalidInput."""
    found = []

    def reads_shape(test):
        for node in ast.walk(test):
            if isinstance(node, ast.Attribute) and node.attr == "ndim":
                return True
            if isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Attribute) and side.attr == "shape"
                    or isinstance(side, ast.Call)
                    and getattr(side.func, "attr", None) == "shape"
                    for side in (node.left, *node.comparators)):
                return True
        return False

    def raises_invalid_input(body):
        return any(isinstance(node, ast.Raise) and node.exc is not None
                   and any(isinstance(n, ast.Name) and n.id == "InvalidInput"
                           for n in ast.walk(node.exc))
                   for stmt in body for node in ast.walk(stmt))

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
            if (isinstance(child, ast.If) and reads_shape(child.test)
                    and raises_invalid_input(child.body)):
                found.append((inner, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_no_hand_written_shape_check_outside_the_rule():
    checks = [(path.name, function, line)
              for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
              for function, line in hand_written_checks(path)]
    strays = [check for check in checks if check[1] not in SHAPE_CHECKS_KEPT]
    assert strays == [], "use errors._array, or allow-list with a reason"
    # every exception is still needed
    assert {function for _, function, _ in checks} == set(SHAPE_CHECKS_KEPT)
