"""Every ttalab function and method the benchmark's tracer wraps exists.

``perfbench/spans.py`` names its targets as strings; a rename or deletion
in ttalab would crash ``perfbench/run.py --trace 1`` without failing any
other test. The lists are read from the file's source, which is never
imported or executed here.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def listed(name):
    """The literal value assigned to ``name`` at the top of spans.py."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no {name}")


def test_every_traced_function_resolves():
    # the tracer adds cli.main to FUNCTIONS when it installs
    targets = listed("FUNCTIONS") + (("cli.main", "ttalab.cli", "main"),)
    missing = [f"{module}.{attr}" for _, module, attr in targets
               if not callable(getattr(importlib.import_module(module),
                                       attr, None))]
    assert missing == []


def test_every_traced_method_is_defined_on_its_class():
    # the tracer replaces the method in the class's own __dict__
    missing = [f"{module}.{cls}.{attr}" for _, module, cls, attr
               in listed("METHODS")
               if not callable(vars(getattr(importlib.import_module(module),
                                            cls, object)).get(attr))]
    assert missing == []
