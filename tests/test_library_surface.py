"""Every top-level function and class in ``src/ttalab`` is run by the
program: named by another part of the library, by a demo, by a benchmark
workload, or as a target of the benchmark's tracer. Test-only helpers live
under ``tests/`` instead (see ``tests/oracles.py``).

The library defines exactly three exception classes, so that the type of
an error is its exit code: ``TTALabError``, ``InvalidInput`` (the caller's
fault, exit 3) and ``TrainingDiverged`` (the program's fault, exit 2).

Every file is read and parsed, never imported or executed. ``__init__.py``
does not count: re-exporting a name does not run it.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ttalab"
PROGRAM = ([p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
           + sorted((ROOT / "demos").glob("*.py"))
           + [ROOT / "perfbench" / "workloads.py"])
SPANS = ROOT / "perfbench" / "spans.py"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def named(tree):
    """Every name a module reads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def traced():
    """The functions and classes whose attributes spans.py wraps."""
    targets = set()
    for node in parse(SPANS).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None)
                in ("FUNCTIONS", "METHODS")):
            # (metric, module, function) or (metric, module, class, method)
            targets |= {target[2] for target in ast.literal_eval(node.value)}
    return targets


def test_every_library_definition_is_run_by_the_program():
    used = traced().union(*(named(parse(path)) for path in PROGRAM))
    unused = [f"{path.stem}.{node.name}"
              for path in sorted(SRC.glob("*.py"))
              for node in parse(path).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              and node.name not in used]
    assert unused == []


def test_the_library_defines_exactly_three_exception_classes():
    """Every class in src deriving, directly or through another class of
    src, from a built-in exception."""
    classes = {node.name: {getattr(base, "id", getattr(base, "attr", None))
                           for base in node.bases}
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(parse(path))
               if isinstance(node, ast.ClassDef)}
    exceptions = {name for name in vars(builtins)
                  if isinstance(getattr(builtins, name), type)
                  and issubclass(getattr(builtins, name), BaseException)}
    grown = True
    while grown:
        found = {name for name, bases in classes.items() if bases & exceptions}
        grown = not found <= exceptions
        exceptions |= found
    three = {"TTALabError", "InvalidInput", "TrainingDiverged"}
    defined = exceptions & classes.keys()
    extra = sorted(defined - three)
    assert not extra, f"exception classes beyond the three: {extra}"
    assert defined >= three
