"""The benchmark tracer wraps package functions by name from outside the
package; every name it lists must still be defined where it says."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_table() -> dict:
    """``TRACED`` from bench/spans.py, read as a literal without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TRACED table")


def test_every_traced_name_resolves_in_its_module():
    traced = traced_table()
    assert traced
    for mod, names in traced.items():
        module = importlib.import_module(f"response_solver.{mod}")
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn), f"{mod}.{name} is gone"
            assert fn.__module__ == module.__name__, f"{mod}.{name} is defined elsewhere"
