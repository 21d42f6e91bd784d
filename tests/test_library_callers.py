"""Every public module-level function and class of the package has a caller
outside its own definition: the package itself, the benchmark (``bench/*.py``)
or the benchmark tracer's ``TRACED`` table.  The ``__init__`` re-export does
not count.  References the tests check the solver against live in
``tests/reference.py``.  The sources are parsed, not imported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "response_solver"
BENCH = ROOT / "bench"

# name -> why it stays without a caller
ALLOWED: dict[str, str] = {}


def public_definitions() -> dict[str, str]:
    """Public module-level def or class name -> its module."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                found[node.name] = path.stem
    return found


def referenced_names(path: Path) -> set[str]:
    """Every name a file reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def traced_names() -> set[str]:
    """The function names listed in bench/spans.py's ``TRACED``."""
    for node in ast.parse((BENCH / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return {fn for fns in ast.literal_eval(node.value).values() for fn in fns}
    raise AssertionError("bench/spans.py defines no TRACED table")


def test_every_public_name_has_a_caller():
    defined = public_definitions()
    assert len(defined) >= 50, f"only {len(defined)} public names found in {PACKAGE}"
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted(BENCH.glob("*.py"))
    used = traced_names().union(*(referenced_names(p) for p in sources))
    orphans = sorted(f"{mod}.{name}" for name, mod in defined.items()
                     if name not in used and name not in ALLOWED)
    assert not orphans, "no caller in src/ or bench/: " + ", ".join(orphans)
