"""Every public module-level function and class of the package, and every
public method and property of its classes, has a caller outside its own
definition: the package itself, the benchmark (``bench/*.py``) or the
benchmark tracer's ``TRACED`` table.  The ``__init__`` re-export does not
count.  References the tests check the solver against live in
``tests/reference.py``.  The sources are parsed, not imported."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "response_solver"
BENCH = ROOT / "bench"

# name -> why it stays without a caller
ALLOWED: dict[str, str] = {}


def package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def public_definitions() -> dict[str, str]:
    """Public module-level def or class name -> its module."""
    found = {}
    for module, tree in package_trees().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                found[node.name] = module
    return found


def public_methods() -> dict[str, ast.FunctionDef]:
    """``module.Class.method`` -> its definition, for every public method,
    property, static- or classmethod of a public class."""
    found = {}
    for module, tree in package_trees().items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        found[f"{module}.{cls.name}.{node.name}"] = node
    return found


def referenced_names(tree: ast.AST) -> Counter:
    """How often a tree reads each name, as a bare name or as an attribute."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def traced_names() -> set[str]:
    """The function names listed in bench/spans.py's ``TRACED``."""
    for node in ast.parse((BENCH / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return {fn for fns in ast.literal_eval(node.value).values() for fn in fns}
    raise AssertionError("bench/spans.py defines no TRACED table")


def callers() -> Counter:
    """Every reference in the package (``__init__`` aside), in
    ``bench/*.py`` and in ``TRACED``."""
    used = Counter(traced_names())
    for module, tree in package_trees().items():
        if module != "__init__":
            used += referenced_names(tree)
    for path in sorted(BENCH.glob("*.py")):
        used += referenced_names(ast.parse(path.read_text()))
    return used


def test_every_public_name_has_a_caller():
    defined = public_definitions()
    assert len(defined) >= 50, f"only {len(defined)} public names found in {PACKAGE}"
    used = callers()
    orphans = sorted(f"{mod}.{name}" for name, mod in defined.items()
                     if not used[name] and name not in ALLOWED)
    assert not orphans, "no caller in src/ or bench/: " + ", ".join(orphans)


def test_every_public_method_has_a_caller():
    """A method's references inside its own body (a recursion) do not count."""
    methods = public_methods()
    assert len(methods) >= 40, f"only {len(methods)} public methods found in {PACKAGE}"
    used = callers()
    orphans = sorted(qualified for qualified, node in methods.items()
                     if not (used - referenced_names(node))[node.name]
                     and qualified not in ALLOWED)
    assert not orphans, "no caller in src/ or bench/: " + ", ".join(orphans)
