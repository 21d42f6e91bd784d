"""The benchmark workloads call the package from outside it; every call they
make must still bind to the signature of the callable it names."""

import ast
import importlib
import inspect
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def imported_names(tree: ast.Module) -> dict:
    """Local name -> object for every import from the package."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "response_solver":
                    names[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "response_solver":
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name, None)
                if obj is None:
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = obj
    return names


def resolve(node: ast.expr, names: dict):
    """The package object a ``name`` or ``name.attr...`` expression refers to;
    None for anything not rooted in a package import."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = resolve(node.value, names)
        if base is None:
            return None
        if not hasattr(base, node.attr):
            raise AttributeError(f"{ast.unparse(node)} is gone")
        return getattr(base, node.attr)
    return None


def test_every_package_call_binds_to_its_signature():
    tree = ast.parse(WORKLOADS.read_text())
    names = imported_names(tree)
    assert names, f"{WORKLOADS} imports nothing from the package"
    checked, failures = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        try:
            fn = resolve(node.func, names)
        except AttributeError as exc:
            failures.append(f"line {node.lineno}: {exc}")
            continue
        if fn is None or inspect.ismodule(fn) or \
                any(isinstance(a, ast.Starred) for a in node.args):
            continue
        keywords = {kw.arg: None for kw in node.keywords if kw.arg is not None}
        try:
            inspect.signature(fn).bind_partial(*[None] * len(node.args), **keywords)
        except TypeError as exc:
            failures.append(f"line {node.lineno}: {ast.unparse(node.func)}: {exc}")
        checked += 1
    assert not failures, "\n".join(failures)
    assert checked >= 20, f"only {checked} package calls found in {WORKLOADS}"
