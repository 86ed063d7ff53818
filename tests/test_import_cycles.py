"""No module of src/dcroadmap imports, at module or function level, a module
that imports it back, directly or through other modules of the package, so
the modules form a layered order.  (AST only: nothing is imported.)"""

import ast
import pathlib

import dcroadmap.mpoly

PACKAGE = pathlib.Path(dcroadmap.mpoly.__file__).parent


def _package_imports(path):
    """The package modules a file imports anywhere in it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import m
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.startswith("dcroadmap."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("dcroadmap."))
    return out


def _reachable(graph, start):
    seen, stack = set(), list(graph.get(start, ()))
    while stack:
        m = stack.pop()
        if m not in seen:
            seen.add(m)
            stack.extend(graph.get(m, ()))
    return seen


def test_no_module_imports_a_module_that_imports_it_back():
    graph = {path.stem: _package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    cycles = [f"{m} -> {n} -> ... -> {m}" for m in sorted(graph) for n in sorted(graph[m])
              if m in _reachable(graph, n) or n == m]
    assert cycles == []
