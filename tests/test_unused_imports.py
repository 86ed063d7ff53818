"""Every module-level import in src/dcroadmap is used by its module, and no
function imports again from a module its file already imports at module
level, so the imports show the real dependencies between modules.  (No
pyflakes here.)"""

import ast
import pathlib

import dcroadmap.mpoly

PACKAGE = pathlib.Path(dcroadmap.mpoly.__file__).parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_module_level_imports():
    found = [u for path in sorted(PACKAGE.glob("*.py")) for u in _unused_imports(path)]
    assert found == []


def _repeated_local_imports(path):
    """`from .m import ...` inside a function of a file that imports from .m
    at module level.  A local import that breaks a real cycle names a module
    the file does not import at module level, so it is not listed."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {(node.level, node.module) for node in tree.body if isinstance(node, ast.ImportFrom)}
    return [f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module}"
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) in top]


def test_no_function_level_import_of_a_module_imported_at_module_level():
    found = [u for path in sorted(PACKAGE.glob("*.py")) for u in _repeated_local_imports(path)]
    assert found == []
