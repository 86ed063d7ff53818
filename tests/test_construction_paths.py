"""SignDetermination is built in one place, realroots.shared_sign_determination,
so every sign determination goes through its value-keyed cache and the roots
and contexts that share a polynomial share one object.  (An AST scan, like
test_unused_imports.)"""

import ast
import pathlib

import dcroadmap.realroots

PACKAGE = pathlib.Path(dcroadmap.realroots.__file__).parent
ACCESSOR = ("realroots.py", "shared_sign_determination")


def _constructions(node):
    """Calls of SignDetermination(...) (by name or as an attribute) under node."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and "SignDetermination" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]


def test_sign_determination_is_built_only_by_the_shared_accessor():
    inside, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = [c for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) == ACCESSOR
                   for c in _constructions(fn)]
        inside += allowed
        outside += [f"{path.name}:{c.lineno}" for c in _constructions(tree) if c not in allowed]
    assert outside == []
    assert len(inside) == 1
