"""Coefficients in src/dcroadmap are combined with Python's number operators
(`+ - * /`, `not c` for zero), and a TriangularContext is the only bundle of
coefficient zero, one and sign.  So no code calls add, neg, mul, exact_div
or is_zero on a receiver named ring or ops or ending in .ring, no code calls
.ops(), and the names ScalarOps and PolyOps do not come back.  This is an AST
check, so it also covers the modules that no other test runs."""

import ast
import pathlib

import dcroadmap.mpoly

PACKAGE = pathlib.Path(dcroadmap.mpoly.__file__).parent
FORWARDERS = {"add", "neg", "mul", "exact_div", "is_zero"}
BUNDLES = {"ScalarOps", "PolyOps"}


def _ring_receiver(node):
    if isinstance(node, ast.Name):
        return node.id in ("ring", "ops")
    return isinstance(node, ast.Attribute) and node.attr == "ring"


def _second_paths(source, name):
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"{name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            f = node.func
            if (f.attr in FORWARDERS and _ring_receiver(f.value)) or f.attr == "ops":
                found.append(f"{where}: {ast.unparse(f)}()")
        named = (getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "asname", None),
                 node.name if isinstance(node, (ast.ClassDef, ast.alias)) else None)
        found += [f"{where}: {n}" for n in named if n in BUNDLES]
    return found


def test_no_second_arithmetic_path():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _second_paths(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_check_sees_each_form():
    source = """
from .realroots import PolyOps
class ScalarOps: pass
ring.add(a, b)
p.ring.is_zero(c)
ops.mul(a, b)
ctx.ops()
x = realroots.ScalarOps
a + b
p.is_zero()
ring.sign(a)
"""
    assert sorted(hit.split(": ")[1] for hit in _second_paths(source, "m")) == [
        "PolyOps", "ScalarOps", "ScalarOps", "ctx.ops()", "ops.mul()",
        "p.ring.is_zero()", "ring.add()"]
