"""Contexts, polynomials, Thom encodings and points compare and hash by
value, so each is its own cache and dedupe key.  So no code in
src/dcroadmap builds a second identity for them: no `.key()` calls, no
`id(...)` calls, no ring named by its `.name` outside a `__repr__` (a key
holds the ring itself), and the names _mpoly_key, _coeff_key, _upoly_key,
_fingerprint, _rur_key, rur_from_raw, RawSolution and _VertexTable do not
come back.  This is an AST check, so it also covers the modules that no
other test runs."""

import ast
import pathlib

import dcroadmap.mpoly

PACKAGE = pathlib.Path(dcroadmap.mpoly.__file__).parent
KEY_BUILDERS = {"_mpoly_key", "_coeff_key", "_upoly_key", "_fingerprint",
                "_rur_key", "rur_from_raw", "RawSolution", "_VertexTable"}


def _ring_name(node):
    if not (isinstance(node, ast.Attribute) and node.attr == "name"):
        return False
    ring = node.value
    return (isinstance(ring, ast.Name) and ring.id == "ring") or \
        (isinstance(ring, ast.Attribute) and ring.attr == "ring")


def _second_identities(source, name):
    tree = ast.parse(source)
    in_repr = {id(n) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == "__repr__"
               for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        where = f"{name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "key":
            found.append(f"{where}: {ast.unparse(node)}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "id":
            found.append(f"{where}: {ast.unparse(node)}")
        if _ring_name(node) and id(node) not in in_repr:
            found.append(f"{where}: {ast.unparse(node)}")
        named = (getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "asname", None),
                 node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)) else None)
        found += [f"{where}: {n}" for n in named if n in KEY_BUILDERS]
    return found


def test_no_second_value_identity():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _second_identities(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_check_sees_each_form():
    source = """
from .realroots import _mpoly_key
from .points import rur_from_raw as raw
def _fingerprint(p): pass
key = (ctx.key(), p.ring.name, ring.name)
x = solve._upoly_key
y = _coeff_key(c)
vid = {id(u): 0}
class RawSolution: pass
class _VertexTable: pass
def _rur_key(u): pass
class C:
    def __repr__(self):
        return self.ring.name
key = (ctx, p, p.ring)
sorted(xs, key=len)
name = p.name
ids = {u: 0}
u.id
"""
    assert sorted(hit.split(": ")[1] for hit in _second_identities(source, "m")) == [
        "RawSolution", "_VertexTable", "_coeff_key", "_fingerprint", "_mpoly_key",
        "_rur_key", "_upoly_key", "ctx.key()", "id(u)", "p.ring.name", "ring.name",
        "rur_from_raw"]
