"""critloci.crit_minor_system is the one builder of critical-point systems:
the equations plus the (m+1)-minors of [grad G | Jacobian of P].  Sampling
(a coordinate projection as G) and the closest-point steps (half the squared
distance as G) call it, so outside mpoly and critloci no module names
jac_minor or determinant, and neither _distance_first_order nor
JacobianSelector (jac_minor takes its rows and columns) comes back.  This is an AST check, so it also covers the modules that no
other test runs."""

import ast
import pathlib

import dcroadmap.mpoly

PACKAGE = pathlib.Path(dcroadmap.mpoly.__file__).parent
BUILDERS = {"mpoly.py", "critloci.py"}
MINOR_NAMES = {"jac_minor", "determinant"}
GONE = {"_distance_first_order", "JacobianSelector"}


def _second_builders(source, name):
    forbidden = GONE | (set() if name in BUILDERS else MINOR_NAMES)
    found = []
    for node in ast.walk(ast.parse(source)):
        named = (getattr(node, "id", None), getattr(node, "attr", None),
                 node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias))
                 else None)
        found += [f"{name}:{node.lineno}: {n}" for n in named if n in forbidden]
    return found


def test_no_second_critical_system_builder():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _second_builders(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_check_sees_each_form():
    source = """
from .mpoly import JacobianSelector, jac_minor
import dcroadmap.mpoly as mp
def _distance_first_order(eqs, grads, xvars):
    return mp.determinant(grads)
x = jac_minor(G, P, sel)
crit_minor_system(P, G, 0, xvars)
"""
    hits = sorted(hit.split(": ")[1] for hit in _second_builders(source, "points.py"))
    assert hits == ["JacobianSelector", "_distance_first_order", "determinant",
                    "jac_minor", "jac_minor"]
    # the builders may name the minors, but not the removed helpers
    assert sorted(hit.split(": ")[1] for hit in _second_builders(source, "critloci.py")) == [
        "JacobianSelector", "_distance_first_order"]
