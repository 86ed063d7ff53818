"""The sympy bridge: shape bases, factoring and gcds.

The expected values are exact, numerators, factor order and signs included,
since callers depend on all of them (branch order, Thom encodings and the
coordinates of every vertex)."""

import ast
import pathlib

import pytest

from dcroadmap import symbridge
from dcroadmap.infring import InfElem, eps
from dcroadmap.mpoly import ERING, MPoly, parse_poly

XY = ("x", "y")
XYTU = ("x", "y", "t", "U")
XYU = ("x", "y", "U")


def P(text, variables=XY):
    return parse_poly(text, variables)


def _same(got, want):
    """Equal as values and of the same ring."""
    return got.ring is want.ring and got == want


def test_shape_basis_over_a_parameter_field():
    # the circle x^2 + y^2 = t cut by the hyperbola x*y = 1, t a parameter:
    # eliminant and relations come back as numerators over Q[t]
    system = [P(s, XYTU) for s in ("x^2 + y^2 - t", "x*y - 1", "U - x - 2*y")]
    f, relations = symbridge.shape_basis(system, XYU, "U")
    assert _same(f, P("U^4 - 5*t*U^2 + 4*t^2 - 8*U^2 + 20*t + 25", XYTU))
    assert list(relations) == ["x", "y"]
    assert _same(relations["x"], P("2*U^3 + 6*x*t - 8*t*U + 15*x - 11*U", XYTU))
    assert _same(relations["y"], P("-U^3 + 6*y*t + t*U + 15*y - 2*U", XYTU))


def test_shape_basis_with_an_infinitesimal_coefficient():
    e = MPoly.const(ERING, XYU, InfElem.sym(eps(1)))
    system = [P("x^2 + y^2 - 1", XYU).to_ering(), P("x - y", XYU).to_ering() - e,
              P("U - x - 2*y", XYU).to_ering()]
    f, relations = symbridge.shape_basis(system, XYU, "U")
    U, x, y = (MPoly.var(ERING, XYU, v) for v in ("U", "x", "y"))
    two, three = (MPoly.const(ERING, XYU, InfElem.const(c)) for c in (2, 3))
    assert _same(f, two * U * U + two * e * U + e * e * MPoly.const(ERING, XYU, InfElem.const(5))
                 - MPoly.const(ERING, XYU, InfElem.const(9)))
    assert _same(relations["x"], three * x - U - two * e)
    assert _same(relations["y"], three * y - U + e)


def test_unit_and_positive_dimensional_ideals():
    unit = [P("x^2 + y"), P("x^2 + y - 1")]
    assert symbridge.shape_basis(unit, XY, "y") == symbridge.UNIT
    curve = [P("x*y - 1")]
    assert symbridge.shape_basis(curve, XY, "y") is None


@pytest.mark.parametrize("text, want", [
    ("(x^2 - 1)*(x*y + 2)", [("x - 1", 1), ("x + 1", 1), ("x*y + 2", 1)]),
    ("-(x^2 - 1)*(x*y + 2)", [("x - 1", 1), ("x + 1", 1), ("x*y + 2", 1)]),
    ("(y - x)^2*(2*x + 2)", [("x + 1", 1), ("x - y", 2)]),
    ("(1/2*x - 1/3)*(x*y + 2)", [("x*y + 2", 1), ("3*x - 2", 1)]),
    ("3", []),
])
def test_factor_order_and_signs(text, want):
    got = symbridge.factor(P(text))
    assert [m for _f, m in got] == [m for _t, m in want]
    for (f, _m), (t, _k) in zip(got, want):
        assert _same(f, P(t))


def test_gcd_is_monic_or_none():
    assert _same(symbridge.gcd([P("2*x^2*y - 2*y"), P("3*x*y + 3*y")]), P("x*y + y"))
    assert _same(symbridge.gcd([P("1/2*x^2 - 1/2"), P("3*x - 3")]), P("x - 1"))
    assert symbridge.gcd([P("x^2 - 1"), P("x - 2")]) is None
    assert symbridge.gcd([P("5")]) is None


# The bridge converts MPolys to ring elements once; none of sympy's
# expression layer may come back (an AST scan, like test_construction_paths).
EXPRESSION_CALLS = {"as_expr", "together", "fraction", "sympify"}
EXPRESSION_API = {"Poly", "groebner", "factor_list"}


def test_the_bridge_builds_no_sympy_expression():
    tree = ast.parse(pathlib.Path(symbridge.__file__).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in EXPRESSION_CALLS:
                found.append(f"{name}() at line {node.lineno}")
        elif (isinstance(node, ast.Attribute) and node.attr in EXPRESSION_API
              and getattr(node.value, "id", None) == "sympy"):
            found.append(f"sympy.{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "sympy":
            found += [f"from sympy import {a.name} at line {node.lineno}"
                      for a in node.names if a.name in EXPRESSION_CALLS | EXPRESSION_API]
    assert found == []
