"""Layers pass plain values: an infinitesimal is its global index (an int),
divide takes its tree node, pseudo_critical_values and jac_minor take their
arguments, and the tests call the code behind the old forwarders.  So no
wrapper that only carried its caller's values comes back: InfSymbol and
extra_symbol, PseudoCriticalRequest, DivideInput and TreeNode.divide_output,
JacobianSelector, realroots.triangular_sign and sign_determination,
solve._strip_to_ctx, roadmap.load_components_from_json and
realroots._sorted_unique_encodings.  This is an AST check, so it also
covers the modules that no other test runs."""

import ast
import pathlib

import dcroadmap.mpoly

PACKAGE = pathlib.Path(dcroadmap.mpoly.__file__).parent
GONE = {"InfSymbol", "extra_symbol", "global_index", "PseudoCriticalRequest", "DivideInput",
        "divide_output", "JacobianSelector", "triangular_sign", "sign_determination",
        "_strip_to_ctx", "load_components_from_json", "_sorted_unique_encodings"}


def _carriers(source, name):
    found = []
    for node in ast.walk(ast.parse(source)):
        named = (getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "asname", None), getattr(node, "arg", None),
                 node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias))
                 else None)
        found += [f"{name}:{node.lineno}: {n}" for n in named if n in GONE]
    return found


def test_no_layer_only_carries_its_callers_values():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _carriers(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_check_sees_each_form():
    source = """
from .infring import extra_symbol as xs
from .realroots import shared_sign_determination, sign_determination
class DivideInput:
    pass
def triangular_sign(h, tt):
    return tt.sign_mpoly(h)
i = zeta(1).global_index
node.divide_output = divide(DivideInput(node.s))
f(global_index=2)
"""
    hits = sorted(hit.split(": ")[1] for hit in _carriers(source, "m"))
    # shared_sign_determination is a different name, so it is not listed
    assert hits == ["DivideInput", "DivideInput", "divide_output", "extra_symbol",
                    "global_index", "global_index", "sign_determination",
                    "triangular_sign"]
