"""The univariate representation, a dense coefficient list trimmed at the
point a context fixes, is known in realroots only.  Every other module
passes MPolys to its MPoly-level entries (trimmed, squarefree, reduce_mod,
tarski_query_mpoly, thom_encodings, signs_at_encodings), so none names a
list-level helper, only mpoly and realroots name MPoly.as_univariate, and
the copies those entries replaced do not come back.  This is an AST check,
so it also covers the modules that no other test runs."""

import ast
import pathlib

import dcroadmap.mpoly
from dcroadmap.mpoly import QRING, MPoly, parse_poly
from dcroadmap.realroots import TriangularContext, reduce_mod, squarefree
from dcroadmap.solve import factor_mpoly

PACKAGE = pathlib.Path(dcroadmap.mpoly.__file__).parent
TESTS = pathlib.Path(__file__).parent
LIST_LEVEL = {"_to_upoly", "_from_upoly", "utrim", "utrim_literal", "uis_zero", "uderiv",
              "umul", "_pos_prem", "pos_reduce", "sturm_chain", "content_strip",
              "tarski_query"}
CONVERSION = {"as_univariate"}
REPLACED = {"squarefree_upoly", "_squarefree_eliminant", "_ctx_trim_poly", "_dense_in",
            "_mod_dense", "reduce_mod_f", "from_univariate"}


def _named(source, name, names):
    found = []
    for node in ast.walk(ast.parse(source)):
        named = (getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "asname", None), getattr(node, "arg", None),
                 node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias))
                 else None)
        found += [f"{name}:{getattr(node, 'lineno', '?')}: {n}" for n in named if n in names]
    return found


def test_only_realroots_names_the_list_level_helpers():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "realroots.py"
             for hit in _named(path.read_text(encoding="utf-8"), path.name, LIST_LEVEL)]
    assert found == []


def test_only_mpoly_and_realroots_convert_to_coefficient_lists():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in ("mpoly.py", "realroots.py")
             for hit in _named(path.read_text(encoding="utf-8"), path.name, CONVERSION)]
    assert found == []


def test_the_replaced_copies_are_gone():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in TESTS.glob("*.py") if p.name != pathlib.Path(__file__).name)
    found = [hit for path in paths
             for hit in _named(path.read_text(encoding="utf-8"), path.name, REPLACED)]
    assert found == []


def test_the_check_sees_each_form():
    source = """
from .realroots import _to_upoly, utrim as trim
import dcroadmap.realroots as rr
n = rr.tarski_query(ctx, [c], [ctx.one])
cs = p.as_univariate("x")
def _ctx_trim_poly(poly, var, ctx):
    return MPoly.from_univariate(cs, var)
g = f(reduce_mod_f=1)
tarski_query_mpoly(P, Q, "x")
"""
    hits = sorted(hit.split(": ")[1] for hit in
                  _named(source, "m", LIST_LEVEL | CONVERSION | REPLACED))
    # tarski_query_mpoly is a different name, so it is not listed
    assert hits == ["_ctx_trim_poly", "_to_upoly", "as_univariate", "from_univariate",
                    "reduce_mod_f", "tarski_query", "utrim"]


def test_squarefree_sees_a_square_that_shows_only_at_the_point():
    # at t = sqrt(2), U^2 - 2tU + 2 = (U - sqrt(2))^2; over the rationals it
    # is irreducible, so only the Sturm chain at the point finds the square
    ctx = TriangularContext(QRING).extend("t", parse_poly("t^2 - 2", ("t",)), (0, 1, 1))
    p = parse_poly("U^2 - 2*t*U + 2", ("t", "U"))
    assert [(g.degree("U"), m) for g, m in factor_mpoly(p)] == [(2, 1)]
    f = squarefree(p, "U", ctx)
    assert f.degree("U") == 1
    # a square of a rational polynomial, and a constant
    ctx0 = TriangularContext(QRING)
    assert squarefree(parse_poly("(U - 1)^2*(U + 2)", ("U",)), "U", ctx0).degree("U") == 2
    assert squarefree(MPoly.const(QRING, ("U",), 3), "U", ctx0) is None


def test_reduce_mod_is_the_exact_remainder_over_the_rationals():
    ctx0 = TriangularContext(QRING)
    U = ("U",)
    assert reduce_mod(parse_poly("U^3", U), parse_poly("U^2 - 2", U), "U", ctx0) == parse_poly("2*U", U)
    # a leading coefficient other than 1 gives the same exact remainder
    assert reduce_mod(parse_poly("U^3", U), parse_poly("3*U^2 - 6", U), "U", ctx0) == parse_poly("2*U", U)
    # a lower degree is kept as it is
    assert reduce_mod(parse_poly("U + 5", U), parse_poly("U^2 - 2", U), "U", ctx0) == parse_poly("U + 5", U)
