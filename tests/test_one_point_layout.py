"""A point's layout (F[0] the denominator, F[1 + i] the numerator of
xvars[i], over its base, uvar, f and sigma) is known in solve, where
RealUnivRep is defined, and in points only.  Every other module reshapes a
point through its methods (project, over, map_polys, to_ering, to_qring,
root) or the points helpers (join, flatten_rur, numerator_at), so no
RealUnivRep(...) call there takes two or more of one point's base, uvar, f
and sigma, and the helpers those replaced do not come back.  This is an AST
check, so it also covers the modules that no other test runs."""

import ast
import pathlib

import dcroadmap.mpoly

PACKAGE = pathlib.Path(dcroadmap.mpoly.__file__).parent
LAYOUT_MODULES = {"solve.py", "points.py"}
POINT_FIELDS = {"base", "uvar", "f", "sigma"}
REPLACED = {"project_rur", "_coordinate_alone", "_restore_ring", "_combine_coords",
            "_restrict_point", "_lift_fiber_point", "_fiber_context", "_fiber_var",
            "_sphere_boundary_vertices", "gamma_index"}


def _is_point_call(node):
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "RealUnivRep")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "RealUnivRep"))


def _rebuilt_points(source, name):
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"{name}:{getattr(node, 'lineno', '?')}"
        if _is_point_call(node):
            fields = {}
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Attribute) and arg.attr in POINT_FIELDS:
                    owner = ast.unparse(arg.value)
                    fields[owner] = fields.get(owner, 0) + 1
            if any(n >= 2 for n in fields.values()):
                found.append(f"{where}: RealUnivRep")
        named = (getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "asname", None), getattr(node, "arg", None),
                 node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)) else None)
        found += [f"{where}: {n}" for n in named if n in REPLACED]
    return found


def test_no_module_rebuilds_a_point_from_another_points_fields():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name not in LAYOUT_MODULES
             for hit in _rebuilt_points(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_check_sees_each_form():
    source = """
from .points import project_rur
from .divide import _fiber_context as fc
a = RealUnivRep(w.base, w.uvar, w.f, w.sigma, F, xvars)
b = points.RealUnivRep(ctx, u.uvar, f2, u.sigma, F2, xvars)
c = RealUnivRep(base=u.base, uvar=u.uvar, f=f, sigma=s, F=F, xvars=x)
d = RealUnivRep(e_ctx, seg.uvar, target.poly, target.signs, F, seg.xvars)
e = RealUnivRep(ctx, a.uvar, b.f, sigma, F, xvars)
g = u.project(names)
def _restore_ring(u, context): pass
req = PseudoCriticalRequest(fam, G, xs, gamma_index=2)
h = _restrict_point(a, ctx, 1, rest)
"""
    hits = _rebuilt_points(source, "m")
    assert sorted(hit.split(": ")[1] for hit in hits) == [
        "RealUnivRep", "RealUnivRep", "RealUnivRep", "_fiber_context", "_restore_ring",
        "_restrict_point", "gamma_index", "project_rur"]
    assert sorted(hit.split(": ")[0] for hit in hits if hit.endswith("RealUnivRep")) == [
        "m:4", "m:5", "m:6"]
