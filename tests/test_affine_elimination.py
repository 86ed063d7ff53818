"""Affine equations are substituted away before sampling and the roadmap:
a planar space curve is solved as a plane curve and lifted back exactly."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dcroadmap.curves import _along_curve, curve_segments
from dcroadmap.mpoly import QRING, parse_poly
from dcroadmap.points import affine_elimination, rur_sign, sample_components
from dcroadmap.realroots import TriangularContext
from dcroadmap.roadmap import assemble_graph, roadmap_bounded

XYZ = ("x", "y", "z")
SPHERE = "x^2 + y^2 + z^2 - 1"


def _polys(texts):
    return [parse_poly(t, XYZ) for t in texts]


def _roadmap(polys, kprime=1):
    A = sample_components(polys, xvars=XYZ)
    return A, roadmap_bounded(polys, A, kprime=kprime)


def _on_the_set(graph, polys):
    return all(rur_sign(v, p) == 0 for v in graph.vertices for p in polys)


def test_the_last_variable_goes_and_x1_only_alone():
    sphere = parse_poly(SPHERE, XYZ)
    reduced, elim = affine_elimination([sphere, parse_poly("x + 2*y - 3*z - 1", XYZ)], XYZ)
    assert (elim.var, elim.kept) == ("z", ("x", "y"))
    assert reduced == [parse_poly("x^2 + y^2 + 1/9*(x + 2*y - 1)^2 - 1", ("x", "y"))]
    _reduced, elim = affine_elimination([sphere, parse_poly("2*x - 1", XYZ)], XYZ)
    assert (elim.var, elim.kept, elim.a0) == ("x", ("y", "z"), Fraction(1, 2))


@pytest.mark.parametrize("texts", [
    [SPHERE],  # no other equation remains
    [SPHERE, "x*y - 1"],  # no equation of degree 1
    ["x - y", "2*x - 2*y"],  # the other equation vanishes on substitution
])
def test_no_elimination(texts):
    assert affine_elimination(_polys(texts), XYZ) is None


def test_an_infinitesimal_system_never_matches():
    polys = [p.to_ering() for p in _polys([SPHERE, "z"])]
    assert affine_elimination(polys, XYZ) is None


@pytest.mark.parametrize("texts, components, vertices", [
    ([SPHERE, "x"], 1, 2),
    ([SPHERE, "2*x - 1"], 1, 2),
    (["x^2 + y^2 + z^2 - 4", "x + 2*y - 3*z - 1"], 1, 2),
    ([SPHERE, "x + y + z - 5"], 0, 0),
    (["x^2 + y^2 + z^2 - 2", "z", "y - x"], 2, 2),
    (["(x^2 + y^2 + z^2 - 1)*((x - 3)^2 + y^2 + z^2 - 1)", "3*y - z"], 2, 4),
], ids=["plane-x", "plane-2x-1", "tilted-plane", "missing-plane", "two-points", "two-spheres"])
def test_planar_sections_answer_right(texts, components, vertices):
    polys = _polys(texts)
    A, graph = _roadmap(polys)
    assert graph.component_count() == components
    assert len(graph.vertices) == vertices
    assert len(A) >= components
    assert _on_the_set(graph, polys)
    assert all(0 <= i < len(graph.vertices) for i in graph.anchor_ids)


@pytest.mark.parametrize("plane, order", [
    ("x", ("y", "x", "z")),
    ("x + 2*y - 3*z - 1", ("x", "y", "z")),
])
def test_lifted_segments_keep_the_parameter_first(plane, order):
    polys = _polys([SPHERE, plane])
    _A, graph = _roadmap(polys)
    assert graph.edges
    for seg, lo, hi in graph.edges:
        assert seg.xvars == order and len(seg.coords) == 3
        assert seg.lo_point == graph.vertices[lo] and seg.hi_point == graph.vertices[hi]
        # the plane, composed with the segment's coordinates, is zero
        assert _along_curve(polys[1], seg.coords, seg.xvars).is_zero()


def test_a_dimension_bound_of_two_is_capped_on_the_plane():
    polys = _polys([SPHERE, "z"])
    _A, graph = _roadmap(polys, kprime=2)
    assert graph.component_count() == 1
    assert _on_the_set(graph, polys)


def test_a_dimension_bound_past_the_variables_is_rejected_before_reduction():
    polys = _polys([SPHERE, "z"])
    with pytest.raises(ValueError, match="dimension bound 3 is not below the 3 variables"):
        roadmap_bounded(polys, [], kprime=3)


@pytest.mark.xfail(strict=True, reason="curves inside a fibre x = c with no affine "
                   "equation to eliminate are read as points")
@pytest.mark.parametrize("texts, components", [
    ([SPHERE, "x^2"], 1),
    ([SPHERE, "4*x^2 - 1"], 2),
    ([SPHERE, "2*x^2 - 1"], 2),
], ids=["x^2", "4x^2-1", "2x^2-1"])
def test_curves_in_a_fibre_without_an_affine_equation(texts, components):
    _A, graph = _roadmap(_polys(texts))
    assert graph.component_count() == components


@pytest.mark.parametrize("texts", [
    ["x^2 + y^2 + z^2 - 49", "y"],
    ["(x^2 + y^2 + z^2 - 4)*((x - 7)^2 + y^2 + z^2 - 4)", "z"],
    ["x^2 + y^2 + z^2 - 9", "y - 3/2"],
    ["x^2 + y^2 - 4", "z + 1"],
    ["(x^2 + y^2 - 1)*((x + 4)^2 + y^2 - 1)", "z"],
], ids=["great-circle", "two-spheres", "offset-circle", "cylinder", "two-cylinders"])
def test_the_reduced_route_matches_the_three_variable_extraction(texts):
    # curve_segments on the full system parametrises the fibre in (y, z)
    # over Q(x), the route the reduction skips
    polys = _polys(texts)
    A, graph = _roadmap(polys)
    piece = curve_segments(polys, [], TriangularContext(QRING), XYZ, anchors=A)
    full = assemble_graph([piece], A, XYZ)
    assert ((graph.component_count(), len(graph.vertices), len(graph.edges))
            == (full.component_count(), len(full.vertices), len(full.edges)))
    assert _on_the_set(graph, polys) and _on_the_set(full, polys)


_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@settings(max_examples=25, deadline=None)
@given(_coeff, _coeff, _coeff, _coeff)
@example(Fraction(1), Fraction(2), Fraction(2), Fraction(3))  # tangent
@example(Fraction(0), Fraction(0), Fraction(1), Fraction(-1))  # tangent at a pole
def test_a_rational_plane_cuts_the_unit_sphere_in_a_circle_a_point_or_nothing(a, b, c, d):
    assume(a or b or c)
    plane = f"({a})*x + ({b})*y + ({c})*z - ({d})"
    polys = _polys([SPHERE, plane])
    _A, graph = _roadmap(polys)
    # the plane's distance from the centre is |d| / |(a, b, c)|
    assert graph.component_count() == (1 if d * d <= a * a + b * b + c * c else 0)
    assert _on_the_set(graph, polys)
