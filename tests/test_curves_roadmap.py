import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcroadmap import curves, points, roadmap
from dcroadmap.infring import QQ, InfElem, eps
from dcroadmap.mpoly import ERING, MPoly, QRING, parse_poly
from dcroadmap.points import (
    RealUnivRep,
    flatten_rur,
    points_equal,
    rur_sign,
    sample_components,
)
from dcroadmap.realroots import (
    TriangularContext,
    _ext_context_for,
    _sorted_unique_positions,
    compare_roots,
    thom_encodings,
)
from dcroadmap.curves import CurvePiece, CurveSegmentRep, curve_segments, limit_curve
from dcroadmap.solve import solve_system
from dcroadmap.roadmap import (
    assemble_graph,
    cauchy_bound,
    connectivity,
    graph_to_json_str,
    roadmap_bounded,
    roadmap_general,
)

XY = ("x", "y")


def P(t, v=XY):
    return parse_poly(t, v)


def test_circle_segments_turning_points():
    piece = curve_segments([P("x^2 + y^2 - 1")], [], TriangularContext(QRING), XY)
    assert len(piece.segments) == 2
    assert len(piece.vertices) == 2
    for seg in piece.segments:
        for pt, xval in ((seg.lo_point, "x + 1"), (seg.hi_point, "x - 1")):
            assert pt is not None
            assert rur_sign(pt, P(xval)) == 0
            assert rur_sign(pt, P("y")) == 0


def test_point_set_has_no_segments():
    piece = curve_segments([P("x^2 + y^2"), P("y")], [], TriangularContext(QRING), XY)
    assert piece.segments == []
    assert len(piece.vertices) >= 1


def test_sign_subdivision_keeps_constrained_part():
    # Z((x^2+y^2-1)(y-2)) with the constraint y - 2 >= 0: only the line stays
    p = P("(x^2 + y^2 - 1)*(y - 2)")
    q = P("y - 2")
    piece = curve_segments([p], [q], TriangularContext(QRING), XY)
    for seg in piece.segments:
        # sample membership: segment rho lives on the line branch => the
        # coordinates satisfy y = 2 identically
        pass
    circle_pts = [v for v in piece.vertices if rur_sign(v, P("x^2 + y^2 - 1")) == 0
                  and rur_sign(v, q) < 0]
    assert circle_pts == []


def test_sign_family_member_in_the_parameter_alone():
    # x and 1 - x involve only the parameter, so they reach the critical
    # values without the curve's fiber variable
    p = P("x*y^2 + y - 1")
    piece = curve_segments([p], [P("x"), P("1 - x")], TriangularContext(QRING), XY)
    assert piece.segments
    for v in piece.vertices:
        assert rur_sign(v, p) == 0


def test_limit_curve_identity_on_rational_input():
    piece = curve_segments([P("x^2 + y^2 - 1")], [], TriangularContext(QRING), XY)
    out = limit_curve(piece, 1)
    assert len(out.segments) == len(piece.segments)
    assert len(out.vertices) == len(piece.vertices)
    assert out.vertices == piece.vertices


def test_vertices_that_meet_in_the_limit_are_glued():
    # T = eps and T = -eps are distinct points whose limits are both 0, so
    # the limit piece holds them as one vertex, and so does the graph
    t = ("T",)

    def near_zero(sign):
        f = MPoly.var(ERING, t, "T") + MPoly.const(ERING, t, InfElem.sym(eps(1)) * sign)
        return RealUnivRep(TriangularContext(ERING), "T", f, (0, 1),
                           (MPoly.const(ERING, t, 1), MPoly.var(ERING, t, "T")), ("x",))

    piece = CurvePiece([], [near_zero(1), near_zero(-1)])
    out = limit_curve(piece, eps(1))
    assert len(out.vertices) == 1
    assert len(assemble_graph([out], [], ("x",)).vertices) == 1


def test_limit_curve_keeps_the_ratios_of_a_segments_coordinates():
    # y = (e^2 * U) / e = e * U on the segment, so its limit is y = 0; the
    # common content e of the coordinate tuple is divided out, not each
    # coordinate's own (which would give y = U)
    e1 = InfElem.sym(eps(1))
    v = ("x", "U")
    U = MPoly.var(ERING, v, "U")
    seg = CurveSegmentRep(TriangularContext(ERING), "x", "U", U - MPoly.var(ERING, v, "x"), (0, 1),
                          (MPoly.const(ERING, v, e1), U * MPoly.const(ERING, v, e1 * e1)), XY)
    (out,) = limit_curve(CurvePiece([seg], []), eps(1)).segments
    assert out.coords[0] == MPoly.const(ERING, v, 1) and out.coords[1].is_zero()
    assert out.f == seg.f and out.context is seg.context


def test_limit_curve_keeps_one_vertex_where_two_meet_as_points():
    # T = eps and 2T = -eps have the limit 0 but keep different polynomials,
    # so their limits are unequal values that points_equal finds equal
    t = ("T",)

    def near_zero(scale, sign):
        f = MPoly.var(ERING, t, "T").scale(QQ(scale)) + MPoly.const(ERING, t, InfElem.sym(eps(1)) * sign)
        return RealUnivRep(TriangularContext(ERING), "T", f, (0, 1),
                           (MPoly.const(ERING, t, 1), MPoly.var(ERING, t, "T")), ("x",))

    drop = eps(1)
    u, v = near_zero(1, 1), near_zero(2, -1)
    lim_u, lim_v = points.limit_point(u, drop), points.limit_point(v, drop)
    assert lim_u != lim_v and points_equal(lim_u, lim_v)
    out = limit_curve(CurvePiece([], [u, v]), drop)
    assert out.vertices == [lim_u]


def test_pieces_that_share_a_point_share_its_vertex():
    # (1, 0) is a vertex of both pieces, in two representations that are
    # unequal values (the second's F is doubled); assembly keeps one vertex,
    # gives each endpoint its vertex's id, and compares each vertex of the
    # second piece with the first piece's two vertices only
    def point(x_eq):
        return solve_system([P(x_eq), P("y")], XY)[0]

    left, right, far = point("x + 1"), point("x - 1"), point("x - 2")
    right2 = RealUnivRep(right.base, right.uvar, right.f, right.sigma,
                         tuple(g.scale(QQ(2)) for g in right.F), right.xvars)
    assert right2 != right and points_equal(right2, right)

    def segment(lo, hi):
        seg = curves.CurveSegmentRep(right.base, "x", "Uc_", P("y"), (0, 1), (P("1"), P("0")), XY)
        seg.lo_point, seg.hi_point = lo, hi
        return seg

    first, second = segment(left, right), segment(right2, far)
    pieces = [CurvePiece([first], [left, right]), CurvePiece([second], [right2, far])]
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roadmap, "points_equal", lambda a, b: calls.append(1) or points_equal(a, b))
        # the anchor is a copy of `right` built from its data: found by value
        anchor = RealUnivRep(*(getattr(right, f) for f in ("base", "uvar", "f", "sigma", "F", "xvars")))
        graph = assemble_graph(pieces, [anchor], XY)
    assert graph.vertices == [left, right, far]
    assert graph.edges == [(first, 0, 1), (second, 1, 2)]
    assert graph.anchor_ids == [1] and graph.component_count() == 1
    assert len(calls) == 4


def test_cauchy_bound_examples():
    # (exponent, coefficient) pairs, as log_signs records them
    assert cauchy_bound(((1, QQ(1)), (3, QQ(-2)))) == QQ(1, 3)  # e - 2*e^3
    assert cauchy_bound(((0, QQ(5)),)) == QQ(1)
    assert cauchy_bound(((2, QQ(1)),)) == QQ(1)
    for zero in ((), ((1, QQ(0)),)):
        with pytest.raises(ValueError):
            cauchy_bound(zero)


def test_roadmap_circle():
    circle = P("x^2 + y^2 - 1")
    A = sample_components([circle])
    g = roadmap_bounded(circle, A)
    assert g.component_count() == 1
    # every anchor is a graph vertex
    assert len(g.anchor_ids) == len(A)
    # membership: all vertices on the circle
    for v in g.vertices:
        assert rur_sign(v, circle) == 0


def test_roadmap_two_circles():
    two = P("(x^2 + y^2 - 1)*((x - 4)^2 + y^2 - 1)")
    A = sample_components([two])
    g = roadmap_bounded(two, A)
    assert g.component_count() == 2


def test_connectivity_queries():
    circle = P("x^2 + y^2 - 1")
    A = sample_components([circle])
    g = roadmap_bounded(circle, A)
    same, path = connectivity(g, A[0], A[0])
    assert same and path == []
    if len(A) > 1:
        same2, path2 = connectivity(g, A[0], A[1])
        assert same2


def test_connectivity_across_circles_disconnected():
    two = P("(x^2 + y^2 - 1)*((x - 4)^2 + y^2 - 1)")
    A = sample_components([two])
    left = [a for a in A if rur_sign(a, P("x - 2")) < 0]
    right = [a for a in A if rur_sign(a, P("x - 2")) > 0]
    assert left and right
    g = roadmap_bounded(two, A)
    same, _ = connectivity(g, left[0], right[0])
    assert not same


def test_connectivity_unanchored_point_errors():
    circle = P("x^2 + y^2 - 1")
    A = sample_components([circle])
    g = roadmap_bounded(circle, A)
    from dcroadmap.points import RealUnivRep

    stray = RealUnivRep(TriangularContext(QRING), "Uq",
                        parse_poly("Uq - 7", ("Uq",)), (0, 1),
                        (parse_poly("1", ("Uq",)), parse_poly("7", ("Uq",)),
                         parse_poly("0", ("Uq",))), XY)
    with pytest.raises(ValueError, match="not anchored"):
        connectivity(g, stray, A[0])


def test_general_roadmap_of_the_unit_circle_names_one_vertex_per_anchor():
    # the circle inside the ball of radius 1/eps: one component, one anchor
    # id per input anchor, each a vertex, and no ray, since the extra
    # coordinate Xu_ vanishes at no vertex of the bounded lifted curve
    circle = P("x^2 + y^2 - 1")
    A = sample_components([circle])
    g = roadmap_general(circle, A)
    assert g.component_count() == 1
    assert len(g.anchor_ids) == len(A) == 2
    assert all(0 <= i < len(g.vertices) for i in g.anchor_ids)
    assert all(points_equal(a, g.vertices[i]) for a, i in zip(A, g.anchor_ids))
    assert g.eps_rays == []
    for v in g.vertices:
        assert v.f.ring is QRING and rur_sign(v, circle) == 0


def test_canonical_vertices_leave_the_infinitesimal_ring_only_when_eta_free():
    # epsilon of roadmap_general has global index 0, so a point carrying it
    # must stay over D[eps] although its largest symbol index is 0
    one, u = (MPoly.const(ERING, ("U",), 1), MPoly.var(ERING, ("U",), "U"))
    e0 = MPoly.const(ERING, ("U",), InfElem.sym(0))
    for c, eta_free in ((one, True), (e0, False)):
        v = RealUnivRep(TriangularContext(ERING), "U", u - c, (0, 1), (one, u, one), XY)
        canon = roadmap._canonicalize(v)
        assert (canon.f.ring is QRING) is eta_free
        assert canon == (v.to_qring() if eta_free else v)


def test_roadmap_json_roundtrip_deterministic():
    circle = P("x^2 + y^2 - 1")
    A = sample_components([circle])
    g1 = roadmap_bounded(circle, A, seed=0)
    s1 = graph_to_json_str(g1)
    g2 = roadmap_bounded(circle, sample_components([circle]), seed=0)
    s2 = graph_to_json_str(g2)
    assert s1 == s2
    assert len(json.loads(s1)["components"]) == 1


def test_fiber_vertices_and_endpoints_are_independent_of_the_hash_seed():
    # the fiber vertices come out of the flat solves in branch order, and
    # each endpoint is glued to one of them; neither may follow a string
    # hash, which changes with PYTHONHASHSEED
    script = (
        "from dcroadmap import curves\n"
        "from dcroadmap.mpoly import QRING, parse_poly\n"
        "from dcroadmap.realroots import TriangularContext\n"
        f"p = parse_poly('{CROSSING}', ('x', 'y'))\n"
        "piece = curves.curve_segments([p], [], TriangularContext(QRING), ('x', 'y'))\n"
        "for v in piece.vertices:\n"
        "    print(v.uvar, v.f, v.sigma, v.F)\n"
        "print([(piece.vertices.index(s.lo_point), piece.vertices.index(s.hi_point))\n"
        "       for s in piece.segments])\n")
    src = os.path.dirname(os.path.dirname(curves.__file__))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    outs = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=600, check=True)
        outs.append(done.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_sorted_unique_encodings_keeps_one_encoding_per_root():
    ctx = TriangularContext(QRING)
    X = ("x",)
    encs = (thom_encodings(parse_poly("x + 1", X), "x", ctx)
            + thom_encodings(parse_poly("x^2 - 1", X), "x", ctx))
    out, at = _sorted_unique_positions(encs)
    assert len(out) == 2
    (minus_one,) = thom_encodings(parse_poly("x + 1", X), "x", ctx)
    (one,) = thom_encodings(parse_poly("x - 1", X), "x", ctx)
    assert compare_roots(out[0], minus_one) == 0
    assert compare_roots(out[1], one) == 0
    # the same sort also places each encoding's value: -1, -1, 1
    assert at == [0, 0, 1]


# two unit circles crossing at two points, and two touching at one
CROSSING = "(x^2 + y^2 - 1)*((x - 1)^2 + y^2 - 1)"
TANGENT = "(x^2 + y^2 - 1)*((x - 2)^2 + y^2 - 1)"
XYZ = ("x", "y", "z")
GREAT_CIRCLE = ["x^2 + y^2 + z^2 - 4", "z"]


@pytest.fixture(scope="module", params=[([CROSSING], XY, 10, 12), ([TANGENT], XY, 3, 4),
                                        (GREAT_CIRCLE, XYZ, 2, 2)],
                ids=["crossing", "tangent", "great-circle"])
def glued_pair(request):
    """The curve piece and graph of a circle pair (or of a great circle),
    the expected graph size, and the tower collapses made while extracting
    and while assembling."""
    texts, xvars, nv, ne = request.param
    system = [parse_poly(t, xvars) for t in texts]
    A = sample_components(system, xvars=xvars)
    collapses = {"segments": 0, "assembly": 0}
    stage = ["segments"]
    collapse = points._collapse_last_level

    def counted(u):
        collapses[stage[0]] += 1
        return collapse(u)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "_collapse_last_level", counted)
        piece = curve_segments(system, [], TriangularContext(QRING), xvars, anchors=A)
        stage[0] = "assembly"
        graph = assemble_graph([piece], A, xvars)
    return system, piece, graph, (nv, ne), collapses


def test_glued_pair_graph(glued_pair):
    system, piece, graph, size, _collapses = glued_pair
    assert (len(graph.vertices), len(graph.edges)) == size
    # a piece's vertices are distinct points, a crossing point found from
    # both circles included
    assert len(piece.vertices) == len(graph.vertices)
    assert graph.component_count() == 1
    assert all(rur_sign(v, p) == 0 for v in graph.vertices for p in system)


def test_segment_endpoints_are_fiber_vertices(glued_pair):
    _system, piece, graph, _size, _collapses = glued_pair
    assert piece.segments
    for seg in piece.segments:
        for pt in (seg.lo_point, seg.hi_point):
            assert any(pt is v for v in piece.vertices)
    assert all(lo is not None and hi is not None for _seg, lo, hi in graph.edges)


def test_extraction_and_assembly_collapse_no_tower_level(glued_pair):
    # the fibers are solved over the base context and every endpoint here is
    # glued by signs read at their vertices, so no tower is ever flattened
    _system, piece, _graph, _size, collapses = glued_pair
    assert piece.vertices
    assert collapses == {"segments": 0, "assembly": 0}


def _flat_fiber_solves(system, xvars, anchors):
    """The graph of one curve piece and the systems curve_segments hands to
    sample_components."""
    solved = []
    sample = curves.sample_components

    def spy(fiber_system, *args, **kwargs):
        solved.append(fiber_system)
        return sample(fiber_system, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "sample_components", spy)
        piece = curve_segments(system, [], TriangularContext(QRING), xvars, anchors=anchors)
    return assemble_graph([piece], anchors, xvars), solved


def test_unit_circle_fibers_kept_under_the_discriminant_and_the_anchors():
    # the anchors' x-values +-1 repeat the discriminant's roots, and f(+-1, U)
    # = U^2 has one distinct real root, as many as the anchors there: the
    # anchors fill both fibers, so no fiber is solved and the anchors
    # themselves are the graph's vertices
    circle = P("x^2 + y^2 - 1")
    anchors = sample_components([circle])
    graph, solved = _flat_fiber_solves([circle], XY, anchors)
    assert len(solved) == 0
    assert (len(graph.vertices), len(graph.edges)) == (2, 2)
    assert len(anchors) == 2 and all(any(v is a for a in anchors) for v in graph.vertices)
    assert graph.component_count() == 1
    assert all(rur_sign(v, circle) == 0 for v in graph.vertices)


def _top_of_circle(scale):
    """(0, 1) on the unit circle, its coordinate tuple scaled by `scale`: a
    scale other than 1 gives the same point as an unequal value."""
    top = solve_system([P("x"), P("y - 1")], XY)[0]
    return RealUnivRep(top.base, top.uvar, top.f, top.sigma,
                       tuple(g.scale(QQ(scale)) for g in top.F), top.xvars)


@pytest.mark.parametrize("scale", [1, 2], ids=["equal-values", "scaled-copy"])
def test_a_repeated_anchor_does_not_fill_its_fiber(scale):
    # p1 and p2 are both (0, 1), as `dcroadmap connect` passes them: the
    # fiber x = 0 holds one distinct anchor against the two real roots of
    # f(0, U) = U^2 - 1, so it is solved, and (0, -1) is one of its
    # vertices, not an endpoint found by a limit
    circle = P("x^2 + y^2 - 1")
    p1, p2 = _top_of_circle(1), _top_of_circle(scale)
    anchors = sample_components([circle]) + [p1, p2]
    bottom = solve_system([P("x"), P("y + 1")], XY)[0]
    limits = []
    endpoint_limit = curves._endpoint_limit

    def spy(seg, ctx, direction):
        limits.append(direction)
        return endpoint_limit(seg, ctx, direction)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "_endpoint_limit", spy)
        graph, solved = _flat_fiber_solves([circle], XY, anchors)
    assert len(solved) == 1 and limits == []
    assert sum(points_equal(v, bottom) for v in graph.vertices) == 1
    assert (len(graph.vertices), len(graph.edges)) == (4, 4)
    assert graph.anchor_ids[2] == graph.anchor_ids[3]
    assert graph.component_count() == 1
    assert connectivity(graph, p2, bottom)[0]


def test_conjugate_critical_values_share_one_flat_solve():
    # x^2 + y^2 = 2 at z = 1: the critical values -sqrt 2 and sqrt 2 are the
    # roots of one irreducible quadratic, so one solve serves both fibers
    system = [parse_poly("x^2 + y^2 + z^2 - 3", XYZ), parse_poly("z - 1", XYZ)]
    graph, solved = _flat_fiber_solves(system, XYZ, sample_components(system, xvars=XYZ))
    assert len(solved) == 1
    assert (len(graph.vertices), len(graph.edges)) == (2, 2)
    assert graph.component_count() == 1
    assert all(rur_sign(v, p) == 0 for v in graph.vertices for p in system)


def _endpoints_by_both_routes(system, xvars):
    """(endpoint glued by signs, endpoint by the limit over D[mu] flattened
    onto the base context, the fiber's vertices) for every endpoint
    curve_segments glues."""
    calls = []
    glued = curves._glued_endpoint

    def spy(seg, ends, fiber, tname, direction):
        end = glued(seg, ends, fiber, tname, direction)
        calls.append((seg, fiber, tname, direction, end))
        return end

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "_glued_endpoint", spy)
        curve_segments(system, [], TriangularContext(QRING), xvars)
    out = []
    for seg, (enc, vertices), tname, direction, end in calls:
        ctx = _ext_context_for(enc.renamed(tname))
        limit = curves._endpoint_limit(seg, ctx, direction)
        assert limit is not None
        out.append((end, flatten_rur(limit.to_qring(), enc.context.nlevels), vertices))
    return out




@pytest.mark.parametrize("system, xvars", [
    ([P(TANGENT)], XY),
    ([P(CROSSING)], XY),
    ([parse_poly("x^2 + y^2 + z^2 - 4", XYZ), parse_poly("z", XYZ)], XYZ),
], ids=["tangent", "crossing", "great-circle"])
def test_endpoint_by_continuity_is_the_limit(system, xvars):
    # every fiber polynomial here has a constant leading coefficient and
    # denominator, so every endpoint is glued by signs at a fiber vertex,
    # turning points (a double root of f(c, U)) and crossings included, and
    # it is the point the limit route finds
    ends = _endpoints_by_both_routes(system, xvars)
    assert ends
    for by_signs, by_limit, vertices in ends:
        assert any(by_signs is v for v in vertices)
        assert points_equal(by_signs, by_limit)


def test_branches_meeting_at_a_double_root_end_at_it():
    # f = U^2 - x with U = y: over x in (0, 1) the branches U = -sqrt(x) and
    # sqrt(x) both end at the double root U = 0 of f(0, U), whose signs
    # (0, 0, +) relax each branch's (0, -+1, +); the point (0, 1) of the same
    # fiber is no root of f(0, U)
    xu = ("x", "Uc_")
    f = parse_poly("Uc_^2 - x", xu)
    coords = (parse_poly("1", xu), parse_poly("Uc_", xu))
    base = TriangularContext(QRING)
    origin, off_curve = (s for q in ("y", "y - 1") for s in solve_system([P("x"), P(q)], XY))
    fiber = (thom_encodings(P("x", ("x",)), "x", base)[0], [off_curve, origin])
    ends = curves._branch_ends(f, coords, "Uc_", P("y"), XY, fiber[1])
    assert ends == [(origin, (0, 0, 1))]
    ctx = _ext_context_for(fiber[0].renamed("Tx"))
    for enc in thom_encodings(parse_poly("Uc_^2 - 1", ("Uc_",)), "Uc_", base):
        seg = curves.CurveSegmentRep(base, "x", "Uc_", f, enc.signs, coords, XY)
        assert curves._glued_endpoint(seg, ends, fiber, "Tx", +1) is origin
        limit = curves._endpoint_limit(seg, ctx, +1).to_qring()
        assert points_equal(flatten_rur(limit), origin)


def test_endpoint_where_the_leading_coefficient_vanishes_is_a_limit():
    # f = x*y^2 + y - 1 over x in (0, 1): lc = x vanishes at x = 0, where
    # the branch y = (sqrt(1 + 4x) - 1)/(2x) tends to 1 and the other one is
    # unbounded; only the limit over D[mu] finds these endpoints
    f = P("x*y^2 + y - 1")
    at_one = solve_system([f, P("x - 1")], XY)
    limits = []
    endpoint_limit = curves._endpoint_limit

    def spy(seg, ctx, direction):
        t = ctx.tvars[-1]
        limits.append((seg.rho, ctx.sign_mpoly(MPoly.var(ctx.ring, (t,), t))))
        return endpoint_limit(seg, ctx, direction)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "_endpoint_limit", spy)
        piece = curve_segments([f], [], TriangularContext(QRING), XY, anchors=at_one)
    right = [s for s in piece.segments
             if s.hi_point is not None and rur_sign(s.hi_point, P("x - 1")) == 0]
    bounded = [s for s in right if s.rho == (0, 1, 1)]
    unbounded = [s for s in right if s.rho == (0, -1, 1)]
    assert len(bounded) == len(unbounded) == 1
    vertex = bounded[0].lo_point
    assert any(vertex is v for v in piece.vertices)
    assert [rur_sign(vertex, P(q)) for q in ("x", "y - 1")] == [0, 0]
    assert unbounded[0].lo_point is None
    # the limit route is taken at x = 0 only, the bounded branch's end included
    assert ((0, 1, 1), 0) in limits
    assert all(at == 0 for _rho, at in limits)


def test_tangent_pair_roadmap_makes_no_infinitesimal_products():
    p = P(TANGENT)
    A = sample_components([p])
    products = []
    mul = InfElem.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(InfElem, "__mul__", counted)
        graph = roadmap_bounded(p, A)
    assert graph.component_count() == 1
    assert products == []


def test_roadmap_quartic_has_one_component():
    quartic = P("x^4 + y^4 - 1")
    assert roadmap_bounded(quartic, sample_components([quartic])).component_count() == 1


ELLIPSE = "x^2 + 4*y^2 - 4"


def test_plane_anchors_are_the_x_extremes_of_an_ellipse():
    A = sample_components([P(ELLIPSE)])
    assert len(A) == 2
    assert sorted(rur_sign(a, P("x")) for a in A) == [-1, 1]
    for a in A:
        assert rur_sign(a, P("x^2 - 4")) == 0
        assert rur_sign(a, P("y")) == 0


@pytest.mark.parametrize("text", [ELLIPSE, TANGENT], ids=["ellipse", "tangent"])
def test_plane_anchors_are_critical_for_the_projection_to_x(text):
    p = P(text)
    A = sample_components([p])
    assert A
    for a in A:
        assert rur_sign(a, p) == 0
        assert rur_sign(a, p.deriv("y")) == 0


def test_ellipse_roadmap_has_its_two_x_extremes_and_two_arcs():
    p = P(ELLIPSE)
    graph = roadmap_bounded(p, sample_components([p]))
    assert (len(graph.vertices), len(graph.edges)) == (2, 2)
    assert graph.component_count() == 1


@pytest.mark.parametrize("name", ["signs_at_encodings", "thom_encodings"])
def test_a_failed_step_raises_instead_of_a_smaller_graph(monkeypatch, name):
    # a sign determination or Thom enumeration that fails must not drop the
    # circle's segments and leave its four turning points as four components
    circle = P("x^2 + y^2 - 4")
    A = sample_components([circle])

    def fail(*args, **kwargs):
        raise ArithmeticError("injected failure")

    monkeypatch.setattr(curves, name, fail)
    with pytest.raises(ArithmeticError, match="injected failure"):
        roadmap_bounded(circle, A)


_radius = st.fractions(min_value=QQ(1, 3), max_value=2, max_denominator=3)
_centre = st.fractions(min_value=-2, max_value=2, max_denominator=3)
_share = st.fractions(min_value=QQ(1, 4), max_value=QQ(3, 4), max_denominator=4)


@st.composite
def circle_pairs(draw):
    """Two circles with rational centres on the x axis and rational radii,
    as (c1, r1, c2, r2, components): apart, touching from outside,
    crossing, nested, or touching from inside."""
    kind = draw(st.sampled_from(["apart", "touching", "crossing", "nested", "inside"]))
    c1, r1, r2, t = draw(_centre), draw(_radius), draw(_radius), draw(_share)
    if kind in ("nested", "inside"):
        r1, r2 = r1 + r2, r2  # the second lies inside the first
    lo, hi = abs(r1 - r2), r1 + r2
    d, components = {
        "apart": (hi + t, 2),
        "touching": (hi, 1),
        "crossing": (lo + t * (hi - lo), 1),
        "nested": (t * lo if draw(st.booleans()) else QQ(0), 2),
        "inside": (lo, 1),
    }[kind]
    return c1, r1, c1 + d * draw(st.sampled_from([1, -1])), r2, components


@settings(max_examples=15, deadline=None, derandomize=True)
@given(circle_pairs())
def test_circle_pairs_have_the_components_of_their_construction(pair):
    c1, r1, c2, r2, components = pair
    circles = [P(f"(x - ({c}))^2 + y^2 - ({r})^2") for c, r in ((c1, r1), (c2, r2))]
    p = circles[0] * circles[1]
    graph = roadmap_bounded(p, sample_components([p]))
    assert graph.component_count() == components
    assert all(rur_sign(v, p) == 0 for v in graph.vertices)


def test_a_sphere_cut_by_a_cylinder_on_its_axis_has_two_closed_curves():
    # no equation is affine, so the curve keeps two fiber variables and
    # every fiber is solved; its points are never compared with each other
    # by coordinate encodings, each a resultant of high degree here
    system = [parse_poly("x^2 + y^2 + z^2 - 4", XYZ), parse_poly("x^2 + y^2 - 1", XYZ)]
    graph = roadmap_bounded(system, sample_components(system, xvars=XYZ), kprime=1)
    assert graph.component_count() == 2
    assert all(rur_sign(v, p) == 0 for v in graph.vertices for p in system)
