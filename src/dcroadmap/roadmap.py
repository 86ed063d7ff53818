"""Final assembly: per-leaf curve extraction, limits, the roadmap graph, the
bounded and general top-level algorithms, and connectivity queries.

Points are values (solve.RealUnivRep), so assembly keeps one dict from
vertex to id.  Segment endpoints arrive glued: curve_segments reads each
one's signs at its fiber's vertices, which are flat over the leaf's context,
and hands back that vertex, so an endpoint finds its id by value.  An anchor
that fills its fiber is itself a vertex, so it too finds its id by value.
A piece's vertices are distinct points, so each is compared by points_equal
only with earlier pieces' vertices; anchors and other endpoints are looked
up by value first, then by points_equal.  A connectivity query scans the
vertices with points_equal.

A vertex is reshaped only by the point's own methods and points' helpers
(project, to_qring, map_polys, flatten_rur, join): this module reads a
point's fields for output, and builds none from another point's fields."""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .curves import CurveSegmentRep, curve_segments, limit_curve
from .infring import QQ, InfElem, log_signs, zeta
from .mpoly import ERING, QRING, MPoly
from .points import (
    RealUnivRep,
    affine_elimination,
    dedupe_points,
    flatten_rur,
    join,
    numerator_at,
    points_equal,
    rur_sign,
    symbol_indices,
)
from .realroots import TriangularContext, per_input_caches
from .solve import DEFAULT_BUDGET, solve_system
from .tree import build_tree


@dataclass
class RoadmapGraph:
    k: int
    xvars: tuple
    vertices: list  # RealUnivRep, eta-free
    edges: list  # (segment, lo_vid, hi_vid)
    anchor_ids: list
    eps_rays: list = field(default_factory=list)

    def __post_init__(self):
        """Union-find over the vertices and the adjacency map (vertex ->
        [(neighbour, edge id)]) of the edges with both endpoints."""
        self.parent = list(range(len(self.vertices)))
        self.adj = {}
        for eid, (_seg, lo, hi) in enumerate(self.edges):
            if lo is not None and hi is not None:
                self._union(lo, hi)
                self.adj.setdefault(lo, []).append((hi, eid))
                self.adj.setdefault(hi, []).append((lo, eid))

    def _find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def _union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def components(self):
        groups = {}
        for i in range(len(self.vertices)):
            groups.setdefault(self._find(i), []).append(i)
        return [sorted(v) for _r, v in sorted(groups.items())]

    def component_count(self):
        return len(self.components())


def _canonicalize(u: RealUnivRep) -> RealUnivRep:
    """Flatten the tower, and map a point that carries no infinitesimal
    back to the rationals, so vertices from different pipelines share one
    coefficient ring; a point over D[eta] that carries one stays there."""
    u = flatten_rur(u)
    return u if symbol_indices(u) else u.to_qring()


def _vertex_id(u, vertices, ids):
    """The id of the vertex u is: looked up by value in ids (vertex -> id)
    first, then by points_equal among vertices; None when it is none of
    them."""
    i = ids.get(u)
    if i is None:
        i = next((j for j, v in enumerate(vertices) if points_equal(u, v)), None)
    return i


def _add_vertex(u, vertices, ids, among=None):
    """The id of u's vertex: u is looked up as given, then canonicalized by
    _vertex_id among `among` (every vertex by default), and a point that is
    none of them becomes a new vertex.  Both forms of u map to the id."""
    i = ids.get(u)
    if i is None:
        c = _canonicalize(u)
        i = _vertex_id(c, vertices if among is None else among, ids)
        if i is None:
            i = len(vertices)
            vertices.append(c)
        ids[u] = ids[c] = i
    return i


def assemble_graph(pieces, anchors, xvars):
    """Glue curve pieces into a roadmap graph: a dict maps each vertex to
    its id, and edges join segment endpoint vertices.

    A piece's vertices are distinct points, so each is compared only with
    the earlier pieces' vertices.  Anchors and endpoints are looked up by
    value first, then by points_equal, so an endpoint that is one of its
    piece's vertices takes that vertex's id without a comparison."""
    vertices = []
    ids = {}  # each vertex, as its piece gives it and as kept -> its id
    for piece in pieces:
        earlier = list(vertices)
        for u in piece.vertices:
            _add_vertex(u, vertices, ids, earlier)
    anchor_ids = [_add_vertex(a, vertices, ids) for a in anchors]

    def endpoint_id(pt):
        return None if pt is None else _add_vertex(pt, vertices, ids)

    edges = [(seg, endpoint_id(seg.lo_point), endpoint_id(seg.hi_point))
             for piece in pieces for seg in piece.segments]
    return RoadmapGraph(len(xvars), tuple(xvars), vertices, edges, anchor_ids)


@per_input_caches
def roadmap_bounded(P, A, kprime=None, budget=DEFAULT_BUDGET, seed=0):
    """Divide-and-conquer roadmap of a bounded algebraic set: one tree per
    input point (one tree with no points when A is empty), curve segments on
    every leaf, limits, and the glued graph containing every point of A.

    A dimension bound kprime >= k > 1 raises ValueError, checked against the
    k variables of the input.  An affine equation with rational
    coefficients is then substituted away (affine_elimination) while
    another equation remains: the roadmap of the reduced set, with the
    anchors projected and kprime capped at max(k - 2, 1) (a nonzero
    equation still cuts the k - 1 kept coordinates), is lifted back by
    _lift_graph."""
    system = P if isinstance(P, list) else [P]
    xvars = tuple(system[0].vars)
    k = len(xvars)
    if kprime is None:
        kprime = max(k - 1, 1)
    if kprime >= k > 1:
        raise ValueError(f"dimension bound {kprime} is not below the {k} variables")
    reduced = affine_elimination(system, xvars)
    if reduced is not None:
        sub, elim = reduced
        graph = roadmap_bounded(sub, [a.project(elim.kept) for a in A],
                                kprime=min(kprime, max(len(elim.kept) - 1, 1)),
                                budget=budget, seed=seed)
        return _lift_graph(graph, elim)
    # one tree per point, or one tree with no points; at depth 0 the
    # per-point trees all share the root basic set, so their leaf union
    # equals one tree carrying every anchor (the additivity of Tree(V, A)
    # in A)
    groups = [[a] for a in A] if kprime > 1 and A else [list(A)]
    pieces = []
    for group in groups:
        tree = build_tree(system, group, kprime, xvars=xvars, budget=budget, seed=seed)
        for leaf in tree.leaves():
            anchors = list(leaf.A)
            piece = curve_segments(leaf.P, leaf.Q, leaf.base, leaf.xvars,
                                   anchors=anchors, budget=budget, seed=seed)
            piece = limit_curve(piece, zeta(1))
            pieces.append(piece)
    return assemble_graph(pieces, list(A), xvars)


def _lift_graph(graph, elim):
    """The roadmap of Z(system) from the roadmap of the reduced set that
    affine_elimination gave: every vertex and segment endpoint lifted, each
    segment's coordinates given the eliminated one's numerator (parameter
    first, then the other coordinates in elim.xvars order), and the same
    ids."""
    def lift_point(u):
        return None if u is None else elim.lift(u)

    edges = []
    for seg, lo, hi in graph.edges:
        nums = dict(zip(seg.xvars[1:], seg.coords[1:]))
        nums[seg.param_var] = MPoly.var(seg.f.ring, (seg.param_var,), seg.param_var) * seg.coords[0]
        nums[elim.var] = elim.numerator(seg.coords[0], [nums[w] for w in elim.kept])
        xvars = (seg.param_var,) + tuple(w for w in elim.xvars if w != seg.param_var)
        edges.append((CurveSegmentRep(seg.context, seg.param_var, seg.uvar, seg.f, seg.rho,
                                      (seg.coords[0],) + tuple(nums[w] for w in xvars[1:]),
                                      xvars, lo=seg.lo, hi=seg.hi,
                                      lo_point=lift_point(seg.lo_point),
                                      hi_point=lift_point(seg.hi_point)), lo, hi))
    return RoadmapGraph(len(elim.xvars), elim.xvars, [elim.lift(v) for v in graph.vertices],
                        edges, list(graph.anchor_ids))


def cauchy_bound(F):
    """c(F) = (sum_{i>=q} |a_i/a_q|)^(-1) where q is the lowest nonzero
    index: F has no root in (0, c(F)].

    F is a univariate polynomial as log_signs records it: a tuple of
    (exponent, rational coefficient) pairs."""
    coeffs = {}
    for e, c in F:
        if c != 0:
            coeffs[e] = QQ(c)
    if not coeffs:
        raise ValueError("cauchy_bound of zero")
    q = min(coeffs)
    aq = abs(QQ(coeffs[q]))
    total = sum(abs(QQ(c)) / aq for c in coeffs.values())
    return 1 / total


@per_input_caches
def roadmap_general(P, A=(), kprime=None, budget=DEFAULT_BUDGET, seed=0):
    """Roadmap of a general (possibly unbounded or empty) algebraic set:
    intersect Z(P) x R with the sphere of infinitesimal radius 1/eps in
    the coordinates and one extra coordinate Xu_, run the bounded algorithm
    over D[eps], substitute the Cauchy bound of every sign-queried
    eps-polynomial, and project out the extra coordinate.  Each point of A
    gets one anchor id.  The vertices where Xu_ is 0, on the boundary of
    the ball |x| <= 1/eps, are kept as outward parameter rays, so a bounded
    set has none."""
    system = P if isinstance(P, list) else [P]
    xvars = tuple(system[0].vars)
    k = len(xvars)
    newv = "Xu_"
    allv = xvars + (newv,)
    e0 = 0  # the epsilon: index 0 lies above the whole tower
    sph = MPoly.zero(ERING, allv)
    for v in allv:
        sph = sph + MPoly.var(ERING, allv, v, 2)
    sph = sph.scale(InfElem.sym(e0, 2)) - MPoly.const(ERING, allv, 1)
    # the lifted variety (the paper's P_eps = P^2 + (eps^2 |X|^2 - 1)^2) is
    # carried as a defining system: identical zero set, workable ideal
    lifted_system = [p.to_ering().with_vars(allv) for p in system] + [sph]
    A_eps = _lift_points(A, sph, newv, budget, seed)
    if kprime is None:
        kprime = max(k - 1, 1)
    with log_signs(e0) as record:
        graph_eps = roadmap_bounded(lifted_system, A_eps, kprime=kprime,
                                    budget=budget, seed=seed)
        bounds = [cauchy_bound(coeffs) for coeffs in record]
    a_val = min(bounds) if bounds else QQ(1, 2)
    graph, vid_map = _substitute_and_project(graph_eps, e0, a_val, xvars, A)
    on_boundary = MPoly.var(QRING, (newv,), newv)
    graph.eps_rays = [{"vertex": vid_map[vid], "eps_range": ("0", _qstr(a_val))}
                      for vid, u in enumerate(graph_eps.vertices)
                      if rur_sign(u, on_boundary) == 0]
    return graph


def _lift_points(A, sph, newv, budget, seed):
    """A_eps: the points of the lifted variety above each point a of A,
    joined from a and each root newv of sph at a's coordinates, solved over
    a's extended context."""
    out = []
    for a in A:
        eq = numerator_at(a, sph)
        sols = solve_system([eq], (newv,), context=a.extended_context().to_ering(),
                            budget=budget, seed=seed)
        out.extend(join(a, lifted) for lifted in sols)
    return dedupe_points(out)


def _substitute_and_project(graph, idx, value, xvars, A):
    """eps := value in every datum, the lifted coordinate dropped, and the
    vertices glued again; each point of A gets the id of the vertex it is.
    Returns the graph and the new id of each of graph's vertex ids."""
    def subst(p):
        return p if p.ring is QRING else p.map_coeffs(lambda c: c.subst_symbol(idx, value)).to_qring()

    k = len(xvars)
    vertices, ids = [], {}
    vid_map = [_add_vertex(u.project(xvars).map_polys(subst, QRING), vertices, ids)
               for u in graph.vertices]
    edges = []
    for seg, lo, hi in graph.edges:
        lo, hi = (None if i is None else vid_map[i] for i in (lo, hi))
        nseg = CurveSegmentRep(TriangularContext(QRING), seg.param_var, seg.uvar,
                               subst(seg.f), seg.rho, tuple(subst(g) for g in seg.coords[:k]),
                               tuple(xvars), lo=None, hi=None,
                               lo_point=None if lo is None else vertices[lo],
                               hi_point=None if hi is None else vertices[hi])
        edges.append((nseg, lo, hi))
    anchor_ids = [_add_vertex(a, vertices, ids) for a in A]
    return RoadmapGraph(k, tuple(xvars), vertices, edges, anchor_ids), vid_map


def connectivity(graph: RoadmapGraph, u1: RealUnivRep, u2: RealUnivRep):
    """Whether u1 and u2 lie in the same component of the roadmap; on
    success also returns the vertex/edge path."""
    # a scan with points_equal: the graph holds no value index
    id1, id2 = (_vertex_id(flatten_rur(u), graph.vertices, {}) for u in (u1, u2))
    if id1 is None or id2 is None:
        raise ValueError("point not anchored; rebuild with point in A")
    if graph._find(id1) != graph._find(id2):
        return False, []
    if id1 == id2:
        return True, []
    prev = {id1: None}
    dq = deque([id1])
    while dq:
        cur = dq.popleft()
        if cur == id2:
            break
        for nxt, eid in graph.adj.get(cur, []):
            if nxt not in prev:
                prev[nxt] = (cur, eid)
                dq.append(nxt)
    if id2 not in prev:
        return False, []
    path = []
    cur = id2
    while prev[cur] is not None:
        parent, eid = prev[cur]
        path.append(("edge", eid))
        path.append(("vertex", parent))
        cur = parent
    path.reverse()
    return True, [("vertex", id2)] if not path else path + [("vertex", id2)]


# ---------------------------------------------------------------------------
# serialization


def _qstr(q):
    q = QQ(q)
    return f"{q.numerator}/{q.denominator}"


def _coeff_json(c):
    if isinstance(c, InfElem):
        return [[list(m), _qstr(v)] for m, v in sorted(c.terms.items())]
    return _qstr(c)


def _poly_json(p):
    terms = sorted(p.terms.items())
    return {"vars": list(p.vars),
            "terms": [[list(m), _coeff_json(c)] for m, c in terms]}


def _rur_json(u):
    return {
        "uvar": u.uvar,
        "f": _poly_json(u.f),
        "signs": list(u.sigma),
        "F": [_poly_json(g) for g in u.F],
        "xvars": list(u.xvars),
    }


def graph_to_json(graph: RoadmapGraph):
    segs = []
    for seg, lo, hi in graph.edges:
        segs.append({
            "u": [_poly_json(seg.f)] + [_poly_json(g) for g in seg.coords],
            "rho": list(seg.rho),
            "endpoints": [lo, hi],
            "param_var": seg.param_var,
        })
    data = {
        "variables": graph.k,
        "vertices": [_rur_json(v) for v in graph.vertices],
        "segments": segs,
        "components": graph.components(),
        "anchors": graph.anchor_ids,
    }
    if graph.eps_rays:
        data["eps_rays"] = graph.eps_rays
    return data


def graph_to_json_str(graph):
    return json.dumps(graph_to_json(graph), sort_keys=True, separators=(",", ":"))
