"""Curve-segment extraction on (<= 1)-dimensional basic sets: parametrized
decomposition along the first free coordinate, sign subdivision, exact
endpoints read at their fiber, and limits.

The vertices are the points of the fibers over the critical parameter
values, found over the base context.  With one fiber variable the anchors
fill a fiber where they can: the fiber points of a piece over a value c
are roots of its fiber polynomial f(c, U), so one Sturm count of those
roots, over the context that fixes c, bounds them.  A count of 0 leaves
the fiber empty, and when the distinct anchors over c in the piece's basic
set are as many as the roots, they are its fiber points, the anchor
objects themselves.  Anchors that share a value are compared with each
other first, so one point given twice counts once.  Only an unsettled
value is solved: its encoding polynomial r once with the piece, each point
found going to the value whose Thom signs its parameter coordinate has.
A zero f(c, U) and two fiber variables always take that solve.  A later
piece's fiber point that lies in an earlier piece's basic set is already
one of that piece's points over its value, so it is dropped, and no two
fiber points are compared.

A segment endpoint is glued to its fiber by signs read at these vertices:
by continuity and Thom's lemma, whenever the fiber polynomial keeps its
degree there and the coordinate denominator does not vanish, the endpoint
is the one vertex whose fiber coordinate has the branch's relaxed Thom
signs and whose coordinates are the branch's own.  Only otherwise is it the
limit through a transient innermost infinitesimal, taken over a tower
context that fixes the value and flattened once; an endpoint that matches
no vertex (in a fiber that is not finite) stays a point of its own.

limit_curve removes infinitesimals from a piece with the two limits of
points, limit_point and limit_thom.  Both return what carries no dropped
infinitesimal unchanged, so the rule for eta-free input lives there and
not here."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ResourceBudgetError, SeparationError
from .infring import QQ, InfElem
from .mpoly import ERING, MPoly, der_list, fresh_var, merge_vars, resultant, subst_rational
from .points import (
    RealUnivRep,
    _divide_eta_content,
    _has_thom_signs,
    coordinate_encoding_cached,
    dedupe_points,
    drop_symbols,
    eta_content_normalize,
    flatten_rur,
    fresh_infinitesimal,
    limit_point,
    limit_thom,
    max_symbol_index,
    points_equal,
    rational_between,
    rur_sign,
    sample_components,
)
from .realroots import (
    BoundedCache,
    ThomEncoding,
    TriangularContext,
    _ext_context_for,
    _sorted_unique_positions,
    compare_roots,
    signs_at_encodings,
    tarski_query_mpoly,
    thom_encodings,
    trimmed,
)
from .solve import DEFAULT_BUDGET, split_branches
from .symbridge import UNIT, shape_basis


@dataclass(eq=False)
class CurveSegmentRep:
    """One open arc: for every parameter x in (lo, hi) the fiber polynomial
    f(x, U) has a real root with Thom signs rho, and the point is
    (x, coords_1/coords_0, ...) evaluated there."""

    context: TriangularContext
    param_var: str
    uvar: str
    f: MPoly
    rho: tuple
    coords: tuple  # (denominator, numerator per non-parameter coordinate)
    # all free coordinates, parameter first, then the others in the order of
    # the roadmap's coordinates; a roadmap that eliminated x1 by an affine
    # equation (a plane x1 = c) has x2 as its parameter, so x1 comes second
    xvars: tuple
    lo: ThomEncoding = None
    hi: ThomEncoding = None
    lo_point: RealUnivRep = None  # a vertex of the piece, when glued
    hi_point: RealUnivRep = None

    def __repr__(self):
        return f"Segment({self.param_var} in ({self.lo is not None}, {self.hi is not None}); rho={self.rho})"


@dataclass
class CurvePiece:
    """Decomposition result for one leaf basic set: its segments and its
    vertices, the isolated points and the fiber points segments end at.
    The vertices are distinct points, so assembly compares each only with
    other pieces' vertices.  A segment endpoint is one of them unless it
    matched none (_glued_endpoint)."""

    segments: list
    vertices: list  # RURs


def curve_segments(P, Q, context, xvars, anchors=(), budget=DEFAULT_BUDGET, seed=0):
    """Decompose Bas(P(theta,.), Q(theta,.)), strongly of dimension <= 1,
    into curve segments and vertices over the parameter xvars[0].

    Every piece (one per subset Q' of Q promoted to equations) is subdivided
    at the union of all pieces' critical parameter values, and each endpoint
    is glued to a point of the fiber over its value.  anchors are points
    (RURs over context) whose parameter values also become segment
    boundaries.  They come first in that union, so a value an anchor has is
    encoded by the anchor's coordinate, and with one fiber variable they
    fill the fibers whose point count they match (_filled_by_anchors).  Each
    other fiber is solved flat, over context: the encoding polynomial r of
    its value once with the piece, so the vertices are RURs over context as
    they come out.  An endpoint is glued by signs read at these vertices
    (_branch_ends), and by a limit only where that does not apply
    (_glued_endpoint)."""
    xvars = tuple(xvars)
    if len(xvars) > 3:
        raise ResourceBudgetError(
            f"curve extraction with {len(xvars) - 1} fiber variables exceeds the supported range")
    x = xvars[0]
    pieces = []
    isolated = []  # the points of branches with no curve
    for qsize in range(len(Q) + 1):
        for qsel in combinations(range(len(Q)), qsize):
            V0 = list(P) + [Q[i] for i in qsel]
            rest = [Q[i] for i in range(len(Q)) if i not in qsel]
            if not V0:
                continue
            for V in split_branches(V0, budget):
                param = None if len(xvars) == 1 else _parametrize_fiber(V, context, xvars)
                if param is None:
                    isolated.extend(_isolated_points(V, rest, context, xvars, budget, seed))
                    continue
                f, coords, uvar, must_vanish, uform = param
                crit = _critical_parameters(f, coords, must_vanish, rest,
                                            context, xvars, uvar, budget)
                pieces.append((V, rest, f, coords, uvar, must_vanish, uform, crit))
    cross = []
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            fi, ui = pieces[i][2], pieces[i][4]
            fj, uj = pieces[j][2], pieces[j][4]
            if fi == fj and ui == uj:
                continue
            fj_r = fj if uj == ui else fj.subst({uj: MPoly.var(fj.ring, (ui,), ui)})
            if fi == fj_r:
                continue
            r = _budgeted_resultant(fi, fj_r, ui, budget)
            if not r.is_zero() and r.degree(x) > 0:
                cross.extend(thom_encodings(r.with_vars(merge_vars(context.tvars, (x,))), x, context))
    # an anchor is a point, so equal values are one anchor; anchors come
    # first, so a value an anchor has is encoded by the anchor's coordinate
    anchors = list(dict.fromkeys(anchors)) if pieces else []
    anchor_encs = [coordinate_encoding_cached(a, 1).renamed(x) for a in anchors]
    all_crit, at = _sorted_unique_positions(
        anchor_encs + [e for pc in pieces for e in pc[-1]] + cross)
    tname = fresh_var("Tx", set(context.tvars).union(
        xvars, *(p.vars for p in list(P) + list(Q)), *(pc[2].vars for pc in pieces)))
    # per critical value: its encoding and the distinct points over it
    fibers = [(enc, []) for enc in all_crit]
    # the distinct anchors over each value: only anchors that share a value
    # are compared with each other
    over = [[] for _ in all_crit]
    for a, j in zip(anchors, at):
        over[j].append(a)
    over = [dedupe_points(group) if len(group) > 1 else group for group in over]
    owners = {}
    for j, (enc, _kept) in enumerate(fibers):
        owners.setdefault(enc.poly.with_vars(merge_vars(context.tvars, (x,))), []).append(j)
    for i, (V, rest, f, _coords, uvar, *_param) in enumerate(pieces):
        earlier = pieces[:i]
        unsettled = set()
        for j, (enc, kept) in enumerate(fibers):
            filled = (_filled_by_anchors(V, rest, f, uvar, enc, over[j])
                      if len(xvars) == 2 else None)
            if filled is None:
                unsettled.add(j)
            else:
                kept.extend(u for u in filled if not _in_earlier_piece(u, earlier))
        for r, owned in owners.items():
            todo = [j for j in owned if j in unsettled]
            if not todo:
                continue
            for u in sample_components(list(V) + [r], context=context, xvars=xvars,
                                       budget=budget, seed=seed):
                if not all(rur_sign(u, q) >= 0 for q in rest):
                    continue
                # a root of r that another polynomial's encoding fixes is
                # that polynomial's to find, and a settled value's points
                # are known
                j = next((j for j in todo if _has_thom_signs(u, r, x, fibers[j][0].signs)), None)
                if j is not None and not _in_earlier_piece(u, earlier):
                    fibers[j][1].append(u)
    segments = []
    for (_V, rest, f, coords, uvar, must_vanish, uform, _crit) in pieces:
        own = []  # (index of the interval's lower end, segment)
        for i in range(len(all_crit) - 1):
            sample = rational_between(all_crit[i], all_crit[i + 1])
            own.extend((i, seg) for seg in _segments_on_interval(
                f, coords, must_vanish, rest, all_crit[i], all_crit[i + 1],
                sample, context, xvars, uvar))
        # the piece's sign reads at each fiber its segments end in, shared by
        # every segment ending there
        ends = {j: _branch_ends(f, coords, uvar, uform, xvars, fibers[j][1])
                for j in sorted({j for i, _seg in own for j in (i, i + 1)})}
        for i, seg in own:
            seg.lo_point = _glued_endpoint(seg, ends[i], fibers[i], tname, +1)
            seg.hi_point = _glued_endpoint(seg, ends[i + 1], fibers[i + 1], tname, -1)
            segments.append(seg)
    # points over distinct critical values differ in the parameter, so only
    # the isolated points need comparing with the fibers' vertices
    vertices = [v for _enc, kept in fibers for v in kept]
    isolated = dedupe_points(isolated)
    isolated = [u for u in isolated if not any(points_equal(u, v) for v in vertices)]
    return CurvePiece(segments, isolated + vertices)


def _filled_by_anchors(V, rest, f, uvar, enc, anchors):
    """The points of the piece's basic set (V = 0, rest >= 0) over the value
    c that enc encodes, when a count settles them, else None.  Every such
    point is (c, s) for a real root s of the fiber polynomial f(c, U), so
    the number of distinct real roots, one Sturm count over the context
    that fixes c, bounds them: at 0 the fiber is empty, and when the
    distinct anchors over c in the basic set are as many, they are all of
    its points.  None when f(c, U) is zero or the count leaves points to
    find."""
    ctx = _ext_context_for(enc)
    fc = trimmed(f.with_vars(ctx.tvars + (uvar,)), uvar, ctx)
    if fc.is_zero():
        return None
    n = tarski_query_mpoly(fc, MPoly.const(fc.ring, fc.vars, 1), uvar, ctx)
    if n == 0:
        return []
    if len(anchors) < n:
        return None
    inside = [a for a in anchors if _in_basic_set(a, V, rest)]
    return inside if len(inside) == n else None


def _in_basic_set(u, V, rest):
    return all(rur_sign(u, p) == 0 for p in V) and all(rur_sign(u, q) >= 0 for q in rest)


def _in_earlier_piece(u, earlier):
    """Whether the fiber point u lies in the basic set of one of the earlier
    pieces: then it is already one of that piece's points over its value,
    which are all found."""
    return any(_in_basic_set(u, V, rest) for (V, rest, *_param) in earlier)


def _isolated_points(V, signs_family, context, xvars, budget, seed):
    """The points of a branch V with no curve over the parameter (a fiber
    ideal that is the unit ideal, or no fiber variable) where every member
    of signs_family is >= 0, from sample_components."""
    pts = sample_components(V, context=context, xvars=xvars, budget=budget, seed=seed)
    return [u for u in pts if all(rur_sign(u, q) >= 0 for q in signs_family)]


def _parametrize_fiber(V, context, xvars):
    """Shape parametrization of the fiber over the function field of the
    parameter: f(x, U) plus rational coordinate functions for the fiber
    variables, and U as a form in them (the fiber variable itself, or
    y + c*z).  Returns None when the fiber ideal is the unit ideal."""
    x = xvars[0]
    fibers = tuple(xvars[1:])
    ring = V[0].ring
    uvar = "Uc_"
    if len(fibers) == 1:
        z = fibers[0]
        f = None
        for p in V:
            if p.degree(z) > 0:
                f = p if f is None or p.degree(z) < f.degree(z) else f
        if f is None:
            return None
        fu = f.subst({z: MPoly.var(ring, (uvar,), uvar)})
        variables = merge_vars(context.tvars, (x, uvar))
        one = MPoly.const(ring, variables, 1)
        coords = (one, MPoly.var(ring, variables, uvar))
        must_vanish = [p for p in V if not (p == f)]
        return (fu.with_vars(merge_vars(fu.vars, variables)), coords, uvar, must_vanish,
                MPoly.var(ring, (z,), z))
    # two fiber variables: separating form over the parameter field
    for c in (1, 2, 3, 5, 7, 11, 13, 17):
        shape = _shape_over_parameter(V, fibers, context, x, uvar, c)
        if shape == "empty":
            return None
        if shape is not None:
            f, coords = shape
            y, z = (MPoly.var(ring, fibers, v) for v in fibers)
            return f, coords, uvar, list(V), y + z.scale(QQ(c))
    raise SeparationError("no separating form for the fiber parametrization")


def _shape_over_parameter(V, fibers, context, x, uvar, c):
    """Shape parametrization for the separating form uvar = y + c*z of the
    two fiber variables (y, z), over the field of the parameter x, the
    context variables and the infinitesimals: the eliminant f(x, uvar) and
    the coordinate functions (denominator, one numerator per fiber
    variable).  Returns "empty" for the unit ideal and None when the basis
    is not in shape position."""
    ring = V[0].ring
    gens = tuple(fibers) + (uvar,)
    y, z, u = (MPoly.var(ring, gens, v) for v in gens)
    polys = list(V) + [lp for _v, lp, _s in context.levels] + [u - y - z.scale(QQ(c))]
    shape = shape_basis(polys, gens, uvar)
    if shape == UNIT:
        return "empty"
    if shape is None or len(shape[1]) < len(fibers):
        return None
    f, rels = shape
    variables = merge_vars(context.tvars, (x, uvar))
    denom = MPoly.const(ring, variables, 1)
    nums = []
    for v in fibers:
        g = rels[v]
        a = g.coeff_of(v, 1).with_vars(variables)
        b = g.coeff_of(v, 0).with_vars(variables)
        denom = denom * a
        nums.append((a, b))
    coords = [denom]
    for i, v in enumerate(fibers):
        a_i, b_i = nums[i]
        num = -b_i
        for j, w in enumerate(fibers):
            if j != i:
                num = num * nums[j][0]
        coords.append(num)
    return f.with_vars(variables), tuple(coords)


def _critical_parameters(f, coords, must_vanish, signs_family, context,
                         xvars, uvar, budget):
    """Thom encodings of every parameter value where the fiber structure,
    the Thom data, a sign-family member, or a coordinate denominator can
    change."""
    x = xvars[0]
    crit_polys = []
    fu = f
    d = fu.degree(uvar)
    lc = fu.coeff_of(uvar, d)
    if not lc.is_const():
        crit_polys.append(lc)
    der = fu
    for _ in range(1, d + 1):
        der = der.deriv(uvar)
        if der.degree(uvar) >= 0 and not der.is_zero():
            r = _budgeted_resultant(fu, der, uvar, budget)
            if not r.is_zero() and r.degree(x) > 0:
                crit_polys.append(r)
    den = coords[0]
    if not den.is_const() and den.degree(uvar) > 0:
        r = _budgeted_resultant(fu, den, uvar, budget)
        if not r.is_zero() and r.degree(x) > 0:
            crit_polys.append(r)
    elif not den.is_const() and den.degree(x) > 0:
        crit_polys.append(den)
    for s in list(signs_family) + list(must_vanish):
        sb = _along_curve(s, coords, xvars)
        if sb is None:
            continue
        # a member in the parameter alone comes back without uvar
        if uvar in sb.vars and sb.degree(uvar) > 0:
            r = _budgeted_resultant(fu, sb, uvar, budget)
        else:
            r = sb
        if not r.is_zero() and x in r.vars and r.degree(x) > 0:
            crit_polys.append(r)
    out = []
    for cp in crit_polys:
        out.extend(thom_encodings(cp.with_vars(merge_vars(context.tvars, (x,))), x, context))
    return out


def _budgeted_resultant(a, b, var, budget):
    """Res(a, b) in var, where a has positive degree in var.  A Sylvester
    matrix past the budget raises ResourceBudgetError."""
    budget.check_matrix(a.degree(var) + b.degree(var), "critical resultant")
    return resultant(a, b, var)


def _along_curve(s, coords, xvars):
    """Numerator of s composed with the fiber parametrization."""
    fibers = list(xvars[1:])
    block = [v for v in fibers if v in s.vars and s.degree(v) > 0]
    if not block:
        return s if not s.is_const() else None
    reps = [coords[1 + fibers.index(v)] for v in block]
    return subst_rational(s, block, (coords[0], reps))


_KIND_GEQ = "geq"
_KIND_ZERO = "zero"
_KIND_DEN = "den"


def _segments_on_interval(f, coords, must_vanish, signs_family, lo_enc, hi_enc,
                          sample, context, xvars, uvar):
    """Branches over one open interval, without their endpoints: fiber
    analysis at the rational sample value strictly inside it and sign
    filtering."""
    x = xvars[0]
    f_m = f.subst({x: sample})
    fam = []
    fam_kind = []
    for s in signs_family:
        sb = _along_curve(s, coords, xvars)
        if sb is not None:
            fam.append(sb.subst({x: sample}) if x in sb.vars else sb)
            fam_kind.append(_KIND_GEQ)
    for p in must_vanish:
        pb = _along_curve(p, coords, xvars)
        if pb is not None:
            fam.append(pb.subst({x: sample}) if x in pb.vars else pb)
            fam_kind.append(_KIND_ZERO)
    den_m = coords[0].subst({x: sample}) if x in coords[0].vars else coords[0]
    fam.append(den_m)
    fam_kind.append(_KIND_DEN)
    rows = signs_at_encodings(f_m.with_vars(merge_vars(context.tvars, (uvar,))),
                              [g.with_vars(merge_vars(context.tvars, (uvar,))) for g in fam],
                              uvar, context)
    out = []
    for enc, fam_signs in rows:
        keep = True
        for kind, sgn in zip(fam_kind, fam_signs):
            if kind == _KIND_ZERO and sgn != 0:
                keep = False
                break
            if kind == _KIND_DEN and sgn == 0:
                keep = False
                break
            if kind == _KIND_GEQ and sgn < 0:
                keep = False
                break
        if not keep:
            continue
        out.append(CurveSegmentRep(context, x, uvar, f, enc.signs, tuple(coords),
                                   tuple(xvars), lo=lo_enc, hi=hi_enc))
    return out


def _glued_endpoint(seg, ends, fiber, tname, direction):
    """The endpoint of a branch in the fiber (enc, vertices) over it: the
    vertex it equals, or, when it equals none, the endpoint itself over the
    base context; None when _endpoint_limit finds none.  A failed Thom
    enumeration, limit or comparison raises.

    ends are the vertices that can end a branch of seg's piece by continuity
    with their sign reads (_branch_ends); the endpoint is the one whose signs
    relax the branch's Thom signs rho.  Only where the fiber polynomial's
    leading coefficient or the coordinate denominator vanishes, or no vertex
    passes, is it the limit through a transient infinitesimal
    (_endpoint_limit), taken over the tower context that fixes the fiber's
    value as tname and flattened once."""
    for v, signs in ends:
        rho = tuple(seg.rho) + (0,) * (len(signs) - len(seg.rho))
        if all(s in (r, 0) for s, r in zip(signs, rho)):
            return v
    enc, vertices = fiber
    # the fiber's value fixed as tname, from the shared context cache, so
    # equal fibers share one context and its sign cache
    ctx = _ext_context_for(enc.renamed(tname))
    end = _endpoint_limit(seg, ctx, direction)
    if end is None:
        return None
    end = flatten_rur(end if ctx.ring is ERING else end.to_qring(), enc.context.nlevels)
    return next((v for v in vertices if points_equal(end, v)), end)


def _branch_ends(f, coords, uvar, uform, xvars, vertices):
    """The vertices of the fiber over c, the parameter value they share,
    that can end a branch of the piece (f, coords) by continuity, each with
    the signs of Der_U f at (c, U(v)), U being the form uform in the fiber
    variables; empty when the rule does not apply.  Every check is a sign
    read at a vertex, over the base context.

    When lc_U f(c) != 0 a branch stays bounded near c, so it has a limit s,
    a real root of f(c, U).  The branch has Thom signs rho over Der_U f on
    its open interval, so by continuity each sign of Der_U f(c, U) at s is
    rho's or 0.  By Thom's lemma the points where f(c,.)', ..., f(c,.)^(d)
    have these relaxed signs form an interval, on which f(c,.) is monotone,
    so s is the only root of f(c, U) with them.  When the coordinate
    denominator does not vanish at (c, s), the endpoint is the branch's own
    value (c, coords(c, s)), again by continuity: the one vertex v with
    U(v) = s and den * w = num_w at v for each fiber variable w."""
    if not vertices or rur_sign(vertices[0], f.coeff_of(uvar, f.degree(uvar))) == 0:
        return []
    at_u = {uvar: uform}
    f_u, *ders = (g.subst(at_u) for g in der_list(f, uvar))
    den, *nums = (g.subst(at_u) for g in coords)
    on_branch = [den * MPoly.var(den.ring, (w,), w) - num for w, num in zip(xvars[1:], nums)]
    return [(v, (0,) + tuple(rur_sign(v, g) for g in ders)) for v in vertices
            if rur_sign(v, f_u) == 0 and rur_sign(v, den) != 0
            and all(rur_sign(v, g) == 0 for g in on_branch)]


_ENDPOINT_CACHE = BoundedCache()


def _endpoint_limit(seg, ctx, direction):
    """The endpoint of a branch over the parameter value ctx fixes last:
    evaluate the branch at that value +/- mu for a fresh innermost
    infinitesimal mu and take the limit mu -> 0.  The fallback of
    _glued_endpoint, where the fiber polynomial's leading coefficient or the
    coordinate denominator vanishes at the endpoint, or where no fiber vertex
    passes the continuity checks; None for a branch that is unbounded there,
    or whose signs no shifted fiber root has.  A failed Thom enumeration or
    limit raises.

    The shifted-fiber Thom enumeration is cached per (fiber polynomial,
    endpoint, direction) since every branch of the same piece shares it."""
    mu = fresh_infinitesimal(ctx, seg.f, seg.coords)
    x = seg.param_var
    tname = ctx.tvars[-1]
    key = (ctx, x, seg.uvar, seg.f, seg.coords, direction)
    cached = _ENDPOINT_CACHE.get(key)
    if cached is not None:
        e_ctx, shift, f_shift, coords_shift, encs = cached
    else:
        e_ctx = ctx.to_ering()
        shift = MPoly.const(ERING, (tname,), 0) + MPoly.var(ERING, (tname,), tname) \
            + MPoly.const(ERING, (tname,), InfElem.sym(mu) * direction)
        f_e = seg.f.to_ering()
        f_shift = f_e.subst({x: shift})
        coords_e = [g.to_ering() for g in seg.coords]
        coords_shift = [g.subst({x: shift}) if x in g.vars else g for g in coords_e]
        encs = thom_encodings(f_shift.with_vars(merge_vars(e_ctx.tvars, (seg.uvar,))),
                              seg.uvar, e_ctx)
        _ENDPOINT_CACHE.put(key, (e_ctx, shift, f_shift, coords_shift, encs))
    target = None
    for cand in encs:
        L = max(len(cand.signs), len(seg.rho))
        cw = tuple(cand.signs) + (0,) * (L - len(cand.signs))
        tw = tuple(seg.rho) + (0,) * (L - len(seg.rho))
        if cw == tw:
            target = cand
            break
    if target is None:
        return None
    variables = merge_vars(e_ctx.tvars, (seg.uvar,))
    den = coords_shift[0].with_vars(variables)
    F = [den, shift.with_vars(variables) * den]
    for g in coords_shift[1:]:
        F.append(g.with_vars(variables))
    u = RealUnivRep(e_ctx, seg.uvar, target.poly, target.signs, tuple(F), seg.xvars)
    return limit_point(u, mu)


def limit_curve(pieces: CurvePiece, drop_from: int):
    """Limits of curve pieces as the infinitesimals with index >= drop_from
    go to 0: each vertex and segment endpoint through limit_point, each
    parameter bound through limit_thom, and each segment's polynomials
    through drop_symbols once their eta content is divided out, the
    coordinate tuple's as a whole so that its ratios stay (as limit_point
    does).  A segment whose bounds meet in the limit, or whose fiber
    polynomial loses the fiber variable, is kept as its endpoints only.

    limit_point and limit_thom return what carries no such infinitesimal
    itself, and such a segment is kept as it is, so an eta-free piece comes
    back unchanged."""
    vertices = [lim for lim in (limit_point(u, drop_from) for u in pieces.vertices)
                if lim is not None]
    segments = []
    for seg in pieces.segments:
        if max_symbol_index(seg.f, seg.coords, seg.lo_point, seg.hi_point) < drop_from:
            segments.append(seg)
            continue
        lo = limit_point(seg.lo_point, drop_from) if seg.lo_point else None
        hi = limit_point(seg.hi_point, drop_from) if seg.hi_point else None
        f0 = drop_symbols(eta_content_normalize(seg.f), drop_from)
        coords0 = tuple(drop_symbols(g, drop_from) for g in _divide_eta_content(seg.coords))
        lo_enc = limit_thom(seg.lo, drop_from) if seg.lo else None
        hi_enc = limit_thom(seg.hi, drop_from) if seg.hi else None
        collapsed = (lo_enc is not None and hi_enc is not None
                     and compare_roots(lo_enc, hi_enc) == 0)
        if collapsed or f0.is_zero() or f0.degree(seg.uvar) == 0:
            vertices.extend(pt for pt in (lo, hi) if pt is not None)
            continue
        if max_symbol_index(seg.context) >= drop_from:
            raise ValueError("cannot take the limit of a context carrying dropped symbols")
        segments.append(CurveSegmentRep(seg.context, seg.param_var, seg.uvar, f0, seg.rho,
                                        coords0, seg.xvars, lo=lo_enc, hi=hi_enc,
                                        lo_point=lo, hi_point=hi))
    # limits of distinct points, and the ends of a collapsed segment, can meet
    if vertices != pieces.vertices:
        vertices = dedupe_points(vertices)
    return CurvePiece(segments, vertices)
