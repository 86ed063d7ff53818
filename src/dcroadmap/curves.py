"""Curve-segment extraction on (<= 1)-dimensional basic sets: parametrized
decomposition along the first free coordinate, sign subdivision, exact
endpoints read at their fiber, and limits.

Every critical parameter value gets one context, which fixes it as a tower
level.  The fiber's points are found and deduplicated there and flattened
once, as vertices.  A segment endpoint is the limit of its branch, taken in
the same context and matched among that fiber's points there, so the
endpoint is the fiber's vertex object; only an endpoint that matches none
(in a fiber that is not finite) stays a point of its own.  The limit is read
at the fiber itself, by continuity and Thom's lemma, whenever the fiber
polynomial keeps its degree there and the coordinate denominator does not
vanish; only otherwise is it taken through a transient innermost
infinitesimal."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import functools

from .errors import ResourceBudgetError, SeparationError
from .infring import QQ, InfElem, extra_symbol
from .mpoly import ERING, MPoly, fresh_var, merge_vars, resultant, subst_rational
from .points import (
    RealUnivRep,
    _restore_ring,
    coordinate_encoding_cached,
    dedupe_points,
    drop_symbols,
    eta_content_normalize,
    flatten_rur,
    limit_point,
    limit_thom,
    max_symbol_index,
    points_equal,
    rational_between,
    rur_from_raw,
    rur_sign,
    sample_components,
)
from .realroots import (
    BoundedCache,
    ThomEncoding,
    TriangularContext,
    _ext_context_for,
    compare_roots,
    signs_at_encodings,
    thom_encodings,
)
from .solve import DEFAULT_BUDGET, solve_system, split_branches
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
    xvars: tuple  # all free coordinates, parameter first
    lo: ThomEncoding = None
    hi: ThomEncoding = None
    lo_point: RealUnivRep = None  # a vertex of the piece, when glued
    hi_point: RealUnivRep = None

    def __repr__(self):
        return f"Segment({self.param_var} in ({self.lo is not None}, {self.hi is not None}); rho={self.rho})"


@dataclass
class CurvePiece:
    """Decomposition result for one leaf basic set."""

    segments: list
    vertices: list  # RURs (isolated points and all endpoint targets)
    distinct: bool = False  # the vertices are known to be distinct points


def curve_segments(P, Q, context, xvars, anchors=(), budget=DEFAULT_BUDGET, seed=0):
    """Decompose Bas(P(theta,.), Q(theta,.)), strongly of dimension <= 1,
    into curve segments and vertices over the parameter xvars[0].

    Every piece (one per subset Q' of Q promoted to equations) is subdivided
    at the union of all pieces' critical parameter values, and each endpoint
    is glued to a point of the fiber over its value.  anchors are points
    (RURs over context) whose parameter values also become segment
    boundaries."""
    xvars = tuple(xvars)
    if len(xvars) > 3:
        raise ResourceBudgetError(
            f"curve extraction with {len(xvars) - 1} fiber variables exceeds the supported range")
    pieces = []
    point_sets = []
    for qsize in range(len(Q) + 1):
        for qsel in combinations(range(len(Q)), qsize):
            V0 = list(P) + [Q[i] for i in qsel]
            rest = [Q[i] for i in range(len(Q)) if i not in qsel]
            if not V0:
                continue
            for V in split_branches(V0, budget):
                if len(xvars) == 1:
                    point_sets.append(_points_only(V, rest, context, xvars, budget, seed))
                    continue
                param = _parametrize_fiber(V, context, xvars, budget, seed)
                if param is None:
                    point_sets.append(_finite_fallback(V, rest, context, xvars, budget, seed))
                    continue
                f, coords, uvar, must_vanish = param
                crit = _critical_parameters(f, coords, must_vanish, rest, anchors,
                                            context, xvars, uvar, budget)
                pieces.append((V, rest, f, coords, uvar, must_vanish, crit))
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
            x = xvars[0]
            if not r.is_zero() and r.degree(x) > 0:
                cross.extend(thom_encodings(r.with_vars(merge_vars(context.tvars, (x,))), x, context))
    all_crit = _sorted_unique_encodings([e for pc in pieces for e in pc[6]] + cross)
    tname = fresh_var("Tx", set(context.tvars).union(
        xvars, *(p.vars for p in list(P) + list(Q)), *(pc[2].vars for pc in pieces)))
    # per critical value: its context and the (fiber point, vertex) pairs
    # found there so far, one pair per distinct point
    fibers = [(_fiber_context(context, tname, enc), []) for enc in all_crit]
    segments = []
    for (V, rest, f, coords, uvar, must_vanish, _own) in pieces:
        for ctx, kept in fibers:
            for u in _fiber_points(V, rest, ctx, xvars, budget, seed):
                if not any(points_equal(u, w) for w, _v in kept):
                    kept.append((u, _with_param_coordinate(u, xvars, context)))
        for i in range(len(all_crit) - 1):
            sample = rational_between(all_crit[i], all_crit[i + 1])
            for seg in _segments_on_interval(f, coords, must_vanish, rest,
                                             all_crit[i], all_crit[i + 1],
                                             sample, context, xvars, uvar):
                seg.lo_point = _glued_endpoint(seg, fibers[i], +1)
                seg.hi_point = _glued_endpoint(seg, fibers[i + 1], -1)
                segments.append(seg)
    # points over distinct critical values differ in the parameter, so only
    # the isolated points need comparing with the fibers' vertices
    vertices = [v for _ctx, kept in fibers for _u, v in kept]
    isolated = dedupe_points([u for ps in point_sets for u in ps.vertices])
    isolated = [u for u in isolated if not any(points_equal(u, v) for v in vertices)]
    return CurvePiece(segments, isolated + vertices, distinct=True)


def _points_only(V, signs_family, context, xvars, budget, seed):
    pts = []
    for s in solve_system(V, xvars, context=context, budget=budget, seed=seed):
        u = rur_from_raw(s)
        if all(rur_sign(u, q) >= 0 for q in signs_family):
            pts.append(u)
    return CurvePiece([], pts)


def _finite_fallback(V, signs_family, context, xvars, budget, seed):
    pts = sample_components(V, context=context, xvars=xvars, budget=budget, seed=seed)
    pts = [u for u in pts if all(rur_sign(u, q) >= 0 for q in signs_family)]
    return CurvePiece([], pts)


def _parametrize_fiber(V, context, xvars, budget, seed):
    """Shape parametrization of the fiber over the function field of the
    parameter: f(x, U) plus rational coordinate functions for the fiber
    variables.  Returns None when the fiber ideal is the unit ideal."""
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
        return fu.with_vars(merge_vars(fu.vars, variables)), coords, uvar, must_vanish
    # two fiber variables: separating form over the parameter field
    for c in (1, 2, 3, 5, 7, 11, 13, 17):
        shape = _shape_over_parameter(V, fibers, context, x, uvar, c)
        if shape == "empty":
            return None
        if shape is not None:
            f, coords = shape
            return f, coords, uvar, list(V)
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


def _critical_parameters(f, coords, must_vanish, signs_family, anchors, context,
                         xvars, uvar, budget):
    """Thom encodings of every parameter value where the fiber structure,
    the Thom data, a sign-family member, or a coordinate denominator can
    change, plus anchor parameter values."""
    x = xvars[0]
    ring = f.ring
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
        sb = _along_curve(s, coords, xvars, uvar)
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
    for a in anchors:
        enc = coordinate_encoding_cached(a, 1)
        out.append(ThomEncoding(context, x,
                                enc.poly.subst({enc.var: MPoly.var(enc.poly.ring, (x,), x)}),
                                enc.signs))
    return out


def _budgeted_resultant(a, b, var, budget):
    """Res(a, b) in var, where a has positive degree in var.  A Sylvester
    matrix past the budget raises ResourceBudgetError."""
    budget.check_matrix(a.degree(var) + b.degree(var), "critical resultant")
    return resultant(a, b, var)


def _along_curve(s, coords, xvars, uvar):
    """Numerator of s composed with the fiber parametrization."""
    fibers = list(xvars[1:])
    block = [v for v in fibers if v in s.vars and s.degree(v) > 0]
    if not block:
        return s if not s.is_const() else None
    reps = [coords[1 + fibers.index(v)] for v in block]
    return subst_rational(s, block, (coords[0], reps))


def _sorted_unique_encodings(encs):
    """The encoded values in increasing order, one encoding per value."""
    out = []
    for e in sorted(encs, key=functools.cmp_to_key(compare_roots)):
        if not out or compare_roots(out[-1], e) != 0:
            out.append(e)
    return out


def _fiber_context(context, tname, enc):
    """context extended by the parameter value enc, fixed as tname, from the
    shared context cache, so equal fibers share one context and its sign
    cache."""
    lvl = enc.poly.subst({enc.var: MPoly.var(enc.poly.ring, (tname,), tname)})
    return _ext_context_for(ThomEncoding(context, tname, lvl, enc.signs))


def _fiber_points(V, signs_family, ctx, xvars, budget, seed):
    """All basic-set points whose parameter is the value ctx fixes last, as
    RURs over ctx in the fiber coordinates xvars[1:]."""
    x = xvars[0]
    rest = xvars[1:]
    tname = ctx.tvars[-1]
    sub = {x: MPoly.var(V[0].ring, (tname,), tname)}
    Vx = [p.subst(sub) if x in p.vars else p for p in V]
    Vx = [p for p in Vx if not p.is_zero()]
    if not rest:
        return []
    try:
        pts = [rur_from_raw(s) for s in
               solve_system(Vx, rest, context=ctx, budget=budget, seed=seed)]
    except SeparationError:
        # the fiber is not finite, or no separating form is certified for
        # it: sample its components instead
        pts = sample_components(Vx, context=ctx, xvars=rest, budget=budget, seed=seed)
    signs_x = [q.subst(sub) if x in q.vars else q for q in signs_family]
    return [u for u in pts if all(rur_sign(u, q) >= 0 for q in signs_x)]


def _with_param_coordinate(u, xvars, context):
    """Prepend the (tower-fixed) parameter value as coordinate 1 and collapse
    back onto the original context."""
    tname = u.base.tvars[-1]
    ring = u.f.ring
    variables = merge_vars(u.f.vars, (tname,))
    F = [u.F[0].with_vars(variables)]
    F.append(MPoly.var(ring, variables, tname) * u.F[0].with_vars(variables))
    for g in u.F[1:]:
        F.append(g.with_vars(variables))
    lifted = RealUnivRep(u.base, u.uvar, u.f, u.sigma, tuple(F), tuple(xvars))
    return flatten_rur(lifted, context.nlevels)


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
        sb = _along_curve(s, coords, xvars, uvar)
        if sb is not None:
            fam.append(sb.subst({x: sample}) if x in sb.vars else sb)
            fam_kind.append(_KIND_GEQ)
    for p in must_vanish:
        pb = _along_curve(p, coords, xvars, uvar)
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


def _glued_endpoint(seg, fiber, direction):
    """The endpoint of a branch in the fiber (ctx, kept) over it: the vertex
    of the kept fiber point it equals, or, when it equals none, the endpoint
    itself over ctx; None when _endpoint_limit finds none.  A failed Thom
    enumeration, limit or comparison raises.

    The endpoint is read at the fiber by continuity when that applies
    (_endpoint_by_continuity); otherwise, where the fiber polynomial's
    leading coefficient or the coordinate denominator vanishes there, it is
    the limit through a transient infinitesimal (_endpoint_limit)."""
    ctx, kept = fiber
    end = _endpoint_by_continuity(seg, ctx) or _endpoint_limit(seg, ctx, direction)
    if end is None:
        return None
    end = _restore_ring(end, ctx)
    # the parameter coordinate is the level ctx fixes, the same for all
    on_fiber = RealUnivRep(end.base, end.uvar, end.f, end.sigma,
                           (end.F[0],) + end.F[2:], end.xvars[1:])
    for u, vertex in kept:
        if points_equal(on_fiber, u):
            return vertex
    return end


def _endpoint_by_continuity(seg, ctx):
    """The endpoint of a branch at the parameter value c that ctx fixes
    last, read at c itself, or None when this does not apply.

    When lc_U f(c) != 0 the branch stays bounded near c, so it has a limit
    s, a real root of f(c, U).  The branch has Thom signs rho over Der_U f
    on its open interval, so by continuity each sign of Der_U f(c, U) at s
    is rho's or 0.  By Thom's lemma the points where f(c,.)', ..., f(c,.)^(d)
    have these relaxed signs form an interval, on which f(c,.) is monotone,
    so s is the only root of f(c, U) with them.  When the coordinate
    denominator does not vanish at (c, s), the endpoint is the branch's own
    value (c, coords(c, s)), again by continuity."""
    e_ctx = ctx.to_ering() if seg.f.ring is ERING else ctx
    x, uvar = seg.param_var, seg.uvar
    tname = e_ctx.tvars[-1]
    at_c = {x: MPoly.var(seg.f.ring, (tname,), tname)}
    variables = merge_vars(e_ctx.tvars, (uvar,))
    f_c = seg.f.subst(at_c).with_vars(variables)
    d = f_c.degree(uvar)
    if e_ctx.sign_mpoly(f_c.coeff_of(uvar, d).with_vars(e_ctx.tvars)) == 0:
        return None
    encs = thom_encodings(f_c, uvar, e_ctx)
    rho = tuple(seg.rho) + (0,) * (d + 1 - len(seg.rho))
    target = next((enc for enc in encs
                   if all(s in (r, 0) for s, r in zip(enc.signs, rho))), None)
    if target is None:
        return None
    den, *nums = ((g.subst(at_c) if x in g.vars else g).with_vars(variables)
                  for g in seg.coords)
    at_s = _ext_context_for(target)
    if at_s.sign_mpoly(den.with_vars(at_s.tvars)) == 0:
        return None
    F = (den, MPoly.var(den.ring, variables, tname) * den, *nums)
    return RealUnivRep(e_ctx, uvar, target.poly, target.signs, F, seg.xvars)


_ENDPOINT_CACHE = BoundedCache()


def _endpoint_limit(seg, ctx, direction):
    """The endpoint of a branch over the parameter value ctx fixes last:
    evaluate the branch at that value +/- mu for a fresh innermost
    infinitesimal mu and take the limit mu -> 0.  The fallback of
    _glued_endpoint, where the fiber polynomial's leading coefficient or the
    coordinate denominator vanishes at the endpoint; None for a branch that
    is unbounded there, or whose signs no shifted fiber root has.  A failed
    Thom enumeration or limit raises.

    The shifted-fiber Thom enumeration is cached per (fiber polynomial,
    endpoint, direction) since every branch of the same piece shares it."""
    mu_idx = max(max_symbol_index(ctx), max_symbol_index(seg.f),
                 max_symbol_index(list(seg.coords)), 0) + 1
    mu = extra_symbol(f"inf{mu_idx}", mu_idx)
    x = seg.param_var
    tname = ctx.tvars[-1]
    key = (ctx.ring.name, ctx.key(), x, seg.uvar, seg.f, seg.coords, direction)
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
    return limit_point(u, mu_idx)


def limit_curve(pieces: CurvePiece, drop_from: int, budget=DEFAULT_BUDGET):
    """Limits of curve pieces: endpoints and vertices through the limit of a
    bounded point; segments whose endpoints collapse are emitted as vertices.

    eta-free input is returned unchanged (idempotence)."""
    if drop_from is None:
        return pieces
    segments = []
    vertices = []
    for u in pieces.vertices:
        lim = _limit_rur(u, drop_from)
        if lim is not None:
            vertices.append(lim)
    for seg in pieces.segments:
        if not _segment_has_symbols(seg, drop_from):
            segments.append(seg)
            continue
        lo = _limit_rur(seg.lo_point, drop_from) if seg.lo_point else None
        hi = _limit_rur(seg.hi_point, drop_from) if seg.hi_point else None
        f0 = _drop_poly(seg.f, drop_from)
        coords0 = tuple(_drop_poly(g, drop_from) for g in seg.coords)
        lo_enc = _limit_encoding(seg.lo, drop_from) if seg.lo else None
        hi_enc = _limit_encoding(seg.hi, drop_from) if seg.hi else None
        collapsed = (lo_enc is not None and hi_enc is not None
                     and compare_roots(lo_enc, hi_enc) == 0)
        if collapsed or f0.is_zero() or f0.degree(seg.uvar) == 0:
            for pt in (lo, hi):
                if pt is not None:
                    vertices.append(pt)
            continue
        new = CurveSegmentRep(_limit_context(seg.context, drop_from), seg.param_var,
                              seg.uvar, f0, seg.rho, coords0, seg.xvars,
                              lo=lo_enc, hi=hi_enc)
        new.lo_point = lo
        new.hi_point = hi
        segments.append(new)
    # limits of distinct points, and the ends of a collapsed segment, can meet
    return CurvePiece(segments, vertices,
                      distinct=pieces.distinct and vertices == pieces.vertices)


def _segment_has_symbols(seg, drop_from):
    return (max_symbol_index(seg.f) >= drop_from
            or any(max_symbol_index(g) >= drop_from for g in seg.coords)
            or (seg.lo_point is not None and max_symbol_index(seg.lo_point) >= drop_from)
            or (seg.hi_point is not None and max_symbol_index(seg.hi_point) >= drop_from))


def _limit_rur(u, drop_from):
    if u is None:
        return None
    if max_symbol_index(u) < drop_from:
        return u
    return limit_point(u, drop_from)


def _limit_encoding(enc, drop_from):
    if enc is None:
        return None
    if max_symbol_index(enc.poly) < drop_from and max_symbol_index(enc.context) < drop_from:
        return enc
    return limit_thom(enc, drop_from)


def _limit_context(ctx, drop_from):
    if max_symbol_index(ctx) < drop_from:
        return ctx
    raise ValueError("cannot take the limit of a context carrying dropped symbols")


def _drop_poly(p, drop_from):
    if p.ring is not ERING:
        return p
    return drop_symbols(eta_content_normalize(p), drop_from)
