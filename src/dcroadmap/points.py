"""Work on points, the real univariate representations over triangular
Thom encodings (solve.RealUnivRep): signs, coordinates and exact
comparison, bounded algebraic sampling, and the limit algorithms that remove
infinitesimals from point descriptions.

Besides the point's own methods, the reshaping of a point lives here: join
(a fiber point and the point its fiber sits over), flatten_rur and
_collapse_last_level (a tower collapsed onto a smaller base), limit_point,
AffineElimination.lift, and numerator_at (a polynomial at a point's
coordinates).  No other module builds a point from another point's
fields."""

from __future__ import annotations

from dataclasses import dataclass

from .critloci import crit_minor_system, deform_single
from .errors import NotZeroDimensionalError, SeparationError
from .infring import QQ, InfElem
from .mpoly import ERING, QRING, MPoly, der_list, fresh_var, merge_vars, resultant, subst_rational
from . import realroots
from .realroots import (
    BoundedCache,
    ThomEncoding,
    TriangularContext,
    _ext_context_for,
    per_input_caches,
    thom_encodings,
    trimmed,
)
from .solve import DEFAULT_BUDGET, RealUnivRep, solve_system, split_branches


# ---------------------------------------------------------------------------
# affine elimination


@dataclass(frozen=True)
class AffineElimination:
    """The coordinate var that an affine equation c_0 + sum_w c_w w = 0
    fixes, var = a_0 + sum a_w w over the kept coordinates (a_0 = -c_0/c_var,
    a_w = -c_w/c_var).  Z(system) and the reduced set it maps onto in the
    kept coordinates are isomorphic by project and lift, so components and
    paths map one to one (BPR).  A point of Z(system) maps to the reduced
    set by u.project(kept)."""

    xvars: tuple  # the coordinates before the elimination
    var: str  # the eliminated coordinate
    kept: tuple  # xvars without var, in order
    a0: object
    coeffs: tuple  # a_w, aligned with kept

    def numerator(self, den, nums):
        """var's numerator over den, given the numerators nums of the kept
        coordinates over den (aligned with kept): exact, as the a_w are
        rational."""
        out = den.scale(self.a0)
        for a, g in zip(self.coeffs, nums):
            if a:
                out = out + g.scale(a)
        return out

    def lift(self, u: RealUnivRep) -> RealUnivRep:
        """The point of Z(system) above the point u of the reduced set."""
        nums = [u.F[1 + u.xvars.index(w)] for w in self.kept]
        by_var = dict(zip(self.kept, nums))
        by_var[self.var] = self.numerator(u.F[0], nums)
        return RealUnivRep(u.base, u.uvar, u.f, u.sigma,
                           (u.F[0],) + tuple(by_var[w] for w in self.xvars), self.xvars)


def affine_elimination(system, xvars):
    """(reduced system, AffineElimination) for the first equation of system
    of total degree 1 in xvars with rational coefficients (QRING, in xvars
    alone), or None when there is none.  The equation's last variable in
    xvars is eliminated, so xvars[0] survives unless it is the equation's
    only variable (a plane x1 = c).  The other equations, with that variable
    substituted, form the reduced system in the kept coordinates.  It is
    used only when one of them remains nonzero and a coordinate is kept, so
    the reduced set still lies in a hypersurface of the kept space."""
    xvars = tuple(xvars)
    if len(system) < 2 or len(xvars) < 2:
        return None
    for i, p in enumerate(system):
        if (p.ring is not QRING or p.total_degree() != 1
                or not p.used_vars() <= set(xvars)):
            continue
        lin = {xvars[m.index(1)] if any(m) else None: c
               for m, c in p.with_vars(xvars).terms.items()}
        var = [w for w in xvars if w in lin][-1]
        kept = tuple(w for w in xvars if w != var)
        cv = lin[var]
        coeffs = tuple(-lin.get(w, 0) / cv for w in kept)
        elim = AffineElimination(xvars, var, kept, -lin.get(None, 0) / cv, coeffs)
        # var's value is its numerator over the denominator 1
        at = elim.numerator(MPoly.const(QRING, kept, 1), [MPoly.var(QRING, kept, w) for w in kept])
        reduced = [q.subst({var: at}) for j, q in enumerate(system) if j != i]
        reduced = [q.with_vars(merge_vars(kept, [w for w in q.vars if w not in xvars]))
                   for q in reduced if not q.is_zero()]
        if reduced:
            return reduced, elim
    return None


def numerator_at(u: RealUnivRep, poly: MPoly) -> MPoly:
    """poly with u's coordinates put in for its variables among u.xvars,
    times F[0] to poly's total degree in them, which clears the
    denominators: a polynomial in poly's other variables, u's base
    variables and u's root (poly itself when it has none of u's
    coordinates)."""
    used = poly.used_vars()
    block = [v for v in u.xvars if v in used]
    if not block:
        return poly
    return subst_rational(poly, block, (u.F[0], [u.F[1 + u.xvars.index(v)] for v in block]))


def rur_sign(u: RealUnivRep, poly: MPoly) -> int:
    """Sign of poly at the associated point of u (poly in u.xvars plus the
    base triangular variables)."""
    ctx = u.extended_context()
    s = ctx.sign_mpoly(numerator_at(u, poly).with_vars(tuple(ctx.tvars)))
    if s == 0:
        return 0
    d0 = ctx.sign_mpoly(u.F[0].with_vars(tuple(ctx.tvars)))
    if d0 == 0:
        raise ZeroDivisionError("RUR denominator vanishes at its root")
    return s * (d0 ** (poly.total_degree_in(u.xvars) % 2))


# ---------------------------------------------------------------------------
# rational separators and limits


# the same object as realroots._EXT_CTX_CACHE, the cache behind
# _ext_context_for, under the name cache-size reports read
_EXT_CTX_CACHE = realroots._EXT_CTX_CACHE


def _linear_sign_at(enc: ThomEncoding, q) -> int:
    """Sign of (root - q) for rational q, from the Sturm chain of the
    encoding's polynomial."""
    return _ext_context_for(enc).level_solver().sign_against(QQ(q))


def rational_between(lo_enc, hi_enc, lo_bound=None, hi_bound=None):
    """A rational strictly between two encoded reals (lo < hi required)."""
    lo = QQ(lo_bound if lo_bound is not None else -1)
    hi = QQ(hi_bound if hi_bound is not None else 1)
    while _linear_sign_at(lo_enc, lo) <= 0:
        lo = lo * 2 if lo < 0 else (lo - 1) * 2
    while _linear_sign_at(hi_enc, hi) >= 0:
        hi = hi * 2 if hi > 0 else (hi + 1) * 2
    # now lo < lo_enc, hi > hi_enc
    while True:
        mid = (lo + hi) / 2
        s_lo = _linear_sign_at(lo_enc, mid)
        if s_lo >= 0:
            lo = mid
            continue
        s_hi = _linear_sign_at(hi_enc, mid)
        if s_hi <= 0:
            hi = mid
            continue
        return mid


def separators_for(cands):
    """Rationals q_0 < c_1 < q_1 < ... < c_s < q_s around candidate roots."""
    if not cands:
        return []
    m = QQ(1)
    while any(_linear_sign_at(c, m) >= 0 for c in cands) or any(_linear_sign_at(c, -m) <= 0 for c in cands):
        m = m * 2
    qs = [-m]
    for i in range(len(cands) - 1):
        qs.append(rational_between(cands[i], cands[i + 1], -m, m))
    qs.append(m)
    return qs


def _divide_eta_content(polys):
    """Divide the polynomials by the eta monomial that divides every
    coefficient of all of them (ratios between them are preserved)."""
    if polys[0].ring is not ERING:
        return tuple(polys)
    every = InfElem({m: QQ(1) for g in polys for c in g.terms.values() for m in c.terms})
    mono = every.monomial_content() if every else ()
    if not mono:
        return tuple(polys)
    content = InfElem({mono: QQ(1)})
    return tuple(g.map_coeffs(lambda c: c / content) for g in polys)


def eta_content_normalize(poly: MPoly) -> MPoly:
    """Divide out the common eta-monomial content of all coefficients."""
    return _divide_eta_content((poly,))[0]


def drop_symbols(poly: MPoly, drop_from: int) -> MPoly:
    """Substitute 0 for every infinitesimal with global index >= drop_from."""
    if poly.ring is not ERING:
        return poly
    return poly.map_coeffs(lambda c: c.lim_from(drop_from))


def symbol_indices(*objs) -> set:
    """The global indices of the infinitesimals in the polynomials, contexts
    and points given (None and other objects are skipped).  An empty set is
    the one test for "eta-free"."""
    out = set()
    for o in objs:
        if isinstance(o, MPoly):
            if o.ring is ERING:
                for c in o.terms.values():
                    out |= c.support_indices()
        elif isinstance(o, TriangularContext):
            out |= symbol_indices([p for _v, p, _s in o.levels])
        elif isinstance(o, RealUnivRep):
            out |= symbol_indices(o.base, o.f, o.F)
        elif isinstance(o, (list, tuple)):
            out |= symbol_indices(*o)
    return out


def max_symbol_index(*objs) -> int:
    """The largest of symbol_indices(*objs), 0 when there is none.  Every
    limit index is at least 1, so max_symbol_index(...) >= drop_from is the
    one test for "carries a symbol the limit drops"; 0 also means no symbol,
    so it is not a test for "eta-free" (the epsilon of roadmap_general has
    global index 0)."""
    return max(symbol_indices(*objs), default=0)


def fresh_infinitesimal(*objs):
    """A transient infinitesimal smaller than every one in the polynomials,
    contexts and points given: the global index one past their largest."""
    return max_symbol_index(*objs) + 1


def limit_thom(enc: ThomEncoding, drop_from: int):
    """Limit of a Thom encoding: the encoding (over the reduced ring) of
    lim(x) where the infinitesimals with index >= drop_from go to 0.  An
    encoding that carries no such infinitesimal is returned itself.

    Returns None when the root is unbounded over the reduced ring; a context
    that carries a dropped symbol raises ValueError."""
    ctx = enc.context
    if max_symbol_index(ctx, enc.poly) < drop_from:
        return enc
    if max_symbol_index(ctx) >= drop_from:
        raise ValueError("context polynomials still involve dropped symbols")
    f = eta_content_normalize(enc.poly)
    f0 = drop_symbols(f, drop_from)
    if f0.is_zero():
        raise ValueError("order not factorable")
    f0 = trimmed(f0, enc.var, ctx)
    if f0.degree(enc.var) == 0:
        return None
    cands = thom_encodings(f0, enc.var, ctx)
    if not cands:
        return None
    qs = separators_for(cands)
    # boundedness check against the outer separators
    if _linear_sign_at(enc, qs[0]) <= 0 or _linear_sign_at(enc, qs[-1]) >= 0:
        return None
    lo, hi = 0, len(cands) - 1
    # binary search for the slot (q_{j-1}, q_j) containing the root
    while lo < hi:
        mid = (lo + hi) // 2
        s = _linear_sign_at(enc, qs[mid + 1])
        if s < 0:
            hi = mid
        elif s > 0:
            lo = mid + 1
        else:
            raise ArithmeticError("root coincides with a strict separator")
    return cands[lo]


def limit_point(u: RealUnivRep, drop_from: int):
    """Limit of a bounded point: a RealUnivRep over the reduced ring whose
    associated point is the limit of u's.  Returns None when unbounded.  A
    point that carries no infinitesimal of index >= drop_from is returned
    itself.

    Tower levels whose polynomials involve dropped symbols are first folded
    into the representation by root pairing; clean levels stay as the base."""
    if max_symbol_index(u) < drop_from:
        return u
    while max_symbol_index(u.base) >= drop_from:
        u = _collapse_last_level(u)
    ectx = u.base
    h = eta_content_normalize(u.f)
    Fs = _divide_eta_content(u.F)
    h0 = drop_symbols(h, drop_from)
    if h0.is_zero():
        raise ValueError("order not factorable")
    h0 = trimmed(h0, u.uvar, ectx)
    if h0.degree(u.uvar) == 0:
        return None
    enc = ThomEncoding(ectx, u.uvar, h, u.sigma)
    lim_enc = limit_thom(enc, drop_from)
    if lim_enc is None:
        return None
    # derivative adjustment (the (mu-1)-st derivative of the coordinate
    # tuple in the paper's f0 = f' setting): differentiate the whole tuple
    # until the denominator stops vanishing at the limit root, which keeps
    # every ratio by l'Hopital since the point is bounded
    F0 = [drop_symbols(g, drop_from) for g in Fs]
    lim_ctx_plus = _ext_context_for(lim_enc)
    max_steps = F0[0].degree(u.uvar) + 1
    steps = 0
    while True:
        if F0[0].is_zero():
            raise ArithmeticError("limit denominator vanishes; representation not coprime")
        d0 = lim_ctx_plus.sign_mpoly(F0[0].with_vars(tuple(lim_ctx_plus.tvars)))
        if d0 != 0:
            break
        steps += 1
        if steps > max_steps:
            raise ArithmeticError("limit denominator vanishes; representation not coprime")
        F0 = [g.deriv(u.uvar) for g in F0]
    return RealUnivRep(lim_enc.context, u.uvar, lim_enc.poly, lim_enc.signs,
                       tuple(F0), u.xvars)


def flatten_rur(u: RealUnivRep, nlevels: int = 0) -> RealUnivRep:
    """Collapse the triangular tower until its base has `nlevels` levels
    (by default a single univariate representation over the empty context;
    iterated pairing through 2-variable sampling)."""
    while u.base.nlevels > nlevels:
        u = _collapse_last_level(u)
    return u


_PAIRING_CACHE = BoundedCache()


def _collapse_last_level(u: RealUnivRep) -> RealUnivRep:
    """u over the base's parent context: the last level's root and u's root
    are paired into one root of a new eliminant over the parent.

    Its callers are limit_point, for tower levels that carry dropped
    symbols, and flatten_rur, which divide, optimsub, roadmap and the limit
    fallback of curves._glued_endpoint call; curve extraction solves its
    fibers flat and glues endpoints by signs, so it collapses no level
    whenever that fallback is not taken.

    The pairing system (the level polynomial and u.f) holds no Thom signs of
    either level, so its solutions, points over the parent, are kept in a
    value-keyed cache: every root of one level polynomial, and every point
    over those roots with the same eliminant, share one solve.  Each point
    takes the one solution at which both levels' Thom signs hold, read at
    that solution itself."""
    ctx = u.base
    var_t, f_t, signs_t = ctx.levels[-1]
    parent = ctx.prefix(ctx.nlevels - 1)
    wvar = fresh_var("W", set(u.base.tvars) | {u.uvar} | set(u.f.vars))
    key = (parent, var_t, f_t, u.uvar, u.f, u.f.ring, wvar)
    sols = _PAIRING_CACHE.get(key)
    if sols is None:
        sols = solve_system([f_t, u.f], (var_t, u.uvar), context=parent, uvar=wvar)
        _PAIRING_CACHE.put(key, sols)
    # the solution whose coordinates (var_t, uvar) are the roots both levels fix
    matches = [cand for cand in sols
               if _has_thom_signs(cand, f_t, var_t, signs_t)
               and _has_thom_signs(cand, u.f, u.uvar, u.sigma)]
    if len(matches) != 1:
        raise ArithmeticError(f"root pairing not unique ({len(matches)} matches)")
    m = matches[0]
    # substitute the rational functions for (var_t, uvar) into u's coordinates
    denom = m.F[0]
    reps = {var_t: m.F[1], u.uvar: m.F[2]}
    new_F = [_subst_pair(g, denom, reps) for g in u.F]
    # clear to a common denominator: each coordinate g(theta, x) becomes
    # num_g / denom^(deg) ; normalize to the max degree
    degs = [g.total_degree_in([var_t, u.uvar]) for g in u.F]
    dmax = max(degs)
    new_F = [g * denom ** (dmax - d) for g, d in zip(new_F, degs)]
    return RealUnivRep(parent, m.uvar, m.f, m.sigma, tuple(new_F), u.xvars)


def join(w: RealUnivRep, u: RealUnivRep) -> RealUnivRep:
    """The point with w's coordinates followed by u's, where u lies over
    w's root: the last level of u.base fixes it (w.root renamed onto that
    level's variable t, over w's base).  Both coordinate tuples are put over
    the common denominator, in t and u's root, and one
    _collapse_last_level pairs the two roots."""
    t = u.base.tvars[-1]
    variables = u.base.tvars + (u.uvar,)
    if u.f.ring is ERING:
        w = w.to_ering()
    w_F = w.F if t == w.uvar else [g.subst({w.uvar: MPoly.var(g.ring, (t,), t)}) for g in w.F]
    w_den, *w_nums = (g.with_vars(variables) for g in w_F)
    u_den, *u_nums = (g.with_vars(variables) for g in u.F)
    F = [w_den * u_den] + [g * u_den for g in w_nums] + [w_den * g for g in u_nums]
    return _collapse_last_level(RealUnivRep(u.base, u.uvar, u.f, u.sigma, tuple(F),
                                            tuple(w.xvars) + tuple(u.xvars)))


def _subst_pair(g, denom, reps):
    block = [v for v in reps if v in g.vars]
    if not block:
        return g
    return subst_rational(g, block, (denom, [reps[v] for v in block]))


def _has_thom_signs(u: RealUnivRep, P: MPoly, var: str, signs) -> bool:
    """Whether coordinate var of u has these signs over Der(P) (entries past
    the end of signs count as 0), each read by rur_sign in u's extension
    context.  P may also involve u's other coordinates and base variables.
    With signs[0] = 0 this says, by Thom's lemma, that the coordinate is the
    root of P the signs encode."""
    ders = der_list(P, var)
    want = tuple(signs) + (0,) * (len(ders) - len(signs))
    return all(rur_sign(u, d) == s for d, s in zip(ders, want))


# ---------------------------------------------------------------------------
# bounded algebraic sampling


@per_input_caches
def sample_components(system, context=None, xvars=None, budget=DEFAULT_BUDGET, seed=0):
    """Finite point set meeting every semi-algebraically connected component
    of Z(system) (bounded; caller asserted).

    An affine equation with rational coefficients is first substituted away
    (affine_elimination), one at a time while another equation remains:
    the reduced system is sampled in the kept coordinates and its points are
    lifted back exactly, so a planar space curve is sampled as a plane
    curve.

    This is the one place that decides between solving and sampling.  A
    system with at least as many equations as variables goes to
    solve_system first: each point of a finite zero set is a component.
    Only NotZeroDimensionalError sends it on to sampling; a system with no
    certified separating form raises SeparationError.  A proper ideal with
    fewer generators than variables is never zero-dimensional (Krull), so
    such a system is sampled at once, by _sample_structured: a curve or a
    surface alike.  Every route rests on one argument: a compact component
    attains its least coordinate x_v, and there the projection to x_v is
    critical (the tangent lies in the hyperplane x_v = const, or the point
    is singular).  So the critical points of that one projection,
    critloci.crit_minor_system(system, x_v, 0, xvars), meet every component
    once they are finite.  Only when no projection of some branch has a
    finite critical set does the general route deform Q = sum of squares to
    Def(Q, zeta), sample the x1-critical points of the deformed hypersurface
    (the same builder), and remove zeta with the limit algorithms."""
    system = [p for p in system if not p.is_zero()]
    if context is None:
        ring = system[0].ring if system else QRING
        context = TriangularContext(ring)
    if xvars is None:
        xv = []
        for p in system:
            for v in p.vars:
                if v not in context.tvars and v not in xv:
                    xv.append(v)
        xvars = tuple(xv)
    if not system:
        raise ValueError("empty system")
    reduced = affine_elimination(system, xvars)
    if reduced is not None:
        sub, elim = reduced
        return [elim.lift(u) for u in sample_components(
            sub, context=context, xvars=elim.kept, budget=budget, seed=seed)]
    if len(system) >= len(xvars):
        try:
            sols = solve_system(system, xvars, context=context, budget=budget, seed=seed)
        except NotZeroDimensionalError:
            pass
        else:
            return sols

    structured = _sample_structured(system, context, xvars, budget, seed)
    if structured is not None:
        return structured

    e_system = [p.to_ering() for p in system]
    e_context = context.to_ering()
    zeta = fresh_infinitesimal(e_context, e_system)
    Q = None
    for p in e_system:
        Q = p * p if Q is None else Q + p * p
    Def = deform_single(Q, xvars, zeta)
    G = MPoly.var(ERING, merge_vars(Def.vars, xvars), xvars[0])
    crit = crit_minor_system([Def], G, 0, xvars)
    sols = solve_system(crit, xvars, context=e_context, budget=budget, seed=seed)
    out = []
    for cand in sols:
        lim = limit_point(cand, zeta)
        if lim is None:
            continue
        keep = True
        for p in e_system:
            if rur_sign(lim, p) != 0:
                keep = False
                break
        if keep:
            out.append(lim if context.ring is ERING else lim.to_qring())
    return dedupe_points(out)


def _sample_structured(system, context, xvars, budget, seed):
    """Sampling at the critical points of one coordinate projection, the
    route of every system that sample_components does not solve directly:
    one with fewer equations than variables (a plane curve, a space curve,
    a surface) or a zero set that is not finite.  For each branch and each
    coordinate v of xvars in turn, it solves the critical points of the
    projection to v on the branch, critloci.crit_minor_system(branch, v, 0,
    xvars).  A compact component of the branch attains its least v where the
    tangent space lies in the hyperplane v = const or the point is singular
    (BPR), and both are zeros of that system, so the first projection
    whose critical set is finite meets every such component.  For a
    hypersurface P the system is (P, dP/dw for w != v); for a plane curve it
    is (factor, d factor / dy) when v = x, the coordinate curve_segments
    parametrises over.  A projection whose system adds no equation, or that
    solve_system rejects with SeparationError (not zero-dimensional, or no
    certified separating form), hands the branch to the next coordinate.
    Returns None when no projection of some branch has a finite critical
    set; the caller then samples through the general route.

    A branch's solve gives distinct points, all of its critical system's, so
    a point of a later branch is dropped when every polynomial of an earlier
    branch's solved system vanishes at it, and no two points of one solve are
    compared."""
    out = []
    solved = []  # the critical system solved for each earlier branch
    for br in split_branches(system, budget):
        for v in xvars:
            G = MPoly.var(br[0].ring, merge_vars(br[0].vars, xvars), v)
            crit = crit_minor_system(br, G, 0, xvars)
            if len(crit) == len(br):
                continue
            try:
                sols = solve_system(crit, xvars, context=context, budget=budget, seed=seed)
            except SeparationError:
                continue
            out.extend(u for u in sols
                       if not any(all(rur_sign(u, p) == 0 for p in earlier) for earlier in solved))
            solved.append(crit)
            break
        else:
            return None
    return out


_COORD_CACHE = BoundedCache()


def coordinate_encoding_cached(u: RealUnivRep, i: int):
    key = (u, i)
    enc = _COORD_CACHE.get(key)
    if enc is None:
        enc = rur_coordinate_encoding(u, i)
        _COORD_CACHE.put(key, enc)
    return enc


def points_equal(u: RealUnivRep, v: RealUnivRep, upto=None) -> bool:
    """Exact equality of the first `upto` coordinates (all, by default) of
    the associated points.  A rational and an infinitesimal representation
    are compared over the infinitesimal ring.  Different base contexts count
    as not equal; a comparison that fails raises.

    Coordinate i of v equals coordinate i of u when, over Der(g), it has the
    signs of u's encoding of that coordinate (a root of g), read in v's
    extension context: by Thom's lemma it is then the root of g those signs
    fix.  v's own encoding is never computed."""
    if u is v:
        return True
    n = u.k if upto is None else upto
    if (upto is None and u.k != v.k) or min(u.k, v.k) < n:
        return False
    if (u.f.ring is ERING) != (v.f.ring is ERING):
        u, v = u.to_ering(), v.to_ering()
    if u.base != v.base:
        return False
    for i in range(1, n + 1):
        enc = coordinate_encoding_cached(u, i)
        alone = v.project(v.xvars[i - 1:i], (enc.var,))
        if not _has_thom_signs(alone, enc.poly, enc.var, enc.signs):
            return False
    return True


def dedupe_points(points):
    """The distinct points among RURs, each kept at its first occurrence:
    equal values first (a point is its own key), then exact coordinate
    comparison across the survivors."""
    uniq = []
    for u in dict.fromkeys(points):
        if not any(points_equal(u, v) for v in uniq):
            uniq.append(u)
    return uniq


def rur_coordinate_encoding(u: RealUnivRep, i: int):
    """The i-th coordinate (1-based) of u as a Thom encoding over u.base:
    (g, signs of Der(g) at the coordinate), where g in Y_ is the resultant
    eliminating the RUR root from Y_ * f_0 - f_i, trimmed at the base
    point.  By Thom's lemma these signs fix the coordinate among g's roots,
    so they are read at u's point itself, in u's extension context, and g's
    other roots are never encoded."""
    ctx = u.base
    yvar = "Y_"
    ring = u.f.ring
    variables = tuple(dict.fromkeys(list(u.f.vars) + [yvar]))
    y = MPoly.var(ring, variables, yvar)
    rel = y * u.F[0].with_vars(variables) - u.F[i].with_vars(variables)
    g = resultant(u.f.with_vars(variables), rel, u.uvar)
    g = trimmed(g, yvar, ctx)
    if g.degree(yvar) == 0:
        raise ArithmeticError("the coordinate's eliminant is constant")
    alone = u.project(u.xvars[i - 1:i], (yvar,))
    signs = tuple(rur_sign(alone, d) for d in der_list(g, yvar))
    if signs[0] != 0:
        raise ArithmeticError("the coordinate is not a root of its eliminant")
    return ThomEncoding(ctx, yvar, g, signs)

