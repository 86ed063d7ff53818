"""Algebraic point representations: real univariate representations over
triangular Thom encodings, bounded algebraic sampling, and the limit
algorithms that remove infinitesimals from point descriptions."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SeparationError
from .infring import QQ, InfElem, extra_symbol
from .mpoly import ERING, QRING, JacobianSelector, MPoly, der_list, fresh_var, jac_minor, resultant, subst_rational
from . import realroots
from .realroots import (
    BoundedCache,
    ThomEncoding,
    TriangularContext,
    _ext_context_for,
    _from_upoly,
    _to_upoly,
    per_input_caches,
    thom_encodings,
    utrim,
)
from .solve import DEFAULT_BUDGET, RawSolution, solve_system, split_branches
from .symbridge import is_zero_dimensional


@dataclass(eq=False)
class RealUnivRep:
    """k-real univariate representation over a triangular Thom encoding.

    The associated point is (f_1/f_0, ..., f_k/f_0) evaluated at the root x
    of f(theta, uvar) selected by sigma."""

    base: TriangularContext
    uvar: str
    f: MPoly
    sigma: tuple
    F: tuple  # (f0, f1, ..., fk)
    xvars: tuple

    @property
    def k(self):
        return len(self.F) - 1

    def extended_context(self):
        """The base extended by the root, from the shared context cache."""
        return _ext_context_for(ThomEncoding(self.base, self.uvar, self.f, self.sigma))

    def coordinate(self, i):
        """(numerator, denominator) of coordinate i (1-based)."""
        return self.F[i], self.F[0]

    def __repr__(self):
        return f"RUR({self.uvar}: {self.f}; {self.xvars})"


def rur_from_raw(raw: RawSolution) -> RealUnivRep:
    return RealUnivRep(raw.context, raw.uvar, raw.eliminant, raw.signs,
                       (raw.denom,) + tuple(raw.coords), raw.xvars)


def project_rur(u: RealUnivRep, p: int) -> RealUnivRep:
    """Projection of u to the first p coordinates (p = 0 keeps only the
    root, used for fiber bookkeeping)."""
    if not 0 <= p <= u.k:
        raise ValueError(f"projection index {p} out of range 0..{u.k}")
    return RealUnivRep(u.base, u.uvar, u.f, u.sigma, u.F[: p + 1], u.xvars[:p])


def rur_sign(u: RealUnivRep, poly: MPoly) -> int:
    """Sign of poly at the associated point of u (poly in u.xvars plus the
    base triangular variables)."""
    block = [v for v in u.xvars if v in poly.vars and v in set(poly.used_vars())]
    coords = [u.F[1 + u.xvars.index(v)] for v in block]
    num = subst_rational(poly, block, (u.F[0], coords)) if block else poly
    ctx = u.extended_context()
    num = num.with_vars(tuple(ctx.tvars))
    s = ctx.sign_mpoly(num)
    if s == 0:
        return 0
    deg = poly.total_degree_in(block) if block else 0
    d0 = ctx.sign_mpoly(u.F[0].with_vars(tuple(ctx.tvars)))
    if d0 == 0:
        raise ZeroDivisionError("RUR denominator vanishes at its root")
    return s * (d0 ** (deg % 2))


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
    mono = None
    for g in polys:
        for c in g.terms.values():
            m = dict(c.monomial_content())
            if mono is None:
                mono = m
            else:
                mono = {i: min(e, m.get(i, 0)) for i, e in mono.items() if m.get(i, 0)}
            if not mono:
                return tuple(polys)
    if not mono:
        return tuple(polys)
    mono = tuple(sorted(mono.items()))
    return tuple(g.map_coeffs(lambda c: c.div_monomial(mono)) for g in polys)


def eta_content_normalize(poly: MPoly) -> MPoly:
    """Divide out the common eta-monomial content of all coefficients."""
    return _divide_eta_content((poly,))[0]


def drop_symbols(poly: MPoly, drop_from: int) -> MPoly:
    """Substitute 0 for every infinitesimal with global index >= drop_from."""
    if poly.ring is not ERING:
        return poly
    return poly.map_coeffs(lambda c: c.lim_from(drop_from))


def max_symbol_index(*objs) -> int:
    idx = 0
    for o in objs:
        if isinstance(o, MPoly):
            if o.ring is ERING:
                for c in o.terms.values():
                    for i in c.support_indices():
                        idx = max(idx, i)
        elif isinstance(o, TriangularContext):
            for _v, p, _s in o.levels:
                idx = max(idx, max_symbol_index(p))
        elif isinstance(o, RealUnivRep):
            idx = max(idx, max_symbol_index(o.base), max_symbol_index(o.f),
                      *[max_symbol_index(g) for g in o.F])
        elif isinstance(o, (list, tuple)):
            for x in o:
                idx = max(idx, max_symbol_index(x))
    return idx


def limit_thom(enc: ThomEncoding, drop_from: int):
    """Limit of a Thom encoding: the encoding (over the reduced ring) of
    lim(x) where the infinitesimals with index >= drop_from go to 0.

    Returns None when the root is unbounded over the reduced ring."""
    ctx = enc.context
    if _context_dirty(ctx, drop_from):
        raise ValueError("context polynomials still involve dropped symbols")
    f = eta_content_normalize(enc.poly)
    f0 = drop_symbols(f, drop_from)
    if f0.is_zero():
        raise ValueError("order not factorable")
    f0 = _ctx_trim_poly(f0, enc.var, ctx)
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


def _ctx_trim_poly(poly, var, ctx):
    ops = ctx.ops()
    up = utrim(ops, _to_upoly(poly, var, ctx))
    return _from_upoly(up, var, ctx)


def _context_dirty(ctx: TriangularContext, drop_from: int) -> bool:
    for _v, p, _s in ctx.levels:
        if p.ring is ERING and any(i >= drop_from for c in p.terms.values()
                                   for i in c.support_indices()):
            return True
    return False


def limit_point(u: RealUnivRep, drop_from: int):
    """Limit of a bounded point: a RealUnivRep over the reduced ring whose
    associated point is the limit of u's.  Returns None when unbounded.

    Tower levels whose polynomials involve dropped symbols are first folded
    into the representation by root pairing; clean levels stay as the base."""
    while _context_dirty(u.base, drop_from):
        u = _collapse_last_level(u)
    ectx = u.base
    h = eta_content_normalize(u.f)
    Fs = _divide_eta_content(u.F)
    h0 = drop_symbols(h, drop_from)
    if h0.is_zero():
        raise ValueError("order not factorable")
    h0 = _ctx_trim_poly(h0, u.uvar, ectx)
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

    The pairing system (the level polynomial and u.f) holds no Thom signs of
    either level, so its solutions are kept in a value-keyed cache: every
    root of one level polynomial, and every point over those roots with the
    same eliminant, share one solve, and each point picks its own solution
    by the signs."""
    ctx = u.base
    var_t, f_t, signs_t = ctx.levels[-1]
    parent = ctx.prefix(ctx.nlevels - 1)
    wvar = fresh_var("W", set(u.base.tvars) | {u.uvar} | set(u.f.vars))
    key = (parent.ring.name, parent.key(), var_t, f_t, u.uvar, u.f.ring.name, u.f, wvar)
    sols = _PAIRING_CACHE.get(key)
    if sols is None:
        sols = solve_system([f_t, u.f], (var_t, u.uvar), context=parent, uvar=wvar)
        _PAIRING_CACHE.put(key, sols)
    # the solution whose coordinates (var_t, uvar) are the roots both levels fix
    matches = [cand for cand in map(rur_from_raw, sols)
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

    A system with at least as many equations as variables whose ideal,
    with the context's levels, is zero-dimensional is solved directly: each
    of its points is a component.  The structured shapes of
    _sample_structured come next.  The general route deforms Q = sum of
    squares to Def(Q, zeta) and samples the first-coordinate critical
    points of the deformed hypersurface, then removes zeta with the limit
    algorithms."""
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
    if len(system) >= len(xvars) and is_zero_dimensional(
            system + [lp for _v, lp, _s in context.levels], tuple(xvars) + tuple(context.tvars)):
        sols = solve_system(system, xvars, context=context, budget=budget, seed=seed)
        return [rur_from_raw(s) for s in sols]

    structured = _sample_structured(system, context, xvars, budget, seed)
    if structured is not None:
        return structured

    e_system = [p.to_ering() for p in system]
    e_context = context.to_ering()
    zeta_idx = max(max_symbol_index(e_context), max_symbol_index(e_system), 0) + 1
    zeta = extra_symbol(f"inf{zeta_idx}", zeta_idx)
    zq = MPoly.const(ERING, (), InfElem.sym(zeta))
    Q = None
    for p in e_system:
        Q = p * p if Q is None else Q + p * p
    d = 2 * Q.total_degree_in(xvars) + 2
    tail = MPoly.const(ERING, Q.vars, 1)
    for v in xvars:
        tail = tail + MPoly.var(ERING, Q.vars, v, d)
    one = MPoly.const(ERING, Q.vars, 1)
    Def = (one - zq.with_vars(Q.vars)) * Q * Q - zq.with_vars(Q.vars) * tail
    crit = [Def] + [Def.deriv(v) for v in xvars[1:]]
    sols = solve_system(crit, xvars, context=e_context, budget=budget, seed=seed)
    out = []
    for raw in sols:
        cand = rur_from_raw(raw)
        lim = limit_point(cand, zeta_idx)
        if lim is None:
            continue
        keep = True
        for p in e_system:
            if rur_sign(lim, p) != 0:
                keep = False
                break
        if keep:
            out.append(_restore_ring(lim, context))
    return dedupe_points(out)


def _sample_structured(system, context, xvars, budget, seed):
    """Direct sampling for the structured shapes that cover the golden
    instances.  For a plane curve (one polynomial, two variables) and a
    curve given by n-1 equations in n variables, a bounded component has
    extrema of every coordinate, which satisfy the augmented critical
    system, so the union of its solutions meets every component.  Returns
    None when no shape applies, or when the plane system, or the system of
    every projection of the curve, is not zero-dimensional or has no
    certified separating form; the caller then samples through the general
    route."""
    if len(xvars) == 2 and len(system) == 1:
        out = []
        # in branch order, so the points come out in the same order in every
        # process (set order would follow the variable names' string hashes)
        for factor in dict.fromkeys(f for br in split_branches(system, budget) for f in br):
            for v in xvars:
                d = factor.deriv(v)
                if d.is_zero():
                    continue
                try:
                    sols = solve_system([factor, d], xvars, context=context,
                                        budget=budget, seed=seed)
                except SeparationError:
                    return None
                out.extend(rur_from_raw(s) for s in sols)
        return dedupe_points(out)
    if len(system) == len(xvars) - 1 and len(xvars) >= 3:
        out = []
        for br in split_branches(system, budget):
            done = False
            for drop in range(len(xvars)):
                window = [v for i, v in enumerate(xvars) if i != drop]
                sel = JacobianSelector(window, list(range(1, len(br) + 1)))
                one = MPoly.const(br[0].ring, br[0].vars, 1)
                minor = jac_minor(one, br, sel)
                if minor.is_zero():
                    continue
                try:
                    sols = solve_system(list(br) + [minor], xvars, context=context,
                                        budget=budget, seed=seed)
                except SeparationError:
                    continue
                out.extend(rur_from_raw(s) for s in sols)
                done = True
                break
            if not done:
                return None
        return dedupe_points(out)
    return None


def _restore_ring(u: RealUnivRep, context: TriangularContext) -> RealUnivRep:
    """Map an eta-free ERING representation back onto the original context
    ring (QQ when the original context was rational)."""
    if context.ring is ERING:
        if u.base.nlevels == 0 and context.nlevels > 0:
            return RealUnivRep(context, u.uvar, u.f, u.sigma, u.F, u.xvars)
        return u
    def conv(p):
        return p.to_qring()
    base = context if u.base.nlevels == context.nlevels else context.prefix(u.base.nlevels)
    return RealUnivRep(base, u.uvar, conv(u.f), u.sigma, tuple(conv(g) for g in u.F), u.xvars)


_COORD_CACHE = BoundedCache()


def _rur_key(u: RealUnivRep):
    """Value key of the data a point's coordinates depend on."""
    return (u.base.ring.name, u.base.key(), u.uvar, u.f.ring.name, u.f, u.sigma, u.F)


def coordinate_encoding_cached(u: RealUnivRep, i: int):
    key = (_rur_key(u), i)
    enc = _COORD_CACHE.get(key)
    if enc is None:
        enc = rur_coordinate_encoding(u, i)
        _COORD_CACHE.put(key, enc)
    return enc


def _to_ering_rur(u: RealUnivRep) -> RealUnivRep:
    if u.f.ring is ERING:
        return u
    return RealUnivRep(u.base.to_ering(), u.uvar, u.f.to_ering(), u.sigma,
                       tuple(g.to_ering() for g in u.F), u.xvars)


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
        u, v = _to_ering_rur(u), _to_ering_rur(v)
    if u.base.key() != v.base.key():
        return False
    for i in range(1, n + 1):
        enc = coordinate_encoding_cached(u, i)
        if not _has_thom_signs(_coordinate_alone(v, i, enc.var), enc.poly, enc.var, enc.signs):
            return False
    return True


def dedupe_points(points):
    """Deduplicate RURs: cheap syntactic key first, then exact coordinate
    comparison across the survivors."""
    seen = set()
    out = []
    for u in points:
        key = _rur_key(u)
        if key not in seen:
            seen.add(key)
            out.append(u)
    uniq = []
    for u in out:
        if not any(points_equal(u, v) for v in uniq):
            uniq.append(u)
    return uniq


def rur_coordinate_encoding(u: RealUnivRep, i: int, yvar="Y_"):
    """The i-th coordinate (1-based) of u as a Thom encoding over u.base:
    (g, signs of Der(g) at the coordinate), where g in yvar is the resultant
    eliminating the RUR root from yvar * f_0 - f_i, trimmed at the base
    point.  By Thom's lemma these signs fix the coordinate among g's roots,
    so they are read at u's point itself, in u's extension context, and g's
    other roots are never encoded."""
    ctx = u.base
    ring = u.f.ring
    variables = tuple(dict.fromkeys(list(u.f.vars) + [yvar]))
    y = MPoly.var(ring, variables, yvar)
    rel = y * u.F[0].with_vars(variables) - u.F[i].with_vars(variables)
    g = resultant(u.f.with_vars(variables), rel, u.uvar)
    g = _ctx_trim_poly(g, yvar, ctx)
    if g.degree(yvar) == 0:
        raise ArithmeticError("the coordinate's eliminant is constant")
    alone = _coordinate_alone(u, i, yvar)
    signs = tuple(rur_sign(alone, d) for d in der_list(g, yvar))
    if signs[0] != 0:
        raise ArithmeticError("the coordinate is not a root of its eliminant")
    return ThomEncoding(ctx, yvar, g, signs)


def _coordinate_alone(u: RealUnivRep, i: int, name: str) -> RealUnivRep:
    """Coordinate i (1-based) of u as the one coordinate, named `name`, of a
    representation with u's root."""
    return RealUnivRep(u.base, u.uvar, u.f, u.sigma, (u.F[0], u.F[i]), (name,))
