"""Internal exact solver: finite solution sets of polynomial systems over a
triangular context, reported as verified univariate-representation data.

Pipeline per system:
- split into branches by the irreducible factors of every polynomial;
- pick a separating linear form U = x_1 + c*x_2 + c^2*x_3 + ...;
- take the eliminant in U and one relation linear in each coordinate from
  a lex Groebner shape basis of the system with its context levels, which
  certifies the form (the shape lemma, BPR ch. 12); a form whose basis is
  not in shape position is rejected and the next one tried;
- make the eliminant squarefree at the context point and Thom-encode its
  real roots;
- verify every candidate point exactly.
This is the only route: a system whose ideal is not zero-dimensional raises
SeparationError, which callers hand to component sampling
(points.sample_components), and one past the shape basis's size bound
raises ResourceBudgetError.  eliminate_to, an iterated resultant cascade,
serves optimsub's pseudo-critical values.  Factoring, gcds and Groebner
bases go through the sympy bridge, symbridge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceBudgetError, SeparationError
from .infring import QQ
from .mpoly import QRING, MPoly, _exact_poly_div, fresh_var, resultant, subst_rational
from .realroots import (
    BoundedCache,
    ThomEncoding,
    TriangularContext,
    _ext_context_for,
    _from_upoly,
    _mpoly_key,
    _to_upoly,
    content_strip,
    signs_at_encodings,
    sturm_chain,
    thom_encodings,
    uderiv,
    utrim,
)
from .symbridge import UNIT, factor, gcd, shape_basis


@dataclass
class Budget:
    max_sylvester: int = 40
    max_degree: int = 700
    max_branches: int = 256
    max_candidates: int = 4000
    # most separating forms tried per branch: it bounds the forms rejected
    # (lex basis not in shape position) before one is certified
    retries: int = 8

    def check_matrix(self, size, what):
        if size > self.max_sylvester:
            raise ResourceBudgetError(f"{what}: Sylvester matrix {size}x{size} exceeds budget {self.max_sylvester}")

    def check_degree(self, deg, what):
        if deg > self.max_degree:
            raise ResourceBudgetError(f"{what}: degree {deg} exceeds budget {self.max_degree}")


DEFAULT_BUDGET = Budget()


@dataclass
class RawSolution:
    """One verified solution: root of (eliminant, signs) in the fresh
    variable uvar; coordinate i of the point is coords[i]/denom at the
    root."""

    context: TriangularContext
    uvar: str
    eliminant: MPoly
    signs: tuple
    denom: MPoly
    coords: tuple
    xvars: tuple


# ---------------------------------------------------------------------------
# factoring (through the sympy bridge)


_FACTOR_CACHE = BoundedCache()


def factor_mpoly(p, budget=DEFAULT_BUDGET):
    """Irreducible factors of p over the rationals (eta symbols treated as
    extra variables); returns a list of (factor, multiplicity).  Falls back
    to [(p, 1)] when over budget.  Each polynomial is factored once per
    input: the factors are kept by (ring, variables, p), since they come
    back in p's ring over p's variables."""
    if len(p.terms) > 400 or p.total_degree() > 80:
        return [(p, 1)]
    key = (p.ring.name, p.vars, p)
    hit = _FACTOR_CACHE.get(key)
    if hit is None:
        hit = tuple(factor(p))
        _FACTOR_CACHE.put(key, hit)
    return list(hit)


# ---------------------------------------------------------------------------
# branch splitting


def split_branches(system, budget=DEFAULT_BUDGET):
    """Split Z(p1,...,pm) into a union of factor-systems; each branch picks
    one irreducible factor per polynomial."""
    factored = []
    for p in system:
        fs = [f for f, _m in factor_mpoly(p, budget)]
        fs = [f for f in fs if not f.is_const()]
        if not fs:
            return []  # a nonzero constant: empty variety
        factored.append(fs)
    total = 1
    for fs in factored:
        total *= len(fs)
    if total > budget.max_branches:
        return [list(system)]
    branches = [[]]
    for fs in factored:
        branches = [br + [f] for br in branches for f in fs]
    seen = set()
    out = []
    for br in branches:
        key = frozenset(_fingerprint(f) for f in br)
        if key not in seen:
            seen.add(key)
            dedup = []
            for f in br:
                if all(not (f == g) for g in dedup):
                    dedup.append(f)
            out.append(dedup)
    return out


def _fingerprint(p):
    used = tuple(sorted(p.used_vars()))
    return (used, _mpoly_key(p.with_vars(used) if used else p))


# ---------------------------------------------------------------------------
# resultant cascade (optimsub's pseudo-critical values)


def _sqfree_in_var(p, var):
    """Exact squarefree part of p with respect to var (polynomial level)."""
    d = p.deriv(var)
    if d.is_zero():
        return p
    g = gcd([p, d])
    if g is None or g.degree(var) == 0:
        return p
    return _exact_poly_div(p, g)


def _pair_eliminate(polys, var, budget, what):
    """Eliminate var from a list of polynomials by consecutive-pair
    resultants; polynomials not involving var pass through.

    A single polynomial carrying var is paired with its own var-derivative:
    over a finite real zero set every solution's fiber root is a multiple
    root (a simple root would sweep out a curve), so the discriminant locus
    covers all true projections."""
    touch = [p for p in polys if p.degree(var) > 0]
    passthrough = [p for p in polys if p.degree(var) == 0]
    if not touch:
        return passthrough
    out = list(passthrough)
    if len(touch) == 1:
        p = _sqfree_in_var(touch[0], var)
        if p.degree(var) == 0:
            out.append(p)
            return out
        if p.degree(var) >= 1:
            dp = p.deriv(var)
            if not dp.is_zero() and dp.degree(var) >= 0 and p.degree(var) >= 1:
                if dp.degree(var) == 0 and dp.is_const():
                    # linear in var with constant slope: fiber is a single
                    # simple root; finite-zero-set inputs are constrained by
                    # the passthrough polynomials alone
                    return out
                size = p.degree(var) + max(dp.degree(var), 1)
                budget.check_matrix(size, what)
                r = resultant(p, dp, var) if dp.degree(var) > 0 else dp ** p.degree(var)
                budget.check_degree(r.total_degree(), what)
                if not r.is_zero():
                    out.append(r)
        return out
    touch.sort(key=lambda p: (p.degree(var), p.total_degree()))
    base = touch[0]
    for q in touch:
        if q is base:
            continue
        size = base.degree(var) + q.degree(var)
        budget.check_matrix(size, what)
        r = resultant(base, q, var)
        budget.check_degree(r.total_degree(), what)
        if r.is_zero():
            g = gcd([base, q])
            if g is not None and g.degree(var) > 0:
                raise _CommonFactor(g, base, q)
        out.append(r)
    return out


class _CommonFactor(Exception):
    def __init__(self, gcd, a, b):
        self.gcd = gcd
        self.a = a
        self.b = b


def eliminate_to(system, keep, xvars, budget=DEFAULT_BUDGET, what="eliminate"):
    """Iterated-resultant elimination of every variable in xvars except those
    in keep; returns the surviving polynomials (a superset-defining family:
    every solution projection is a common zero)."""
    polys = [p for p in system if not p.is_zero()]
    order = [v for v in xvars if v not in keep]
    # heuristic: eliminate lowest-degree variables first
    order.sort(key=lambda v: max((p.degree(v) for p in polys), default=0))
    for v in order:
        try:
            polys = _pair_eliminate(polys, v, budget, what)
        except _CommonFactor as cf:
            sub1 = [p for p in polys if not (p == cf.a) and not (p == cf.b)] + [cf.gcd]
            out1 = eliminate_to(sub1, keep, xvars, budget, what)
            co_a = _exact_poly_div(cf.a, cf.gcd)
            co_b = _exact_poly_div(cf.b, cf.gcd)
            sub2 = [p for p in polys if not (p == cf.a) and not (p == cf.b)] + [co_a, co_b]
            out2 = eliminate_to(sub2, keep, xvars, budget, what)
            return out1 + out2
        polys = [p for p in polys if not p.is_zero()]
        if not polys:
            return []
    return polys


# ---------------------------------------------------------------------------
# squarefree part over a context


def squarefree_upoly(ops, A):
    """Positive multiple of the squarefree part of A at the context point."""
    A = utrim(ops, A)
    if len(A) <= 2:
        return A
    chain = sturm_chain(ops, A, uderiv(ops, A))
    g = chain[-1]
    if len(g) == 1:
        return A
    # positive-scaled pseudo-quotient of A by g
    n, m = len(A) - 1, len(g) - 1
    lc = g[-1]
    r = list(A)
    q = [ops.zero] * (n - m + 1)
    steps = 0
    for i in range(n, m - 1, -1):
        coef = r[i]
        r = [ops.mul(lc, x) for x in r]
        q = [ops.mul(lc, x) for x in q]
        steps += 1
        q[i - m] = ops.add(q[i - m], coef)
        if not ops.is_lit_zero(coef):
            for j in range(m + 1):
                r[i - m + j] = ops.sub(r[i - m + j], ops.mul(coef, g[j]))
        r[i] = ops.zero
    if steps % 2 == 1:
        q = [ops.mul(lc, x) for x in q]
    q = content_strip(ops, q)
    return utrim(ops, q)


# ---------------------------------------------------------------------------
# the solver


def solve_system(system, xvars, context=None, budget=DEFAULT_BUDGET, seed=0, uvar=None):
    """All solutions of a finite zero set, as verified RawSolutions.

    Each branch tries separating forms U = x_1 + c*x_2 + c^2*x_3 + ... for
    c = seed + 1, seed + 2, ...  A form whose lex Groebner basis is in shape
    position certifies itself, and its solutions are returned at once; one
    that does not separate is rejected and the next c is tried, up to
    budget.retries forms, then SeparationError is raised.

    A branch whose ideal, with the context's levels, is not
    zero-dimensional raises SeparationError at once: its points are
    component sampling's (points.sample_components).  A branch past the
    shape basis's size bound raises ResourceBudgetError."""
    xvars = tuple(xvars)
    if context is None:
        ring = system[0].ring if system else QRING
        context = TriangularContext(ring)
    ring = context.ring
    system = [p for p in system if not p.is_zero()]
    for p in system:
        pu = p.used_vars()
        if not (pu & set(xvars)) and pu <= set(context.tvars):
            if context.sign_mpoly(p if not pu else p.with_vars(tuple(context.tvars))) != 0:
                return []
    system = [p for p in system if set(p.used_vars()) & set(xvars)]
    if not system:
        raise ValueError("system does not constrain the variables")
    uvar = uvar or fresh_var("U", set(context.tvars).union(*(p.vars for p in system)))
    out = []
    for branch in split_branches(system, budget):
        out.extend(_solve_branch(branch, xvars, context, budget, seed, uvar))
    return _dedupe_solutions(out, context)


def _dedupe_solutions(sols, context):
    seen = set()
    out = []
    for s in sols:
        coords = tuple(sorted(zip(s.xvars, s.coords), key=lambda vc: vc[0]))
        key = (coords, s.uvar, s.eliminant, s.signs, s.denom)
        if key not in seen:
            seen.add(key)
            out.append(s)
    return out


def _solve_branch(system, xvars, context, budget, seed, uvar):
    kept = []
    for p in system:
        pu = p.used_vars()
        if not (pu & set(xvars)):
            if pu <= set(context.tvars):
                if context.sign_mpoly(p if not pu else p.with_vars(tuple(context.tvars))) != 0:
                    return []
                continue
            raise ValueError(f"polynomial involves unknown variables {pu - set(xvars) - set(context.tvars)}")
        kept.append(p)
    system = kept
    used = set()
    for p in system:
        used |= p.used_vars()
    active = [v for v in xvars if v in used]
    if not active:
        return []
    missing = [v for v in xvars if v not in used]
    if missing:
        # a branch of a finite zero set never leaves a coordinate free; such
        # branches are empty and contribute nothing
        return []
    if len(active) == 1:
        return _solve_univariate(system, active[0], xvars, context, budget, uvar)
    last_err = None
    for attempt in range(budget.retries):
        try:
            return _solve_branch_with_form(system, active, xvars, context, budget,
                                           seed + attempt + 1, uvar)
        except ArithmeticError as e:
            # a rejected form: a lex basis not in shape position, or no
            # coordinate relation usable at a candidate root
            last_err = e
    raise SeparationError(
        f"separating form exhausted after {budget.retries} tries: {last_err}")


def _solve_univariate(system, var, xvars, context, budget, uvar):
    ops = context.ops()
    ups = [utrim(ops, _to_upoly(p, var, context)) for p in system]
    ups = [u for u in ups if len(u) > 1 or ops.ctx_sign(u[0]) != 0]
    for u in ups:
        if len(u) == 1:
            return []
    if not ups:
        return []
    base = min(ups, key=len)
    fam = [u for u in ups if u is not base]
    rows = signs_at_encodings(_from_upoly(base, var, context), [_from_upoly(u, var, context) for u in fam], var, context)
    out = []
    for enc, fam_signs in rows:
        if any(s != 0 for s in fam_signs):
            continue
        f = enc.poly.subst({var: MPoly.var(enc.poly.ring, (uvar,), uvar)})
        ring = context.ring
        variables = tuple(context.tvars) + (uvar,)
        one = MPoly.const(ring, variables, 1)
        coords = tuple(MPoly.var(ring, variables, uvar) if v == var else MPoly.zero(ring, variables) for v in xvars)
        out.append(RawSolution(context, uvar, f.with_vars(variables), enc.signs, one, coords, tuple(xvars)))
    return out


def _linear_form(ring, variables, active, c, uvar):
    u = MPoly.var(ring, variables, uvar)
    acc = MPoly.zero(ring, variables)
    mult = 1
    for v in active:
        acc = acc + MPoly.var(ring, variables, v).scale(QQ(mult))
        mult *= c
    return u - acc


def _groebner_shape(full, active, context, uvar):
    """Lex Groebner shape of the system and its context levels: the
    eliminant in uvar and, per active variable, a relation linear in it over
    uvar.  Returns (eliminant, {var: relation}), or UNIT for the unit ideal.

    Raises ArithmeticError when the lex basis is not in shape position (the
    form is rejected), SeparationError when the ideal is not
    zero-dimensional (adding U - sum c^i x_i keeps an ideal zero-dimensional
    or not whatever c is, so no other form can help), and
    ResourceBudgetError when the system is past the size bound."""
    nterms = sum(len(p.terms) for p in full)
    ngens = len(active) + context.nlevels
    if nterms > 4000 or ngens > 9:
        raise ResourceBudgetError(
            f"shape basis: {nterms} terms in {ngens} variables exceeds budget (4000 terms, 9 variables)")
    polys = list(full) + [lp for _v, lp, _s in context.levels]
    gens = tuple(active) + tuple(context.tvars) + (uvar,)
    shape = shape_basis(polys, gens, uvar)
    if shape is None:
        raise SeparationError("the system is not zero-dimensional")
    if shape != UNIT and any(v not in shape[1] for v in active):
        # not in shape position: radicalize once through the squarefree
        # eliminant, then retry; a remaining failure means the separating
        # form candidate must be rejected (fast retry with next c)
        f = shape[0]
        g = gcd([f, f.deriv(uvar)])
        shape = shape_basis(polys + [f if g is None else _exact_poly_div(f, g)], gens, uvar)
        if shape is None or (shape != UNIT and any(v not in shape[1] for v in active)):
            raise ArithmeticError("lex basis not in shape position (separating form rejected)")
    if shape == UNIT:
        return UNIT
    f, relations = shape
    fvars = tuple(context.tvars) + (uvar,)
    return f.with_vars(fvars), {v: relations[v].with_vars(fvars + (v,)) for v in active}


def _solve_branch_with_form(system, active, xvars, context, budget, c, uvar):
    """The solutions of the branch, read with the separating form of
    constant c.  _groebner_shape rejects a lex basis not in shape position,
    so the eliminant f and, for each active v, a relation a_v(U)*v + b_v(U)
    lie in the ideal, and the assembly raises ArithmeticError unless
    a_v(r) != 0 at every real root r of f.  Every real solution is then the
    one point read at its value r of the form, and every point is verified
    exactly."""
    ring = context.ring
    variables = tuple(dict.fromkeys(sum((list(p.vars) for p in system), list(context.tvars) + [uvar] + list(active))))
    full = [p.with_vars(variables) for p in system] + [_linear_form(ring, variables, active, c, uvar)]
    shape = _groebner_shape(full, active, context, uvar)
    if shape == UNIT:
        return []
    eliminant, relations = shape
    return _assemble_from_relations(system, active, xvars, context, budget, uvar,
                                    eliminant, relations)


def _squarefree_eliminant(A, uvar, context):
    ops = context.ops()
    f_up = squarefree_upoly(ops, _to_upoly(A, uvar, context))
    if len(f_up) == 1:
        return None
    return _from_upoly(f_up, uvar, context)


def _assemble_from_relations(system, active, xvars, context, budget, uvar, A, relations):
    """Verified solutions read at the real roots of the squarefree part f of
    the eliminant A: each active v is -b_v/a_v there, from its relation
    a_v(U)*v + b_v(U)."""
    ring = context.ring
    f = _squarefree_eliminant(A, uvar, context)
    if f is None:
        return []
    encs = thom_encodings(f, uvar, context)
    if not encs:
        return []
    if len(encs) > budget.max_candidates:
        raise ResourceBudgetError("candidate explosion")
    out = []
    for enc in encs:
        # keyed by f itself, the object the solutions carry, so a later
        # lookup from a point built on them matches the key by identity
        ctx_plus = _ext_context_for(ThomEncoding(context, uvar, f, enc.signs))
        assignment = {}
        for v in active:
            g = relations[v]
            a = reduce_mod_f(g.coeff_of(v, 1), f, uvar, context)
            b = reduce_mod_f(g.coeff_of(v, 0), f, uvar, context)
            if ctx_plus.sign_mpoly(_strip_to_ctx(a, ctx_plus)) == 0:
                raise ArithmeticError("no usable coordinate relation at a candidate root")
            assignment[v] = (a, b)
        denom = MPoly.const(ring, (uvar,), 1).with_vars(tuple(context.tvars) + (uvar,))
        for v in active:
            denom = denom * _strip_to_ctx(assignment[v][0], ctx_plus)
        denom = reduce_mod_f(denom, f, uvar, context)
        coords = []
        for v in xvars:
            num = -_strip_to_ctx(assignment[v][1], ctx_plus)
            for w in active:
                if w != v:
                    num = num * _strip_to_ctx(assignment[w][0], ctx_plus)
            coords.append(reduce_mod_f(num, f, uvar, context))
        # verify membership exactly
        if _verify_point(system, xvars, denom, coords, ctx_plus, uvar):
            out.append(RawSolution(context, uvar, f, enc.signs, denom, tuple(coords), tuple(xvars)))
    return out


def _dense_in(p, var):
    """Dense rational coefficient list of a univariate rational MPoly."""
    d = p.degree(var)
    out = []
    for e in range(d + 1):
        c = p.coeff_of(var, e)
        out.append(c.const_value() if not c.is_zero() else QQ(0))
    return out


def _mod_dense(num, den):
    """num mod den over QQ (dense lists, den trimmed, lc != 0)."""
    num = list(num)
    dn = len(den) - 1
    lc = den[-1]
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] / lc
        if c != 0:
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
        num[i] = QQ(0)
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def reduce_mod_f(p, f, uvar, context):
    """p reduced modulo f in uvar, coefficient-wise over the other variables.

    Over a level-free rational context this is exact field reduction (values
    at roots of f unchanged); over towers p is returned unreduced (the
    scaling bookkeeping is not worth it at current scales)."""
    if context.nlevels > 0 or p.ring is not QRING or f.ring is not QRING:
        return p
    if p.degree(uvar) < f.degree(uvar):
        return p
    fd = _dense_in(f, uvar) if set(f.used_vars()) <= {uvar} else None
    if fd is None or len(fd) < 2:
        return p
    other = [v for v in p.vars if v != uvar and p.degree(v) > 0]
    if not other:
        return MPoly.from_univariate(
            [MPoly.const(QRING, p.vars, c) for c in _mod_dense(_dense_in(p, uvar), fd)], uvar
        ).with_vars(p.vars)
    if len(other) > 1:
        return p
    v = other[0]
    rows = []
    for e in range(p.degree(v) + 1):
        ce = p.coeff_of(v, e)
        dense = []
        for k in range(ce.degree(uvar) + 1):
            cc = ce.coeff_of(uvar, k)
            dense.append(cc.const_value() if not cc.is_zero() else QQ(0))
        rows.append(_mod_dense(dense, fd))
    out = MPoly.zero(QRING, p.vars)
    for e, dense in enumerate(rows):
        for k, c in enumerate(dense):
            if c != 0:
                out = out + MPoly(QRING, p.vars,
                                  {tuple(k if w == uvar else (e if w == v else 0)
                                         for w in p.vars): c})
    return out


def _strip_to_ctx(p, ctx_plus):
    return p.with_vars(tuple(ctx_plus.tvars))


def _verify_point(system, xvars, denom, coords, ctx_plus, uvar):
    """Whether the point coords/denom at the root ctx_plus fixes is a common
    zero of system.  Each substituted equation is multiplied by a power of
    denom, so it also reads 0 where denom vanishes; such a 0/0 candidate is
    no point and is rejected."""
    for p in system:
        num = subst_rational(p, [v for v in xvars if v in p.vars],
                             (denom, [coords[xvars.index(v)] for v in xvars if v in p.vars]))
        if ctx_plus.sign_mpoly(_strip_to_ctx(num, ctx_plus)) != 0:
            return False
    return ctx_plus.sign_mpoly(_strip_to_ctx(denom, ctx_plus)) != 0
