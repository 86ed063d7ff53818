"""Internal exact solver: finite solution sets of polynomial systems over a
triangular context, reported as verified real univariate representations
(RealUnivRep, defined here: the one point type, a value, that every module
uses for the points it finds, compares and returns).

Pipeline per system:
- split into branches by the irreducible factors of every polynomial;
- pick a separating linear form U = x_1 + c*x_2 + c^2*x_3 + ...;
- take the eliminant in U and one relation linear in each coordinate from
  a lex Groebner shape basis of the system with its context levels, which
  certifies the form (the shape lemma, BPR ch. 12); a form whose basis is
  not in shape position is rejected and the next one tried;
- make the eliminant squarefree at the context point (realroots.squarefree),
  split it into its irreducible factors (factor_mpoly, cached per input),
  and Thom-encode each factor's real roots, so each point is built over its
  own factor, its coordinates reduced modulo it (realroots.reduce_mod), and
  a rational point has an eliminant of degree 1, on which every later sign
  read works over a linear level; budget.max_candidates bounds the roots
  over all factors together;
- verify every candidate point exactly.
This is the only route, a system in one variable included (its form is
U - x): a system whose ideal is not zero-dimensional (a branch that leaves a
coordinate free included) raises NotZeroDimensionalError, which
points.sample_components, the one place that decides between solving and
sampling, hands to component sampling; a system with no certified
separating form within the retry budget raises a plain SeparationError,
and one past the shape basis's size bound raises ResourceBudgetError.
eliminate_to, an iterated resultant cascade, serves optimsub's
pseudo-critical values.  Factoring, gcds and Groebner bases go through the
sympy bridge, symbridge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotZeroDimensionalError, ResourceBudgetError, SeparationError
from .infring import QQ
from .mpoly import ERING, QRING, MPoly, fresh_var, resultant, subst_rational
from .realroots import (
    BoundedCache,
    ThomEncoding,
    TriangularContext,
    _ext_context_for,
    reduce_mod,
    squarefree,
    thom_encodings,
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

    def __post_init__(self):
        # with no form tried, no branch could tell a system that is not
        # zero-dimensional from one with no certified form
        if self.retries < 1:
            raise ValueError(f"Budget.retries must be at least 1, not {self.retries}")

    def check_matrix(self, size, what):
        if size > self.max_sylvester:
            raise ResourceBudgetError(f"{what}: Sylvester matrix {size}x{size} exceeds budget {self.max_sylvester}")

    def check_degree(self, deg, what):
        if deg > self.max_degree:
            raise ResourceBudgetError(f"{what}: degree {deg} exceeds budget {self.max_degree}")


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True, eq=False)
class RealUnivRep:
    """k-real univariate representation over a triangular Thom encoding,
    the one point type: the point is (F[1]/F[0], ..., F[k]/F[0]) in the
    coordinates xvars, evaluated at the root of f in uvar over base that
    the Thom signs sigma select.

    The data alone fix the point (Thom's lemma), so a point is a value:
    two with the same fields and the same ring of f are equal and hash
    alike, and a point is its own cache and dedupe key.  Points that are
    not equal may still be the same point (points.points_equal).

    This layout is known here and in points only.  A point is reshaped by
    its own methods (project, over, map_polys, to_ering, to_qring, and root
    for its Thom encoding) and by points.join, flatten_rur and limit_point;
    no other module builds a point from another point's fields."""

    base: TriangularContext
    uvar: str
    f: MPoly
    sigma: tuple
    F: tuple  # (f0, f1, ..., fk)
    xvars: tuple
    _hash: int = field(default=None, init=False, repr=False)

    @property
    def k(self):
        return len(self.F) - 1

    @property
    def root(self):
        """The root of f that sigma selects, as a Thom encoding over base."""
        return ThomEncoding(self.base, self.uvar, self.f, self.sigma)

    def extended_context(self):
        """The base extended by the root, from the shared context cache."""
        return _ext_context_for(self.root)

    def project(self, names, labels=None):
        """The coordinates `names` of the point, in that order, called
        `labels` (names by default)."""
        names = tuple(names)
        F = (self.F[0],) + tuple(self.F[1 + self.xvars.index(v)] for v in names)
        return RealUnivRep(self.base, self.uvar, self.f, self.sigma, F,
                           names if labels is None else tuple(labels))

    def over(self, base):
        """The same point over base, a context that extends its own: f keeps
        its real roots, and their Thom signs, over any extension."""
        if base.prefix(self.base.nlevels) != self.base:
            raise ValueError("the new base does not extend the point's base")
        return RealUnivRep(base, self.uvar, self.f, self.sigma, self.F, self.xvars)

    def map_polys(self, fn, ring):
        """The point over ring whose polynomials (the base's levels, f and
        F) are fn of this one's."""
        return RealUnivRep(self.base.map_polys(fn, ring), self.uvar, fn(self.f), self.sigma,
                           tuple(fn(g) for g in self.F), self.xvars)

    def to_ering(self):
        """The same point over D[eta]: its base, f and F mapped into ERING,
        as MPoly.to_ering and TriangularContext.to_ering map theirs.  A
        point already over ERING is returned itself, so applying it twice
        gives the same point."""
        if self.base.ring is ERING and self.f.ring is ERING:
            return self
        return self.map_polys(MPoly.to_ering, ERING)

    def to_qring(self):
        """The same point over the rationals, the inverse of to_ering; a
        point with an infinitesimal coefficient raises ValueError."""
        if self.base.ring is QRING and self.f.ring is QRING:
            return self
        return self.map_polys(MPoly.to_qring, QRING)

    def _value(self):
        # MPoly equality ignores the ring, so the ring of f is named too
        return (self.base, self.uvar, self.f, self.f.ring, self.sigma, self.F, self.xvars)

    def __eq__(self, other):
        if not isinstance(other, RealUnivRep):
            return NotImplemented
        return self is other or self._value() == other._value()

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._value()))
        return self._hash

    def __repr__(self):
        return f"RUR({self.uvar}: {self.f}; {self.xvars})"


# ---------------------------------------------------------------------------
# factoring (through the sympy bridge)


_FACTOR_CACHE = BoundedCache()


def factor_mpoly(p):
    """Irreducible factors of p over the rationals (eta symbols treated as
    extra variables); returns a list of (factor, multiplicity).  Falls back
    to [(p, 1)] when p has more than 400 terms or total degree above 80.
    Each polynomial is factored once per input: the factors are kept by
    (p, ring, variables), since they come back in p's ring over p's
    variables."""
    if len(p.terms) > 400 or p.total_degree() > 80:
        return [(p, 1)]
    key = (p, p.ring, p.vars)
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
        fs = [f for f, _m in factor_mpoly(p)]
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
    # a branch is its set of factors: the first one met with each set is
    # kept, each factor once
    out = {}
    for br in branches:
        out.setdefault(frozenset(br), list(dict.fromkeys(br)))
    return list(out.values())


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
    return p / g


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
            co_a = cf.a / cf.gcd
            co_b = cf.b / cf.gcd
            sub2 = [p for p in polys if not (p == cf.a) and not (p == cf.b)] + [co_a, co_b]
            out2 = eliminate_to(sub2, keep, xvars, budget, what)
            return out1 + out2
        polys = [p for p in polys if not p.is_zero()]
        if not polys:
            return []
    return polys


# ---------------------------------------------------------------------------
# the solver


def solve_system(system, xvars, context=None, budget=DEFAULT_BUDGET, seed=0, uvar=None):
    """All solutions of a finite zero set, as verified RealUnivReps.

    Each branch tries separating forms U = x_1 + c*x_2 + c^2*x_3 + ... for
    c = seed + 1, seed + 2, ...  A form whose lex Groebner basis is in shape
    position certifies itself, and its solutions are returned at once; one
    that does not separate is rejected and the next c is tried, up to
    budget.retries forms, then SeparationError is raised.

    A branch whose ideal, with the context's levels, is not
    zero-dimensional, one that leaves a coordinate free included, raises
    NotZeroDimensionalError at once: its points are component sampling's
    (points.sample_components).  A branch past the shape basis's size bound
    raises ResourceBudgetError, and a polynomial in a variable that is
    neither in xvars nor the context's raises ValueError."""
    xvars = tuple(xvars)
    if context is None:
        ring = system[0].ring if system else QRING
        context = TriangularContext(ring)
    ring = context.ring
    system = [p for p in system if not p.is_zero()]
    known = set(xvars) | set(context.tvars)
    for p in system:
        pu = p.used_vars()
        if not pu <= known:
            raise ValueError(f"polynomial involves unknown variables {pu - known}")
        if not (pu & set(xvars)):
            if context.sign_mpoly(p if not pu else p.with_vars(tuple(context.tvars))) != 0:
                return []
    system = [p for p in system if set(p.used_vars()) & set(xvars)]
    if not system:
        raise ValueError("system does not constrain the variables")
    uvar = uvar or fresh_var("U", set(context.tvars).union(*(p.vars for p in system)))
    out = []
    for branch in split_branches(system, budget):
        out.extend(_solve_branch(branch, xvars, context, budget, seed, uvar))
    return list(dict.fromkeys(out))


def _solve_branch(system, xvars, context, budget, seed, uvar):
    kept = []
    for p in system:
        pu = p.used_vars()
        if not (pu & set(xvars)):
            # a factor in the context's variables alone
            if context.sign_mpoly(p if not pu else p.with_vars(tuple(context.tvars))) != 0:
                return []
            continue
        kept.append(p)
    system = kept
    last_err = None
    for attempt in range(budget.retries):
        try:
            return _solve_branch_with_form(system, xvars, context, budget,
                                           seed + attempt + 1, uvar)
        except ArithmeticError as e:
            # a rejected form: a lex basis not in shape position, or no
            # coordinate relation usable at a candidate root
            last_err = e
    raise SeparationError(
        f"separating form exhausted after {budget.retries} tries: {last_err}")


def _linear_form(ring, variables, xvars, c, uvar):
    u = MPoly.var(ring, variables, uvar)
    acc = MPoly.zero(ring, variables)
    mult = 1
    for v in xvars:
        acc = acc + MPoly.var(ring, variables, v).scale(QQ(mult))
        mult *= c
    return u - acc


def _groebner_shape(full, xvars, context, uvar):
    """Lex Groebner shape of the system and its context levels: the
    eliminant in uvar and, per variable of xvars, a relation linear in it
    over uvar.  Returns (eliminant, {var: relation}), or UNIT for the unit
    ideal.

    Raises ArithmeticError when the lex basis is not in shape position (the
    form is rejected), NotZeroDimensionalError when the ideal is not
    zero-dimensional (adding U - sum c^i x_i keeps an ideal zero-dimensional
    or not whatever c is, so no other form can help), and
    ResourceBudgetError when the system is past the size bound."""
    nterms = sum(len(p.terms) for p in full)
    ngens = len(xvars) + context.nlevels
    if nterms > 4000 or ngens > 9:
        raise ResourceBudgetError(
            f"shape basis: {nterms} terms in {ngens} variables exceeds budget (4000 terms, 9 variables)")
    polys = list(full) + [lp for _v, lp, _s in context.levels]
    gens = tuple(xvars) + tuple(context.tvars) + (uvar,)
    shape = shape_basis(polys, gens, uvar)
    if shape is None:
        raise NotZeroDimensionalError("the system is not zero-dimensional")
    if shape != UNIT and any(v not in shape[1] for v in xvars):
        # not in shape position: radicalize once through the squarefree
        # eliminant, then retry; a remaining failure means the separating
        # form candidate must be rejected (fast retry with next c)
        f = shape[0]
        g = gcd([f, f.deriv(uvar)])
        shape = shape_basis(polys + [f if g is None else f / g], gens, uvar)
        if shape is None or (shape != UNIT and any(v not in shape[1] for v in xvars)):
            raise ArithmeticError("lex basis not in shape position (separating form rejected)")
    if shape == UNIT:
        return UNIT
    f, relations = shape
    fvars = tuple(context.tvars) + (uvar,)
    return f.with_vars(fvars), {v: relations[v].with_vars(fvars + (v,)) for v in xvars}


def _solve_branch_with_form(system, xvars, context, budget, c, uvar):
    """The solutions of the branch in xvars, read with the separating form
    of constant c.  _groebner_shape rejects a lex basis not in shape
    position, so the eliminant f and, for each v in xvars, a relation a_v(U)*v + b_v(U)
    lie in the ideal, and the assembly raises ArithmeticError unless
    a_v(r) != 0 at every real root r of f.  Every real solution is then the
    one point read at its value r of the form, and every point is verified
    exactly."""
    ring = context.ring
    variables = tuple(dict.fromkeys(sum((list(p.vars) for p in system), list(context.tvars) + [uvar] + list(xvars))))
    full = [p.with_vars(variables) for p in system] + [_linear_form(ring, variables, xvars, c, uvar)]
    shape = _groebner_shape(full, xvars, context, uvar)
    if shape == UNIT:
        return []
    eliminant, relations = shape
    return _assemble_from_relations(system, xvars, context, budget, uvar, eliminant, relations)


def _assemble_from_relations(system, xvars, context, budget, uvar, A, relations):
    """Verified solutions read at the real roots of the squarefree part of
    the eliminant A: each v in xvars is -b_v/a_v there, from its relation
    a_v(U)*v + b_v(U).  The squarefree part is split into its irreducible
    factors, and each point is built over the factor its root is a root of,
    so a rational solution has an f of degree 1.  Past budget.max_candidates
    real roots over all factors, ResourceBudgetError is raised."""
    ring = context.ring
    f = squarefree(A, uvar, context)
    if f is None:
        return []
    roots = [enc for g, _m in factor_mpoly(f) if g.degree(uvar) > 0
             for enc in thom_encodings(g, uvar, context)]
    if len(roots) > budget.max_candidates:
        raise ResourceBudgetError("candidate explosion")
    out = []
    for enc in roots:
        # the point carries enc.poly itself, so a later lookup from the point
        # finds this extension in the shared context cache
        g = enc.poly
        ctx_plus = _ext_context_for(enc)
        assignment = {}
        for v in xvars:
            rel = relations[v]
            a = reduce_mod(rel.coeff_of(v, 1), g, uvar, context)
            b = reduce_mod(rel.coeff_of(v, 0), g, uvar, context)
            if ctx_plus.sign_mpoly(a.with_vars(ctx_plus.tvars)) == 0:
                raise ArithmeticError("no usable coordinate relation at a candidate root")
            assignment[v] = (a, b)
        denom = MPoly.const(ring, (uvar,), 1).with_vars(tuple(context.tvars) + (uvar,))
        for v in xvars:
            denom = denom * assignment[v][0].with_vars(ctx_plus.tvars)
        denom = reduce_mod(denom, g, uvar, context)
        coords = []
        for v in xvars:
            num = -assignment[v][1].with_vars(ctx_plus.tvars)
            for w in xvars:
                if w != v:
                    num = num * assignment[w][0].with_vars(ctx_plus.tvars)
            coords.append(reduce_mod(num, g, uvar, context))
        # verify membership exactly
        if _verify_point(system, xvars, denom, coords, ctx_plus):
            out.append(RealUnivRep(context, uvar, g, enc.signs, (denom,) + tuple(coords), tuple(xvars)))
    return out


def _verify_point(system, xvars, denom, coords, ctx_plus):
    """Whether the point coords/denom at the root ctx_plus fixes is a common
    zero of system.  Each substituted equation is multiplied by a power of
    denom, so it also reads 0 where denom vanishes; such a 0/0 candidate is
    no point and is rejected."""
    for p in system:
        num = subst_rational(p, [v for v in xvars if v in p.vars],
                             (denom, [coords[xvars.index(v)] for v in xvars if v in p.vars]))
        if ctx_plus.sign_mpoly(num.with_vars(ctx_plus.tvars)) != 0:
            return False
    return ctx_plus.sign_mpoly(denom.with_vars(ctx_plus.tvars)) != 0
