"""Optimization-flavored subroutines: (B,G)-pseudo-critical values over a
triangular Thom encoding, and the closest-point / closest-pairs computations
at the critical points of the squared distance (critloci.crit_minor_system)."""

from __future__ import annotations

from itertools import combinations, product

from .critloci import GoodRankMatrix, crit_minor_system
from .infring import QQ, InfElem
from .mpoly import ERING, MPoly, merge_vars
from .points import (
    RealUnivRep,
    dedupe_points,
    flatten_rur,
    fresh_infinitesimal,
    limit_thom,
    rur_sign,
    sample_components,
)
from .realroots import TriangularContext, _sorted_unique_positions, thom_encodings
from .solve import DEFAULT_BUDGET, eliminate_to, factor_mpoly, solve_system, split_branches


def pseudo_critical_values(family, G, xvars, base=None, B=None, budget=DEFAULT_BUDGET):
    """A finite set of Thom encodings over the base containing every
    (B,G)-pseudo-critical value of the family, in increasing order, one
    encoding per value.

    For each I subset of [1,s] (card <= k) and sign pattern sigma, the
    gamma-perturbed family P_i + gamma*sigma(i)*H_i is formed, the critical
    values of G on its zero set are eliminated into a univariate polynomial
    in the value variable, and the gamma-limits of its roots are collected.
    The output may strictly contain the pseudo-critical values (harmless for
    the slice property); unbounded branches are dropped by the limit step.

    base defaults to the context with no levels over the family's ring, and
    B to the good-rank matrix H_{card(family), card(xvars)}.  Every family
    member and G is put over all of xvars, which may hold variables (the
    multipliers of a Lagrangian) that some of them do not use."""
    xvars = tuple(xvars)
    if base is None:
        base = TriangularContext(family[0].ring if family else G.ring)
    if B is None:
        B = GoodRankMatrix(max(len(family), 1), len(xvars))
    fam = [p.to_ering().with_vars(merge_vars(p.vars, xvars)) for p in family]
    G = G.to_ering().with_vars(merge_vars(G.vars, xvars))
    k = len(xvars)
    s = len(fam)
    base = base.to_ering()
    gamma = fresh_infinitesimal(base, fam, G)
    gam = InfElem.sym(gamma)
    d = max((p.total_degree_in(xvars) for p in fam), default=0) + 1
    if d % 2 == 1:
        d += 1
    zvar = "Zv_"
    values = []
    for csize in range(0, min(s, k) + 1):
        for I in combinations(range(s), csize):
            for sigma in product((1, -1), repeat=csize):
                pert = []
                for pos, i in enumerate(I):
                    Hi = B.h_poly(i + 1, xvars, d, ring=ERING)
                    pert.append(fam[i] + Hi.with_vars(fam[i].vars).scale(gam * sigma[pos]))
                system = crit_minor_system(pert, G, 0, xvars)
                zpoly = MPoly.var(ERING, merge_vars(G.vars, (zvar,)), zvar)
                system = [p.with_vars(merge_vars(p.vars, (zvar,))) for p in system]
                system.append(G.with_vars(merge_vars(G.vars, (zvar,))) - zpoly)
                elims = eliminate_to(system, {zvar} | set(base.tvars),
                                     list(xvars) + [zvar], budget,
                                     "pseudo-critical values")
                elims = [p for p in elims if not p.is_zero() and p.degree(zvar) > 0]
                if not elims:
                    continue
                f = min(elims, key=lambda p: p.degree(zvar))
                for fac, _m in factor_mpoly(f):
                    if fac.degree(zvar) == 0:
                        continue
                    fz = fac.subst({zvar: MPoly.var(ERING, (zvar,), zvar)}) \
                        if tuple(fac.used_vars()) != (zvar,) else fac
                    for enc in thom_encodings(fz, zvar, base):
                        lim = limit_thom(enc, gamma)
                        if lim is not None:
                            values.append(lim)
    return _sorted_unique_positions(values)[0]


# ---------------------------------------------------------------------------
# closest point / closest pairs


def closest_point(P, Q, u: RealUnivRep, base: TriangularContext = None,
                  budget=DEFAULT_BUDGET, seed=0):
    """MinDi(Bas(P,Q), {x}): the critical points of the squared distance
    to u's point on Z(P, Q') for every subset Q' of Q, filtered to the basic
    set.  Each is sampled from critloci.crit_minor_system(P + Q', G, 0, x)
    with G = sum g0*x_i^2/2 - g_i*x_i: half the squared distance to the
    point (g_i/g0), times g0 to clear its denominator, which leaves the
    critical points alone.  Output representations live over the same base
    as u."""
    base = base if base is not None else u.base
    ctx_plus = u.extended_context()
    xvars = tuple(u.xvars)
    out = []
    g0 = u.F[0]
    allv = merge_vars(g0.vars, xvars)
    G = MPoly.zero(g0.ring, allv)
    for v, gi in zip(xvars, u.F[1:]):
        x = MPoly.var(g0.ring, allv, v)
        G = G + (x * x * g0.with_vars(allv)).scale(QQ(1, 2)) - x * gi.with_vars(allv)
    for qsize in range(len(Q) + 1):
        for qsel in combinations(range(len(Q)), qsize):
            eqs = [p.with_vars(merge_vars(p.vars, xvars)) for p in P] + \
                  [Q[i].with_vars(merge_vars(Q[i].vars, xvars)) for i in qsel]
            system = crit_minor_system(eqs, G, 0, xvars)
            # critical sets can be positive-dimensional in degenerate
            # configurations: sampling meets each of their components
            pts = sample_components(system, context=ctx_plus, xvars=xvars,
                                    budget=budget, seed=seed)
            for w in pts:
                if all(rur_sign(w, Q[i]) >= 0 for i in range(len(Q))):
                    out.append(flatten_rur(w, base.nlevels))
    return dedupe_points(out)


def closest_pairs(P1, Q1, P2, Q2, base: TriangularContext = None, xvars=None,
                  budget=DEFAULT_BUDGET, seed=0):
    """MinDi(Bas(P1,Q1), Bas(P2,Q2)): projections of the critical pairs of
    the squared distance on the product, plus samples of the diagonal
    intersection (contained in the minimizer set since F = 0 is a global
    minimum there).  The pairs solve critloci.crit_minor_system on each
    product branch with G = sum (x_i - y_i)^2/2, half the squared distance
    between the two points."""
    if base is None:
        ring = (P1 or P2 or Q1 or Q2)[0].ring
        base = TriangularContext(ring)
    if xvars is None:
        xv = []
        for p in list(P1) + list(Q1) + list(P2) + list(Q2):
            for v in p.vars:
                if v not in base.tvars and v not in xv:
                    xv.append(v)
        xvars = tuple(xv)
    yvars = tuple(f"{v}_b" for v in xvars)
    out = []

    def rename(p):
        return p.subst({v: MPoly.var(p.ring, yvars, w) for v, w in zip(xvars, yvars) if v in p.vars})

    P2r = [rename(p) for p in P2]
    Q2r = [rename(p) for p in Q2]
    allv = xvars + yvars
    ring = (P1 or P2)[0].ring
    # half the squared distance between the two points
    G = MPoly.zero(ring, allv)
    for v, w in zip(xvars, yvars):
        dd = MPoly.var(ring, allv, v) - MPoly.var(ring, allv, w)
        G = G + (dd * dd).scale(QQ(1, 2))
    # Rabinowitsch saturation removes the (positive-dimensional) diagonal
    # X = Y from the critical-pair systems; the diagonal itself is sampled
    # separately below.  Both sides are factor-split first so the Jacobian
    # minors are built from the branch factors, not the products.
    wvar = "wsat_"
    satv = allv + (wvar,)
    saturation = MPoly.var(ring, satv, wvar) * G.with_vars(satv).scale(2) - MPoly.const(ring, satv, 1)
    x_branches = split_branches([p.with_vars(merge_vars(p.vars, allv)) for p in P1], budget) if P1 else [[]]
    y_branches = split_branches([p.with_vars(merge_vars(p.vars, allv)) for p in P2r], budget) if P2r else [[]]

    def unrename(p):
        back = {w: MPoly.var(p.ring, xvars, v) for v, w in zip(xvars, yvars) if w in p.vars}
        return p.subst(back) if back else p

    for q1size in range(len(Q1) + 1):
        for q1sel in combinations(range(len(Q1)), q1size):
            for q2size in range(len(Q2) + 1):
                for q2sel in combinations(range(len(Q2)), q2size):
                  for bx in x_branches:
                    for by in y_branches:
                        if q1sel == q2sel and frozenset(bx) == frozenset(map(unrename, by)):
                            # identical piece against itself: every needed
                            # minimizer lies on the diagonal, sampled below
                            continue
                        eqs = list(bx) + \
                            [Q1[i].with_vars(merge_vars(Q1[i].vars, allv)) for i in q1sel] + \
                            list(by) + \
                            [Q2r[i].with_vars(merge_vars(Q2r[i].vars, allv)) for i in q2sel]
                        system = crit_minor_system(eqs, G, 0, allv)
                        system = [p.with_vars(merge_vars(p.vars, satv)) for p in system] + [saturation]
                        for w in solve_system(system, satv, context=base, budget=budget, seed=seed):
                            ok1 = all(rur_sign(w, Q1[i].with_vars(merge_vars(Q1[i].vars, allv))) >= 0
                                      for i in range(len(Q1)))
                            ok2 = all(rur_sign(w, rename(Q2[i]).with_vars(merge_vars(rename(Q2[i]).vars, allv))) >= 0
                                      for i in range(len(Q2)))
                            if ok1 and ok2:
                                out.extend([w.project(xvars), w.project(yvars, xvars)])
    # diagonal: components of the intersection are minimizers at distance 0
    inter = []
    for p in list(P1) + list(P2):
        if all(not (p == q) for q in inter):
            inter.append(p)
    if inter:
        for w in sample_components(inter, context=base, xvars=xvars, budget=budget, seed=seed):
            if all(rur_sign(w, q) >= 0 for q in list(Q1) + list(Q2)):
                out.append(w)
    return dedupe_points(out)
