"""Optimization-flavored subroutines: (B,G)-pseudo-critical values over a
triangular Thom encoding, and the closest-point / closest-pairs computations
via first-order systems for the squared-distance objective."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, product

from .critloci import GoodRankMatrix, crit_minor_system
from .errors import SeparationError
from .infring import InfElem, extra_symbol
from .mpoly import ERING, MPoly, determinant, merge_vars
from .points import (
    RealUnivRep,
    dedupe_points,
    flatten_rur,
    limit_thom,
    max_symbol_index,
    rur_from_raw,
    rur_sign,
    sample_components,
)
from .realroots import TriangularContext, compare_roots, thom_encodings
from .solve import DEFAULT_BUDGET, _fingerprint, eliminate_to, factor_mpoly, solve_system, split_branches


@dataclass
class PseudoCriticalRequest:
    family: list
    G: MPoly
    xvars: tuple
    base: TriangularContext = None
    B: GoodRankMatrix = None
    gamma_index: int = None
    budget: object = None
    seed: int = 0

    def __post_init__(self):
        if self.base is None:
            self.base = TriangularContext(self.family[0].ring if self.family else self.G.ring)
        if self.B is None:
            self.B = GoodRankMatrix(max(len(self.family), 1), len(self.xvars))
        if self.budget is None:
            self.budget = DEFAULT_BUDGET


def pseudo_critical_values(req: PseudoCriticalRequest):
    """A finite set of Thom encodings over the base containing every
    (B,G)-pseudo-critical value of the family.

    For each I subset of [1,s] (card <= k) and sign pattern sigma, the
    gamma-perturbed family P_i + gamma*sigma(i)*H_i is formed, the critical
    values of G on its zero set are eliminated into a univariate polynomial
    in the value variable, and the gamma-limits of its roots are collected.
    The output may strictly contain the pseudo-critical values (harmless for
    the slice property); unbounded branches are dropped by the limit step."""
    fam = [p.to_ering() for p in req.family]
    G = req.G.to_ering()
    xvars = tuple(req.xvars)
    k = len(xvars)
    s = len(fam)
    base = req.base.to_ering()
    gidx = req.gamma_index
    if gidx is None:
        gidx = max(max_symbol_index(base), max_symbol_index(fam), max_symbol_index(G), 0) + 1
    gam = InfElem.sym(extra_symbol(f"inf{gidx}", gidx))
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
                    Hi = req.B.h_poly(i + 1, xvars, d, ring=ERING)
                    pert.append(fam[i] + Hi.with_vars(fam[i].vars).scale(gam * sigma[pos]))
                system = crit_minor_system(pert, G, 0, xvars)
                zpoly = MPoly.var(ERING, merge_vars(G.vars, (zvar,)), zvar)
                system = [p.with_vars(merge_vars(p.vars, (zvar,))) for p in system]
                system.append(G.with_vars(merge_vars(G.vars, (zvar,))) - zpoly)
                elims = eliminate_to(system, {zvar} | set(base.tvars),
                                     list(xvars) + [zvar], req.budget,
                                     "pseudo-critical values")
                elims = [p for p in elims if not p.is_zero() and p.degree(zvar) > 0]
                if not elims:
                    continue
                f = min(elims, key=lambda p: p.degree(zvar))
                for fac, _m in factor_mpoly(f, req.budget):
                    if fac.degree(zvar) == 0:
                        continue
                    fz = fac.subst({zvar: MPoly.var(ERING, (zvar,), zvar)}) \
                        if tuple(fac.used_vars()) != (zvar,) else fac
                    for enc in thom_encodings(fz, zvar, base):
                        lim = limit_thom(enc, gidx)
                        if lim is not None:
                            values.append(lim)
    out = []
    for v in values:
        if all(compare_roots(v, w) != 0 for w in out):
            out.append(v)
    out.sort(key=_root_sort_key(out))
    return out


def _root_sort_key(roots):
    def cmp(a, b):
        return compare_roots(a, b)

    return functools.cmp_to_key(cmp)


# ---------------------------------------------------------------------------
# closest point / closest pairs


def _distance_first_order(system_eqs, grad_subst, xvars):
    """First-order conditions for the squared distance on Z(system): all
    (m+1)x(m+1) minors of [grad F | grad P_1 | ...] with the F-column given
    by grad_subst (denominators already cleared)."""
    m = len(system_eqs)
    out = list(system_eqs)
    if len(xvars) < m + 1:
        return out
    ring = system_eqs[0].ring if system_eqs else grad_subst[0].ring
    for rows in combinations(range(len(xvars)), m + 1):
        mat = []
        for r in rows:
            row = [grad_subst[r]] + [p.deriv(xvars[r]) for p in system_eqs]
            mat.append(row)
        aligned = []
        allv = mat[0][0].vars
        for row in mat:
            for x in row:
                allv = merge_vars(allv, x.vars)
        for row in mat:
            aligned.append([x.with_vars(allv) for x in row])
        mv = determinant(aligned)
        if not mv.is_zero():
            out.append(mv)
    return out


def _robust_points(system, xvars, context, budget, seed):
    """Verified points of the system: direct solve when it is
    zero-dimensional and a separating form is certified, component sampling
    otherwise (critical sets can be positive-dimensional in degenerate
    configurations).  Any other failure raises."""
    try:
        return [rur_from_raw(s) for s in
                solve_system(system, xvars, context=context, budget=budget, seed=seed)]
    except SeparationError:
        return sample_components(system, context=context, xvars=xvars,
                                 budget=budget, seed=seed)


def closest_point(P, Q, u: RealUnivRep, base: TriangularContext = None,
                  budget=DEFAULT_BUDGET, seed=0):
    """MinDi(Bas(P,Q), {x}): first-order critical points of the squared
    distance to u's point, over every active subset of Q, filtered to the
    basic set.  Output representations live over the same base as u."""
    base = base if base is not None else u.base
    ctx_plus = u.extended_context()
    xvars = tuple(u.xvars)
    out = []
    g0 = u.F[0]
    grads = []
    for i, v in enumerate(xvars, start=1):
        # gradient of F: 2(x_i - g_i/g0) -> column entry g0*X_i - g_i
        gi = u.F[i]
        col = MPoly.var(g0.ring, merge_vars(g0.vars, xvars), v) * g0.with_vars(merge_vars(g0.vars, xvars)) \
            - gi.with_vars(merge_vars(gi.vars, xvars))
        grads.append(col)
    for qsize in range(len(Q) + 1):
        for qsel in combinations(range(len(Q)), qsize):
            eqs = [p.with_vars(merge_vars(p.vars, xvars)) for p in P] + \
                  [Q[i].with_vars(merge_vars(Q[i].vars, xvars)) for i in qsel]
            system = _distance_first_order(eqs, grads, xvars)
            pts = _robust_points(system, xvars, ctx_plus, budget, seed)
            for w in pts:
                if all(rur_sign(w, Q[i]) >= 0 for i in range(len(Q))):
                    out.append(flatten_rur(w, base.nlevels))
    return dedupe_points(out)


def closest_pairs(P1, Q1, P2, Q2, base: TriangularContext = None, xvars=None,
                  budget=DEFAULT_BUDGET, seed=0):
    """MinDi(Bas(P1,Q1), Bas(P2,Q2)): projections of samples of the critical
    pairs of the squared distance on the product, plus samples of the
    diagonal intersection (contained in the minimizer set since F = 0 is a
    global minimum there)."""
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
    k = len(xvars)
    yvars = tuple(f"{v}_b" for v in xvars)
    out = []

    def rename(p):
        return p.subst({v: MPoly.var(p.ring, yvars, w) for v, w in zip(xvars, yvars) if v in p.vars})

    P2r = [rename(p) for p in P2]
    Q2r = [rename(p) for p in Q2]
    allv = xvars + yvars
    grads = []
    for i in range(k):
        dcol = MPoly.var((P1 or P2)[0].ring, allv, xvars[i]) - MPoly.var((P1 or P2)[0].ring, allv, yvars[i])
        grads.append(dcol)
    for i in range(k):
        grads.append(-grads[i])
    # Rabinowitsch saturation removes the (positive-dimensional) diagonal
    # X = Y from the critical-pair systems; the diagonal itself is sampled
    # separately below.  Both sides are factor-split first so the Jacobian
    # minors are built from the branch factors, not the products.
    wvar = "wsat_"
    ring = (P1 or P2)[0].ring
    satv = allv + (wvar,)
    dist2 = MPoly.zero(ring, satv)
    for i in range(k):
        dd = MPoly.var(ring, satv, xvars[i]) - MPoly.var(ring, satv, yvars[i])
        dist2 = dist2 + dd * dd
    saturation = MPoly.var(ring, satv, wvar) * dist2 - MPoly.const(ring, satv, 1)
    x_branches = split_branches([p.with_vars(merge_vars(p.vars, allv)) for p in P1], budget) if P1 else [[]]
    y_branches = split_branches([p.with_vars(merge_vars(p.vars, allv)) for p in P2r], budget) if P2r else [[]]

    def unrename(p):
        back = {w: MPoly.var(p.ring, xvars, v) for v, w in zip(xvars, yvars) if w in p.vars}
        return p.subst(back) if back else p

    def branch_key(polys, rename_back=False):
        ps = [unrename(p) for p in polys] if rename_back else list(polys)
        return frozenset(_fingerprint(p) for p in ps)
    for q1size in range(len(Q1) + 1):
        for q1sel in combinations(range(len(Q1)), q1size):
            for q2size in range(len(Q2) + 1):
                for q2sel in combinations(range(len(Q2)), q2size):
                  for bx in x_branches:
                    for by in y_branches:
                        if q1sel == q2sel and branch_key(bx) == branch_key(by, rename_back=True):
                            # identical piece against itself: every needed
                            # minimizer lies on the diagonal, sampled below
                            continue
                        eqs = list(bx) + \
                            [Q1[i].with_vars(merge_vars(Q1[i].vars, allv)) for i in q1sel] + \
                            list(by) + \
                            [Q2r[i].with_vars(merge_vars(Q2r[i].vars, allv)) for i in q2sel]
                        system = _distance_first_order(eqs, grads, list(xvars) + list(yvars))
                        system = [p.with_vars(merge_vars(p.vars, satv)) for p in system] + [saturation]
                        pts = [rur_from_raw(s) for s in
                               solve_system(system, satv, context=base, budget=budget, seed=seed)]
                        for w in pts:
                            ok1 = all(rur_sign(w, Q1[i].with_vars(merge_vars(Q1[i].vars, allv))) >= 0
                                      for i in range(len(Q1)))
                            ok2 = all(rur_sign(w, rename(Q2[i]).with_vars(merge_vars(rename(Q2[i]).vars, allv))) >= 0
                                      for i in range(len(Q2)))
                            if ok1 and ok2:
                                pi1 = RealUnivRep(w.base, w.uvar, w.f, w.sigma,
                                                  w.F[: k + 1], xvars)
                                pi2 = RealUnivRep(w.base, w.uvar, w.f, w.sigma,
                                                  (w.F[0],) + w.F[k + 1: 2 * k + 1], xvars)
                                out.extend([pi1, pi2])
    # diagonal: components of the intersection are minimizers at distance 0
    inter = []
    for p in list(P1) + list(P2):
        if all(not (p == q) for q in inter):
            inter.append(p)
    if inter:
        for w in _robust_points(inter, xvars, base, budget, seed):
            if all(rur_sign(w, q) >= 0 for q in list(Q1) + list(Q2)):
                out.append(w)
    return dedupe_points(out)
