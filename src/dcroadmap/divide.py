"""The central Divide step: from one node's basic set, the deformed system,
its critical data, the distinguished points, the fiber coordinates, the fiber
anchors, and the chart children."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .critloci import GoodRankMatrix, charts, crit_minor_system, crit_system, sweep_poly, tilde_system
from .errors import ResourceBudgetError, SeparationError
from .mpoly import ERING, MPoly, fresh_var
from .optimsub import closest_pairs, closest_point, pseudo_critical_values
from .points import (
    dedupe_points,
    flatten_rur,
    join,
    numerator_at,
    points_equal,
    rur_sign,
    sample_components,
)
from .realroots import _ext_context_for


@dataclass
class DivideOutput:
    Ptilde: list
    Qtilde: list
    Atilde: list
    N: list
    B: dict  # N-index -> list of fiber anchors over the fiber context
    fibers: list  # N-index -> the fiber context: the base extended by w's root
    charts: list  # (ChartIndex, P0, Q0, A_alpha)


def _bas_member(u, Qs):
    return all(rur_sign(u, q) >= 0 for q in Qs)


def divide(node, budget, seed) -> DivideOutput:
    """Algorithm Divide, steps 1-8, on a tree node's basic set Bas(P, Q)
    over its base, with its anchors A, free variables xvars and kprime;
    errors carry the node path."""
    if len(node.Q) != len(node.s) - sum(1 for b in node.s if b == 1):
        raise ValueError("card(Q) must equal level - card(fix(s))")
    try:
        return _divide(node.s, node.base, node.P, node.Q, node.A, node.xvars, node.kprime,
                       budget, seed)
    except (ResourceBudgetError, SeparationError, ArithmeticError, ValueError) as e:
        path = "".join(str(b) for b in node.s) or "root"
        raise ResourceBudgetError(str(e), node_path=path) from e


def _divide(s, base, P, Q, A, xvars, kprime, budget, seed) -> DivideOutput:
    t = len(s)
    level = t + 1
    p = kprime // (2 ** t)
    ell = p // 2
    d = max((pol.total_degree_in(xvars) for pol in list(P) + list(Q)), default=1)
    d = max(d, 1)
    G = sweep_poly(d, len(xvars), xvars)
    Ptilde, Qtilde = tilde_system(P, Q, p, level, xvars, d=d)
    e_base = base.to_ering()

    # Step 2: the finite G-critical set of Bas(P~, Q~), by subsets of Q~
    M_tilde = []
    for qsize in range(len(Qtilde) + 1):
        for qsel in combinations(range(len(Qtilde)), qsize):
            fam = list(Ptilde) + [Qtilde[i] for i in qsel]
            if not fam:
                continue
            system = crit_minor_system(fam, G.to_ering(), 0, xvars)
            M_tilde.extend(sample_components(system, context=e_base, xvars=xvars,
                                             budget=budget, seed=seed))
    M_tilde = [u for u in dedupe_points(M_tilde) if _bas_member(u, Qtilde)]

    # Step 3: pseudo-critical values of {F} u Q~ in the (X, lambda) variables;
    # F is the product over subsets Q~' of the sums of squares of CritEq_ell
    F_prod = None
    run = 0
    for qsize in range(len(Qtilde) + 1):
        for qsel in combinations(range(len(Qtilde)), qsize):
            fam = list(Ptilde) + [Qtilde[i] for i in qsel]
            eqs, _lam_vars = crit_system(fam, G.to_ering(), ell, xvars,
                                         lambda_prefix=f"lm{run}_")
            run += 1
            ssq = None
            for e in eqs:
                ssq = e * e if ssq is None else ssq + e * e
            F_prod = ssq if F_prod is None else F_prod * ssq
    D0 = []
    if F_prod is not None:
        pc_vars = tuple(xvars) + tuple(v for v in F_prod.vars
                                       if v not in xvars and v not in base.tvars)
        # B = H_{card(Q)+1, k-Fix+card(P~)+card(Q~)+2}: rows for the family
        # {F} u Q~, one column per variable of the Lagrangian space plus one
        D0 = pseudo_critical_values([F_prod] + list(Qtilde), G.to_ering(), pc_vars,
                                    base=e_base, B=GoodRankMatrix(len(Q) + 1, len(pc_vars)),
                                    budget=budget)

    # Step 4: samples of the G = c slices for c in D0
    M0 = []
    for enc in D0:
        zname = fresh_var("Zc", set(base.tvars) | set(xvars))
        ctx_c = _ext_context_for(enc.renamed(zname))
        zval = MPoly.var(ERING, (zname,), zname)
        system = list(Ptilde) + [G.to_ering() - zval]
        pts = sample_components(system, context=ctx_c, xvars=xvars,
                                budget=budget, seed=seed)
        for u in pts:
            if _bas_member(u, Qtilde):
                M0.append(flatten_rur(u, e_base.nlevels))
    M0 = dedupe_points(M0)

    # Step 5: A~ and the fiber coordinates N
    Atilde = []
    for u in A:
        # an anchor lies over the node's base, so its base maps to e_base
        Atilde.extend(closest_point(Ptilde, Qtilde, u.to_ering(), base=e_base,
                                    budget=budget, seed=seed))
    Atilde.extend(closest_pairs(Ptilde, Qtilde, Ptilde, Qtilde, base=e_base,
                                xvars=xvars, budget=budget, seed=seed))
    Atilde = [u for u in dedupe_points(Atilde) if _bas_member(u, Qtilde)]

    N = []
    for u in M_tilde + M0 + Atilde:
        w = u.project(xvars[:ell])
        if not any(points_equal(w, v) for v in N):
            N.append(w)

    # Step 6: fiber anchors B(u) for each w in N
    B = {}
    fibers = []
    rest = list(xvars[ell:])
    for idx, w in enumerate(N):
        fiber_pts = []
        # w's root as the level Tf_<uvar>: a name that no point over the
        # base uses as its root variable
        ctx_w = _ext_context_for(w.root.renamed(f"Tf_{w.uvar}"))
        fibers.append(ctx_w)
        for qsize in range(len(Qtilde) + 1):
            for qsel in combinations(range(len(Qtilde)), qsize):
                fam = list(Ptilde) + [Qtilde[i] for i in qsel]
                if not fam:
                    continue
                system = crit_minor_system(fam, G.to_ering(), ell, xvars)
                sub = [_subst_block(pp, w, ctx_w) for pp in system]
                sub = [pp for pp in sub if not pp.is_zero()]
                pts = sample_components(sub, context=ctx_w, xvars=rest,
                                        budget=budget, seed=seed)
                for u2 in pts:
                    if all(rur_sign(u2, _subst_block(q, w, ctx_w)) >= 0 for q in Qtilde):
                        fiber_pts.append(u2)
        B[idx] = dedupe_points(fiber_pts)

    # Steps 7-8: charts and their anchor sets
    chs = charts(Ptilde, Qtilde, ell, G, level, xvars)
    chart_out = []
    for alpha, P0, Q0 in chs:
        A_alpha = []
        for idx, w in enumerate(N):
            for u2 in B[idx]:
                A_alpha.extend(closest_point(P0, Q0, join(w, u2), base=e_base,
                                             budget=budget, seed=seed))
        for beta, P0b, Q0b in chs:
            if beta is alpha:
                continue
            A_alpha.extend(closest_pairs(P0, Q0, P0b, Q0b, base=e_base,
                                         xvars=xvars, budget=budget, seed=seed))
        A_alpha = [u for u in dedupe_points(A_alpha) if _bas_member(u, Q0)]
        chart_out.append((alpha, P0, Q0, A_alpha))

    return DivideOutput(Ptilde, Qtilde, Atilde, N, B, fibers, chart_out)


def _subst_block(poly, w, ctx_w):
    """poly with the fiber coordinates substituted: w's coordinates, as
    rational functions of its root put on the last level of its fiber
    context ctx_w, with the denominator cleared."""
    tvar = ctx_w.tvars[-1]
    return numerator_at(w, poly).subst({w.uvar: MPoly.var(w.f.ring, (tvar,), tvar)})
