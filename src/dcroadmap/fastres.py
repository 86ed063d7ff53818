"""Exact resultants by evaluation and Newton interpolation.

The resultant of two polynomials in `var` is the determinant of their
Sylvester matrix, a polynomial in the remaining variables (infinitesimal
symbols included, treated as variables).  Specialization commutes with the
determinant, so evaluating the matrix entries at rational nodes and
interpolating is exact; the per-variable degree bound is the Sylvester
row-sum bound, which is rigorous.  The library computes its resultants
with mpoly.resultant and imports nothing from here; the module stays only
because perfbench/tracing.py times both functions by name."""

from __future__ import annotations

from .errors import ResourceBudgetError
from .infring import QQ
from .mpoly import QRING, MPoly, flatten_eta, unflatten_eta


def _det_bareiss_qq(mat):
    n = len(mat)
    a = [row[:] for row in mat]
    sign = 1
    prev = QQ(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return QQ(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) / prev
            a[i][k] = QQ(0)
        prev = a[k][k]
    return a[n - 1][n - 1] * sign


def _nodes(n):
    out = [0]
    t = 1
    while len(out) < n:
        out.append(t)
        if len(out) < n:
            out.append(-t)
        t += 1
    return [QQ(v) for v in out]


def sylvester_resultant_interp(p, q, var, budget_nodes=400000):
    """Resultant of p, q in var via interpolation over all other variables
    (exact).  Inputs may be over either coefficient ring."""
    p, q = MPoly.align(p, q)
    ring = p.ring
    (pf, qf), idxs = flatten_eta([p, q])
    dp, dq = pf.degree(var), qf.degree(var)
    if dp == 0 and dq == 0:
        raise ValueError("both polynomials constant in the variable")
    if pf.is_zero() or qf.is_zero():
        return MPoly.zero(ring, p.vars)
    if dp == 0:
        return unflatten_eta(pf ** dq, ring, idxs)
    if dq == 0:
        return unflatten_eta(qf ** dp, ring, idxs)
    others = [v for v in pf.vars
              if v != var and (pf.degree(v) > 0 or qf.degree(v) > 0)]
    bounds = {}
    total = 1
    for w in others:
        bounds[w] = dq * pf.degree(w) + dp * qf.degree(w)
        total *= bounds[w] + 1
    if total > budget_nodes:
        raise ResourceBudgetError(
            f"resultant interpolation needs {total} nodes (> {budget_nodes})")
    pc = [pf.coeff_of(var, e) for e in range(dp + 1)]
    qc = [qf.coeff_of(var, e) for e in range(dq + 1)]
    # order: interpolate small-degree variables at the outer levels
    others.sort(key=lambda w: bounds[w])

    def rec(vars_left, assign):
        if not vars_left:
            prow = [c.eval_rational(assign) for c in pc]
            qrow = [c.eval_rational(assign) for c in qc]
            size = dp + dq
            mat = []
            for i in range(dq):
                row = [QQ(0)] * size
                for j, cval in enumerate(reversed(prow)):
                    row[i + j] = cval
                mat.append(row)
            for i in range(dp):
                row = [QQ(0)] * size
                for j, cval in enumerate(reversed(qrow)):
                    row[i + j] = cval
                mat.append(row)
            return _det_bareiss_qq(mat)
        w = vars_left[0]
        rest = vars_left[1:]
        n = bounds[w] + 1
        xs = _nodes(n)
        ys = []
        for t in xs:
            assign[w] = t
            ys.append(rec(rest, assign))
        del assign[w]
        if not rest:
            coeffs = _newton_scalar(xs, ys)
            return ("poly", w, coeffs)
        # ys are ("poly", ...) trees; interpolate coefficientwise via dicts
        dicts = [_tree_to_dict(y, ()) for y in ys]
        keys = set()
        for d in dicts:
            keys |= set(d)
        out = {}
        for key in keys:
            vals = [d.get(key, QQ(0)) for d in dicts]
            cs = _newton_scalar(xs, vals)
            for e, c in enumerate(cs):
                if c != 0:
                    out[key + ((w, e),)] = c
        return ("dict", out)

    tree = rec(others, {})
    out_terms = {}
    if not others:
        val = tree
        if val != 0:
            out_terms[tuple(0 for _ in pf.vars)] = val
    else:
        d = _tree_to_dict(tree, ())
        for key, c in d.items():
            if c == 0:
                continue
            exps = [0] * len(pf.vars)
            for (w, e) in key:
                exps[pf.vars.index(w)] = e
            out_terms[tuple(exps)] = c
    return unflatten_eta(MPoly(QRING, pf.vars, out_terms), ring, idxs)


def _newton_scalar(xs, ys):
    n = len(xs)
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [QQ(0)] * n
    poly[0] = coef[n - 1]
    deg = 0
    for j in range(n - 2, -1, -1):
        new = [QQ(0)] * n
        for i in range(deg + 1):
            if poly[i] != 0:
                new[i + 1] += poly[i]
                new[i] -= poly[i] * xs[j]
        new[0] += coef[j]
        poly = new
        deg += 1
    return poly


def _tree_to_dict(tree, prefix):
    kind = tree[0]
    if kind == "poly":
        _k, w, coeffs = tree
        return {((w, e),): c for e, c in enumerate(coeffs) if c != 0}
    _k, d = tree
    return d


def subresultant1_interp(p, q, var, budget_nodes=400000):
    """The index-1 signed subresultant S_1 = A*var + B of p and q, computed
    as two interpolated determinant polynomials.  S_1 lies in the ideal
    (p, q); when it is nonzero and linear it pins var rationally."""
    p, q = MPoly.align(p, q)
    ring = p.ring
    (pf, qf), idxs = flatten_eta([p, q])
    m, n = pf.degree(var), qf.degree(var)
    if m < 2 or n < 2:
        raise ValueError("index-1 subresultant needs degrees >= 2")
    size = m + n - 2
    width = m + n - 1
    pc = [pf.coeff_of(var, e) for e in range(m + 1)]
    qc = [qf.coeff_of(var, e) for e in range(n + 1)]
    others = [v for v in pf.vars
              if v != var and (pf.degree(v) > 0 or qf.degree(v) > 0)]
    bounds = {}
    total = 1
    for w in others:
        bounds[w] = (n - 1) * pf.degree(w) + (m - 1) * qf.degree(w)
        total *= bounds[w] + 1
    if 2 * total > budget_nodes:
        raise ResourceBudgetError("subresultant1 interpolation over node budget")

    def build_rows(assign):
        prow = [c.eval_rational(assign) for c in pc]
        qrow = [c.eval_rational(assign) for c in qc]
        rows = []
        for i in range(n - 1):
            row = [QQ(0)] * width
            for j, cval in enumerate(reversed(prow)):
                row[i + j] = cval
            rows.append(row)
        for i in range(m - 1):
            row = [QQ(0)] * width
            for j, cval in enumerate(reversed(qrow)):
                row[i + j] = cval
            rows.append(row)
        return rows

    def det_for(assign, keep_col):
        rows = build_rows(assign)
        cols = list(range(size - 1)) + [keep_col]
        mat = [[row[c] for c in cols] for row in rows]
        return _det_bareiss_qq(mat)

    out_pair = []
    for keep_col in (width - 2, width - 1):  # coefficient of var^1, var^0
        def rec(vars_left, assign):
            if not vars_left:
                return det_for(assign, keep_col)
            w = vars_left[0]
            rest = vars_left[1:]
            xs = _nodes(bounds[w] + 1)
            ys = []
            for t in xs:
                assign[w] = t
                ys.append(rec(rest, assign))
            del assign[w]
            if not rest:
                return ("poly", w, _newton_scalar(xs, ys))
            dicts = [_tree_to_dict(y, ()) for y in ys]
            keys = set()
            for d in dicts:
                keys |= set(d)
            acc = {}
            for key in keys:
                cs = _newton_scalar(xs, [d.get(key, QQ(0)) for d in dicts])
                for e, c in enumerate(cs):
                    if c != 0:
                        acc[key + ((w, e),)] = c
            return ("dict", acc)

        ordered = sorted(others, key=lambda w: bounds[w])
        tree = rec(ordered, {})
        terms = {}
        if not others:
            if tree != 0:
                terms[tuple(0 for _ in pf.vars)] = tree
        else:
            for key, c in _tree_to_dict(tree, ()).items():
                if c == 0:
                    continue
                exps = [0] * len(pf.vars)
                for (w, e) in key:
                    exps[pf.vars.index(w)] = e
                terms[tuple(exps)] = c
        out_pair.append(MPoly(QRING, pf.vars, terms))
    A = unflatten_eta(out_pair[0], ring, idxs)
    B = unflatten_eta(out_pair[1], ring, idxs)
    xv = MPoly.var(ring, p.vars, var)
    return A * xv + B
