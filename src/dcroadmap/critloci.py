"""Critical-point systems and deformations: the sweep polynomial, the
good-rank Vandermonde matrices, single- and family-deformations, Lagrange
critical systems, the tilde system, and the minor-based charts."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .infring import QQ, InfElem, delta, eps, gamma, zeta
from .mpoly import ERING, QRING, JacobianSelector, MPoly, jac_minor


class GoodRankMatrix:
    """H_{N,k}: (N+1) x (k+1) integer matrix with h_{i,j} = j^(i+1).

    Every square submatrix drawn from columns 1..k is a generalized
    Vandermonde matrix, hence nonsingular (the constant column j=0 is not
    part of the rank property).  Row 0 may be overridden by b0 = (1,...,k)
    for the sweep polynomial."""

    def __init__(self, nrows_minus_1, k, row0_override=False):
        self.N = nrows_minus_1
        self.k = k
        self.rows = []
        for i in range(self.N + 1):
            if i == 0 and row0_override:
                self.rows.append([1] + [j for j in range(1, k + 1)])
            else:
                self.rows.append([j ** (i + 1) for j in range(0, k + 1)])

    def entry(self, i, j):
        return self.rows[i][j]

    def h_poly(self, i, variables, exponent, ring=QRING):
        """H_i = h_{i,0} + sum_j h_{i,j} X_j^exponent over the variable list."""
        out = MPoly.const(ring, variables, QQ(self.rows[i][0]))
        for j, v in enumerate(variables, start=1):
            out = out + MPoly.var(ring, variables, v, exponent).scale(QQ(self.rows[i][j]))
        return out


def sweep_poly(d, k, variables=None, ring=QRING):
    """G = G_{2d+2} = 1 + sum_i i*X_i^(2d+2)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    variables = tuple(variables) if variables else tuple(f"X{i}" for i in range(1, k + 1))
    out = MPoly.const(ring, variables, 1)
    for i, v in enumerate(variables[:k], start=1):
        out = out + MPoly.var(ring, variables, v, 2 * d + 2).scale(QQ(i))
    return out


def deform_single(Q, b, d, level=1, special=False):
    """Def(Q, zeta, b, d) = (1 - zeta) Q^2 - zeta (b0 + b1 X1^d + ... + bk Xk^d).

    With special=True uses b = (1,...,1) and d = 2 deg(Q) + 2."""
    variables = Q.vars
    if special:
        d = 2 * Q.total_degree() + 2
        b = [1] * (len(variables) + 1)
    z = MPoly.const(ERING, variables, InfElem.sym(zeta(level)))
    one = MPoly.const(ERING, variables, 1)
    Qe = Q.to_ering()
    tail = MPoly.const(ERING, variables, QQ(b[0]))
    for j, v in enumerate(variables, start=1):
        tail = tail + MPoly.var(ERING, variables, v, d).scale(QQ(b[j]))
    return (one - z) * Qe * Qe - z * tail


def crit_system(system, G, l, variables=None, lambda_prefix="lam"):
    """CritEq_l(P, G): the defining equations, the Lagrange equations for
    rows l+1..k, and the multiplier normalization, over (X, lam0..lamm)."""
    system = list(system)
    m = len(system)
    if variables is None:
        variables = G.vars
    variables = tuple(variables)
    k = len(variables)
    if not 0 <= l <= k:
        raise ValueError("l out of range")
    lam_vars = tuple(f"{lambda_prefix}{j}" for j in range(m + 1))
    allvars = variables + lam_vars
    ring = G.ring
    out = [p.with_vars(_merge(p.vars, allvars)) for p in system]
    for i in range(l, k):
        v = variables[i]
        acc = MPoly.zero(ring, allvars)
        for j, p in enumerate(system, start=1):
            lam = MPoly.var(ring, allvars, lam_vars[j])
            acc = acc + lam * p.deriv(v).with_vars(_merge(p.vars, allvars))
        lam0 = MPoly.var(ring, allvars, lam_vars[0])
        acc = acc - lam0 * G.deriv(v).with_vars(_merge(G.vars, allvars))
        out.append(acc)
    norm = MPoly.const(ring, allvars, -1)
    for j in range(m + 1):
        lam = MPoly.var(ring, allvars, lam_vars[j])
        norm = norm + lam * lam
    out.append(norm)
    return out, lam_vars


def _merge(a, b):
    return tuple(dict.fromkeys(list(a) + list(b)))


def crit_minor_system(system, G, l, variables):
    """Lambda-free description of the l-critical points: the defining
    equations plus all (m+1)x(m+1) minors of the Jacobian [grad G | grad P]
    restricted to rows l+1..k.  Same projected zero set as CritEq_l."""
    system = list(system)
    m = len(system)
    variables = tuple(variables)
    window = variables[l:]
    out = list(system)
    if len(window) < m + 1:
        return out
    for rows in combinations(window, m + 1):
        sel = JacobianSelector(list(rows), list(range(0, m + 1)))
        mv = jac_minor(G, system, sel)
        if not mv.is_zero():
            out.append(mv)
    return out


def tilde_system(P, Q, p, level, variables, d=None):
    """(P~, Q~) of the deformation to the special case.

    P1* = (1-zeta) sum P^2 + zeta(X_{p+1}^(2d+2)+...+X_k^(2d+2)
                                 + X_{p+1}^2+...+X_k^2),
    Pi* = d P1*/d X_{p+i} for 2 <= i <= k-p,
    P~i = (1-eps) Pi* - eps H_i,   Q~j = (1-delta) Qj + delta H_{k-p+j},
    where H_i uses rows of the good-rank matrix H_{k-p+card(Q),k} with
    exponent 2d+2."""
    variables = tuple(variables)
    k = len(variables)
    if not 1 <= p <= k:
        raise ValueError("p out of range")
    if d is None:
        d = max((pol.total_degree() for pol in list(P) + list(Q)), default=1)
    expo = 2 * d + 2
    z = MPoly.const(ERING, variables, InfElem.sym(zeta(level)))
    e = MPoly.const(ERING, variables, InfElem.sym(eps(level)))
    dl = MPoly.const(ERING, variables, InfElem.sym(delta(level)))
    one = MPoly.const(ERING, variables, 1)
    q = len(Q)
    H = GoodRankMatrix(k - p + q, k)

    sumsq = MPoly.zero(ERING, variables)
    for pol in P:
        pe = pol.to_ering().with_vars(variables)
        sumsq = sumsq + pe * pe
    tail = MPoly.zero(ERING, variables)
    for v in variables[p:]:
        tail = tail + MPoly.var(ERING, variables, v, expo) + MPoly.var(ERING, variables, v, 2)
    P1s = (one - z) * sumsq + z * tail
    Pstars = [P1s]
    for i in range(2, k - p + 1):
        Pstars.append(P1s.deriv(variables[p + i - 1]))
    Ptilde = []
    for i, Ps in enumerate(Pstars, start=1):
        Hi = H.h_poly(i, variables, expo, ring=ERING)
        Ptilde.append((one - e) * Ps - e * Hi)
    Qtilde = []
    for j, Qj in enumerate(Q, start=1):
        Hj = H.h_poly(k - p + j, variables, expo, ring=ERING)
        Qtilde.append((one - dl) * Qj.to_ering().with_vars(variables) + dl * Hj)
    return Ptilde, Qtilde


@dataclass(frozen=True)
class ChartIndex:
    """alpha = (Q~', r, J, J'): the subset of Q~ promoted to equations, the
    rank, the row subset of the variable window, the column subset of
    [0, m]."""

    qprime: tuple  # indices into Qtilde
    r: int
    J: tuple  # row variable names
    Jprime: tuple  # column indices into [0, m]


def charts(Ptilde, Qtilde, l, G, level, variables):
    """All charts alpha with P0(alpha), Q0(alpha) per the minors covering:
    P0 = P~ u Q~' u {jac(alpha,i,i')}, Q0 = Q~ u {jac(alpha)^2 - gamma}.

    Enumeration order is lexicographic in (|Q~'|, Q~', r, J, J') so tree
    shapes are reproducible."""
    variables = tuple(variables)
    k = len(variables)
    window = variables[l:]
    out = []
    g = MPoly.const(ERING, variables, InfElem.sym(gamma(level)))
    qn = len(Qtilde)
    for qsize in range(qn + 1):
        for qsel in combinations(range(qn), qsize):
            F = list(Ptilde) + [Qtilde[i] for i in qsel]
            m = len(F)
            Ge = G.to_ering().with_vars(variables)
            for r in range(0, m + 1):
                for J in combinations(window, r):
                    for Jp in combinations(range(0, m + 1), r):
                        sel = JacobianSelector(list(J), list(Jp))
                        jac_a = jac_minor(Ge, F, sel)
                        P0 = list(Ptilde) + [Qtilde[i] for i in qsel]
                        for i in window:
                            if i in J:
                                continue
                            for ip in range(0, m + 1):
                                if ip in Jp:
                                    continue
                                sel2 = JacobianSelector(list(J) + [i], list(Jp) + [ip])
                                P0.append(jac_minor(Ge, F, sel2))
                        Q0 = list(Qtilde) + [jac_a * jac_a - g]
                        out.append((ChartIndex(qsel, r, tuple(J), tuple(Jp)), P0, Q0))
    return out
