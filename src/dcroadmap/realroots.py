"""Exact real-root machinery over ordered coefficient rings.

Tarski queries are computed from signed remainder sequences built with
positively-scaled pseudo-remainders, so every computation stays inside the
coefficient ring (rationals, infinitesimal polynomials, or polynomials over a
triangular Thom encoding) and only the ring's sign operator is consulted.
At the root fixed by a level of a triangular context, sign(root - q) for a
rational q comes from the level's Sturm chain evaluated at q; every other
sign comes from adaptive sign determination (the basis-growing method,
never the full 3^s matrix).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import EmptyEncodingError
from .infring import QQ, InfElem
from .mpoly import ERING, QRING, MPoly, _exact_poly_div
from .symbridge import gcd

# ---------------------------------------------------------------------------
# coefficient-operation bundles


class ScalarOps:
    """Coefficients are bare ring elements (no triangular variables)."""

    def __init__(self, ring):
        self.ring = ring
        self.zero = ring.zero
        self.one = ring.one

    def is_lit_zero(self, c):
        return self.ring.is_zero(c)

    def add(self, a, b):
        return self.ring.add(a, b)

    def sub(self, a, b):
        return self.ring.add(a, self.ring.neg(b))

    def neg(self, a):
        return self.ring.neg(a)

    def mul(self, a, b):
        return self.ring.mul(a, b)

    def scale(self, a, q):
        return self.ring.mul(a, self.ring.from_rational(q))

    def exact_div(self, a, b):
        return self.ring.exact_div(a, b)

    def from_int(self, n):
        return self.ring.from_rational(QQ(n))

    def ctx_sign(self, c):
        return self.ring.sign(c)


class PolyOps:
    """Coefficients are MPolys in the triangular variables of a context
    prefix; signs are evaluated at the point the prefix fixes."""

    def __init__(self, context):
        self.context = context
        ring = context.ring
        self.ring = ring
        self.zero = MPoly.zero(ring, context.tvars)
        self.one = MPoly.const(ring, context.tvars, 1)

    def is_lit_zero(self, c):
        return c.is_zero()

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def scale(self, a, q):
        return a.scale(q)

    def exact_div(self, a, b):
        return _exact_poly_div(a, b)

    def from_int(self, n):
        return MPoly.const(self.ring, self.context.tvars, QQ(n))

    def ctx_sign(self, c):
        return self.context.sign_mpoly(c)


# MPoly coefficients take a gcd only from this many terms on, where chains
# start to grow; below it their rational content alone is stripped.
STRIP_MIN_TERMS = 60


def content_strip(ops, coeffs):
    """Divide the coefficients of a chain element by a common factor that is
    positive at the context point, so every sign count is kept: first their
    rational content, then their gcd from the sympy bridge (which takes in
    a common eta-monomial), made positive with ops.ctx_sign.  Rational
    coefficients have only the content; MPoly coefficients take the gcd
    only from STRIP_MIN_TERMS terms on."""
    nz = [c for c in coeffs if not ops.is_lit_zero(c)]
    if not nz:
        return coeffs
    scalar = not isinstance(nz[0], MPoly)
    polys = [MPoly.const(ops.ring, (), c) for c in nz] if scalar else nz
    num, den = 0, 1
    for p in polys:
        for c in p.terms.values():
            for q in (c.terms.values() if p.ring is ERING else (c,)):
                num = math.gcd(num, int(q.numerator))
                den = den * int(q.denominator) // math.gcd(den, int(q.denominator))
    factor = QQ(den, num)
    coeffs = [c if ops.is_lit_zero(c) else ops.scale(c, factor) for c in coeffs]
    if (scalar and ops.ring is QRING) or (not scalar and sum(len(p.terms) for p in nz) < STRIP_MIN_TERMS):
        return coeffs
    g = gcd(polys)
    if g is None:
        return coeffs
    if scalar:
        g = g.const_value()
    sg = ops.ctx_sign(g)
    if sg == 0:
        return coeffs
    if sg < 0:
        g = ops.neg(g)
    return [c if ops.is_lit_zero(c) else ops.exact_div(c, g) for c in coeffs]


# ---------------------------------------------------------------------------
# univariate polynomials over a coefficient-ops bundle


def utrim_literal(cs):
    while len(cs) > 1 and _lit_zero(cs):
        cs = cs[:-1]
    return cs


def _lit_zero(cs):
    c = cs[-1]
    return c.is_zero() if isinstance(c, (MPoly, InfElem)) else c == 0


def utrim(ops, cs):
    """Drop leading coefficients that vanish at the context point."""
    cs = list(cs)
    while len(cs) > 1 and ops.ctx_sign(cs[-1]) == 0:
        cs.pop()
    if len(cs) == 1 and ops.ctx_sign(cs[0]) == 0:
        return [ops.zero]
    return cs


def uis_zero(ops, cs):
    return all(ops.ctx_sign(c) == 0 for c in cs)


def uderiv(ops, cs):
    if len(cs) <= 1:
        return [ops.zero]
    return [ops.mul(ops.from_int(i), cs[i]) for i in range(1, len(cs))]


def umul(ops, a, b):
    out = [ops.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ops.is_lit_zero(ca):
            continue
        for j, cb in enumerate(b):
            if ops.is_lit_zero(cb):
                continue
            out[i + j] = ops.add(out[i + j], ops.mul(ca, cb))
    return utrim_literal(out)


def _pos_prem(ops, A, B):
    """R = positive_constant * rem(A, B) computed with pseudo-divisions whose
    accumulated multiplier lc(B)^e has e even, so R is a positive multiple of
    the true remainder at the context point.  A and B must be ctx-trimmed."""
    n, m = len(A) - 1, len(B) - 1
    lc = B[-1]
    r = list(A)
    steps = 0
    for i in range(n, m - 1, -1):
        coef = r[i]
        r = [ops.mul(lc, x) for x in r]
        steps += 1
        if not ops.is_lit_zero(coef):
            for j in range(m + 1):
                r[i - m + j] = ops.sub(r[i - m + j], ops.mul(coef, B[j]))
        r[i] = ops.zero
    if steps % 2 == 1:
        r = [ops.mul(lc, x) for x in r]
    r = r[:m] if m > 0 else [ops.zero]
    return utrim_literal(r)


def sturm_chain(ops, P, Q):
    """Signed remainder chain of (P, Q): successive elements are positive
    multiples of the classical signed remainders at the context point."""
    chain = [utrim(ops, P)]
    q = utrim(ops, Q)
    if uis_zero(ops, q):
        return chain
    chain.append(q)
    while True:
        A, B = chain[-2], chain[-1]
        if len(B) == 1:
            break
        R = _pos_prem(ops, A, B)
        R = [ops.neg(c) for c in R]
        R = content_strip(ops, R)
        R = utrim(ops, R)
        if uis_zero(ops, R):
            break
        chain.append(R)
    return chain


def _sign_at_minus_inf(ops, cs):
    s = ops.ctx_sign(cs[-1])
    return s if (len(cs) - 1) % 2 == 0 else -s


def _sign_at_plus_inf(ops, cs):
    return ops.ctx_sign(cs[-1])


def _variations(signs):
    v = 0
    prev = 0
    for s in signs:
        if s != 0:
            if prev != 0 and s != prev:
                v += 1
            prev = s
    return v


def _variation_drop(ops, chain):
    """Var(-inf) - Var(+inf) of a signed remainder chain."""
    lo = _variations([_sign_at_minus_inf(ops, c) for c in chain])
    hi = _variations([_sign_at_plus_inf(ops, c) for c in chain])
    return lo - hi


def tarski_query(ops, P, Q):
    """#{x : P(x)=0, Q(x)>0} - #{x : P(x)=0, Q(x)<0}, roots counted once."""
    P = utrim(ops, P)
    if uis_zero(ops, P):
        raise ValueError("Tarski query of the zero polynomial")
    if len(P) == 1:
        return 0
    G = umul(ops, uderiv(ops, P), utrim(ops, Q))
    return _variation_drop(ops, sturm_chain(ops, P, G))


def _sign_at_rational(ops, cs, q):
    """Sign of the univariate polynomial cs at the rational q (Horner)."""
    v = cs[-1]
    for c in reversed(cs[:-1]):
        v = ops.add(ops.scale(v, q), c)
    return ops.ctx_sign(v)


def pos_reduce(ops, A, P):
    """A reduced mod P scaled by a positive constant (signs at roots of P are
    preserved)."""
    A = utrim(ops, A)
    P = utrim(ops, P)
    if len(A) < len(P):
        return A
    r = _pos_prem(ops, A, P)
    r = content_strip(ops, r)
    return utrim(ops, r)


# ---------------------------------------------------------------------------
# adaptive sign determination


def _solve_int_system(rows, rhs):
    """Exact Gaussian elimination; rows x unknowns, entries small ints."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[QQ(x) for x in row] + [QQ(rhs[i])] for i, row in enumerate(rows)]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pc = a[r][c]
        a[r] = [x / pc for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            raise ArithmeticError("inconsistent sign-determination system")
    sol = [QQ(0)] * n
    for i, c in enumerate(piv_cols):
        sol[c] = a[i][n]
    return sol


def _independent_rows(matrix, need):
    """Indices of `need` linearly independent rows, preferring earlier rows."""
    chosen = []
    basis = []
    width = len(matrix[0])
    for idx, row in enumerate(matrix):
        v = [QQ(x) for x in row]
        for b in basis:
            lead, vec = b
            f = v[lead]
            if f != 0:
                v = [x - f * y for x, y in zip(v, vec)]
        lead = next((j for j in range(width) if v[j] != 0), None)
        if lead is None:
            continue
        v = [x / v[lead] for x in v]
        basis.append((lead, v))
        chosen.append(idx)
        if len(chosen) == need:
            return chosen
    raise ArithmeticError("could not find an invertible sign-determination basis")


class SignDetermination:
    """Incremental sign determination at the real roots of P.

    After `push`-ing polynomials, `conditions` holds one realized sign vector
    per subset of roots (counts attached); pushing Der(P) makes every
    condition correspond to exactly one root.  `chain` is the Sturm chain
    of (P, P') that counts the roots (empty when P is a constant)."""

    def __init__(self, ops, P):
        self.ops = ops
        self.P = utrim(ops, P)
        if uis_zero(ops, self.P):
            raise ValueError("sign determination over the zero polynomial")
        self.chain = sturm_chain(ops, self.P, uderiv(ops, self.P)) if len(self.P) > 1 else []
        self.nroots = _variation_drop(ops, self.chain) if self.chain else 0
        self.conds = [()] if self.nroots else []
        self.counts = [self.nroots] if self.nroots else []
        self.exps = [()]
        self.prods = [[ops.one]]
        self.matrix = [[1]]
        self._query_cache = {}

    def _taq(self, prod):
        key = _upoly_key(prod)
        if key not in self._query_cache:
            self._query_cache[key] = tarski_query(self.ops, self.P, prod)
        return self._query_cache[key]

    def push(self, Q, record=True):
        """Extend every realized condition by the sign of Q; returns the list
        of extended conditions (and updates state when record=True)."""
        ops = self.ops
        if not self.conds:
            return []
        Qr = pos_reduce(ops, utrim(ops, Q), self.P)
        q2 = pos_reduce(ops, umul(ops, Qr, Qr), self.P)
        ncond = len(self.conds)
        rows = []
        rhs = []
        unknown = [(j, s) for j in range(ncond) for s in (0, 1, -1)]
        for a_idx in range(len(self.exps)):
            t0 = sum(self.matrix[a_idx][j] * self.counts[j] for j in range(ncond))
            for e in (0, 1, 2):
                if e == 0:
                    rhs.append(t0)
                else:
                    prod = self.prods[a_idx]
                    prod = pos_reduce(ops, umul(ops, prod, Qr if e == 1 else q2), self.P)
                    rhs.append(self._taq(prod))
                row = []
                for (j, s) in unknown:
                    row.append(self.matrix[a_idx][j] * (s ** e if e else 1))
                rows.append(row)
        sol = _solve_int_system(rows, rhs)
        new_conds = []
        new_counts = []
        keep = []
        for u_idx, (j, s) in enumerate(unknown):
            c = sol[u_idx]
            if c != 0:
                if c < 0 or c != int(c):
                    raise ArithmeticError("root counts must be nonnegative integers")
                new_conds.append(self.conds[j] + (s,))
                new_counts.append(int(c))
                keep.append((j, s))
        if not record:
            return list(zip(new_conds, new_counts))
        # rebuild an adapted basis: candidate rows are (old exponent, e)
        cand_rows = []
        cand_meta = []
        for e in (0, 1, 2):
            for a_idx in range(len(self.exps)):
                row = [self.matrix[a_idx][j] * (s ** e if e else 1) for (j, s) in keep]
                cand_rows.append(row)
                cand_meta.append((a_idx, e))
        sel = _independent_rows(cand_rows, len(new_conds))
        new_exps = []
        new_prods = []
        new_matrix = []
        for idx in sel:
            a_idx, e = cand_meta[idx]
            new_exps.append(self.exps[a_idx] + (e,))
            base = self.prods[a_idx]
            if e == 0:
                pr = base
            else:
                pr = pos_reduce(ops, umul(ops, base, Qr if e == 1 else q2), self.P)
            new_prods.append(pr)
            new_matrix.append(cand_rows[idx])
        self.conds = new_conds
        self.counts = new_counts
        self.exps = new_exps
        self.prods = new_prods
        self.matrix = new_matrix
        return list(zip(new_conds, new_counts))


def _upoly_key(cs):
    out = []
    for c in cs:
        if isinstance(c, MPoly):
            out.append(("m", tuple(sorted(c.terms.items(), key=lambda kv: kv[0]))))
        elif isinstance(c, InfElem):
            out.append(("e", tuple(sorted(c.terms.items()))))
        else:
            out.append(("q", c))
    return tuple(out)


def sign_conditions(ops, P, family):
    """Ordered sign data at the real roots of P.

    Returns a list, one entry per real root in increasing order, of
    (thom_signs, family_signs): thom_signs covers Der(P) = (P, P', ..., P^(p))
    with entry 0 always 0; family_signs aligns with `family`."""
    P = utrim(ops, P)
    ders = []
    d = P
    while len(d) > 1:
        d = utrim(ops, uderiv(ops, d))
        ders.append(d)
    sd = SignDetermination(ops, P)
    if not sd.conds:
        return []
    for q in ders:
        sd.push(q)
    for q in family:
        sd.push(q)
    nder = len(ders)
    rows = []
    for cond, count in zip(sd.conds, sd.counts):
        if count != 1:
            raise ArithmeticError("derivative sign conditions must isolate single roots")
        thom = (0,) + cond[:nder]
        fam = cond[nder:]
        rows.append((thom, fam))
    rows.sort(key=functools.cmp_to_key(lambda a, b: _thom_compare(a[0], b[0])))
    return rows


def _thom_compare(sa, sb):
    """Order of two points given their sign vectors over Der(Q) for a common
    Q (entries 0..q).  Returns -1/0/+1."""
    if sa == sb:
        return 0
    jmax = max(j for j in range(len(sa)) if sa[j] != sb[j])
    if jmax + 1 >= len(sa):
        raise ArithmeticError("sign vectors differ at the constant derivative")
    s = sa[jmax + 1]
    if s == 0 or s != sb[jmax + 1]:
        raise ArithmeticError("invalid Thom data: ambiguous comparison")
    if (sa[jmax] < sb[jmax]) == (s > 0):
        return -1
    return 1


# ---------------------------------------------------------------------------
# Thom encodings and triangular contexts


@dataclass(frozen=True)
class ThomEncoding:
    """A real root of a univariate polynomial over a context, identified by
    the signs of all derivatives (signs[0] = 0)."""

    context: "TriangularContext"
    var: str
    poly: MPoly
    signs: tuple

    def degree(self):
        return self.poly.degree(self.var)

    def __repr__(self):
        return f"Thom({self.var}: {self.poly}; {''.join(_sgn_ch(s) for s in self.signs)})"


def _sgn_ch(s):
    return {1: "+", -1: "-", 0: "0"}[s]


class TriangularContext:
    """A triangular Thom encoding: coordinates fixed level by level.

    Level i fixes tvars[i] as a root (given by Thom signs) of a polynomial in
    tvars[:i+1].  The empty context (t = 0) represents the base ring.  Also
    serves as the sign oracle for MPolys in the triangular variables."""

    def __init__(self, ring, levels=(), parent=None):
        self.ring = ring
        self.levels = tuple(levels)  # (var, poly MPoly, signs tuple)
        self.tvars = tuple(lv[0] for lv in self.levels)
        if parent is None and self.levels:
            parent = TriangularContext(ring, self.levels[:-1])
        # the context fixing all but the last level; prefixes walk up these
        # links, so every descendant shares its ancestors' sign caches
        self._parent = parent
        self._key = None
        self._solver = None
        self._sign_cache = {}

    # -- construction

    def extend(self, var, poly, signs):
        if var in self.tvars:
            raise ValueError(f"variable {var} already fixed")
        return TriangularContext(self.ring, self.levels + ((var, poly, signs),), self)

    def prefix(self, n):
        ctx = self
        while ctx.nlevels > n:
            ctx = ctx._parent
        return ctx

    def to_ering(self):
        """The same tower over the infinitesimal ring."""
        if self.ring is ERING:
            return self
        out = TriangularContext(ERING)
        for v, p, s in self.levels:
            out = out.extend(v, p.to_ering(), s)
        return out

    @property
    def nlevels(self):
        return len(self.levels)

    def ops(self):
        """Coefficient ops for univariate work over this context."""
        if self.nlevels == 0:
            return ScalarOps(self.ring)
        return PolyOps(self)

    # -- sign oracle

    def sign_mpoly(self, p):
        """Sign of p (an MPoly over ring in a subset of tvars) at the fixed
        point."""
        used = p.used_vars() - set(self.tvars)
        if used:
            raise ValueError(f"un-fixed variables {used} in sign evaluation")
        if p.is_zero():
            return 0
        if p.is_const():
            return self.ring.sign(p.const_value())
        key = (p.vars, _mpoly_key(p))
        if key in self._sign_cache:
            return self._sign_cache[key]
        var, fpoly, signs = self.levels[-1]
        parent = self.prefix(self.nlevels - 1)
        pv = p.with_vars(self.tvars)
        if pv.degree(var) == 0:
            s = parent.sign_mpoly(_forget_var(pv, var, parent))
        else:
            s = self.level_solver().query(pv)
        self._sign_cache[key] = s
        return s

    def level_solver(self):
        """Sign oracle at the root the last level fixes."""
        if self._solver is None:
            self._solver = _LevelSolver(self)
        return self._solver

    def __repr__(self):
        if not self.levels:
            return f"TriangularContext({self.ring.name})"
        parts = [f"{v}: root of {p}" for v, p, s in self.levels]
        return "TriangularContext(" + "; ".join(parts) + ")"

    def key(self):
        """Value key of the levels (the ring is not part of it)."""
        if self._key is None:
            self._key = tuple((v, p.vars, _mpoly_key(p), s) for v, p, s in self.levels)
        return self._key


def _forget_var(p, var, parent):
    return p.coeff_of(var, 0).with_vars(parent.tvars)


def _mpoly_key(p):
    return tuple(sorted(((m, _coeff_key(c)) for m, c in p.terms.items()), key=lambda kv: kv[0]))


def _coeff_key(c):
    if isinstance(c, InfElem):
        return tuple(sorted(c.terms.items()))
    return c


class _LevelSolver:
    """Cached sign queries at the deepest level of a context."""

    def __init__(self, context):
        self.context = context
        var, fpoly, signs = context.levels[-1]
        self.var = var
        self.signs = signs
        parent = context.prefix(context.nlevels - 1)
        self.parent = parent
        self.ops = parent.ops()
        self.F = utrim(self.ops, _to_upoly(fpoly, var, parent))
        self.sd = SignDetermination(self.ops, self.F)
        ders = []
        d = self.F
        while len(d) > 1:
            d = utrim(self.ops, uderiv(self.ops, d))
            ders.append(d)
        self.ders = ders
        self.nder = len(ders)
        for q in ders:
            self.sd.push(q)
        target = tuple(signs[1:])
        if len(target) < self.nder:
            target = target + (0,) * (self.nder - len(target))
        self.row = None
        for i, cond in enumerate(self.sd.conds):
            if cond[: self.nder] == target[: self.nder]:
                self.row = i
                break
        if self.row is None:
            raise EmptyEncodingError(f"no real root matches Thom signs {signs}")
        # Thom signs of the root, and how many real roots of F lie below it
        self.thom = (0,) + self.sd.conds[self.row]
        self.rank = sum(1 for cond in self.sd.conds if _thom_compare((0,) + cond, self.thom) < 0)
        self.var_minus_inf = _variations([_sign_at_minus_inf(self.ops, c) for c in self.sd.chain])

    def query(self, p):
        """Sign of MPoly p (involving the level variable) at the level root."""
        up = utrim(self.ops, _to_upoly(p, self.var, self.parent))
        if len(up) == 1:
            return self.ops.ctx_sign(up[0])
        ext = self.sd.push(up, record=False)
        matched = [cond[-1] for (cond, _cnt) in ext if cond[:-1] == self.sd.conds[self.row]]
        if len(matched) != 1:
            raise ArithmeticError("level sign query did not isolate the root")
        return matched[0]

    def sign_against(self, q):
        """Sign of (root - q) for a rational q.  By Sturm's theorem F has
        Var(-inf) - Var(q) roots below q when F(q) != 0; when q is a root
        of F, Thom's lemma orders the two roots by their derivative signs."""
        ops = self.ops
        signs = [_sign_at_rational(ops, c, q) for c in self.sd.chain]
        if signs[0] != 0:
            below = self.var_minus_inf - _variations(signs)
            return 1 if self.rank >= below else -1
        thom_q = (0,) + tuple(_sign_at_rational(ops, d, q) for d in self.ders)
        return _thom_compare(self.thom, thom_q)


def _to_upoly(p, var, parent_context):
    """MPoly -> dense coefficient list in var; coefficients become scalars
    when the parent context has no triangular variables."""
    cs = p.as_univariate(var)
    if parent_context.nlevels == 0:
        out = []
        for c in cs:
            c2 = c.coeff_of(var, 0) if var in c.vars else c
            out.append(c2.const_value() if not c2.is_zero() else parent_context.ring.zero)
        return out
    return [c.with_vars(parent_context.tvars) for c in cs]


def _from_upoly(cs, var, context, extra_vars=()):
    ring = context.ring
    variables = tuple(context.tvars) + tuple(v for v in extra_vars if v not in context.tvars)
    if var not in variables:
        variables = variables + (var,)
    out = MPoly.zero(ring, variables)
    xv = MPoly.var(ring, variables, var)
    for e in range(len(cs) - 1, -1, -1):
        c = cs[e]
        if not isinstance(c, MPoly):
            c = MPoly.const(ring, variables, c)
        out = out * xv + c.with_vars(variables)
    return out


# ---------------------------------------------------------------------------
# public operations (spec surface)


def tarski_query_mpoly(P, Q, var, context=None):
    """Tarski query of univariate MPolys over an optional triangular context."""
    context = context or TriangularContext(P.ring)
    ops = context.ops()
    return tarski_query(ops, _to_upoly(P, var, context), _to_upoly(Q, var, context))


def sign_determination(P, family, var, context=None):
    """Signs of every family member at each real root of P, roots in
    increasing order.  Returns a list of sign tuples aligned with family."""
    context = context or TriangularContext(P.ring)
    ops = context.ops()
    fam = [_to_upoly(q, var, context) for q in family]
    rows = sign_conditions(ops, _to_upoly(P, var, context), fam)
    return [fam_signs for (_thom, fam_signs) in rows]


def thom_encodings(P, var, context=None):
    """Thom encodings of all real roots of P, in increasing order."""
    context = context or TriangularContext(P.ring)
    ops = context.ops()
    up = utrim(ops, _to_upoly(P, var, context))
    rows = sign_conditions(ops, up, [])
    deg = len(up) - 1
    out = []
    Pn = _from_upoly(up, var, context)
    for thom, _ in rows:
        padded = thom + (0,) * (deg + 1 - len(thom))
        out.append(ThomEncoding(context, var, Pn, padded))
    return out


def signs_at_encodings(P, family, var, context=None):
    """(ThomEncoding, family signs) pairs for all real roots of P."""
    context = context or TriangularContext(P.ring)
    ops = context.ops()
    up = utrim(ops, _to_upoly(P, var, context))
    fam = [_to_upoly(q, var, context) for q in family]
    rows = sign_conditions(ops, up, fam)
    deg = len(up) - 1
    Pn = _from_upoly(up, var, context)
    out = []
    for thom, fam_signs in rows:
        padded = thom + (0,) * (deg + 1 - len(thom))
        out.append((ThomEncoding(context, var, Pn, padded), fam_signs))
    return out


def _der_signs_of(enc, other_poly, other_var):
    """Sign vector of Der(other_poly) at enc's root, via joint sign
    determination at the roots of enc.poly."""
    ctx = enc.context
    ops = ctx.ops()
    upa = utrim(ops, _to_upoly(enc.poly, enc.var, ctx))
    upb_full = []
    cur = utrim(ops, _to_upoly(other_poly, other_var, ctx))
    upb_full.append(cur)
    while len(cur) > 1:
        cur = utrim(ops, uderiv(ops, cur))
        upb_full.append(cur)
    rows = sign_conditions(ops, upa, upb_full)
    target = tuple(enc.signs[1:])
    for thom, fam in rows:
        t = thom[1:]
        w = min(len(t), len(target))
        if t[:w] == target[:w] and all(s == 0 for s in t[w:]) and all(s == 0 for s in target[w:]):
            return fam
    raise EmptyEncodingError("empty encoding: no root realizes the given Thom signs")


def compare_roots(a, b):
    """Order of the real numbers encoded by a and b: -1, 0, or +1."""
    if a.context.key() != b.context.key():
        raise ValueError("compare_roots requires a common context")
    if a.var == b.var and a.poly == b.poly:
        if a.signs == b.signs:
            return 0
        return _thom_compare(a.signs, b.signs)
    bp = b.poly
    if b.var != a.var:
        bp = bp.subst({b.var: MPoly.var(bp.ring, (a.var,), a.var)})
    bsigns = _der_signs_of(a, bp, a.var)
    width = max(len(bsigns), len(b.signs))
    av = tuple(bsigns) + (0,) * (width - len(bsigns))
    bv = tuple(b.signs) + (0,) * (width - len(b.signs))
    if av == bv:
        return 0
    return _thom_compare(av, bv)


def triangular_sign(h, tt):
    """Sign of the polynomial h at the point fixed by the triangular Thom
    encoding tt (spec op)."""
    return tt.sign_mpoly(h)
