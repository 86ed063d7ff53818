"""Exact real-root machinery over ordered coefficient rings.

Tarski queries are computed from signed remainder sequences built with
positively-scaled pseudo-remainders, so every computation stays inside the
coefficient ring.  Univariate polynomials are dense coefficient lists over a
TriangularContext: with no levels the coefficients are rationals or
infinitesimal polynomials, otherwise MPolys in the context's triangular
variables.  They are combined with Python's number operators, and only the
context's sign at its fixed point (ctx.sign) is consulted.  One
pseudo-division loop, _pos_pdiv, serves the chains, the reductions modulo
P and the squarefree part.
This module is the only one that holds coefficient lists: every other
module passes MPolys in a variable and a context to its MPoly-level
entries, tarski_query_mpoly, thom_encodings, signs_at_encodings,
compare_roots, trimmed (the leading coefficients that vanish at the point
dropped), squarefree (the squarefree part at the point) and reduce_mod
(the remainder modulo a polynomial over the rationals), or asks a
TriangularContext for a sign (sign_mpoly).
Signs at the real roots of P come from sign determination (BPR ch. 10):
Der(P) is pushed once through the basis-growing method (never the full 3^s
matrix), which leaves one root per sign condition; from then on the signs
of any Q at the roots are the inverse of the adapted sign matrix applied to
Tarski queries, one matrix row per root.  At the root fixed by a level of a
triangular context, sign(root - q) for a rational q comes from the level's
Sturm chain evaluated at q.

One sign determination serves every root of P and every context that fixes
the same base point: it is built once per (base context, P) and kept in a
value-keyed BoundedCache, the one cache scheme of the package.  A context
is its own key: two contexts with the same ring and levels are equal.
A context extended by one encoded root is kept the same way, so equal roots
share one extension and its sign cache.
Every BoundedCache holds the work of one input only; per_input_caches
empties them all when the outermost entry-point call gets a new input.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass

from .errors import EmptyEncodingError
from .infring import QQ
from .mpoly import ERING, QRING, MPoly, der_list
from .symbridge import gcd

# ---------------------------------------------------------------------------
# value-keyed caches, scoped to one input


CACHE_BOUND = 1024

# every BoundedCache, so that a new input can empty them all
_CACHES = []


class _InputScope:
    """The input system of the outermost entry-point call in progress, or of
    the last one, and how deep entry-point calls are nested now."""

    depth = 0
    key = None


def per_input_caches(entry):
    """Decorate an entry point whose first argument is the input system (a
    polynomial or a list of them).  The outermost call on an input other than
    the previous outermost call's empties every BoundedCache first; nested
    calls never do.  The caches then share work within one input and across
    calls on that same input, but the cost of an input does not depend on what
    the process solved before it, and they hold one input's data."""

    @functools.wraps(entry)
    def scoped(system, *args, **kwargs):
        if _InputScope.depth == 0:
            key = tuple(system) if isinstance(system, (list, tuple)) else (system,)
            if key != _InputScope.key:
                for cache in _CACHES:
                    cache.clear()
                _InputScope.key = key
        _InputScope.depth += 1
        try:
            return entry(system, *args, **kwargs)
        finally:
            _InputScope.depth -= 1

    return scoped


class BoundedCache:
    """Least-recently-used map holding at most CACHE_BOUND entries.

    Keys are values (contexts, polynomials, signs and variable names, which
    all compare by value), so equal inputs built afresh hit the same entry.
    A key names a polynomial's ring where the cached value carries that
    polynomial, since polynomials equal in value compare equal across rings."""

    def __init__(self):
        self._data = OrderedDict()
        _CACHES.append(self)

    def get(self, key):
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key, value):
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > CACHE_BOUND:
            self._data.popitem(last=False)

    def __len__(self):
        return len(self._data)

    def clear(self):
        self._data.clear()


# MPoly coefficients take a gcd only from this many terms on, where chains
# start to grow; below it their rational content alone is stripped.
STRIP_MIN_TERMS = 60


def content_strip(ctx, coeffs):
    """Divide the coefficients of a chain element by a common factor that is
    positive at the point ctx fixes, so every sign count is kept: first their
    rational content, then their gcd from the sympy bridge (which takes in
    a common eta-monomial), made positive with ctx.sign.  Rational
    coefficients have only the content; MPoly coefficients take the gcd
    only from STRIP_MIN_TERMS terms on."""
    nz = [c for c in coeffs if c]
    if not nz:
        return coeffs
    scalar = not isinstance(nz[0], MPoly)
    polys = [MPoly.const(ctx.ring, (), c) for c in nz] if scalar else nz
    num, den = 0, 1
    for p in polys:
        for c in p.terms.values():
            for q in (c.terms.values() if p.ring is ERING else (c,)):
                num = math.gcd(num, int(q.numerator))
                den = den * int(q.denominator) // math.gcd(den, int(q.denominator))
    factor = QQ(den, num)
    coeffs = [c * factor if c else c for c in coeffs]
    if (scalar and ctx.ring is QRING) or (not scalar and sum(len(p.terms) for p in nz) < STRIP_MIN_TERMS):
        return coeffs
    g = gcd(polys)
    if g is None:
        return coeffs
    if scalar:
        g = g.const_value()
    sg = ctx.sign(g)
    if sg == 0:
        return coeffs
    if sg < 0:
        g = -g
    return [c / g if c else c for c in coeffs]


# ---------------------------------------------------------------------------
# univariate polynomials over a triangular context


def utrim_literal(cs):
    while len(cs) > 1 and not cs[-1]:
        cs = cs[:-1]
    return cs


def utrim(ctx, cs):
    """Drop leading coefficients that vanish at the context point."""
    cs = list(cs)
    while len(cs) > 1 and ctx.sign(cs[-1]) == 0:
        cs.pop()
    if len(cs) == 1 and ctx.sign(cs[0]) == 0:
        return [ctx.zero]
    return cs


def uis_zero(ctx, cs):
    return all(ctx.sign(c) == 0 for c in cs)


def uderiv(ctx, cs):
    if len(cs) <= 1:
        return [ctx.zero]
    return [cs[i] * i for i in range(1, len(cs))]


def umul(ctx, a, b):
    out = [ctx.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] = out[i + j] + ca * cb
    return utrim_literal(out)


def _pos_pdiv(ctx, A, B):
    """(Q, R) with c*A = Q*B + R, deg R < deg B, for c = lc(B)^e with e
    even, so Q and R are positive multiples of the true quotient and
    remainder at the context point; a monic B gives them exactly.  A and B
    must be ctx-trimmed, and deg A >= deg B."""
    n, m = len(A) - 1, len(B) - 1
    lc = B[-1]
    r = list(A)
    q = []  # highest degree first
    for i in range(n, m - 1, -1):
        # lc * r[i] - r[i] * lc is 0, so the leading term leaves r
        coef = r[i]
        r = [lc * x for x in r[:i]]
        q = [lc * x for x in q] + [coef]
        if coef:
            for j in range(m):
                r[i - m + j] = r[i - m + j] - coef * B[j]
    if len(q) % 2 == 1:
        r = [lc * x for x in r]
        q = [lc * x for x in q]
    return q[::-1], utrim_literal(r or [ctx.zero])


def sturm_chain(ctx, P, Q):
    """Signed remainder chain of (P, Q): successive elements are positive
    multiples of the classical signed remainders at the context point."""
    chain = [utrim(ctx, P)]
    q = utrim(ctx, Q)
    if uis_zero(ctx, q):
        return chain
    chain.append(q)
    while True:
        A, B = chain[-2], chain[-1]
        if len(B) == 1:
            break
        _Q, R = _pos_pdiv(ctx, A, B)
        R = [-c for c in R]
        R = content_strip(ctx, R)
        R = utrim(ctx, R)
        if uis_zero(ctx, R):
            break
        chain.append(R)
    return chain


def _sign_at_minus_inf(ctx, cs):
    s = ctx.sign(cs[-1])
    return s if (len(cs) - 1) % 2 == 0 else -s


def _sign_at_plus_inf(ctx, cs):
    return ctx.sign(cs[-1])


def _variations(signs):
    v = 0
    prev = 0
    for s in signs:
        if s != 0:
            if prev != 0 and s != prev:
                v += 1
            prev = s
    return v


def _variation_drop(ctx, chain):
    """Var(-inf) - Var(+inf) of a signed remainder chain."""
    lo = _variations([_sign_at_minus_inf(ctx, c) for c in chain])
    hi = _variations([_sign_at_plus_inf(ctx, c) for c in chain])
    return lo - hi


def tarski_query(ctx, P, Q):
    """#{x : P(x)=0, Q(x)>0} - #{x : P(x)=0, Q(x)<0}, roots counted once."""
    P = utrim(ctx, P)
    if uis_zero(ctx, P):
        raise ValueError("Tarski query of the zero polynomial")
    if len(P) == 1:
        return 0
    G = umul(ctx, uderiv(ctx, P), utrim(ctx, Q))
    return _variation_drop(ctx, sturm_chain(ctx, P, G))


def _sign_at_rational(ctx, cs, q):
    """Sign of the univariate polynomial cs at the rational q (Horner)."""
    v = cs[-1]
    for c in reversed(cs[:-1]):
        v = v * q + c
    return ctx.sign(v)


def pos_reduce(ctx, A, P):
    """A reduced mod P scaled by a positive constant (signs at roots of P are
    preserved)."""
    A = utrim(ctx, A)
    P = utrim(ctx, P)
    if len(A) < len(P):
        return A
    _q, r = _pos_pdiv(ctx, A, P)
    r = content_strip(ctx, r)
    return utrim(ctx, r)


# ---------------------------------------------------------------------------
# adaptive sign determination


def _inverse(matrix):
    """Inverse of an invertible square matrix of small ints (exact
    Gauss-Jordan elimination)."""
    n = len(matrix)
    a = [[QQ(x) for x in row] + [QQ(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            raise ArithmeticError("singular sign-determination matrix")
        a[c], a[piv] = a[piv], a[c]
        pc = a[c][c]
        a[c] = [x / pc for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


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
    """Sign determination at the real roots of P (BPR ch. 10).

    The constructor pushes Der(P) = (P', P'', ..., P^(p)); after that every
    realized condition in `conds` holds exactly one root (Thom's lemma), and
    `conds` lists the roots' derivative signs in increasing order of the
    roots.  The adapted matrix M (r x r, entries 0/+-1) then maps the sign
    vector sigma(Q) of any Q at the r roots to the Tarski queries
    TaQ(Q * prods[a], P):  M . sigma(Q) = t.  `signs` reads sigma(Q) off
    rows of M^-1.  `ders` is Der(P) without P, `chain` the Sturm chain of
    (P, P') that counts the roots (empty when P is a constant).

    One object serves every root of P and every context equal to ctx: build
    it only through shared_sign_determination.  It does not change after its
    constructor returns; the one thing that grows is `_query_cache`, the
    Tarski queries it has made, keyed by the product polynomial's
    coefficients, so sharing it changes no answer."""

    def __init__(self, ctx, P):
        self.ctx = ctx
        self.P = utrim(ctx, P)
        if uis_zero(ctx, self.P):
            raise ValueError("sign determination over the zero polynomial")
        self.chain = sturm_chain(ctx, self.P, uderiv(ctx, self.P)) if len(self.P) > 1 else []
        nroots = _variation_drop(ctx, self.chain) if self.chain else 0
        self.conds = [()] if nroots else []
        self.counts = [nroots] if nroots else []
        self.prods = [[ctx.one]]
        self.matrix = [[1]]
        self.inverse = [[QQ(1)]]
        self._query_cache = {}
        self.ders = []
        d = self.P
        while len(d) > 1:
            d = utrim(ctx, uderiv(ctx, d))
            self.ders.append(d)
        for d in self.ders:
            self._push(d)
        if any(c != 1 for c in self.counts):
            raise ArithmeticError("derivative sign conditions must isolate single roots")
        order = sorted(range(len(self.conds)), key=functools.cmp_to_key(
            lambda i, j: _thom_compare((0,) + self.conds[i], (0,) + self.conds[j])))
        self.conds = [self.conds[j] for j in order]
        self.matrix = [[row[j] for j in order] for row in self.matrix]
        self.inverse = [self.inverse[j] for j in order]

    def _taq(self, prod):
        key = tuple(prod)
        if key not in self._query_cache:
            self._query_cache[key] = tarski_query(self.ctx, self.P, prod)
        return self._query_cache[key]

    def _solve(self, Qr, roots):
        """(M^-1 t)[j] for j in roots, where t[a] = TaQ(Qr * prods[a], P),
        and the reduced products Qr * prods[a] by a.  Only the products and
        queries with a non-zero coefficient are made."""
        ctx = self.ctx
        prods = {}
        t = {}
        out = []
        for j in roots:
            v = 0
            for a, c in enumerate(self.inverse[j]):
                if c:
                    if a not in t:
                        prods[a] = pos_reduce(ctx, umul(ctx, self.prods[a], Qr), self.P)
                        t[a] = self._taq(prods[a])
                    v += c * t[a]
            out.append(v)
        return out, prods

    def signs(self, Q, roots=None):
        """Signs of Q at the roots with the given indices into `conds` (all
        roots by default), in that order."""
        roots = range(len(self.conds)) if roots is None else roots
        out, _prods = self._solve(pos_reduce(self.ctx, utrim(self.ctx, Q), self.P), roots)
        if any(s not in (-1, 0, 1) for s in out):
            raise ArithmeticError("sign determination gave a sign outside -1, 0, 1")
        return tuple(int(s) for s in out)

    def _push(self, Q):
        """Extend every realized condition by the sign of Q and rebuild the
        adapted basis; only the constructor calls it.  With
        x_e = M^-1 (TaQ(Q^e * prods[a], P))_a, the roots of condition j split
        into counts[j] - x_2[j] where Q = 0 and (x_2[j] +- x_1[j]) / 2 where
        Q > 0 and Q < 0."""
        ctx = self.ctx
        if not self.conds:
            return
        Qr = pos_reduce(ctx, utrim(ctx, Q), self.P)
        q2 = pos_reduce(ctx, umul(ctx, Qr, Qr), self.P)
        every = range(len(self.conds))
        x1, prods1 = self._solve(Qr, every)
        x2, prods2 = self._solve(q2, every)
        new_conds = []
        new_counts = []
        keep = []
        for j in every:
            split = ((0, self.counts[j] - x2[j]), (1, (x2[j] + x1[j]) / 2),
                     (-1, (x2[j] - x1[j]) / 2))
            for s, c in split:
                if c != 0:
                    if c < 0 or c != int(c):
                        raise ArithmeticError("root counts must be nonnegative integers")
                    new_conds.append(self.conds[j] + (s,))
                    new_counts.append(int(c))
                    keep.append((j, s))
        # rebuild an adapted basis: candidate rows are (old product, Q^e)
        cand_rows = []
        cand_prods = []
        for e, prods in enumerate((self.prods, prods1, prods2)):
            for a_idx in range(len(self.prods)):
                cand_rows.append([self.matrix[a_idx][j] * s ** e for (j, s) in keep])
                cand_prods.append(prods[a_idx])
        sel = _independent_rows(cand_rows, len(new_conds))
        self.conds = new_conds
        self.counts = new_counts
        self.prods = [cand_prods[idx] for idx in sel]
        self.matrix = [cand_rows[idx] for idx in sel]
        self.inverse = _inverse(self.matrix)


_SD_CACHE = BoundedCache()


def shared_sign_determination(ctx, P):
    """The SignDetermination of the ctx-trimmed P over ctx, built once per
    (context, P): the roots of P and the equal contexts that fix the same
    point share it."""
    key = (ctx, tuple(P))
    sd = _SD_CACHE.get(key)
    if sd is None:
        sd = SignDetermination(ctx, P)
        _SD_CACHE.put(key, sd)
    return sd


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

    def renamed(self, var):
        """The same root under the variable var, the name a context level
        fixes it as (itself when var is already its variable)."""
        if var == self.var:
            return self
        return ThomEncoding(self.context, var,
                            self.poly.subst({self.var: MPoly.var(self.poly.ring, (var,), var)}),
                            self.signs)

    def __repr__(self):
        return f"Thom({self.var}: {self.poly}; {''.join(_sgn_ch(s) for s in self.signs)})"


def _sgn_ch(s):
    return {1: "+", -1: "-", 0: "0"}[s]


class TriangularContext:
    """A triangular Thom encoding: coordinates fixed level by level.

    Level i fixes tvars[i] as a root (given by Thom signs) of a polynomial in
    tvars[:i+1].  The empty context (t = 0) represents the base ring.  Also
    serves as the sign oracle for MPolys in the triangular variables.

    Univariate work over the context has coefficients that are ring scalars
    when it has no levels and MPolys in tvars otherwise; `zero`, `one` and
    `sign` are the zero, the one and the sign at the fixed point of that
    coefficient kind.

    A context is a value: two with the same ring and levels are equal and
    hash alike, so a context is its own cache key."""

    def __init__(self, ring, levels=(), parent=None):
        self.ring = ring
        self.levels = tuple(levels)  # (var, poly MPoly, signs tuple)
        self.tvars = tuple(lv[0] for lv in self.levels)
        if self.levels:
            self.zero = MPoly.zero(ring, self.tvars)
            self.one = MPoly.const(ring, self.tvars, 1)
        else:
            self.zero, self.one = ring.zero, ring.one
        if parent is None and self.levels:
            parent = TriangularContext(ring, self.levels[:-1])
        # the context fixing all but the last level; prefixes walk up these
        # links, so every descendant shares its ancestors' sign caches
        self._parent = parent
        self._hash = None
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

    def map_polys(self, fn, ring):
        """The tower over ring whose level polynomials are fn of this one's,
        with the same variables and Thom signs."""
        out = TriangularContext(ring)
        for v, p, s in self.levels:
            out = out.extend(v, fn(p), s)
        return out

    def to_ering(self):
        """The same tower over the infinitesimal ring."""
        return self if self.ring is ERING else self.map_polys(MPoly.to_ering, ERING)

    def to_qring(self):
        """The same tower over the rationals, the inverse of to_ering; a
        level polynomial with an infinitesimal coefficient raises
        ValueError."""
        return self if self.ring is QRING else self.map_polys(MPoly.to_qring, QRING)

    @property
    def nlevels(self):
        return len(self.levels)

    # -- sign oracle

    def sign(self, c):
        """Sign at the fixed point of a coefficient of univariate work over
        this context."""
        return self.sign_mpoly(c) if self.levels else self.ring.sign(c)

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
        if p in self._sign_cache:
            return self._sign_cache[p]
        var, fpoly, signs = self.levels[-1]
        parent = self.prefix(self.nlevels - 1)
        pv = p.with_vars(self.tvars)
        if pv.degree(var) == 0:
            s = parent.sign_mpoly(_forget_var(pv, var, parent))
        else:
            s = self.level_solver().query(pv)
        self._sign_cache[p] = s
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

    def __eq__(self, other):
        if not isinstance(other, TriangularContext):
            return NotImplemented
        return self is other or (self.ring is other.ring and self.levels == other.levels)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.levels))
        return self._hash


def _forget_var(p, var, parent):
    return p.coeff_of(var, 0).with_vars(parent.tvars)


class _LevelSolver:
    """Cached sign queries at the deepest level of a context."""

    def __init__(self, context):
        self.context = context
        var, fpoly, signs = context.levels[-1]
        self.var = var
        self.signs = signs
        parent = context.prefix(context.nlevels - 1)
        self.parent = parent
        self.F = utrim(parent, _to_upoly(fpoly, var, parent))
        self.sd = shared_sign_determination(parent, self.F)
        nder = len(self.sd.ders)
        target = (tuple(signs[1:]) + (0,) * nder)[:nder]
        # the conditions are in increasing order, so the root's index is
        # how many real roots of F lie below it
        self.rank = next((i for i, cond in enumerate(self.sd.conds) if cond == target), None)
        if self.rank is None:
            raise EmptyEncodingError(f"no real root matches Thom signs {signs}")
        self.thom = (0,) + target
        self.var_minus_inf = _variations([_sign_at_minus_inf(parent, c) for c in self.sd.chain])

    def query(self, p):
        """Sign of MPoly p (involving the level variable) at the level root:
        one row of the inverse sign matrix."""
        up = utrim(self.parent, _to_upoly(p, self.var, self.parent))
        if len(up) == 1:
            return self.parent.sign(up[0])
        return self.sd.signs(up, [self.rank])[0]

    def sign_against(self, q):
        """Sign of (root - q) for a rational q.  By Sturm's theorem F has
        Var(-inf) - Var(q) roots below q when F(q) != 0; when q is a root
        of F, Thom's lemma orders the two roots by their derivative signs."""
        parent = self.parent
        signs = [_sign_at_rational(parent, c, q) for c in self.sd.chain]
        if signs[0] != 0:
            below = self.var_minus_inf - _variations(signs)
            return 1 if self.rank >= below else -1
        thom_q = (0,) + tuple(_sign_at_rational(parent, d, q) for d in self.sd.ders)
        return _thom_compare(self.thom, thom_q)


_EXT_CTX_CACHE = BoundedCache()


def _ext_context_for(enc: ThomEncoding):
    """The context of an encoding extended by its root, from a cache keyed
    by the encoding itself (its context, variable, polynomial and signs) and
    the polynomial's ring, which the extension's level carries: equal
    encodings built at different sites share one context and its sign
    cache."""
    key = (enc, enc.poly.ring)
    hit = _EXT_CTX_CACHE.get(key)
    if hit is None:
        hit = enc.context.extend(enc.var, enc.poly, enc.signs)
        _EXT_CTX_CACHE.put(key, hit)
    return hit


def _to_upoly(p, var, ctx):
    """MPoly -> dense coefficient list in var; coefficients become scalars
    when the context has no triangular variables."""
    cs = p.as_univariate(var)
    if ctx.nlevels == 0:
        return [c.const_value() if not c.is_zero() else ctx.zero for c in cs]
    return [c.with_vars(ctx.tvars) for c in cs]


def _from_upoly(cs, var, ctx):
    """Dense coefficient list in var -> MPoly in the context's variables and
    var."""
    variables = ctx.tvars if var in ctx.tvars else ctx.tvars + (var,)
    out = MPoly.zero(ctx.ring, variables)
    xv = MPoly.var(ctx.ring, variables, var)
    for c in reversed(cs):
        if not isinstance(c, MPoly):
            c = MPoly.const(ctx.ring, variables, c)
        out = out * xv + c.with_vars(variables)
    return out


# ---------------------------------------------------------------------------
# public operations (spec surface)


def tarski_query_mpoly(P, Q, var, context=None):
    """Tarski query of univariate MPolys over an optional triangular context."""
    context = context or TriangularContext(P.ring)
    return tarski_query(context, _to_upoly(P, var, context), _to_upoly(Q, var, context))


def trimmed(poly, var, ctx):
    """poly in var without the leading coefficients that vanish at the point
    ctx fixes, over ctx's variables and var; the zero polynomial when every
    coefficient vanishes there."""
    return _from_upoly(utrim(ctx, _to_upoly(poly, var, ctx)), var, ctx)


def squarefree(poly, var, ctx):
    """A positive multiple of the squarefree part of poly in var at the
    point ctx fixes: poly pseudo-divided by the last element of its Sturm
    chain with its derivative, their gcd there.  None when it is a
    constant."""
    A = utrim(ctx, _to_upoly(poly, var, ctx))
    if len(A) > 2:
        g = sturm_chain(ctx, A, uderiv(ctx, A))[-1]
        if len(g) > 1:
            q, _r = _pos_pdiv(ctx, A, g)
            A = utrim(ctx, content_strip(ctx, q))
    return None if len(A) == 1 else _from_upoly(A, var, ctx)


def reduce_mod(p, f, var, ctx):
    """p reduced modulo f in var, so its values at the roots of f are kept.

    Over a level-free rational context, where p and f are polynomials in
    var alone and f is not constant, this is the exact remainder: the
    pseudo-division by the monic f, whose leading coefficient 1 scales
    nothing.  Over any other context p is returned unreduced."""
    if ctx.nlevels > 0 or any(r is not QRING for r in (ctx.ring, p.ring, f.ring)):
        return p
    if p.degree(var) < f.degree(var):
        return p
    fc = _to_upoly(f, var, ctx)
    _q, r = _pos_pdiv(ctx, _to_upoly(p, var, ctx), [c / fc[-1] for c in fc])
    return _from_upoly(r, var, ctx).with_vars(p.vars)


def thom_encodings(P, var, context=None):
    """Thom encodings of all real roots of P, in increasing order."""
    return [enc for enc, _fam_signs in signs_at_encodings(P, [], var, context)]


def signs_at_encodings(P, family, var, context=None):
    """(ThomEncoding, family signs) pairs for all real roots of P, in
    increasing order.  The Thom signs cover Der(P) = (P, P', ..., P^(p))
    with entry 0 always 0; the family signs align with `family`."""
    context = context or TriangularContext(P.ring)
    up = utrim(context, _to_upoly(P, var, context))
    sd = shared_sign_determination(context, up)
    fam = [sd.signs(_to_upoly(q, var, context)) for q in family]
    Pn = _from_upoly(up, var, context)
    return [(ThomEncoding(context, var, Pn, (0,) + cond), tuple(s[i] for s in fam))
            for i, cond in enumerate(sd.conds)]


def compare_roots(a, b):
    """Order of the real numbers encoded by a and b: -1, 0, or +1.  The
    signs of Der(b.poly) at a's root are read in the context a's root
    extends (the shared extension), and Thom's lemma orders the two roots."""
    if a.context != b.context:
        raise ValueError("compare_roots requires a common context")
    if a.var == b.var and a.poly == b.poly:
        if a.signs == b.signs:
            return 0
        return _thom_compare(a.signs, b.signs)
    bp = b.poly
    if b.var != a.var:
        bp = bp.subst({b.var: MPoly.var(bp.ring, (a.var,), a.var)})
    ders = der_list(bp, a.var)
    at_a = _ext_context_for(a)
    bsigns = [at_a.sign_mpoly(d) for d in ders]
    width = max(len(bsigns), len(b.signs))
    av = tuple(bsigns) + (0,) * (width - len(bsigns))
    bv = tuple(b.signs) + (0,) * (width - len(b.signs))
    if av == bv:
        return 0
    return _thom_compare(av, bv)


def _sorted_unique_positions(encs):
    """(the encoded values in increasing order, one encoding per value: the
    first of each value's encodings in encs, since the sort is stable; the
    index in it of the value of each of encs, in encs' order): both from
    the one sort."""
    order = sorted(range(len(encs)),
                   key=functools.cmp_to_key(lambda i, j: compare_roots(encs[i], encs[j])))
    out, at = [], [0] * len(encs)
    for i in order:
        if not out or compare_roots(out[-1], encs[i]) != 0:
            out.append(encs[i])
        at[i] = len(out) - 1
    return out, at
