"""Sparse multivariate polynomials over an exact coefficient ring.

The coefficient ring is either exact rationals (QRING) or the infinitesimal
ring (ERING); every algorithm is written against the ring operations plus
sign.  Storage order for printing is graded lexicographic on the declared
variable list.
"""

from __future__ import annotations

import re

from .infring import QQ, RATIONAL_TYPES, InfElem


class QRing:
    """Exact rationals."""

    name = "QQ"
    zero = QQ(0)
    one = QQ(1)

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def sign(a):
        return 0 if a == 0 else (1 if a > 0 else -1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def exact_div(a, b):
        return a / b

    @staticmethod
    def from_rational(q):
        return QQ(q)


class ERing:
    """Polynomials in the infinitesimal tower."""

    name = "D[eta]"
    zero = InfElem()
    one = InfElem.const(1)

    @staticmethod
    def is_zero(a):
        return a.is_zero()

    @staticmethod
    def sign(a):
        return a.sign()

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def exact_div(a, b):
        return a.exact_div(b)

    @staticmethod
    def from_rational(q):
        return InfElem.const(q)


QRING = QRing()
ERING = ERing()


def merge_vars(*seqs):
    """Ordered union of variable sequences (first occurrence wins)."""
    return tuple(dict.fromkeys(v for seq in seqs for v in seq))


def fresh_var(base, used):
    """The first of base0, base1, ... that is not in used."""
    i = 0
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


ETA_PREFIX = "@eta_"


def flatten_eta(polys):
    """QRING images of MPolys of either ring over one variable tuple: their
    merged variables, then one variable "@eta_i" per infinitesimal index i
    they use (a name parse_poly never produces).  Returns (flat polys,
    indices), the indices in the order of their variables."""
    variables = merge_vars(*(p.vars for p in polys))
    idxs = sorted({i for p in polys if p.ring is ERING
                   for c in p.terms.values() for i in c.support_indices()})
    if not idxs:
        return [p.with_vars(variables).to_qring() for p in polys], ()
    flat_vars = variables + tuple(f"{ETA_PREFIX}{i}" for i in idxs)
    out = []
    for p in polys:
        p = p.with_vars(variables).to_ering()
        terms = {}
        for m, c in p.terms.items():
            for em, q in c.terms.items():
                d = dict(em)
                terms[m + tuple(d.get(i, 0) for i in idxs)] = q
        out.append(MPoly(QRING, flat_vars, terms))
    return out, tuple(idxs)


def unflatten_eta(p, ring, idxs):
    """Inverse of flatten_eta: the last len(idxs) variables of the QRING
    MPoly p stand, by position, for the infinitesimals idxs.  Returns an
    MPoly of ring over the other variables."""
    if ring is QRING:
        return p
    n = len(p.vars) - len(idxs)
    coeffs = {}
    for m, c in p.terms.items():
        em = tuple((i, e) for i, e in zip(idxs, m[n:]) if e)
        coeffs.setdefault(m[:n], {})[em] = c
    return MPoly(ERING, p.vars[:n], {m: InfElem(t) for m, t in coeffs.items()})


class MPoly:
    """Immutable sparse polynomial; exponent keys are dense tuples aligned
    with the declared variable tuple."""

    __slots__ = ("ring", "vars", "terms", "_hash")

    def __init__(self, ring, variables, terms):
        self.ring = ring
        self.vars = tuple(variables)
        self.terms = {m: c for m, c in terms.items() if not ring.is_zero(c)}
        self._hash = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(ring, variables):
        return MPoly(ring, variables, {})

    @staticmethod
    def const(ring, variables, q):
        c = q if not isinstance(q, RATIONAL_TYPES) else ring.from_rational(q)
        z = (0,) * len(tuple(variables))
        return MPoly(ring, variables, {z: c})

    @staticmethod
    def var(ring, variables, name, exp=1):
        variables = tuple(variables)
        i = variables.index(name)
        m = tuple(exp if j == i else 0 for j in range(len(variables)))
        return MPoly(ring, variables, {m: ring.one})

    # -- variable plumbing --------------------------------------------------

    def with_vars(self, variables):
        """Reindex onto a variable tuple that contains all used variables."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        pos = []
        for i, v in enumerate(self.vars):
            if v in variables:
                pos.append(variables.index(v))
            else:
                pos.append(None)
        out = {}
        for m, c in self.terms.items():
            new = [0] * len(variables)
            for i, e in enumerate(m):
                if e:
                    if pos[i] is None:
                        raise ValueError(f"variable {self.vars[i]} used but not in target")
                    new[pos[i]] = e
            key = tuple(new)
            out[key] = self.ring.add(out.get(key, self.ring.zero), c)
        return MPoly(self.ring, variables, out)

    def used_vars(self):
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(self.vars[i])
        return used

    @staticmethod
    def align(p, q):
        if p.vars == q.vars:
            return p, q
        merged = list(p.vars) + [v for v in q.vars if v not in p.vars]
        return p.with_vars(merged), q.with_vars(merged)

    # -- basic structure -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return all(all(e == 0 for e in m) for m in self.terms)

    def const_value(self):
        if self.is_zero():
            return self.ring.zero
        if not self.is_const():
            raise ValueError("not a constant")
        return next(iter(self.terms.values()))

    def degree(self, var):
        i = self.vars.index(var)
        return max((m[i] for m in self.terms), default=0)

    def total_degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def total_degree_in(self, block):
        idx = [self.vars.index(v) for v in block if v in self.vars]
        return max((sum(m[i] for i in idx) for m in self.terms), default=0)

    def coeff_of(self, var, exp):
        i = self.vars.index(var)
        out = {}
        for m, c in self.terms.items():
            if m[i] == exp:
                key = m[:i] + (0,) + m[i + 1:]
                out[key] = self.ring.add(out.get(key, self.ring.zero), c)
        return MPoly(self.ring, self.vars, out)

    def as_univariate(self, var):
        """Dense coefficient list in var (index = degree), coefficients are
        MPolys in the remaining variables (var exponent zeroed)."""
        d = self.degree(var)
        return [self.coeff_of(var, e) for e in range(d + 1)]

    @staticmethod
    def from_univariate(coeffs, var):
        if not coeffs:
            raise ValueError("empty coefficient list")
        ring = coeffs[0].ring
        variables = coeffs[0].vars
        out = MPoly.zero(ring, variables)
        xv = MPoly.var(ring, variables, var)
        for e in range(len(coeffs) - 1, -1, -1):
            out = out * xv + coeffs[e].with_vars(variables)
        return out

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        p, q = MPoly.align(self, other)
        out = dict(p.terms)
        for m, c in q.terms.items():
            s = p.ring.add(out.get(m, p.ring.zero), c)
            if p.ring.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return MPoly(p.ring, p.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.ring, self.vars, {m: self.ring.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        p, q = MPoly.align(self, other)
        out = {}
        ring = p.ring
        for m1, c1 in p.terms.items():
            for m2, c2 in q.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = ring.add(out.get(m, ring.zero), ring.mul(c1, c2))
                if ring.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        return MPoly(p.ring, p.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = MPoly.const(self.ring, self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c):
        if not isinstance(c, RATIONAL_TYPES):
            coeff = c
        else:
            coeff = self.ring.from_rational(c)
        return MPoly(self.ring, self.vars, {m: self.ring.mul(v, coeff) for m, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        p, q = MPoly.align(self, other)
        return p.terms == q.terms

    def __hash__(self):
        # like __eq__, independent of the ring and of the variable order
        if self._hash is None:
            items = []
            for m, c in self.terms.items():
                sparse = tuple((v, e) for v, e in zip(self.vars, m) if e)
                items.append((tuple(sorted(sparse)), c))
            self._hash = hash(frozenset(items))
        return self._hash

    def _coerce(self, other):
        if isinstance(other, MPoly):
            return other
        if isinstance(other, RATIONAL_TYPES):
            return MPoly.const(self.ring, self.vars, other)
        if isinstance(other, InfElem) and self.ring is ERING:
            return MPoly.const(self.ring, self.vars, other)
        raise TypeError(f"cannot coerce {type(other)}")

    # -- calculus / substitution ----------------------------------------------

    def deriv(self, var):
        i = self.vars.index(var)
        out = {}
        ring = self.ring
        for m, c in self.terms.items():
            e = m[i]
            if e:
                key = m[:i] + (e - 1,) + m[i + 1:]
                add = ring.mul(c, ring.from_rational(QQ(e)))
                s = ring.add(out.get(key, ring.zero), add)
                if ring.is_zero(s):
                    out.pop(key, None)
                else:
                    out[key] = s
        return MPoly(ring, self.vars, out)

    def subst(self, mapping):
        """Substitute MPolys (or rationals) for variables, simultaneously."""
        target_vars = list(self.vars)
        reps = {}
        for v, val in mapping.items():
            if not isinstance(val, MPoly):
                val = MPoly.const(self.ring, self.vars, val)
            reps[v] = val
            for w in val.vars:
                if w not in target_vars:
                    target_vars.append(w)
        target_vars = tuple(target_vars)
        out = MPoly.zero(self.ring, target_vars)
        powers = {v: {0: MPoly.const(self.ring, target_vars, 1)} for v in reps}

        def power(v, e):
            cache = powers[v]
            if e not in cache:
                cache[e] = power(v, e - 1) * reps[v].with_vars(target_vars)
            return cache[e]

        for m, c in self.terms.items():
            exps = [0] * len(target_vars)
            for i, e in enumerate(m):
                v = self.vars[i]
                if v not in reps and e:
                    exps[target_vars.index(v)] = e
            term = MPoly(self.ring, target_vars, {tuple(exps): c})
            for i, e in enumerate(m):
                v = self.vars[i]
                if v in reps and e:
                    term = term * power(v, e)
            out = out + term
        return out

    def eval_rational(self, assign):
        """Evaluate at rational values for all used variables; returns a ring
        element."""
        ring = self.ring
        acc = ring.zero
        pw = {}
        for m, c in self.terms.items():
            prod = ring.one
            for i, e in enumerate(m):
                if e:
                    v = self.vars[i]
                    key = (v, e)
                    if key not in pw:
                        pw[key] = ring.from_rational(QQ(assign[v]) ** e)
                    prod = ring.mul(prod, pw[key])
            acc = ring.add(acc, ring.mul(c, prod))
        return acc

    def map_coeffs(self, fn, ring=None):
        ring = ring or self.ring
        out = {}
        for m, c in self.terms.items():
            nc = fn(c)
            if not ring.is_zero(nc):
                out[m] = ring.add(out.get(m, ring.zero), nc) if m in out else nc
        return MPoly(ring, self.vars, out)

    def to_ering(self):
        if self.ring is ERING:
            return self
        return self.map_coeffs(lambda c: InfElem.const(c), ERING)

    def to_qring(self):
        if self.ring is QRING:
            return self
        return self.map_coeffs(lambda c: c.rational_value(), QRING)

    # -- printing --------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        monos = sorted(self.terms, key=lambda m: (sum(m), m), reverse=True)
        parts = []
        for m in monos:
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e:
                    factors.append(self.vars[i] if e == 1 else f"{self.vars[i]}^{e}")
            body = "*".join(factors)
            cs = str(c)
            if not body:
                parts.append(cs if " " not in cs else f"({cs})")
            elif cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append("-" + body)
            elif " " in cs:
                parts.append(f"({cs})*{body}")
            else:
                parts.append(f"{cs}*{body}")
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s


# -- spec operations ------------------------------------------------------


def der_list(P, var):
    """Der(P): the list P, P', ..., P^{(deg P)} with respect to var."""
    out = [P]
    d = P.degree(var)
    for _ in range(d):
        out.append(out[-1].deriv(var))
    return out


class JacobianSelector:
    """Row subset J of variable indices, column subset J' of [0, m] where
    column 0 is the gradient of G."""

    def __init__(self, rows, cols):
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols):
            raise ValueError("|J| must equal |J'|")
        self.rows = rows
        self.cols = cols


def determinant(mat):
    """Fraction-free (Bareiss) determinant of a square MPoly matrix; falls
    back to cofactor expansion on tiny sizes.  Callers handle the empty
    matrix (determinant 1) themselves since it needs a ring context."""
    n = len(mat)
    if n == 0:
        raise ValueError("empty matrix needs a ring/vars context")
    if n == 1:
        return mat[0][0]
    if n <= 3:
        return _cofactor_det(mat)
    ring = mat[0][0].ring
    variables = mat[0][0].vars
    a = [[x.with_vars(variables) for x in row] for row in mat]
    sign = 1
    prev = MPoly.const(ring, variables, 1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return MPoly.zero(ring, variables)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = _exact_poly_div(num, prev)
            a[i][k] = MPoly.zero(ring, variables)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def _cofactor_det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _cofactor_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _exact_poly_div(num, den):
    """Exact division of MPolys (den divides num)."""
    if den.is_const():
        c = den.const_value()
        ring = num.ring
        return num.map_coeffs(lambda x: ring.exact_div(x, c))
    num, den = MPoly.align(num, den)
    # univariate-style division along the first used variable of den
    for v in den.vars:
        if den.degree(v) > 0:
            var = v
            break
    ring = num.ring
    out = MPoly.zero(ring, num.vars)
    dc = den.as_univariate(var)
    dd = len(dc) - 1
    lead = dc[-1]
    rem = num
    while not rem.is_zero():
        rc = rem.as_univariate(var)
        rd = len(rc) - 1
        if rd < dd:
            raise ValueError("not exactly divisible")
        q = _exact_poly_div(rc[-1], lead)
        xq = MPoly.var(ring, num.vars, var, rd - dd) if rd > dd else MPoly.const(ring, num.vars, 1)
        piece = q * xq
        out = out + piece
        rem = rem - piece * den
    return out


def jac_minor(G, system, sel, variables=None, var_window=None):
    """det of the selected submatrix of the Jacobian [grad G | grad P_1 ...].

    sel.rows are variable NAMES (or indices into var_window), sel.cols are
    function indices with 0 meaning G.  Empty selection yields 1.
    """
    base = G
    for p in system:
        base, _ = MPoly.align(base, p)
    ring = base.ring
    allvars = base.vars
    rows = []
    for r in sel.rows:
        if isinstance(r, str):
            rows.append(r)
        else:
            window = var_window if var_window is not None else allvars
            rows.append(window[r])
    for r in rows:
        if r not in allvars:
            raise IndexError(f"row variable {r} out of window")
    cols = [G] + list(system)
    for c in sel.cols:
        if not 0 <= c < len(cols):
            raise IndexError("column index out of range")
    if not rows:
        return MPoly.const(ring, allvars, 1)
    mat = [[cols[c].deriv(r).with_vars(allvars) for c in sel.cols] for r in rows]
    return determinant(mat)


def subst_rational(P, block, rep):
    """Substitute X_i := f_i/f0 for the variables in block and clear the
    denominator by f0^(total degree of P in the block).

    rep is (f0, [f_1, ..., f_p]) aligned with block order."""
    f0, fs = rep
    if f0.is_zero():
        raise ValueError("denominator is identically zero")
    if len(fs) != len(block):
        raise ValueError("replacement length mismatch")
    D = P.total_degree_in(block)
    variables = list(P.vars)
    for g in [f0] + list(fs):
        for v in g.vars:
            if v not in variables:
                variables.append(v)
    variables = tuple(variables)
    ring = P.ring
    Pa = P.with_vars(variables)
    f0a = f0.with_vars(variables)
    fsa = [g.with_vars(variables) for g in fs]
    idx = {v: variables.index(v) for v in block}
    pow_cache = {}

    def cached_pow(poly_id, poly, e):
        key = (poly_id, e)
        if key not in pow_cache:
            pow_cache[key] = poly ** e
        return pow_cache[key]

    out = MPoly.zero(ring, variables)
    for m, c in Pa.terms.items():
        block_deg = sum(m[idx[v]] for v in block)
        exps = list(m)
        for v in block:
            exps[idx[v]] = 0
        term = MPoly(ring, variables, {tuple(exps): c})
        for j, v in enumerate(block):
            e = m[idx[v]]
            if e:
                term = term * cached_pow(j, fsa[j], e)
        term = term * cached_pow(-1, f0a, D - block_deg)
        out = out + term
    return out


# -- Sylvester determinants ---------------------------------------------------


def sylvester_matrix(P, Q, var):
    """Rows of the Sylvester matrix of P and Q in var (BPR ch. 8): n shifts
    of P's coefficients and m of Q's, m and n their degrees, in m + n
    columns for var^(m+n-1) down to var^0."""
    P, Q = MPoly.align(P, Q)
    p = P.as_univariate(var)
    q = Q.as_univariate(var)
    m, n = len(p) - 1, len(q) - 1
    width = m + n
    zero = MPoly.zero(P.ring, P.vars)
    mat = []
    for coeffs, shifts in ((p, n), (q, m)):
        for i in range(shifts):
            row = [zero] * width
            for j, c in enumerate(reversed(coeffs)):
                row[i + j] = c
            mat.append(row)
    return mat


def resultant(P, Q, var):
    """Sylvester resultant of P and Q with respect to var: the determinant
    of their Sylvester matrix, taken by fraction-free elimination (BPR
    ch. 8).  Res(X - a, X - b) = a - b."""
    P, Q = MPoly.align(P, Q)
    dp, dq = P.degree(var), Q.degree(var)
    if dp == 0 and dq == 0:
        raise ValueError("both polynomials constant in the variable")
    if P.is_zero() or Q.is_zero():
        return MPoly.zero(P.ring, P.vars)
    if dp == 0:
        return P ** dq
    if dq == 0:
        return Q ** dp
    return determinant(sylvester_matrix(P, Q, var))


# -- parser ------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*^()]))")


class PolyParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        super().__init__(message if line is None else f"line {line}, col {col}: {message}")


def _tokenize(text, line_no=None):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolyParseError(f"unexpected character {stripped[0]!r}", line_no, pos + 1)
        num, name, op = m.groups()
        if num is not None:
            if "/" in num:
                a, b = num.split("/")
                tokens.append(("num", QQ(int(a), int(b))))
            else:
                tokens.append(("num", QQ(int(num))))
        elif name is not None:
            tokens.append(("var", name))
        else:
            tokens.append(("op", "^" if op == "**" else op))
        pos = m.end()
    return tokens


def parse_poly(text, variables, ring=QRING, line_no=None):
    """Parse one polynomial in +,-,*,^ syntax over the declared variables."""
    tokens = _tokenize(text, line_no)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else (None, None)

    def take():
        t = peek()
        pos[0] += 1
        return t

    def parse_expr():
        kind, val = peek()
        neg = False
        acc = None
        while True:
            t = parse_term()
            if neg:
                t = -t
            acc = t if acc is None else acc + t
            kind, val = peek()
            if kind == "op" and val in "+-":
                take()
                neg = val == "-"
            else:
                return acc

    def parse_term():
        acc = parse_factor()
        while True:
            kind, val = peek()
            if kind == "op" and val == "*":
                take()
                acc = acc * parse_factor()
            else:
                return acc

    def parse_factor():
        base = parse_base()
        kind, val = peek()
        if kind == "op" and val == "^":
            take()
            kind, val = take()
            if kind != "num" or val.denominator != 1 or val < 0:
                raise PolyParseError("exponent must be a nonnegative integer", line_no, pos[0])
            return base ** int(val)
        return base

    def parse_base():
        kind, val = take()
        if kind == "num":
            return MPoly.const(ring, variables, val)
        if kind == "var":
            if val not in variables:
                raise PolyParseError(f"undeclared variable {val!r}", line_no, pos[0])
            return MPoly.var(ring, variables, val)
        if kind == "op" and val == "(":
            e = parse_expr()
            kind, val = take()
            if kind != "op" or val != ")":
                raise PolyParseError("expected ')'", line_no, pos[0])
            return e
        if kind == "op" and val == "-":
            return -parse_factor()
        raise PolyParseError(f"unexpected token {val!r}", line_no, pos[0])

    result = parse_expr()
    if pos[0] != len(tokens):
        raise PolyParseError("trailing input", line_no, pos[0])
    return result


def parse_poly_file(text):
    """PolyFile format: first line 'vars: x1 ... xk', then one polynomial per
    line.  Returns (variables, [MPoly])."""
    lines = text.splitlines()
    if not lines or not lines[0].strip().startswith("vars:"):
        raise PolyParseError("first line must be 'vars: x1 ... xk'", 1, 1)
    variables = tuple(lines[0].split(":", 1)[1].split())
    if not variables:
        raise PolyParseError("no variables declared", 1, 1)
    polys = []
    for i, ln in enumerate(lines[1:], start=2):
        if not ln.strip() or ln.strip().startswith("#"):
            continue
        polys.append(parse_poly(ln, variables, QRING, line_no=i))
    return variables, polys
