"""Exact arithmetic in the ordered ring D[eta] of polynomials in a tower of
positive infinitesimals over arbitrary-precision rationals.

The tower is ordered 1 >> z1 >> e1 >> d1 >> g1 >> z2 >> ... ; a symbol with a
larger global index is infinitesimal relative to every symbol with a smaller
index.  An infinitesimal is its global index, a plain int: zeta, eps, delta
and gamma give the tower's indices (4*(level-1) + 1..4), index 0 lies above
the whole tower, and a fresh innermost one is one past every index in use.
Elements are plain polynomials (no fractional exponents); true
algebraic quantities over the tower are only ever reached through Thom
encodings and the limit algorithms, never as ring elements.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from fractions import Fraction


def QQ(a=0, b=None):
    """Exact rational constructor."""
    if b is None:
        return Fraction(a)
    return Fraction(a, b)


RATIONAL_TYPES = (int, Fraction)

# the tower's letters in rank order: z, e, d, g at each level
_LETTERS = "zedg"


def _tower_index(rank, level):
    """Global index of the rank-th symbol (1 for zeta ... 4 for gamma) of a
    tower level: 4*(level-1) + rank."""
    if level < 1:
        raise ValueError("tower level must be >= 1")
    return 4 * (level - 1) + rank


def zeta(level):
    return _tower_index(1, level)


def eps(level):
    return _tower_index(2, level)


def delta(level):
    return _tower_index(3, level)


def gamma(level):
    return _tower_index(4, level)


def _mono_cmp(a, b):
    """Order on exponent vectors: eta^a > eta^b iff at the largest global
    index where they differ, a has the strictly smaller exponent.  Returns
    +1 / 0 / -1 for a > b / a == b / a < b."""
    da = dict(a)
    db = dict(b)
    for idx in sorted(set(da) | set(db), reverse=True):
        ea = da.get(idx, 0)
        eb = db.get(idx, 0)
        if ea != eb:
            return 1 if ea < eb else -1
    return 0


def _mono_mul(a, b):
    out = dict(a)
    for idx, e in b:
        out[idx] = out.get(idx, 0) + e
    return tuple(sorted((i, e) for i, e in out.items() if e))


_SIGN_LOG = None  # (symbol_index, list) while a log_signs context is active


@contextmanager
def log_signs(index):
    """Record, for the duration of the context, the univariate polynomials in
    the infinitesimal of global index `index` whose leading blocks decided a
    sign evaluation.  Used by the general roadmap algorithm to compute its
    Cauchy substitution bound."""
    global _SIGN_LOG
    prev = _SIGN_LOG
    record = []
    _SIGN_LOG = (index, record)
    try:
        yield record
    finally:
        _SIGN_LOG = prev


class InfElem:
    """Sparse polynomial in the infinitesimal tower over exact rationals.

    terms maps sparse exponent vectors (((global_index, exp), ...) sorted by
    index) to nonzero rationals.  Immutable; all operations are pure.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {m: c for m, c in terms.items() if c != 0}
        self._hash = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(q):
        q = QQ(q)
        return InfElem({(): q} if q != 0 else {})

    @staticmethod
    def sym(index, exp=1):
        """The infinitesimal of global index `index`, to the power exp."""
        return InfElem({((index, exp),): QQ(1)})

    # -- structure --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_rational(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def rational_value(self):
        if not self.terms:
            return QQ(0)
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        raise ValueError("not an eta-free element")

    def support_indices(self):
        out = set()
        for m in self.terms:
            for idx, _ in m:
                out.add(idx)
        return out

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, QQ(0)) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return InfElem(out)

    __radd__ = __add__

    def __neg__(self):
        return InfElem({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, QQ(0)) + c1 * c2
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return InfElem(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = InfElem.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            other = InfElem.const(other)
        elif not isinstance(other, InfElem):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # an eta-free element equals its rational value, so hashes like it
        if self._hash is None:
            self._hash = hash(self.rational_value() if self.is_rational()
                              else frozenset(self.terms.items()))
        return self._hash

    # -- ordering operators ------------------------------------------------

    def leading_support(self):
        """o_eta(f): the exponent vector of the largest monomial of supp(f)."""
        if not self.terms:
            raise ValueError("zero element has no order")
        best = None
        for m in self.terms:
            if best is None or _mono_cmp(m, best) > 0:
                best = m
        return best

    def sign(self):
        """Sign in the ordered field R<eta>: the sign of the coefficient of
        the largest monomial (0 for the zero element)."""
        if not self.terms:
            return 0
        m = self.leading_support()
        c = self.terms[m]
        if _SIGN_LOG is not None and not self.is_rational():
            self._log_leading_block(m)
        return 1 if c > 0 else -1

    def _log_leading_block(self, lead):
        idx, record = _SIGN_LOG
        frame = tuple((i, e) for i, e in lead if i != idx)
        coeffs = {}
        for m, c in self.terms.items():
            rest = tuple((i, e) for i, e in m if i != idx)
            if rest == frame:
                e = dict(m).get(idx, 0)
                coeffs[e] = coeffs.get(e, QQ(0)) + c
        if coeffs and (len(coeffs) > 1 or 0 not in coeffs):
            record.append(tuple(sorted(coeffs.items())))

    def lim_from(self, j):
        """Substitute 0 for every symbol with global_index >= j (innermost
        first; equals simultaneous substitution on polynomials)."""
        out = {}
        for m, c in self.terms.items():
            if all(idx < j for idx, _ in m):
                out[m] = out.get(m, QQ(0)) + c
        return InfElem(out)

    def monomial_content(self):
        """Componentwise minimum exponent vector over all terms."""
        if not self.terms:
            raise ValueError("zero element has no content")
        mins = None
        for m in self.terms:
            d = dict(m)
            if mins is None:
                mins = d
            else:
                mins = {i: min(e, d.get(i, 0)) for i, e in mins.items() if d.get(i, 0)}
                mins = {i: e for i, e in mins.items() if e}
        return tuple(sorted((mins or {}).items()))

    def subst_symbol(self, idx, value):
        """Exact substitution of a rational value for one symbol."""
        value = QQ(value)
        out = InfElem()
        for m, c in self.terms.items():
            e = dict(m).get(idx, 0)
            rest = tuple((i, x) for i, x in m if i != idx)
            out = out + InfElem({rest: c * value ** e})
        return out

    def __truediv__(self, other):
        """Exact polynomial division: ValueError when other does not divide
        self."""
        other = _coerce(other)
        if not other:
            raise ZeroDivisionError
        if other.is_rational():
            q = other.rational_value()
            return InfElem({m: c / q for m, c in self.terms.items()})
        rem = dict(self.terms)
        quo = {}
        lo = other.leading_support()
        lc = other.terms[lo]
        while rem:
            best = None
            for m in rem:
                if best is None or _mono_cmp(m, best) > 0:
                    best = m
            dd = dict(lo)
            md = dict(best)
            q_mono = {}
            ok = True
            for i, e in md.items():
                r = e - dd.get(i, 0)
                if r < 0:
                    ok = False
                    break
                if r:
                    q_mono[i] = r
            if ok:
                for i in dd:
                    if i not in md:
                        ok = False
                        break
            if not ok:
                raise ValueError("not exactly divisible")
            qm = tuple(sorted(q_mono.items()))
            qc = rem[best] / lc
            quo[qm] = quo.get(qm, QQ(0)) + qc
            for m2, c2 in other.terms.items():
                m = _mono_mul(qm, m2)
                s = rem.get(m, QQ(0)) - qc * c2
                if s == 0:
                    rem.pop(m, None)
                else:
                    rem[m] = s
        return InfElem(quo)

    # -- diagnostics --------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        monos = sorted(self.terms, key=_cmp_key, reverse=True)
        parts = []
        for m in monos:
            c = self.terms[m]
            factors = []
            for idx, e in m:
                nm = _index_name(idx)
                factors.append(nm if e == 1 else f"{nm}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s


def _index_name(idx):
    if idx >= 1:
        return f"{_LETTERS[(idx - 1) % 4]}{(idx - 1) // 4 + 1}"
    return f"inf{idx}"


@functools.cmp_to_key
def _cmp_key(a, b):
    return _mono_cmp(a, b)


def _coerce(x):
    if isinstance(x, InfElem):
        return x
    if isinstance(x, RATIONAL_TYPES):
        return InfElem.const(x)
    raise TypeError(f"cannot coerce {type(x)} to InfElem")


ZERO = InfElem()
ONE = InfElem.const(1)
