"""The one bridge to sympy: factoring, gcds and Groebner shape bases.

This is the only module that imports sympy.  MPolys of either ring cross it
through mpoly.flatten_eta, which turns the infinitesimal of index i into the
generator "@eta_i".  parse_poly never produces that name ("@" starts no
identifier), so a user variable such as "z1" or "e1" stays distinct from
zeta_1 and eps_1.

Each call converts its MPolys once, term by term, into elements of one sparse
sympy PolyRing K[gens] and runs sympy's ring algorithms on them: factor_list
and gcd, and for shape bases Buchberger's algorithm in grevlex then FGLM to
lex (Faugere, Gianni, Lazard and Mora, J. Symb. Comp. 16, 1993).  K is ZZ or
QQ, or for shape bases the field QQ(params) of the variables and
infinitesimals outside gens.  No sympy expression is ever built.  On the way
back every generator and parameter is matched to its variable or
infinitesimal by position; no name is ever parsed.
"""

from __future__ import annotations

import math
from functools import reduce

import sympy
from sympy.polys.fglmtools import matrix_fglm
from sympy.polys.groebnertools import groebner
from sympy.polys.orderings import grevlex, lex

# sympy's default generator order, the one it gives an expression's symbols;
# factor signs, factor order and the term order of every result depend on it
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyRing

from .infring import QQ
from .mpoly import ERING, QRING, MPoly, flatten_eta, unflatten_eta

UNIT = "unit"


class _Conversion:
    """MPolys as elements of one sympy PolyRing K[gens] in the given order,
    and elements of that ring back to MPolys of the inputs' ring over the
    inputs' variables.

    Without gens, the generators are the variables and infinitesimals the
    inputs use, in sympy's default order, and K is ZZ for integer
    coefficients and QQ otherwise.  With gens, the generators are gens and K
    is the field of rational functions in the others, sorted by name (QQ when
    there are none)."""

    def __init__(self, polys, gens=None, order=lex):
        flat, self.idxs = flatten_eta(polys)
        self.ring = ERING if any(p.ring is ERING for p in polys) else QRING
        self.vars = flat[0].vars
        used = sorted({i for p in flat for m in p.terms for i, e in enumerate(m) if e})
        by_sym = {sympy.Symbol(self.vars[i]): i for i in used}
        # positions of the used variables in sympy's default order: results
        # list their terms in lex order on it, as sympy's Poly.terms() does
        self.term_pos = [by_sym[s] for s in _sort_gens(list(by_sym))]
        if gens is None:
            self.gen_pos, self.par_pos = self.term_pos, []
            integral = all(c.denominator == 1 for p in flat for c in p.terms.values())
            self.K = sympy.ZZ if integral else sympy.QQ
        else:
            self.gen_pos = [self.vars.index(v) if v in self.vars else None for v in gens]
            self.par_pos = sorted((i for i in used if i not in self.gen_pos), key=lambda i: self.vars[i])
            params = [sympy.Symbol(self.vars[i]) for i in self.par_pos]
            self.K = sympy.QQ.frac_field(*params) if params else sympy.QQ
        names = gens if gens is not None else [self.vars[i] for i in self.gen_pos]
        self.sring = PolyRing([sympy.Symbol(v) for v in names], self.K, order) if names else None
        self.elements = [self._to_ring(p) for p in flat] if self.sring is not None else []

    def _to_ring(self, p):
        """The element of self.sring of a flattened MPoly."""
        gen_pos, par_pos = self.gen_pos, self.par_pos
        if not par_pos:
            coeff = int if self.K is sympy.ZZ else (lambda c: sympy.QQ(c.numerator, c.denominator))
            return self.sring.from_dict({tuple(m[i] if i is not None else 0 for i in gen_pos): coeff(c)
                                         for m, c in p.terms.items()})
        coeffs = {}
        for m, c in p.terms.items():
            gm = tuple(m[i] if i is not None else 0 for i in gen_pos)
            coeffs.setdefault(gm, {})[tuple(m[i] for i in par_pos)] = sympy.QQ(c.numerator, c.denominator)
        field = self.K.field
        return self.sring.from_dict({gm: field(field.ring.from_dict(pc)) for gm, pc in coeffs.items()})

    def back(self, g, scale=QQ(1)):
        """The MPoly of scale times g, an element of self.sring with ZZ or QQ
        coefficients."""
        return self._back({m: {(): QQ(int(c.numerator), int(c.denominator)) * scale}
                           for m, c in g.items()})

    def back_numerator(self, g):
        """The MPoly of the numerator of g: g times the lcm of its
        coefficients' denominators, then times the least integer that
        clears the rational coefficients this leaves."""
        if self.par_pos:
            den = reduce(lambda a, b: a.lcm(b), (c.denom for c in g.values()))
            coeffs = {m: c.numer * den.exquo(c.denom) for m, c in g.items()}
        else:
            coeffs = {m: {(): c} for m, c in g.items()}
        coeffs = {m: {pm: QQ(int(q.numerator), int(q.denominator)) for pm, q in pc.items()}
                  for m, pc in coeffs.items()}
        clear = reduce(math.lcm, (q.denominator for pc in coeffs.values() for q in pc.values()), 1)
        return self._back({m: {pm: q * clear for pm, q in pc.items()} for m, pc in coeffs.items()})

    def _back(self, coeffs):
        """The MPoly of {gens monomial: {params monomial: rational}}."""
        terms = {}
        for gm, pc in coeffs.items():
            for pm, q in pc.items():
                exps = [0] * len(self.vars)
                for i, e in zip(self.gen_pos, gm):
                    if e:
                        exps[i] = e
                for i, e in zip(self.par_pos, pm):
                    exps[i] = e
                terms[tuple(exps)] = q
        pos = self.term_pos
        terms = dict(sorted(terms.items(), key=lambda t: tuple(t[0][i] for i in pos), reverse=True))
        return unflatten_eta(MPoly(QRING, self.vars, terms), self.ring, self.idxs)


def _factor_order(fk):
    """The order sympy's factor_list gives (f, k) pairs: by the length of
    f's dense lex representation, then k, then the representation."""
    dense = fk[0].to_dense()
    return len(dense), fk[1], dense


def factor(p):
    """Irreducible factors of p over the rationals, infinitesimals taken as
    variables: a list of (factor, multiplicity), empty for a constant, in
    sympy's factor_list order."""
    conv = _Conversion([p])
    if conv.sring is None:
        return []
    _c, factors = conv.elements[0].factor_list()
    return [(conv.back(f), int(k)) for f, k in sorted(factors, key=_factor_order)]


def gcd(polys):
    """The monic greatest common divisor of nonzero MPolys, infinitesimals
    taken as variables, over their merged variables: its leading
    coefficient, in lex order on sympy's generator order, is 1.  None when
    the gcd is a rational number."""
    conv = _Conversion(polys)
    if conv.sring is None:
        return None
    g = conv.elements[0]
    for q in conv.elements[1:]:
        g = g.gcd(q)
        if g.is_ground:
            return None
    lc = g.LC
    return conv.back(g, QQ(int(lc.denominator), int(lc.numerator)))


def _grevlex_basis(polys, gens):
    """The conversion of polys and the reduced grevlex Groebner basis of
    their ideal in the variables gens, over the field of their other
    variables and infinitesimals."""
    conv = _Conversion(polys, gens, grevlex)
    return conv, groebner([g for g in conv.elements if g], conv.sring)


def _zero_dimensional(basis, ngens):
    """Whether a Groebner basis bounds every generator: each one is the
    sole variable of some leading monomial."""
    bounded = set()
    for g in basis:
        support = [i for i, e in enumerate(g.LM) if e]
        if len(support) == 1:
            bounded.add(support[0])
    return len(bounded) == ngens


def shape_basis(polys, gens, uvar):
    """Lex Groebner shape of the ideal of polys in the variables gens (uvar
    last), over the field of their other variables and infinitesimals: a
    grevlex basis, then FGLM to lex.

    Returns UNIT for the unit ideal and None when the ideal is not
    zero-dimensional or no basis element is a polynomial in uvar alone.
    Otherwise returns (f, relations): f is that element of least degree, and
    relations maps a generator v to the first element in v and uvar alone
    that is linear in v (generators without one are left out).  Elements
    come back as the numerators of their coefficients over the variables of
    polys."""
    conv, basis = _grevlex_basis(polys, gens)
    if any(g.is_ground for g in basis):
        return UNIT
    if not _zero_dimensional(basis, len(gens)):
        return None
    basis = matrix_fglm(basis, conv.sring, lex)
    u = gens.index(uvar)
    supports = [{i for m in g.itermonoms() for i, e in enumerate(m) if e} for g in basis]
    eliminants = [g for g, s in zip(basis, supports) if s == {u}]
    if not eliminants:
        return None
    relations = {}
    for j, v in enumerate(gens):
        linear = [g for g, s in zip(basis, supports)
                  if j != u and j in s and s <= {j, u} and g.degree(j) == 1]
        if linear:
            relations[v] = conv.back_numerator(linear[0])
    return conv.back_numerator(min(eliminants, key=lambda g: g.degree(u))), relations
