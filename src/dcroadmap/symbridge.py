"""The one bridge to sympy: factoring, gcds and Groebner shape bases.

This is the only module that imports sympy.  MPolys of either ring cross it
through mpoly.flatten_eta, which turns the infinitesimal of index i into the
generator "@eta_i".  parse_poly never produces that name ("@" starts no
identifier), so a user variable such as "z1" or "e1" stays distinct from
zeta_1 and eps_1.  On the way back every generator is matched to its
variable or infinitesimal by its position in the generator tuple; no name
is ever parsed.
"""

from __future__ import annotations

import sympy
from sympy.polys.polyerrors import BasePolynomialError

# sympy's default generator order, the one it gives an expression's symbols;
# factor signs and factor order depend on it
from sympy.polys.polyutils import _sort_gens

from .infring import QQ
from .mpoly import ERING, QRING, MPoly, flatten_eta, unflatten_eta

UNIT = "unit"


class _Conversion:
    """MPolys as sympy Polys over the variables and infinitesimals they use,
    in sympy's default generator order, and sympy Polys back to MPolys of
    the inputs' ring over the inputs' variables."""

    def __init__(self, polys):
        flat, self.idxs = flatten_eta(polys)
        self.ring = ERING if any(p.ring is ERING for p in polys) else QRING
        self.vars = flat[0].vars
        used = sorted({i for p in flat for m in p.terms for i, e in enumerate(m) if e})
        by_sym = {sympy.Symbol(self.vars[i]): i for i in used}
        self.gens = tuple(_sort_gens(list(by_sym)))
        self.pos = [by_sym[s] for s in self.gens]
        # the domain sympy would construct itself: ZZ for integer coefficients
        if all(c.denominator == 1 for p in flat for c in p.terms.values()):
            dom, coeff = sympy.ZZ, int
        else:
            dom, coeff = sympy.QQ, (lambda c: sympy.QQ(c.numerator, c.denominator))
        self.polys = [sympy.Poly.from_dict({tuple(m[i] for i in self.pos): coeff(c)
                                            for m, c in p.terms.items()}, *self.gens, domain=dom)
                      for p in flat] if self.gens else []

    def back(self, poly):
        """The MPoly of a sympy Poly over self.gens."""
        terms = {}
        for mono, c in poly.terms():
            exps = [0] * len(self.vars)
            for i, e in zip(self.pos, mono):
                exps[i] = e
            terms[tuple(exps)] = QQ(int(c.numerator), int(c.denominator))
        return unflatten_eta(MPoly(QRING, self.vars, terms), self.ring, self.idxs)

    def back_numerator(self, poly):
        """The MPoly of the numerator of a sympy Poly whose coefficients are
        rational functions of the generators outside its own."""
        num = sympy.fraction(sympy.together(poly.as_expr()))[0]
        return self.back(sympy.Poly(num, *self.gens))


def factor(p):
    """Irreducible factors of p over the rationals, infinitesimals taken as
    variables: a list of (factor, multiplicity), empty for a constant."""
    conv = _Conversion([p])
    if not conv.gens:
        return []
    _c, factors = sympy.factor_list(conv.polys[0])
    return [(conv.back(f), int(k)) for f, k in factors]


def gcd(polys):
    """The monic greatest common divisor of nonzero MPolys, infinitesimals
    taken as variables, over their merged variables: its leading
    coefficient, in lex order on sympy's generator order, is 1.  None when
    the gcd is a rational number."""
    conv = _Conversion(polys)
    if not conv.gens:
        return None
    g = conv.polys[0]
    for q in conv.polys[1:]:
        g = g.gcd(q)
        if g.is_ground:
            return None
    return conv.back(g.monic())


def _grevlex_basis(polys, gens):
    """The conversion of polys and the grevlex Groebner basis of their ideal
    in the variables gens, over the field of their other variables and
    infinitesimals.  Raises sympy's BasePolynomialError when it fails."""
    conv = _Conversion(polys)
    gen_syms = [sympy.Symbol(v) for v in gens]
    params = sorted((s for s in conv.gens if s not in gen_syms), key=str)
    dom = sympy.QQ.frac_field(*params) if params else sympy.QQ
    return conv, sympy.groebner([p.as_expr() for p in conv.polys], *gen_syms,
                                order="grevlex", domain=dom)


def is_zero_dimensional(polys, gens):
    """Whether polys have finitely many common zeros in the variables gens,
    over the algebraic closure of the field of their other variables and
    infinitesimals; the unit ideal, with none, counts.  False also when the
    basis cannot be computed."""
    try:
        _conv, gb = _grevlex_basis(polys, gens)
    except BasePolynomialError:
        return False
    return any(g.is_ground for g in gb.polys) or gb.is_zero_dimensional


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
    try:
        conv, gb = _grevlex_basis(polys, gens)
        if any(g.is_ground for g in gb.polys):
            return UNIT
        if not gb.is_zero_dimensional:
            return None
        basis = gb.fglm("lex").polys
    except BasePolynomialError:
        return None
    u = gens.index(uvar)
    supports = [{i for m in g.monoms() for i, e in enumerate(m) if e} for g in basis]
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
