import random

import pytest

from dcroadmap.infring import QQ, InfElem, eps
from dcroadmap.mpoly import (
    ERING,
    QRING,
    JacobianSelector,
    MPoly,
    PolyParseError,
    der_list,
    jac_minor,
    parse_poly,
    parse_poly_file,
    resultant,
    subst_rational,
)

V = ("X1", "X2")


def P(text, variables=V):
    return parse_poly(text, variables)


def test_parse_and_repr_roundtrip():
    p = P("X1^2 + 2*X2 - 3/4")
    assert p.degree("X1") == 2
    assert p.eval_rational({"X1": QQ(2), "X2": QQ(1)}) == QQ(4) + 2 - QQ(3, 4)


def test_parse_errors():
    with pytest.raises(PolyParseError):
        parse_poly("X1 + Y", V)
    with pytest.raises(PolyParseError):
        parse_poly("X1 $ 2", V)


def test_parse_poly_file():
    vars_, polys = parse_poly_file("vars: x y\nx^2 + y^2 - 1\nx - y\n")
    assert vars_ == ("x", "y")
    assert len(polys) == 2
    assert polys[0].degree("x") == 2


def test_der_list_examples():
    x = ("X",)
    p = parse_poly("X^2 - 2", x)
    ds = der_list(p, "X")
    assert ds == [p, parse_poly("2*X", x), parse_poly("2", x)]
    c = parse_poly("5", x)
    assert der_list(c, "X") == [c]
    q = parse_poly("X^3 - X", x)
    assert [d.degree("X") for d in der_list(q, "X")] == [3, 2, 1, 0]


def test_jac_minor_examples():
    # G=X1, system={X1^2+X2^2-1}, J={X2}, J'={1} -> 2*X2
    G = P("X1")
    sys1 = [P("X1^2 + X2^2 - 1")]
    m = jac_minor(G, sys1, JacobianSelector(["X2"], [1]))
    assert m == P("2*X2")
    # empty selection -> 1
    assert jac_minor(G, sys1, JacobianSelector([], [])) == P("1")
    # 2x2 determinant, hand-expanded
    G2 = P("X1^2 + X2^2")
    sys2 = [P("X1*X2")]
    m2 = jac_minor(G2, sys2, JacobianSelector(["X1", "X2"], [0, 1]))
    assert m2 == P("2*X1^2 - 2*X2^2")


def test_jac_minor_alternating():
    G2 = P("X1^2 + 3*X2^2")
    sys2 = [P("X1*X2 - 1")]
    a = jac_minor(G2, sys2, JacobianSelector(["X1", "X2"], [0, 1]))
    b = jac_minor(G2, sys2, JacobianSelector(["X2", "X1"], [0, 1]))
    assert a == -b


def test_subst_rational_examples():
    one = P("1")
    U = ("U",)
    # P = X1^2, f0=2, f1=U -> U^2
    p = P("X1^2")
    r = subst_rational(p, ["X1"], (parse_poly("2", U), [parse_poly("U", U)]))
    assert r == parse_poly("U^2", U).with_vars(r.vars)
    # P = X1+X2, f0=1, f1=U, f2=U^2 -> U + U^2
    p = P("X1 + X2")
    r = subst_rational(p, ["X1", "X2"], (parse_poly("1", U), [parse_poly("U", U), parse_poly("U^2", U)]))
    assert r == parse_poly("U + U^2", U).with_vars(r.vars)
    # circle under the rational parametrization vanishes identically
    p = P("X1^2 + X2^2 - 1")
    f0 = parse_poly("1 + U^2", U)
    f1 = parse_poly("1 - U^2", U)
    f2 = parse_poly("2*U", U)
    assert subst_rational(p, ["X1", "X2"], (f0, [f1, f2])).is_zero()


def test_subst_rational_matches_evaluation():
    rng = random.Random(3)
    U = ("U",)
    f0 = parse_poly("U^2 + 1", U)
    f1 = parse_poly("U - 2", U)
    f2 = parse_poly("3*U", U)
    for _ in range(25):
        p = MPoly.zero(QRING, V)
        for _ in range(rng.randint(1, 6)):
            p = p + MPoly(QRING, V, {(rng.randint(0, 3), rng.randint(0, 3)): QQ(rng.randint(-5, 5))})
        if p.is_zero():
            continue
        res = subst_rational(p, ["X1", "X2"], (f0, [f1, f2]))
        u = QQ(rng.randint(-10, 10), rng.randint(1, 7))
        den = f0.eval_rational({"U": u})
        lhs = res.eval_rational({"U": u})
        D = p.total_degree_in(["X1", "X2"])
        x1 = f1.eval_rational({"U": u}) / den
        x2 = f2.eval_rational({"U": u}) / den
        rhs = p.eval_rational({"X1": x1, "X2": x2}) * den ** D
        assert lhs == rhs


def test_resultant_examples():
    x = ("X",)
    p = parse_poly("X^2 - 2", x)
    assert resultant(p, parse_poly("X", x), "X") == parse_poly("-2", x)
    xa = ("X", "a", "b")
    r = resultant(parse_poly("X - a", xa), parse_poly("X - b", xa), "X")
    assert r == parse_poly("a - b", xa)


def test_resultant_common_root_detection():
    x = ("X",)
    p = parse_poly("(X - 1)*(X + 2)", x)
    q = parse_poly("(X - 1)*(X - 3)", x)
    assert resultant(p, q, "X").is_zero()
    q2 = parse_poly("(X - 4)*(X - 3)", x)
    assert not resultant(p, q2, "X").is_zero()


def _product_of_values(Q, roots, var):
    out = MPoly.const(Q.ring, Q.vars, 1)
    for a in roots:
        out = out * Q.subst({var: MPoly.const(Q.ring, Q.vars, a)}).with_vars(Q.vars)
    return out


def test_resultant_of_a_split_polynomial_at_sylvester_size_seven():
    # Res(prod (X - a_i), Q) = prod Q(a_i) for the monic first argument
    roots = [QQ(1), QQ(-2), QQ(3), QQ(1, 2)]
    xt = ("X", "t")
    p = parse_poly("(X - 1)*(X + 2)*(X - 3)*(X - 1/2)", xt)
    q = parse_poly("X^3 + t*X^2 - 2*X + t^2", xt)
    assert p.degree("X") + q.degree("X") == 7
    assert resultant(p, q, "X") == _product_of_values(q, roots, "X")
    # over D[eta], through an epsilon coefficient
    e1 = MPoly.const(ERING, ("X",), InfElem.sym(eps(1)))
    qe = parse_poly("X^3 - 2*X + 5", ("X",)).to_ering() + e1 * MPoly.var(ERING, ("X",), "X")
    pe = parse_poly("(X - 1)*(X + 2)*(X - 3)*(X - 1/2)", ("X",)).to_ering()
    r = resultant(pe, qe, "X")
    assert r == _product_of_values(qe, roots, "X")
    assert not r.const_value().is_rational()


def test_deriv_linear_leibniz():
    rng = random.Random(5)
    for _ in range(50):
        def rnd():
            p = MPoly.zero(QRING, V)
            for _ in range(rng.randint(1, 5)):
                p = p + MPoly(QRING, V, {(rng.randint(0, 4), rng.randint(0, 4)): QQ(rng.randint(-9, 9))})
            return p

        f, g = rnd(), rnd()
        assert (f + g).deriv("X1") == f.deriv("X1") + g.deriv("X1")
        assert (f * g).deriv("X1") == f.deriv("X1") * g + f * g.deriv("X1")


def test_ering_polynomials():
    e1 = InfElem.sym(eps(1))
    p = MPoly(ERING, ("X",), {(2,): InfElem.const(1), (0,): -e1})
    q = p.deriv("X")
    assert q == MPoly(ERING, ("X",), {(1,): InfElem.const(2)})
    r = resultant(p, q, "X")
    assert r.const_value() == -4 * e1


def test_grlex_printing():
    p = P("X2 + X1^2*X2 + 1")
    assert repr(p) == "X1^2*X2 + X2 + 1"


def test_hash_agrees_with_equality_across_rings():
    p = parse_poly("x^2 - 3*x*y + 1/2", ("x", "y"))
    assert p == p.to_ering()
    assert hash(p) == hash(p.to_ering())
    assert hash(p) == hash(p.with_vars(("y", "x")))
