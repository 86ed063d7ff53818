import random

import pytest

from dcroadmap.critloci import (
    GoodRankMatrix,
    charts,
    crit_minor_system,
    crit_system,
    deform_single,
    sweep_poly,
    tilde_system,
)
from dcroadmap.infring import QQ, InfElem, delta, eps, gamma, zeta
from dcroadmap.mpoly import ERING, QRING, MPoly, determinant, jac_minor, parse_poly
from dcroadmap.points import rur_sign, sample_components
from dcroadmap.solve import solve_system

X2 = ("X1", "X2")
X3 = ("X1", "X2", "X3")


def test_sweep_poly_examples():
    assert sweep_poly(2, 2) == parse_poly("1 + X1^6 + 2*X2^6", X2)
    assert sweep_poly(1, 1) == parse_poly("1 + X1^4", ("X1",))
    assert sweep_poly(1, 3) == parse_poly("1 + X1^4 + 2*X2^4 + 3*X3^4", X3)


def test_good_rank_matrix_entries_and_rank():
    H = GoodRankMatrix(3, 4)
    assert H.rows[0][2] == 2
    assert H.rows[1][3] == 9
    assert H.rows[2][2] == 8
    rng = random.Random(5)
    for _ in range(50):
        size = rng.randint(1, 4)
        rows = sorted(rng.sample(range(4), size))
        cols = sorted(rng.sample(range(1, 5), size))
        mat = [[MPoly.const(QRING, (), H.rows[i][j]) for j in cols] for i in rows]
        assert not determinant(mat).is_zero()


def test_deform_single_examples():
    # tail over xvars only: Q = X1 in (X1, X2) with xvars (X1,) gives d = 4
    d4 = deform_single(parse_poly("X1", X2), ("X1",), zeta(1))
    z = InfElem.sym(zeta(1))
    one = InfElem.const(1)
    expect = (MPoly.const(ERING, X2, one - z) * parse_poly("X1^2", X2).to_ering()
              - MPoly.const(ERING, X2, z) * parse_poly("1 + X1^4", X2).to_ering())
    assert d4 == expect
    # Q = 0 -> -zeta*(1 + sum Xi^2)
    z0 = deform_single(MPoly.zero(QRING, X2), X2, zeta(1))
    tail = parse_poly("1 + X1^2 + X2^2", X2).to_ering()
    assert z0 == -MPoly.const(ERING, X2, z) * tail
    # d = 2 deg + 2
    sp = deform_single(parse_poly("X1^2 - 1", X2), X2, zeta(1))
    assert sp.degree("X1") == 6


def test_crit_system_circle_g_x1():
    P = [parse_poly("X1^2 + X2^2 - 1", X2)]
    G = parse_poly("X1", X2)
    eqs, lam = crit_system(P, G, 0, X2)
    assert len(eqs) == 4  # P, two Lagrange rows, normalization
    assert lam == ("lam0", "lam1")
    # projected real solutions are (+-1, 0)
    sols = solve_system(crit_minor_system(P, G, 0, X2), X2)
    assert len(sols) == 2
    for s in sols:
        ctxp = s.base.extend(s.uvar, s.f, s.sigma)
        assert ctxp.sign_mpoly((s.F[2]).with_vars(ctxp.tvars)) == 0  # X2 = 0


def test_crit_minor_system_of_a_coordinate_on_a_hypersurface_is_its_partials():
    # the 2-minors of [e_x | grad f] over rows (x, y): f_y, the system
    # sampling solves for the projection to x
    xy = ("x", "y")
    f = parse_poly("x^3 - x*y + y^2 - 1", xy)
    assert crit_minor_system([f], parse_poly("x", xy), 0, xy) == [f, f.deriv("y")]


def test_crit_minor_system_of_a_coordinate_on_a_space_curve_is_the_jacobian_minor():
    # the one 3-minor of [e_x | grad p | grad q] is the 2x2 minor of
    # [grad p | grad q] over rows (y, z)
    xyz = ("x", "y", "z")
    curve = [parse_poly("x^2 + y^2 + z^2 - 4", xyz), parse_poly("x^2 + y^2 - 2*x", xyz)]
    one = MPoly.const(QRING, xyz, 1)
    minor = jac_minor(one, curve, ["y", "z"], [1, 2])
    assert not minor.is_zero()
    assert crit_minor_system(curve, parse_poly("x", xyz), 0, xyz) == curve + [minor]


def test_crit_system_circle_sweep_sixth_degree():
    P = [parse_poly("X1^2 + X2^2 - 1", X2)]
    G = sweep_poly(2, 2, X2)
    sols = solve_system(crit_minor_system(P, G, 0, X2), X2)
    assert len(sols) == 8


def test_crit_system_l_equals_k():
    P = [parse_poly("X1^2 + X2^2 - 1", X2)]
    G = parse_poly("X1", X2)
    eqs, _lam = crit_system(P, G, 2, X2)
    assert len(eqs) == 2  # defining equation + lambda normalization only


def test_tilde_system_sphere():
    P = [parse_poly("X1^2 + X2^2 + X3^2 - 1", X3)]
    Pt, Qt = tilde_system(P, [], 2, 1, X3)
    assert len(Pt) == 1  # card = k - p = 1
    assert Qt == []
    ptild = Pt[0]
    assert ptild.degree("X3") == 6
    # structure: (1-e)[(1-z)P^2 + z(X3^6 + X3^2)] - e(X1^6 + 4 X2^6 + 9 X3^6)
    z, e = InfElem.sym(zeta(1)), InfElem.sym(eps(1))
    one = InfElem.const(1)
    Pe = P[0].to_ering()
    expect = (MPoly.const(ERING, X3, (one - e) * (one - z)) * Pe * Pe
              + MPoly.const(ERING, X3, (one - e) * z) * parse_poly("X3^6 + X3^2", X3).to_ering()
              - MPoly.const(ERING, X3, e) * parse_poly("X1^6 + 4*X2^6 + 9*X3^6", X3).to_ering())
    assert ptild == expect
    # with p = k no coordinate is left to deform and H has no row for P~1
    with pytest.raises(ValueError, match="p out of range"):
        tilde_system(P, [], 3, 1, X3)


def test_tilde_system_with_inequality():
    P = [parse_poly("X1^2 + X2^2 + X3^2 - 1", X3)]
    Q = [parse_poly("X3", X3)]
    Pt, Qt = tilde_system(P, Q, 2, 1, X3)
    assert len(Qt) == 1
    d = InfElem.sym(delta(1))
    one = InfElem.const(1)
    H2 = parse_poly("X1^6 + 8*X2^6 + 27*X3^6", X3).to_ering()  # h_{2,j} = j^3
    expect = MPoly.const(ERING, X3, one - d) * Q[0].to_ering() + MPoly.const(ERING, X3, d) * H2
    assert Qt[0] == expect


def test_charts_count_m1_window1():
    # m = 1 polynomial, window of size 1 (k - l = 1), no inequalities:
    # sum_r C(1,r)*C(2,r) = 1 + 2 = 3 charts
    P = [parse_poly("X1^2 + X2^2 - 1", X2)]
    Pt, Qt = tilde_system(P, [], 1, 1, X2)
    G = sweep_poly(1, 2, X2)
    ch = charts(Pt, Qt, 1, G, 1, X2)
    assert len(ch) == 3
    for _idx, P0, Q0 in ch:
        assert len(Q0) == len(Qt) + 1


def test_charts_r0_structure():
    P = [parse_poly("X1^2 + X2^2 - 1", X2)]
    Pt, Qt = tilde_system(P, [], 1, 1, X2)
    G = sweep_poly(1, 2, X2)
    ch = charts(Pt, Qt, 1, G, 1, X2)
    idx0, P00, Q00 = ch[0]
    assert idx0.r == 0
    # r=0: P0 = P~ plus all 1x1 minors, jac(alpha) = 1 so the new inequality
    # is 1 - gamma
    g = InfElem.sym(gamma(1))
    one = InfElem.const(1)
    assert Q00[-1] == MPoly.const(ERING, X2, one - g)
    assert len(P00) == len(Pt) + 2  # two 1x1 minors (i=X2, i'=0 and 1)


def test_charts_count_sphere_root():
    # sphere root node: m = 1, window {X2, X3}; the enumeration has
    # 0 <= r <= m, so the count is C(2,0)C(2,0) + C(2,1)C(2,1) = 5
    # (executed-enumeration golden value)
    P = [parse_poly("X1^2 + X2^2 + X3^2 - 1", X3)]
    Pt, Qt = tilde_system(P, [], 2, 1, X3)
    G = sweep_poly(2, 3, X3)
    ch = charts(Pt, Qt, 1, G, 1, X3)
    assert len(ch) == 5


def test_tilde_degree_bound():
    P = [parse_poly("X1^2 + X2^2 + X3^2 - 1", X3)]
    Q = [parse_poly("X3", X3)]
    Pt, Qt = tilde_system(P, Q, 2, 1, X3)
    din = max(p.total_degree() for p in P + Q)
    for f in Pt + Qt:
        assert f.total_degree() <= 2 * (2 * din + 2)
