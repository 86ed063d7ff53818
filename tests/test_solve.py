import pytest

from dcroadmap import solve
from dcroadmap.infring import QQ, InfElem, eps, zeta
from dcroadmap.mpoly import ERING, QRING, MPoly, parse_poly
from dcroadmap.realroots import TriangularContext, thom_encodings, triangular_sign
from dcroadmap.solve import factor_mpoly, solve_system

XY = ("x", "y")


def P(t, v=XY):
    return parse_poly(t, v)


def _eval_coords(sol):
    """Coordinates of a solution as (denominator sign-checked) pairs for
    verification through triangular_sign."""
    ctx_plus = sol.context.extend(sol.uvar, sol.eliminant, sol.signs)
    return ctx_plus


def test_circle_line_intersection():
    sols = solve_system([P("x^2 + y^2 - 1"), P("x - y")], XY)
    assert len(sols) == 2
    for s in sols:
        ctx_plus = _eval_coords(s)
        # check x == y and x^2 + y^2 == 1 via the coordinates
        num = s.coords[0] - s.coords[1]
        assert ctx_plus.sign_mpoly(num.with_vars(ctx_plus.tvars)) == 0
        lhs = s.coords[0] ** 2 + s.coords[1] ** 2 - s.denom ** 2
        assert ctx_plus.sign_mpoly(lhs.with_vars(ctx_plus.tvars)) == 0


def test_multiple_root_isolated_point():
    sols = solve_system([P("x^2 + y^2")], XY)
    assert len(sols) == 1
    s = sols[0]
    ctx_plus = _eval_coords(s)
    assert ctx_plus.sign_mpoly(s.coords[0].with_vars(ctx_plus.tvars)) == 0
    assert ctx_plus.sign_mpoly(s.coords[1].with_vars(ctx_plus.tvars)) == 0


@pytest.mark.parametrize("equations, variables", [
    (["x^4 + y^4"], XY),
    (["x^2 + y^2", "z - x"], ("x", "y", "z")),
])
def test_tower_fallback_isolated_origin(equations, variables):
    # no separating form splits these, so the solution is assembled from a
    # tower of one-variable levels and collapsed onto the base
    sols = solve_system([P(e, variables) for e in equations], variables)
    assert len(sols) == 1
    s = sols[0]
    ctx_plus = _eval_coords(s)
    for c in s.coords:
        assert ctx_plus.sign_mpoly(c.with_vars(ctx_plus.tvars)) == 0


def test_empty_variety():
    assert solve_system([P("x^2 + y^2 + 1")], XY) == []


def test_factor_split():
    sols = solve_system([P("(x - 1)*(x - 2)"), P("y - x")], XY)
    assert len(sols) == 2
    values = set()
    for s in sols:
        ctx_plus = _eval_coords(s)
        for q in (1, 2):
            num = s.coords[0] - s.denom.scale(QQ(q))
            if ctx_plus.sign_mpoly(num.with_vars(ctx_plus.tvars)) == 0:
                values.add(q)
    assert values == {1, 2}


def test_solve_over_triangular_context():
    ctx0 = TriangularContext(QRING)
    f = parse_poly("T1^2 - 2", ("T1",))
    enc = thom_encodings(f, "T1")[1]
    ctx = ctx0.extend("T1", enc.poly, enc.signs)
    sys_vars = ("T1", "x", "y")
    system = [parse_poly("x - T1", sys_vars), parse_poly("y^2 - x", sys_vars)]
    sols = solve_system(system, ("x", "y"), context=ctx)
    assert len(sols) == 2  # y = +-2^(1/4)
    for s in sols:
        ctx_plus = s.context.extend(s.uvar, s.eliminant, s.signs)
        num = s.coords[1] ** 4 - 2 * s.denom ** 4
        assert ctx_plus.sign_mpoly(num.with_vars(ctx_plus.tvars)) == 0


def test_solve_with_infinitesimal_coefficients():
    e1 = InfElem.sym(eps(1))
    p = MPoly(ERING, XY, {(2, 0): InfElem.const(1), (0, 0): -e1})
    q = MPoly(ERING, XY, {(0, 1): InfElem.const(1)})  # y = 0
    sols = solve_system([p, q], XY)
    assert len(sols) == 2


def test_three_vars_zero_dim():
    v = ("x", "y", "z")
    system = [parse_poly("x^2 + y^2 + z^2 - 1", v),
              parse_poly("y", v),
              parse_poly("z", v)]
    sols = solve_system(system, v)
    assert len(sols) == 2  # (+-1, 0, 0)


@pytest.mark.parametrize("text, count", [
    ("(x - 1)*(x - 2)", 2),
    ("(x - 1)*(x - 2)*(x - 3)", 3),
])
def test_distinct_rational_roots_are_kept(text, count):
    # hash(-1) == hash(-2): the roots must not be merged by a hash key
    assert len(solve_system([parse_poly(text, ("x",))], ("x",))) == count


@pytest.mark.parametrize("name, symbol", [("z1", zeta(1)), ("e1", eps(1))])
def test_variable_named_like_an_infinitesimal(name, symbol):
    # X^2 - eta^2 with X a variable that shares the infinitesimal's tower
    # name: the two must stay distinct through factoring and solving
    v = (name, "y")
    x = MPoly.var(ERING, v, name)
    eta = InfElem.sym(symbol)
    p = x * x - MPoly.const(ERING, v, eta * eta)
    factors = factor_mpoly(p)
    assert len(factors) == 2
    assert all(f.degree(name) == 1 and m == 1 for f, m in factors)
    sols = solve_system([p, MPoly.var(ERING, v, "y")], v, context=TriangularContext(ERING))
    assert len(sols) == 2


def _count_calls(monkeypatch, name):
    """Record every call of dcroadmap.solve.<name>: its argument tuple and
    its result, or the exception it raised."""
    calls = []
    orig = getattr(solve, name)

    def counted(*args, **kwargs):
        try:
            out = orig(*args, **kwargs)
        except Exception as e:
            calls.append((args, e))
            raise
        calls.append((args, out))
        return out

    monkeypatch.setattr(solve, name, counted)
    return calls


def test_non_separating_form_is_rejected(monkeypatch):
    # with c = 1 the form x + y takes the value 1 at both (1, 0) and (0, 1);
    # the c = 2 form x + 2y separates them and its shape basis certifies it
    forms = _count_calls(monkeypatch, "_solve_branch_with_form")
    sols = solve_system([P("x^2 + y^2 - 1"), P("x + y - 1")], XY)
    assert len(forms) == 2
    (args1, first), (args2, second) = forms  # args[5] is the form's constant c
    assert args1[5] == 1 and isinstance(first, ArithmeticError)
    assert args2[5] == 2 and second[1] is True
    points = set()
    for s in sols:
        ctx_plus = _eval_coords(s)
        for x, y in ((1, 0), (0, 1)):
            if all(ctx_plus.sign_mpoly((c - s.denom.scale(QQ(q))).with_vars(ctx_plus.tvars)) == 0
                   for c, q in zip(s.coords, (x, y))):
                points.add((x, y))
    assert len(sols) == 2 and points == {(1, 0), (0, 1)}


@pytest.mark.parametrize("equations, variables", [
    # x-critical points of the unit circle
    (["x^2 + y^2 - 1", "2*y"], XY),
    # x-critical points of the unit sphere cut by the plane y = z
    (["x^2 + y^2 + z^2 - 1", "y - z", "-2*y - 2*z"], ("x", "y", "z")),
])
def test_shape_basis_certifies_first_form(monkeypatch, equations, variables):
    forms = _count_calls(monkeypatch, "_solve_branch_with_form")
    shapes = _count_calls(monkeypatch, "shape_basis")
    sols = solve_system([P(e, variables) for e in equations], variables)
    assert len(sols) == 2
    assert len(forms) == 1 and forms[0][1][1] is True
    assert len(shapes) == 1


def test_elimination_route_needs_two_agreeing_forms(monkeypatch):
    monkeypatch.setattr(solve, "_groebner_shape", lambda *args: None)
    forms = _count_calls(monkeypatch, "_solve_branch_with_form")
    sols = solve_system([P("x^2 + y^2 - 1"), P("2*y")], XY)
    assert len(sols) == 2
    assert len(forms) == 2
    assert [len(out[0]) for _args, out in forms] == [2, 2]
    assert all(out[1] is False for _args, out in forms)


def test_relation_vanishing_at_a_root_rejects_the_form(monkeypatch):
    # on the elimination route the c = 1 form's relation for y has a
    # coefficient a_y that vanishes at a real root of its eliminant; that
    # root's point cannot be read off the relation, so the form is rejected
    monkeypatch.setattr(solve, "_groebner_shape", lambda *args: None)
    forms = _count_calls(monkeypatch, "_solve_branch_with_form")
    sols = solve_system([P("x*y - 1"), P("y^2 - x")], XY)
    assert len(sols) == 1
    assert [args[5] for args, _out in forms] == [1, 2, 3]
    first = forms[0][1]
    assert isinstance(first, ArithmeticError) and "no usable coordinate relation" in str(first)
    assert [(len(out[0]), out[1]) for _args, out in forms[1:]] == [(1, False), (1, False)]
    ctx_plus = _eval_coords(sols[0])
    for c in sols[0].coords:  # the point (1, 1)
        assert ctx_plus.sign_mpoly((c - sols[0].denom).with_vars(ctx_plus.tvars)) == 0
