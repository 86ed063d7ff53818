import pytest

from dcroadmap import solve
from dcroadmap.errors import SeparationError
from dcroadmap.infring import QQ, InfElem, eps, zeta
from dcroadmap.mpoly import ERING, QRING, MPoly, parse_poly
from dcroadmap.optimsub import closest_pairs
from dcroadmap.points import sample_components
from dcroadmap.realroots import TriangularContext, thom_encodings, triangular_sign
from dcroadmap.roadmap import roadmap_bounded
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


def test_a_system_that_is_not_zero_dimensional_raises():
    # the circle has infinitely many points; no finite list is its solution
    # set, so the solver hands it to component sampling
    with pytest.raises(SeparationError):
        solve_system([P("x^2 + y^2 - 1")], XY)


def test_closest_pairs_of_concentric_circles_raises():
    # every ray from the origin meets both circles at a critical pair, so
    # the critical-pair system is not zero-dimensional
    with pytest.raises(SeparationError):
        closest_pairs([P("x^2 + y^2 - 1")], [], [P("x^2 + y^2 - 4")], [])


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
    assert args2[5] == 2 and isinstance(second, list) and len(second) == 2
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
    assert len(forms) == 1 and isinstance(forms[0][1], list) and len(forms[0][1]) == 2
    assert len(shapes) == 1


def test_a_zero_over_zero_candidate_is_rejected():
    # [x*y - 1, y^2 - x] read through the coordinates (3U + 3)/(3U + 3) at
    # the roots of U^2 - U - 2: at U = 2 they give the point (1, 1); at
    # U = -1 both are 0/0, which every substituted equation reads as 0
    system = [P("x*y - 1"), P("y^2 - x")]
    u = ("U",)
    denom = parse_poly("3*U + 3", u)
    lo, hi = thom_encodings(parse_poly("U^2 - U - 2", u), "U")
    for enc, ok in ((lo, False), (hi, True)):
        ctx_plus = TriangularContext(QRING).extend("U", enc.poly, enc.signs)
        assert solve._verify_point(system, XY, denom, (denom, denom), ctx_plus, "U") is ok


def test_each_polynomial_is_factored_once_per_input(monkeypatch):
    calls = []
    orig = solve.factor

    def counted(p):
        calls.append(((p.ring.name, p.vars, p), len(solve._FACTOR_CACHE)))
        return orig(p)

    monkeypatch.setattr(solve, "factor", counted)
    two = P("(x^2 + y^2 - 1)*((x - 3)^2 + y^2 - 1)")
    assert roadmap_bounded(two, sample_components([two])).component_count() == 2
    keys = [key for key, _size in calls]
    assert keys and len(keys) == len(set(keys))
    # a new input starts from an empty cache: the circle, a factor of the
    # first input, is factored again
    del calls[:]
    circle = P("x^2 + y^2 - 1")
    assert roadmap_bounded(circle, sample_components([circle])).component_count() == 1
    assert calls[0][1] == 0
    assert ("QQ", XY, circle) in [key for key, _size in calls]


def test_a_common_factor_splits_the_elimination(monkeypatch):
    # Res_y((x - y)(x + 1), (x - y)(y + 2)) vanishes: the pair shares the
    # factor x - y, so elimination goes on once with the factor and once
    # with the cofactors x + 1 and y + 2; only the second leaves x + 1
    calls = _count_calls(monkeypatch, "eliminate_to")
    out = solve.eliminate_to([P("(x - y)*(x + 1)"), P("(x - y)*(y + 2)")], {"x"}, XY)
    assert out == [P("x + 1")]
    # each call is recorded when it returns, so the outer one comes last
    assert [args[0] for args, _out in calls[:-1]] == [[P("x - y")], [P("x + 1"), P("y + 2")]]
