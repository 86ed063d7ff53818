import pytest

from dcroadmap import solve
from dcroadmap.errors import NotZeroDimensionalError, ResourceBudgetError, SeparationError
from dcroadmap.infring import QQ, InfElem, eps, zeta
from dcroadmap.mpoly import ERING, QRING, MPoly, parse_poly
from dcroadmap.optimsub import closest_pairs
from dcroadmap.points import points_equal, rur_sign, sample_components
from dcroadmap.realroots import TriangularContext, thom_encodings
from dcroadmap.roadmap import roadmap_bounded
from dcroadmap.solve import factor_mpoly, solve_system

XY = ("x", "y")


def P(t, v=XY):
    return parse_poly(t, v)


def _eval_coords(sol):
    """The context that fixes a solution's root, where its coordinates are
    checked through sign_mpoly."""
    ctx_plus = sol.base.extend(sol.uvar, sol.f, sol.sigma)
    return ctx_plus


def test_circle_line_intersection():
    sols = solve_system([P("x^2 + y^2 - 1"), P("x - y")], XY)
    assert len(sols) == 2
    for s in sols:
        ctx_plus = _eval_coords(s)
        # check x == y and x^2 + y^2 == 1 via the coordinates
        num = s.F[1] - s.F[2]
        assert ctx_plus.sign_mpoly(num.with_vars(ctx_plus.tvars)) == 0
        lhs = s.F[1] ** 2 + s.F[2] ** 2 - s.F[0] ** 2
        assert ctx_plus.sign_mpoly(lhs.with_vars(ctx_plus.tvars)) == 0


def test_a_system_that_is_not_zero_dimensional_raises():
    # the circle and the line x = 0 have infinitely many points; no finite
    # list is their solution set, so the solver hands them to component
    # sampling.  The line is a branch that leaves y free.
    for equations in (["x^2 + y^2 - 1"], ["x^2"], ["x*(x - 5)", "x*(x - 7)"]):
        with pytest.raises(NotZeroDimensionalError):
            solve_system([P(e) for e in equations], XY)


@pytest.mark.parametrize("equations", [["x - 1", "w - 2"], ["x^2 - 1", "(w - 2)*x"]])
def test_a_polynomial_in_an_undeclared_variable_raises(equations):
    # w is neither solved for nor a context variable, whether it appears in
    # a polynomial of its own or in a factor of one in x
    with pytest.raises(ValueError, match="unknown variables"):
        solve_system([parse_poly(e, ("x", "w")) for e in equations], ("x",))


def test_a_budget_tries_at_least_one_separating_form():
    # a budget with no form to try would read every system as one with no
    # certified form, the line x^2 = 0 included; with one form the solver
    # still tells that the line is not zero-dimensional
    with pytest.raises(ValueError, match="retries"):
        solve.Budget(retries=0)
    with pytest.raises(NotZeroDimensionalError):
        solve_system([P("x^2")], XY, budget=solve.Budget(retries=1))


def _sqrt2(ring=QRING, xvars=("x",), sigma=(0, 1)):
    """The point x = sqrt(2) (x = -sqrt(2) for sigma (0, -1)), built afresh
    from its data."""
    u = ("U",)
    f, one, root = (parse_poly(t, u) for t in ("U^2 - 2", "1", "U"))
    if ring is ERING:
        f, one, root = f.to_ering(), one.to_ering(), root.to_ering()
    return solve.RealUnivRep(TriangularContext(QRING), "U", f, sigma, (one, root), xvars)


def test_points_built_from_equal_data_are_equal_and_hash_alike():
    a, b = _sqrt2(), _sqrt2()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1 and len(dict.fromkeys([a, b, a])) == 1
    assert a != _sqrt2(sigma=(0, -1)) and a != _sqrt2(xvars=("y",))
    # the solver's points are values too: two solves give equal lists
    system = [P("x^2 + y^2 - 1"), P("x - y")]
    assert solve_system(system, XY) == solve_system(system, XY)


def test_the_same_polynomials_over_two_rings_give_unequal_points():
    # MPoly equality ignores the ring, a point's does not: the two points
    # are compared over the infinitesimal ring only by points_equal
    rational, infinitesimal = _sqrt2(), _sqrt2(ERING)
    assert rational.f == infinitesimal.f and rational.F == infinitesimal.F
    assert rational != infinitesimal
    assert len({rational, infinitesimal}) == 2


def test_to_ering_moves_a_point_to_the_infinitesimal_ring_once():
    u = _sqrt2(sigma=(0, 1, 1))
    e = u.to_ering()
    assert e.f.ring is ERING and e.base.ring is ERING
    assert all(g.ring is ERING for g in e.F)
    assert e != u and points_equal(e, u) and points_equal(u, e)
    # a point over ERING is its own image
    assert e.to_ering() is e and u.to_ering() == e


def _sqrt2_context(sign):
    """The one-level tower t = sign * sqrt(2), fixed by Thom signs."""
    (enc,) = [e for e in thom_encodings(parse_poly("t^2 - 2", ("t",)), "t")
              if e.signs[1] == sign]
    return TriangularContext(QRING).extend("t", enc.poly, enc.signs)


@pytest.mark.parametrize("equation, at_minus, at_plus", [
    ("x^2 - t", 0, 2),
    ("x - t", 1, 1),
    ("x^2 + t", 2, 0),
    ("(x - 1)*(x^2 - t)", 1, 3),
    ("x^3 - t*x", 1, 3),
])
def test_one_variable_over_a_tower_keeps_only_the_roots_at_its_point(equation, at_minus, at_plus):
    # a one-variable system takes the shape route, whose basis also holds
    # the conjugate t; its roots there must not come back
    p = parse_poly(equation, ("t", "x"))
    for sign, count in ((-1, at_minus), (1, at_plus)):
        sols = solve_system([p], ("x",), context=_sqrt2_context(sign))
        assert len(sols) == count
        assert all(rur_sign(u, p) == 0 for u in sols)


def test_a_branch_with_no_points_that_leaves_a_coordinate_free_is_empty():
    # x = 5 and x = 0 have no common point, whatever y is
    assert solve_system([P("x - 5"), P("x")], XY) == []


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
            num = s.F[1] - s.F[0].scale(QQ(q))
            if ctx_plus.sign_mpoly(num.with_vars(ctx_plus.tvars)) == 0:
                values.add(q)
    assert values == {1, 2}


def test_a_rational_solution_has_a_linear_eliminant():
    # the eliminant (U - 1)(U + 1) splits into its factors, and each point
    # is built over its own
    sols = solve_system([P("x^2 + y^2 - 1"), P("y")], XY)
    assert len(sols) == 2
    assert [s.f.degree(s.uvar) for s in sols] == [1, 1]
    assert all(rur_sign(s, P("x^2 - 1")) == 0 and rur_sign(s, P("y")) == 0 for s in sols)
    assert {rur_sign(s, P("x")) for s in sols} == {-1, 1}


def test_an_irreducible_eliminant_stays_whole():
    # U^2 - 2 has no rational factor: both points keep it
    sols = solve_system([P("x^2 + y^2 - 2"), P("y")], XY)
    assert len(sols) == 2
    (f,) = {s.f for s in sols}
    assert f.degree(sols[0].uvar) == 2
    assert factor_mpoly(f) == [(f, 1)]


def test_the_candidate_bound_counts_the_roots_of_every_factor():
    # both equations are irreducible, so the system is one branch; its four
    # points are rational, so its eliminant is four linear factors of one
    # root each, and only their total passes the bound
    system = [P("x^2 + y^2 - 5"), P("x*y - 2")]
    sols = solve_system(system, XY)
    assert len(sols) == 4 and all(s.f.degree(s.uvar) == 1 for s in sols)
    assert len(solve.split_branches(system)) == 1
    with pytest.raises(ResourceBudgetError):
        solve_system(system, XY, budget=solve.Budget(max_candidates=3))


def test_split_branches_returns_each_branch_once():
    # the factors of the second polynomial come in the other order, over
    # the other variable tuple; the branch {x - y, x + y} is met twice
    a, b = P("x - y"), P("x + y")
    system = [P("(x - y)*(x + y)"), P("(x + y)*(x - y)", ("y", "x"))]
    branches = solve.split_branches(system)
    assert len(branches) == 3
    assert {frozenset(br) for br in branches} == {frozenset({a, b}), frozenset({a}), frozenset({b})}
    assert all(len(br) == len(set(br)) for br in branches)


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
        ctx_plus = s.base.extend(s.uvar, s.f, s.sigma)
        num = s.F[2] ** 4 - 2 * s.F[0] ** 4
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
    (args1, first), (args2, second) = forms  # args[4] is the form's constant c
    assert args1[4] == 1 and isinstance(first, ArithmeticError)
    assert args2[4] == 2 and isinstance(second, list) and len(second) == 2
    points = set()
    for s in sols:
        ctx_plus = _eval_coords(s)
        for x, y in ((1, 0), (0, 1)):
            if all(ctx_plus.sign_mpoly((c - s.F[0].scale(QQ(q))).with_vars(ctx_plus.tvars)) == 0
                   for c, q in zip(s.F[1:], (x, y))):
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
        assert solve._verify_point(system, XY, denom, (denom, denom), ctx_plus) is ok


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
