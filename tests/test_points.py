import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcroadmap.infring import QQ, InfElem, eps, zeta
from dcroadmap.mpoly import ERING, QRING, MPoly, merge_vars, parse_poly
from dcroadmap.realroots import ThomEncoding, TriangularContext, compare_roots, thom_encodings
from dcroadmap import points, realroots
from dcroadmap.points import (
    BoundedCache,
    RealUnivRep,
    _linear_sign_at,
    coordinate_encoding_cached,
    dedupe_points,
    flatten_rur,
    limit_point,
    limit_thom,
    points_equal,
    project_rur,
    rational_between,
    rur_coordinate_encoding,
    rur_from_raw,
    rur_sign,
    sample_components,
)

X = ("X",)
XY = ("x", "y")


def P(t, v=XY):
    return parse_poly(t, v)


def mk_rational_rur(values, xvars=("x", "y")):
    """RUR of a rational point: root of U - 0 with constant coordinates."""
    ring = QRING
    uv = "U9"
    variables = (uv,)
    f = MPoly.var(ring, variables, uv)
    one = MPoly.const(ring, variables, 1)
    F = (one,) + tuple(MPoly.const(ring, variables, QQ(v)) for v in values)
    return RealUnivRep(TriangularContext(ring), uv, f, (0, 1), F, tuple(xvars))


def test_project_rur():
    u = mk_rational_rur([1, 2, 3], ("x", "y", "z"))
    assert project_rur(u, 3) is not u and project_rur(u, 3).F == u.F
    p1 = project_rur(u, 1)
    assert len(p1.F) == 2 and p1.xvars == ("x",)
    p0 = project_rur(u, 0)
    assert len(p0.F) == 1
    with pytest.raises(ValueError):
        project_rur(u, 5)


def test_points_equal_compares_the_first_upto_coordinates():
    u = mk_rational_rur([1, 2])
    assert points_equal(u, mk_rational_rur([1, 2]))
    assert not points_equal(u, mk_rational_rur([1, 3]))
    assert points_equal(u, mk_rational_rur([1, 3]), upto=1)
    assert not points_equal(u, mk_rational_rur([2, 2]), upto=1)
    # a projection: equal on the coordinates both have, not as points
    w = mk_rational_rur([1], ("x",))
    assert points_equal(u, w, upto=1) and points_equal(w, u, upto=1)
    assert not points_equal(u, w)
    assert not points_equal(u, w, upto=2)
    # a rational and an infinitesimal representation are compared over ERING
    ue = RealUnivRep(TriangularContext(ERING), u.uvar, u.f.to_ering(), u.sigma,
                     tuple(g.to_ering() for g in u.F), u.xvars)
    assert points_equal(u, ue) and points_equal(ue, u)
    # a different base context counts as not equal, and does not raise
    (sqrt2,) = [e for e in thom_encodings(P("t^2 - 2", ("t",)), "t", TriangularContext(QRING))
                if e.signs[1] > 0]
    ctx = TriangularContext(QRING).extend("t", sqrt2.poly, sqrt2.signs)
    ub = RealUnivRep(ctx, u.uvar, u.f, u.sigma, u.F, u.xvars)
    assert not points_equal(u, ub) and not points_equal(u, ub, upto=1)


def test_rur_sign():
    u = mk_rational_rur([QQ(1, 2), QQ(-1, 3)])
    assert rur_sign(u, P("x")) == 1
    assert rur_sign(u, P("y")) == -1
    assert rur_sign(u, P("2*x - 1")) == 0
    assert rur_sign(u, P("x^2 + y^2 - 1")) == -1


def test_rational_between():
    encs = thom_encodings(parse_poly("X^2 - 2", X), "X")
    q = rational_between(encs[0], encs[1])
    assert -2 < q < 2
    assert q * q != 2


def test_limit_thom_spec_examples():
    e1 = InfElem.sym(eps(1))
    one = InfElem.const(1)
    ctx = TriangularContext(ERING)
    # f = (X - e1)(X - 2): roots e1 and 2
    f = MPoly(ERING, X, {(2,): one, (1,): -(InfElem.const(2) + e1), (0,): 2 * e1})
    encs = thom_encodings(f, "X", ctx)
    j = eps(1).global_index
    lim0 = limit_thom(encs[0], j)
    lim2 = limit_thom(encs[1], j)
    # limits are roots 0 and 2 of the limit polynomial X(X - 2)
    z = limit_root_value(lim0)
    assert z == 0
    assert limit_root_value(lim2) == 2
    # f = X^2 - e1: both roots collapse to the double root 0 of X^2
    g = MPoly(ERING, X, {(2,): one, (0,): -e1})
    for enc in thom_encodings(g, "X", ctx):
        lim = limit_thom(enc, j)
        assert lim.signs == (0, 0, 1)


def limit_root_value(enc):
    """Rational value of a degree-1-root encoding (test helper)."""
    p = enc.poly
    var = enc.var
    # find the rational root among candidates by sign tests
    for cand in range(-10, 11):
        shifted = p.subst({var: MPoly.const(p.ring, p.vars, QQ(cand))})
        ctx = enc.context
        v = shifted.with_vars(ctx.tvars) if ctx.nlevels else shifted
        sgn = ctx.sign_mpoly(v) if ctx.nlevels else (
            p.ring.sign(v.const_value()) if v.is_const() else None)
        if sgn == 0:
            from dcroadmap.points import _linear_sign_at

            if _linear_sign_at(enc, QQ(cand)) == 0:
                return cand
    raise AssertionError("no small rational root matched")


def test_limit_thom_unbounded_root():
    z1 = InfElem.sym(zeta(1))
    one = InfElem.const(1)
    ctx = TriangularContext(ERING)
    # z1*X - 1 has the single root 1/z1, unbounded as z1 -> 0
    f = MPoly(ERING, X, {(1,): z1, (0,): -one})
    enc = thom_encodings(f, "X", ctx)[0]
    assert limit_thom(enc, zeta(1).global_index) is None


def test_limit_point_spec_examples():
    e1 = InfElem.sym(eps(1))
    one = InfElem.const(1)
    j = eps(1).global_index
    uv = "U5"
    V = (uv,)
    # point (e1, 1) as RUR over the root of U - e1
    f = MPoly(ERING, V, {(1,): one, (0,): -e1})
    F = (MPoly.const(ERING, V, 1), MPoly.var(ERING, V, uv), MPoly.const(ERING, V, 1))
    u = RealUnivRep(TriangularContext(ERING), uv, f, (0, 1), F, ("x", "y"))
    lim = limit_point(u, j)
    assert lim is not None
    assert rur_sign(lim, P("x")) == 0
    assert rur_sign(lim, P("y - 1")) == 0
    # eta-free input: idempotence
    u2 = mk_rational_rur([3, 4])
    lim2 = limit_point(RealUnivRep(TriangularContext(ERING), u2.uvar, u2.f.to_ering(),
                                   u2.sigma, tuple(g.to_ering() for g in u2.F), u2.xvars), j)
    assert rur_sign(lim2, P("x - 3").to_ering()) == 0
    assert rur_sign(lim2, P("y - 4").to_ering()) == 0


def test_limit_point_sqrt2_perturbed():
    # point (sqrt2 + e1^2, -e1) -> (sqrt2, 0)
    e1 = InfElem.sym(eps(1))
    one = InfElem.const(1)
    j = eps(1).global_index
    uv = "U6"
    V = (uv,)
    # root x of (U - e1^2)^2 - 2 : x = sqrt2 + e1^2 is a root of U^2 - 2 shifted
    shift = MPoly(ERING, V, {(1,): one, (0,): -e1 * e1})
    f = shift * shift - MPoly.const(ERING, V, 2)
    encs = thom_encodings(f, uv, TriangularContext(ERING))
    pos = encs[1]
    F = (MPoly.const(ERING, V, 1), MPoly.var(ERING, V, uv), MPoly.const(ERING, V, -e1))
    u = RealUnivRep(TriangularContext(ERING), uv, f, pos.signs, F, ("x", "y"))
    lim = limit_point(u, j)
    assert lim is not None
    assert rur_sign(lim, P("x^2 - 2").to_ering()) == 0
    assert rur_sign(lim, P("y").to_ering()) == 0


def test_sample_components_single_point_variety():
    sams = sample_components([P("x^2 + y^2")])
    assert len(sams) == 1
    u = sams[0]
    assert rur_sign(u, P("x")) == 0
    assert rur_sign(u, P("y")) == 0


def test_sample_components_empty_variety():
    assert sample_components([P("x^2 + y^2 + 1")]) == []


@pytest.mark.parametrize("equations, variables, count", [
    (["x^2 + y^2"], XY, 1),
    (["x^4 + y^4"], XY, 1),
    (["x^2 + y^2", "z - x"], ("x", "y", "z"), 1),
    (["x^2 + y^2 + 1"], XY, 0),
], ids=["x^2 + y^2", "x^4 + y^4", "x^2 + y^2, z - x", "x^2 + y^2 + 1"])
def test_isolated_real_points_are_sampled(equations, variables, count):
    # each real zero set is the origin or empty, while the complex one is a
    # curve: the solver raises on these systems, and sampling owns them
    pts = sample_components([P(e, variables) for e in equations], xvars=variables)
    assert len(pts) == count
    for u in pts:
        assert all(rur_sign(u, P(v, variables)) == 0 for v in variables)


def test_sample_components_two_circles():
    p = P("(x^2 + y^2 - 1)*((x - 4)^2 + y^2 - 1)")
    sams = sample_components([p])
    assert len(sams) >= 2
    on_left = on_right = 0
    for u in sams:
        assert rur_sign(u, p) == 0
        if rur_sign(u, P("x - 2")) < 0:
            on_left += 1
        else:
            on_right += 1
    assert on_left >= 1 and on_right >= 1


def test_sample_components_assume_finite():
    sams = sample_components([P("x^2 + y^2 - 1"), P("y")])
    assert len(sams) == 2


def test_flatten_rur_two_levels():
    ctx0 = TriangularContext(QRING)
    f1 = parse_poly("T1^2 - 2", ("T1",))
    enc1 = thom_encodings(f1, "T1")[1]
    ctx1 = ctx0.extend("T1", enc1.poly, enc1.signs)
    uv = "U7"
    tv = ("T1", uv)
    f = parse_poly(f"{uv}^2 - T1", tv)
    encs = thom_encodings(f, uv, ctx1)
    root = encs[1]  # 2^(1/4)
    one = MPoly.const(QRING, tv, 1)
    F = (one, MPoly.var(QRING, tv, uv))
    u = RealUnivRep(ctx1, uv, f, root.signs, F, ("x",))
    flat = flatten_rur(u)
    assert flat.base.nlevels == 0
    # point coordinate x = 2^(1/4)
    assert rur_sign(flat, parse_poly("x^4 - 2", ("x",))) == 0
    assert rur_sign(flat, parse_poly("x", ("x",))) == 1


def test_rur_coordinate_encoding():
    sams = sample_components([P("x^2 + y^2 - 1"), P("x - y")])
    assert len(sams) == 2
    for u in sams:
        cx = rur_coordinate_encoding(u, 1)
        # coordinate is +- 1/sqrt(2): 2*Y^2 - 1 = 0
        ctxp = cx.context.extend(cx.var, cx.poly, cx.signs)
        val = parse_poly("2*Y_^2 - 1", ("Y_",)).with_vars(ctxp.tvars)
        assert ctxp.sign_mpoly(val) == 0


def _rur_at(ctx, f, uvar, root, coords, xvars):
    """RUR over ctx of the root-th real root of f in uvar (increasing order),
    with coordinates coords[i] / coords[0]."""
    f = f.with_vars(merge_vars(ctx.tvars, (uvar,)))
    signs = thom_encodings(f, uvar, ctx)[root].signs
    return RealUnivRep(ctx, uvar, f, signs, tuple(g.with_vars(f.vars) for g in coords), xvars)


def _root_over(ctx, g, root):
    """The root-th real root of g in Y_ over ctx."""
    return thom_encodings(g.with_vars(merge_vars(ctx.tvars, ("Y_",))), "Y_", ctx)[root]


def _coordinate_cases():
    """(point, coordinate index, the coordinate's value as an encoding)."""
    q = TriangularContext(QRING)
    u = ("U",)
    rational = mk_rational_rur([QQ(7, 3), -5])
    yield rational, 1, _root_over(q, P("3*Y_ - 7", ("Y_",)), 0)
    yield rational, 2, _root_over(q, P("Y_ + 5", ("Y_",)), 0)
    # (sqrt 2, 3 - sqrt 2)
    irrational = _rur_at(q, P("U^2 - 2", u), "U", 1, (P("1", u), P("U", u), P("3 - U", u)), XY)
    yield irrational, 1, _root_over(q, P("Y_^2 - 2", ("Y_",)), 1)
    yield irrational, 2, _root_over(q, P("Y_^2 - 6*Y_ + 7", ("Y_",)), 0)
    # over T = sqrt 2: (2^(1/4), 2^(3/4)) at the positive root of U^2 - T
    f1 = P("T^2 - 2", ("T",))
    tower = q.extend("T", f1, thom_encodings(f1, "T")[1].signs)
    tu = ("T", "U")
    second = _rur_at(tower, P("U^2 - T", tu), "U", 1, (P("1", tu), P("U", tu), P("T*U", tu)), XY)
    ty = ("T", "Y_")
    yield second, 1, _root_over(tower, P("Y_^2 - T", ty), 1)
    yield second, 2, _root_over(tower, P("Y_^2 - 2*T", ty), 1)
    # over D[eps]: (1 + sqrt eps, -sqrt eps) at the positive root of U^2 - eps
    e = ERING
    ue = MPoly.var(e, u, "U")
    one = MPoly.const(e, u, 1)
    e1 = MPoly.const(e, u, InfElem.sym(eps(1)))
    infinitesimal = _rur_at(TriangularContext(e), ue * ue - e1, "U", 1, (one, one + ue, -ue), XY)
    y = MPoly.var(e, ("Y_",), "Y_")
    ey = e1.with_vars(("Y_",))
    yield infinitesimal, 1, _root_over(TriangularContext(e), (y - 1) * (y - 1) - ey, 1)
    yield infinitesimal, 2, _root_over(TriangularContext(e), y * y - ey, 0)


@pytest.mark.parametrize("u,i,value", list(_coordinate_cases()))
def test_rur_coordinate_encoding_is_the_coordinates_entry_of_thom_encodings(u, i, value):
    enc = rur_coordinate_encoding(u, i)
    entries = [e for e in thom_encodings(enc.poly, enc.var, enc.context)
               if e.poly == enc.poly and e.signs == enc.signs]
    assert len(entries) == 1
    assert enc.context is u.base and enc.var == "Y_"
    assert compare_roots(entries[0], value) == 0


def test_points_equal_is_symmetric():
    q = TriangularContext(QRING)
    u, v = ("U",), ("V",)
    one_u, one_v = P("1", u), P("1", v)
    # (sqrt 2, 1) at the root of U^2 - 2, and at the root 1 + sqrt 2 of
    # V^2 - 2V - 1 with a denominator
    a = _rur_at(q, P("U^2 - 2", u), "U", 1, (one_u, P("U", u), one_u), XY)
    b = _rur_at(q, P("V^2 - 2*V - 1", v), "V", 1,
                (P("2", v), P("2*V - 2", v), P("2", v)), XY)
    assert points_equal(a, b) and points_equal(b, a)
    # (sqrt 2, sqrt 2) shares only its first coordinate with them
    c = _rur_at(q, P("V^2 - 2", v), "V", 1, (one_v, P("V", v), P("V", v)), XY)
    for w in (a, b):
        assert not points_equal(w, c) and not points_equal(c, w)
        assert points_equal(w, c, upto=1) and points_equal(c, w, upto=1)


def _root_of(text):
    """The root of a linear polynomial in t over the empty rational context."""
    return ThomEncoding(TriangularContext(QRING), "t", parse_poly(text, ("t",)), (0, 1))


def test_linear_sign_distinguishes_roots_with_equal_hashes():
    # hash(-1) == hash(-2), so these two polynomials hash alike
    e1, e2 = _root_of("t - 1"), _root_of("t - 2")
    e2 = ThomEncoding(e1.context, e2.var, e2.poly, e2.signs)
    assert _linear_sign_at(e1, QQ(3, 2)) == -1
    assert _linear_sign_at(e2, QQ(3, 2)) == 1
    q = rational_between(e1, e2)
    assert 1 < q < 2


def test_dedupe_points_keeps_points_with_equal_hashes():
    def rur(text):
        f = parse_poly(text, ("T",))
        one = MPoly.const(QRING, ("T",), 1)
        return RealUnivRep(TriangularContext(QRING), "T", f, (0, 1),
                           (one, MPoly.var(QRING, ("T",), "T")), ("x",))

    assert len(dedupe_points([rur("T - 1"), rur("T - 2")])) == 2
    assert len(dedupe_points([rur("T - 1"), rur("T - 1")])) == 1


def test_coordinate_cache_hits_on_equal_fresh_point():
    u = mk_rational_rur([QQ(7, 3), 5])
    enc = coordinate_encoding_cached(u, 1)
    size = len(points._COORD_CACHE)
    again = coordinate_encoding_cached(mk_rational_rur([QQ(7, 3), 5]), 1)
    assert again is enc
    assert len(points._COORD_CACHE) == size


def test_bounded_cache_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(realroots, "CACHE_BOUND", 2)
    cache = BoundedCache()
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1
    cache.put("c", 3)
    assert len(cache) == 2
    assert cache.get("b") is None
    assert (cache.get("a"), cache.get("c")) == (1, 3)


def test_caches_are_emptied_only_when_the_outermost_input_changes():
    cache = BoundedCache()
    seen = []

    @points.per_input_caches
    def entry(system, nested=None):
        seen.append(cache.get("k"))
        cache.put("k", system)
        if nested is not None:
            entry(nested)

    entry("a")
    entry(["a"])  # the same input as a list: the cache is kept
    entry("b", nested="c")  # a new input empties it; the nested call does not
    assert seen == [None, "a", None, "b"]


def test_sampled_point_order_is_independent_of_the_hash_seed():
    # the factors of a product are sampled in branch order; a set of them
    # would follow the string hashes of the variable names
    script = (
        "from dcroadmap.mpoly import parse_poly\n"
        "from dcroadmap.points import sample_components\n"
        "p = parse_poly('(x^2 + y^2 - 1)*((x - 3)^2 + y^2 - 1)', ('x', 'y'))\n"
        "for u in sample_components([p], xvars=('x', 'y')):\n"
        "    print(u.f, u.sigma, u.F)\n")
    src = os.path.dirname(os.path.dirname(points.__file__))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    outs = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=600, check=True)
        outs.append(done.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_sample_components_univariate_is_solved_directly():
    # one polynomial in one variable: its zeros are the components
    for text, count in (("x^2 - 1", 2), ("x^3 - 2*x", 3), ("(x - 1)^2*(x + 3)", 2)):
        p = parse_poly(text, ("x",))
        pts = sample_components([p], xvars=("x",))
        assert len(pts) == count
        assert all(rur_sign(u, p) == 0 for u in pts)


@pytest.mark.parametrize("equations, count", [
    (["x", "y"], 1),
    (["x - 1", "y - 2"], 1),
    (["x^2 - 1", "y"], 2),
    (["x - y", "x + y"], 1),
])
def test_zero_dimensional_system_is_solved_directly(monkeypatch, equations, count):
    # each point of a finite zero set is a component; the deformation route
    # gives no answer on these within 30 s
    def no_deformation(*args):
        raise AssertionError("a zero-dimensional system reached the structured shapes")

    monkeypatch.setattr(points, "_sample_structured", no_deformation)
    system = [P(e) for e in equations]
    pts = sample_components(system, xvars=XY)
    assert len(pts) == count
    assert all(rur_sign(u, p) == 0 for u in pts for p in system)


# sign(root - q) from the level's Sturm chain against the general query


def _reference_sign(enc, q):
    """sign(root - q) through sign determination on a separate context."""
    ctx = enc.context.extend(enc.var, enc.poly, enc.signs)
    ring = enc.poly.ring
    lin = MPoly.var(ring, ctx.tvars, enc.var) - MPoly.const(ring, ctx.tvars, QQ(q))
    return ctx.sign_mpoly(lin)


def _check_linear_signs(encs, qs):
    for enc in encs:
        for q in qs:
            assert _linear_sign_at(enc, q) == _reference_sign(enc, q), (enc, q)


QS = [QQ(q) for q in (-3, -2, -1, QQ(-1, 2), 0, QQ(1, 1000), QQ(1, 3), 1, QQ(6, 5), QQ(3, 2), 2, 3)]


def test_linear_sign_at_rational_roots_of_squarefree_cubic():
    encs = thom_encodings(parse_poly("X^3 - X", X), "X")
    _check_linear_signs(encs, QS)
    for enc, root in zip(encs, (-1, 0, 1)):
        assert [_linear_sign_at(enc, q) for q in QS] == [(root > q) - (root < q) for q in QS]


def test_linear_sign_at_irrational_roots_of_squarefree_cubic():
    encs = thom_encodings(parse_poly("X^3 - 3*X + 1", X), "X")
    assert len(encs) == 3
    _check_linear_signs(encs, QS)


def test_linear_sign_at_double_root():
    encs = thom_encodings(parse_poly("(X - 1)^2*(X + 2)", X), "X")
    _check_linear_signs(encs, QS)
    assert [_linear_sign_at(e, 1) for e in encs] == [-1, 0]
    assert [_linear_sign_at(e, -2) for e in encs] == [0, 1]


def test_linear_sign_at_infinitesimal_root():
    z1 = InfElem.sym(zeta(1))
    one = InfElem.const(1)
    ctx = TriangularContext(ERING)
    # (X - 1)(X - z1): roots z1 and 1
    f = MPoly(ERING, X, {(2,): one, (1,): -(one + z1), (0,): z1})
    encs = thom_encodings(f, "X", ctx)
    _check_linear_signs(encs, QS)
    # z1 is positive and below every positive rational
    assert [_linear_sign_at(encs[0], q) for q in (0, QQ(1, 1000), 1)] == [1, -1, -1]
    assert [_linear_sign_at(encs[1], q) for q in (QQ(1, 1000), 1, 2)] == [1, 0, -1]
    g = MPoly(ERING, X, {(2,): one, (0,): -z1})
    _check_linear_signs(thom_encodings(g, "X", ctx), QS)


def test_linear_sign_at_second_level():
    f1 = parse_poly("T1^2 - 2", ("T1",))
    ctx1 = TriangularContext(QRING).extend("T1", f1, thom_encodings(f1, "T1")[1].signs)
    tv = ("T1", "U")
    # roots 1 and sqrt 2, then the two real fourth roots of 2
    for text in ("(U - 1)*(U - T1)", "U^2 - T1"):
        encs = thom_encodings(parse_poly(text, tv), "U", ctx1)
        assert len(encs) == 2
        _check_linear_signs(encs, QS)
    encs = thom_encodings(parse_poly("(U - 1)*(U - T1)", tv), "U", ctx1)
    assert [_linear_sign_at(e, 1) for e in encs] == [0, 1]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=5).filter(lambda cs: cs[-1] != 0),
       st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_linear_sign_at_agrees_with_sign_determination(coeffs, q):
    p = MPoly(QRING, X, {(i,): QQ(c) for i, c in enumerate(coeffs) if c})
    encs = thom_encodings(p, "X")
    roots_q = [QQ(q)] + [QQ(r) for r in range(-4, 5)]
    _check_linear_signs(encs, roots_q)
