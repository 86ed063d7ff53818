from dcroadmap.infring import QQ
from dcroadmap.mpoly import QRING, MPoly, parse_poly
from dcroadmap.optimsub import closest_pairs, closest_point, pseudo_critical_values
from dcroadmap.points import RealUnivRep, rur_sign
from dcroadmap.realroots import TriangularContext

XY = ("x", "y")
X3 = ("X1", "X2", "X3")


def P(t, v=XY):
    return parse_poly(t, v)


def mk_point(values, xvars=XY):
    uv = "Up_"
    f = MPoly.var(QRING, (uv,), uv)
    one = MPoly.const(QRING, (uv,), 1)
    F = (one,) + tuple(MPoly.const(QRING, (uv,), QQ(v)) for v in values)
    return RealUnivRep(TriangularContext(QRING), uv, f, (0, 1), F, tuple(xvars))


def _contains_value(encs, q):
    """True when some encoding in encs equals the rational q."""
    from dcroadmap.points import _linear_sign_at

    return any(_linear_sign_at(e, QQ(q)) == 0 for e in encs)


def test_pseudo_critical_circle_g_x1():
    vals = pseudo_critical_values([P("x^2 + y^2 - 1")], P("x"), XY)
    assert _contains_value(vals, -1)
    assert _contains_value(vals, 1)
    assert len(vals) < 40


def test_pseudo_critical_values_over_variables_the_family_does_not_use():
    # divide's step 3 passes its Lagrangian space: the coordinates and the
    # multipliers, which neither the circle nor G = x holds
    vals = pseudo_critical_values([P("x^2 + y^2 - 1")], P("x"), ("x", "y", "l"))
    assert [(e.poly, e.signs) for e in vals] == [
        (parse_poly("Zv_^2 - 1", ("Zv_",)), (0, -1, 1)),
        (parse_poly("Zv_^2 - 1", ("Zv_",)), (0, 1, 1))]


def test_pseudo_critical_empty_family():
    assert pseudo_critical_values([], P("x"), XY) == []


def test_pseudo_critical_finiteness_dedup():
    vals = pseudo_critical_values([P("x^2 + y^2 - 1")], P("x"), XY)
    from dcroadmap.realroots import compare_roots

    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert compare_roots(vals[i], vals[j]) != 0


def test_closest_point_circle():
    x = mk_point([3, 0])
    pts = closest_point([P("x^2 + y^2 - 1")], [], x)
    assert pts
    hits = [w for w in pts
            if rur_sign(w, P("x - 1")) == 0 and rur_sign(w, P("y")) == 0]
    assert hits


def test_closest_point_self():
    x = mk_point([1, 0])
    pts = closest_point([P("x^2 + y^2 - 1")], [], x)
    assert any(rur_sign(w, P("x - 1")) == 0 and rur_sign(w, P("y")) == 0 for w in pts)


def test_closest_pairs_two_circles():
    pts = closest_pairs([P("x^2 + y^2 - 1")], [], [P("(x - 3)^2 + y^2 - 1")], [],
                        base=TriangularContext(QRING), xvars=XY)
    assert any(rur_sign(w, P("x - 1")) == 0 and rur_sign(w, P("y")) == 0 for w in pts)
    assert any(rur_sign(w, P("x - 2")) == 0 and rur_sign(w, P("y")) == 0 for w in pts)


def test_closest_pairs_same_set_covers_components():
    tw = P("(x^2 + y^2 - 1)*((x - 4)^2 + y^2 - 1)")
    pts = closest_pairs([tw], [], [tw], [], base=TriangularContext(QRING), xvars=XY)
    left = [w for w in pts if rur_sign(w, P("x - 2")) < 0]
    right = [w for w in pts if rur_sign(w, P("x - 2")) > 0]
    assert left and right


def test_closest_pairs_single_points():
    p = [P("x - 1"), P("y")]
    q = [P("x - 5"), P("y - 2")]
    pts = closest_pairs(p, [], q, [], base=TriangularContext(QRING), xvars=XY)
    assert any(rur_sign(w, P("x - 1")) == 0 and rur_sign(w, P("y")) == 0 for w in pts)
    assert any(rur_sign(w, P("x - 5")) == 0 and rur_sign(w, P("y - 2")) == 0 for w in pts)
