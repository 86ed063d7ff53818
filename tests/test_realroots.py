import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcroadmap.errors import EmptyEncodingError
from dcroadmap.infring import QQ, InfElem, eps, zeta
from dcroadmap import realroots
from dcroadmap.mpoly import ERING, QRING, MPoly, parse_poly
from dcroadmap.realroots import (
    STRIP_MIN_TERMS,
    TriangularContext,
    compare_roots,
    content_strip,
    per_input_caches,
    shared_sign_determination,
    signs_at_encodings,
    tarski_query_mpoly,
    thom_encodings,
)

X = ("X",)


def P(text):
    return parse_poly(text, X)


def test_tarski_query_examples():
    assert tarski_query_mpoly(P("X^2 - 2"), P("1"), "X") == 2
    assert tarski_query_mpoly(P("X^2 - 2"), P("X"), "X") == 0
    assert tarski_query_mpoly(P("X^3 - X"), P("X + 2"), "X") == 3


def test_tarski_query_zero_p():
    with pytest.raises(ValueError):
        tarski_query_mpoly(MPoly.zero(QRING, X), P("1"), "X")


def test_tarski_query_multiplicity_counts_once():
    assert tarski_query_mpoly(P("(X - 1)^2"), P("1"), "X") == 1
    assert tarski_query_mpoly(P("(X - 1)^2*(X + 3)"), P("X"), "X") == 0


def test_thom_encodings_sqrt2():
    encs = thom_encodings(P("X^2 - 2"), "X")
    assert len(encs) == 2
    assert encs[0].signs == (0, -1, 1)
    assert encs[1].signs == (0, 1, 1)


def test_sign_determination_examples():
    p = P("(X - 1)^2")
    rows = [s for _e, s in signs_at_encodings(p, [P("X - 1")], "X")]
    assert rows == [(0,)]
    # signs of X^2 - eps1 at roots -1, 0, 1 of X^3 - X over the inf ring
    e1 = InfElem.sym(eps(1))
    p3 = parse_poly("X^3 - X", X).to_ering()
    q = MPoly(ERING, X, {(2,): InfElem.const(1), (0,): -e1})
    rows = [s for _e, s in signs_at_encodings(p3, [q], "X")]
    assert rows == [(1,), (-1,), (1,)]


def test_sign_determination_count_matches_tarski():
    rng = random.Random(17)
    for _ in range(30):
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, -1, 2])]
        p = MPoly(QRING, X, {(i,): c for i, c in enumerate(coeffs) if c})
        if p.is_zero() or p.degree("X") == 0:
            continue
        n = tarski_query_mpoly(p, P("1"), "X")
        encs = thom_encodings(p, "X")
        assert len(encs) == n
        assert len({e.signs for e in encs}) == n


def test_compare_roots_same_poly():
    encs = thom_encodings(P("X^2 - 2"), "X")
    assert compare_roots(encs[0], encs[1]) == -1
    assert compare_roots(encs[1], encs[0]) == 1
    assert compare_roots(encs[0], encs[0]) == 0


def test_compare_roots_cross_poly():
    sqrt2 = thom_encodings(P("X^2 - 2"), "X")[1]
    three_halves = thom_encodings(P("2*X - 3"), "X")[0]
    assert compare_roots(sqrt2, three_halves) == -1
    assert compare_roots(three_halves, sqrt2) == 1
    one_a = thom_encodings(P("X - 1"), "X")[0]
    one_b = thom_encodings(P("X^2 - 1"), "X")[1]
    assert compare_roots(one_a, one_b) == 0


def test_compare_roots_ordering_random():
    rng = random.Random(23)
    for _ in range(40):
        a = rng.randint(-8, 8)
        b = rng.randint(-8, 8)
        if a == b:
            continue
        ea = thom_encodings(parse_poly(f"X - {a}" if a >= 0 else f"X + {-a}", X), "X")[0]
        pb = parse_poly(f"(X - {b})*(X^2 + 1)" if b >= 0 else f"(X + {-b})*(X^2 + 1)", X)
        eb = thom_encodings(pb, "X")[0]
        want = -1 if a < b else 1
        assert compare_roots(ea, eb) == want


def test_triangular_sign_level1():
    ctx0 = TriangularContext(QRING)
    t = ("T1",)
    f = parse_poly("T1^2 - 2", t)
    enc = thom_encodings(f, "T1")[1]  # sqrt 2
    ctx = ctx0.extend("T1", enc.poly, enc.signs)
    assert ctx.sign_mpoly(parse_poly("T1^2 - 1", t)) == 1
    assert ctx.sign_mpoly(parse_poly("T1^2 - 2", t)) == 0
    assert ctx.sign_mpoly(parse_poly("T1 - 2", t)) == -1


def test_triangular_sign_level2():
    ctx0 = TriangularContext(QRING)
    t1 = ("T1",)
    f1 = parse_poly("T1^2 - 2", t1)
    enc1 = thom_encodings(f1, "T1")[1]
    ctx1 = ctx0.extend("T1", enc1.poly, enc1.signs)
    t12 = ("T1", "T2")
    f2 = parse_poly("T2^2 - T1", t12)
    encs2 = thom_encodings(f2, "T2", ctx1)
    assert len(encs2) == 2
    pos = encs2[1]
    ctx2 = ctx1.extend("T2", pos.poly, pos.signs)
    # theta2 = 2^(1/4): T2^4 - 2 vanishes
    assert ctx2.sign_mpoly(parse_poly("T2^4 - 2", t12)) == 0
    assert ctx2.sign_mpoly(parse_poly("T2 - 2", t12)) == -1
    assert ctx2.sign_mpoly(parse_poly("T2^4 - 1", t12)) == 1


def test_triangular_sign_inconsistent_encoding():
    ctx0 = TriangularContext(QRING)
    t = ("T1",)
    f = parse_poly("T1^2 + 1", t)
    ctx = ctx0.extend("T1", f, (0, 1, 1))
    with pytest.raises((EmptyEncodingError, ValueError)):
        ctx.sign_mpoly(parse_poly("T1 - 1", t))


def test_signs_at_encodings_family_alignment():
    p = P("X^3 - X")
    rows = signs_at_encodings(p, [P("X + 2"), P("X")], "X")
    assert [fam for _enc, fam in rows] == [(1, -1), (1, 0), (1, 1)]


def test_infelem_coefficient_tarski():
    # over D[eta]: the polynomial X^2 - e1 has two real roots
    e1 = InfElem.sym(eps(1))
    p = MPoly(ERING, X, {(2,): InfElem.const(1), (0,): -e1})
    assert tarski_query_mpoly(p, parse_poly("1", X).to_ering(), "X") == 2
    encs = thom_encodings(p, "X")
    assert [e.signs for e in encs] == [(0, -1, 1), (0, 1, 1)]


def test_guard_value_stability():
    # specializing eps := 10^-40 must reproduce sign vectors for generic data
    e1 = InfElem.sym(eps(1))
    p = MPoly(ERING, X, {(3,): InfElem.const(1), (1,): -(InfElem.const(1) + e1), (0,): e1})
    fam = [MPoly(ERING, X, {(1,): InfElem.const(1), (0,): e1})]
    rows_sym = [s for _e, s in signs_at_encodings(p, fam, "X")]
    guard = QQ(1, 10 ** 40)
    pg = parse_poly("X^3 - X", X) + MPoly(QRING, X, {(1,): -guard, (0,): guard})
    fg = [parse_poly("X", X) + MPoly.const(QRING, X, guard)]
    rows_g = [s for _e, s in signs_at_encodings(pg, fg, "X")]
    assert rows_sym == rows_g


def test_prefix_is_the_ancestor():
    root = TriangularContext(QRING)
    ctx1 = root.extend("X", P("X^2 - 2"), (0, 1, 1))
    ctx2 = ctx1.extend("Y", parse_poly("Y^2 - X", ("X", "Y")), (0, 1, 1))
    assert ctx2.prefix(1) is ctx1
    assert ctx2.prefix(0) is root
    assert ctx2.prefix(2) is ctx2


def test_roots_of_one_polynomial_share_one_sign_determination():
    # the two real roots of X^2 - T over T = sqrt 2, each fixed over a base
    # context built on its own: the bases have equal keys, so one sign
    # determination of X^2 - T serves both roots
    tx = ("T", "X")

    def base():
        return TriangularContext(QRING).extend("T", parse_poly("T^2 - 2", ("T",)), (0, 1, 1))

    neg, pos = thom_encodings(parse_poly("X^2 - T", tx), "X", base())
    at_neg = base().extend("X", neg.poly, neg.signs)
    at_pos = base().extend("X", pos.poly, pos.signs)
    assert at_neg.prefix(1) is not at_pos.prefix(1)
    assert at_neg.level_solver().sd is at_pos.level_solver().sd
    x = parse_poly("X", tx)
    assert (at_neg.sign_mpoly(x), at_pos.sign_mpoly(x)) == (-1, 1)


def test_encodings_and_a_sign_at_each_root_build_one_sign_determination(monkeypatch):
    built = []

    class Counted(realroots.SignDetermination):
        def __init__(self, ctx, P):
            built.append(P)
            super().__init__(ctx, P)

    monkeypatch.setattr(realroots, "SignDetermination", Counted)
    realroots._SD_CACHE.clear()
    encs = thom_encodings(P("X^3 - 3*X + 1"), "X")
    sd = TriangularContext(QRING).extend("X", encs[0].poly, encs[0].signs).level_solver().sd
    state = (sd.P, sd.chain, sd.conds, sd.counts, sd.prods, sd.matrix, sd.inverse, sd.ders)
    signs = [TriangularContext(QRING).extend(e.var, e.poly, e.signs).sign_mpoly(P("X^2 - 2"))
             for e in encs]
    assert signs == [1, -1, 1]
    assert len(built) == 1
    # sharing it is safe: queries leave everything but the query memo as built
    assert (sd.P, sd.chain, sd.conds, sd.counts, sd.prods, sd.matrix, sd.inverse, sd.ders) == state


def test_compare_roots_with_equal_first_roots_share_one_context(monkeypatch):
    # a is built afresh for each call; equal values give one extension
    # context (and its sign cache) from the value-keyed cache
    contexts = []
    ext_context_for = realroots._ext_context_for

    def spy(enc):
        contexts.append(ext_context_for(enc))
        return contexts[-1]

    monkeypatch.setattr(realroots, "_ext_context_for", spy)
    realroots._EXT_CTX_CACHE.clear()
    (b,) = thom_encodings(P("X - 1"), "X")
    a1 = thom_encodings(P("X^2 - 2"), "X")[1]
    a2 = thom_encodings(P("X^2 - 2"), "X")[1]
    assert a1 is not a2
    assert compare_roots(a1, b) == compare_roots(a2, b) == 1
    assert len(contexts) == 2 and contexts[0] is contexts[1]
    assert len(realroots._EXT_CTX_CACHE) == 1


def _sqrt2_context(ring, variables):
    f = parse_poly("X^2 - 2", variables)
    return TriangularContext(ring).extend("X", f if ring is QRING else f.to_ering(), (0, 1, 1))


def test_contexts_built_separately_from_equal_levels_are_equal():
    # the same level, parsed twice and over two variable tuples
    a = _sqrt2_context(QRING, X)
    b = _sqrt2_context(QRING, ("T", "X"))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a.prefix(0) == TriangularContext(QRING)
    assert a != TriangularContext(QRING).extend("X", P("X^2 - 2"), (0, -1, 1))


def test_a_rational_and_an_infinitesimal_context_with_equal_levels_differ():
    q, e = _sqrt2_context(QRING, X), _sqrt2_context(ERING, X)
    # the levels are equal in value; the ring tells the contexts apart
    assert q.levels == e.levels
    assert q != e
    assert TriangularContext(QRING) != TriangularContext(ERING)


def test_equal_encodings_built_at_two_sites_share_one_extension():
    realroots._EXT_CTX_CACHE.clear()
    at_encoding = thom_encodings(P("X^2 - 2"), "X")[1]
    at_hand = realroots.ThomEncoding(TriangularContext(QRING), "X",
                                     parse_poly("X^2 - 2", ("X", "T")), (0, 1, 1))
    assert at_encoding is not at_hand and at_encoding == at_hand
    assert realroots._ext_context_for(at_encoding) is realroots._ext_context_for(at_hand)
    assert len(realroots._EXT_CTX_CACHE) == 1


def test_rings_do_not_share_a_sign_determination():
    q = shared_sign_determination(TriangularContext(QRING), [QQ(-2), QQ(0), QQ(1)])
    e = shared_sign_determination(TriangularContext(ERING),
                                  [InfElem.const(-2), InfElem(), InfElem.const(1)])
    assert q is not e
    assert (q.ctx.ring, e.ctx.ring) == (QRING, ERING)
    assert q.conds == e.conds


def test_a_new_input_empties_the_sign_determination_cache():
    @per_input_caches
    def entry(system):
        return shared_sign_determination(TriangularContext(QRING), [QQ(-3), QQ(0), QQ(1)])

    first = entry(("sign determination input", 1))
    assert entry(("sign determination input", 1)) is first
    assert entry(("sign determination input", 2)) is not first


def _positive_multiple(got, want):
    """The rational r > 0 with got == r * want (InfElems or MPolys)."""
    m, c = next(iter(want.terms.items()))
    r = got.terms[m] / c
    assert r > 0
    assert got == want * (InfElem.const(r) if isinstance(want, InfElem) else r)
    return r


def test_content_strip_infelem_two_symbol_factor():
    z1, e1 = InfElem.sym(zeta(1)), InfElem.sym(eps(1))
    one = InfElem.const(1)
    g = z1 + e1  # positive, in both symbols
    cofactors = [one + e1, z1 - InfElem.const(2), InfElem.const(3) * e1 * e1 - z1, InfElem()]
    coeffs = [InfElem.const(QQ(5, 7)) * g * h for h in cofactors]
    ctx = TriangularContext(ERING)
    out = content_strip(ctx, coeffs)
    ratios = {_positive_multiple(o, h) for o, h in zip(out, cofactors) if not h.is_zero()}
    assert len(ratios) == 1
    assert out[-1].is_zero()
    assert [ctx.sign(o) for o in out] == [ctx.sign(c) for c in coeffs]


def test_content_strip_mpoly_factor_negative_at_the_point():
    # coefficients over the context T = sqrt 2 with the common factor T - 5,
    # which is negative there: the strip divides by 5 - T instead
    t = ("T",)
    ctx = TriangularContext(QRING).extend("T", parse_poly("T^2 - 2", t), (0, 1, 1))
    g = parse_poly("T - 5", t)
    cofactors = [parse_poly(" + ".join(f"{(k * j) % 7 + 1}*T^{j}" for j in range(13)) + f" - {k}", t)
                 for k in range(1, 6)]
    coeffs = [(g * h).scale(QQ(3, 2)) for h in cofactors]
    assert sum(len(c.terms) for c in coeffs) >= STRIP_MIN_TERMS
    out = content_strip(ctx, coeffs)
    ratios = {_positive_multiple(o, -h) for o, h in zip(out, cofactors)}
    assert len(ratios) == 1
    assert [ctx.sign(o) for o in out] == [ctx.sign(c) for c in coeffs]


def _sign(v):
    return (v > 0) - (v < 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                          st.integers(1, 2)),
                min_size=1, max_size=4, unique_by=lambda rm: rm[0]),
       st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_sign_determination_matches_evaluation(roots, qcoeffs):
    # P = prod (X - r)^m with distinct rational roots, Q of degree <= 3:
    # the signs read from the inverse sign matrix are the signs of Q(r)
    x = MPoly.var(QRING, X, "X")
    p = MPoly.const(QRING, X, 1)
    for r, m in roots:
        p = p * (x - MPoly.const(QRING, X, r)) ** m
    q = MPoly.zero(QRING, X)
    for i, c in enumerate(qcoeffs):
        q = q + MPoly.const(QRING, X, c) * x ** i
    want = [(_sign(sum(c * r ** i for i, c in enumerate(qcoeffs))),)
            for r in sorted(r for r, _m in roots)]
    assert [s for _e, s in signs_at_encodings(p, [q], "X")] == want
