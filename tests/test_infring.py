import random

import pytest

from dcroadmap.infring import (
    QQ,
    InfElem,
    delta,
    eps,
    gamma,
    log_signs,
    zeta,
)

E1 = InfElem.sym(eps(1))
E2 = InfElem.sym(eps(2))
Z1 = InfElem.sym(zeta(1))
Z2 = InfElem.sym(zeta(2))
G1 = InfElem.sym(gamma(1))
D1 = InfElem.sym(delta(1))
ONE = InfElem.const(1)


def test_tower_indices():
    assert zeta(1) == 1
    assert eps(1) == 2
    assert delta(1) == 3
    assert gamma(1) == 4
    assert zeta(2) == 5
    assert eps(3) == 10


def test_leading_support_examples():
    # 1 - 3*e1 -> unit monomial dominates
    f = ONE - 3 * E1
    assert f.leading_support() == ()
    # e1^2 - e2 -> e1^2 dominates (e2 << e1^n for all n)
    f = E1 * E1 - E2
    assert f.leading_support() == ((eps(1), 2),)
    # 5*g1^3 + 2*z2 -> g1^3 dominates
    f = 5 * G1 ** 3 + 2 * Z2
    assert f.leading_support() == ((gamma(1), 3),)


def test_leading_support_zero_errors():
    with pytest.raises(ValueError):
        InfElem().leading_support()


def test_sign_examples():
    assert InfElem().sign() == 0
    assert (-E1 + 5 * E1 ** 2).sign() == -1
    assert (E1 ** 2 - E2).sign() == 1


def test_lim_from_examples():
    f = InfElem.const(2) + 3 * E1 + Z2
    assert f.lim_from(zeta(2)) == InfElem.const(2) + 3 * E1
    assert f.lim_from(1) == InfElem.const(2)
    g = ONE - 2 * E1
    assert g.lim_from(1) == ONE


def test_sign_multiplicative_randomized():
    rng = random.Random(7)
    syms = [zeta(1), eps(1), delta(1), gamma(1), zeta(2)]

    def rand_elem():
        n = rng.randint(1, 4)
        out = InfElem()
        for _ in range(n):
            mono = ONE
            for s in rng.sample(syms, rng.randint(0, 3)):
                mono = mono * InfElem.sym(s, rng.randint(1, 3))
            out = out + rng.choice([-1, 1]) * rng.randint(1, 9) * mono
        return out

    checked = 0
    for _ in range(10_000):
        f, g = rand_elem(), rand_elem()
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).sign() == f.sign() * g.sign()
        checked += 1
    assert checked > 9000


def test_lim_from_ring_homomorphism():
    rng = random.Random(11)
    syms = [zeta(1), eps(1), zeta(2), eps(2)]

    def rand_elem():
        out = InfElem()
        for _ in range(rng.randint(1, 5)):
            mono = ONE
            for s in rng.sample(syms, rng.randint(0, 2)):
                mono = mono * InfElem.sym(s, rng.randint(1, 2))
            out = out + rng.randint(-5, 5) * mono
        return out

    for _ in range(500):
        f, g = rand_elem(), rand_elem()
        j = rng.choice([1, 3, 5, 7])
        assert (f + g).lim_from(j) == f.lim_from(j) + g.lim_from(j)
        assert (f * g).lim_from(j) == f.lim_from(j) * g.lim_from(j)


def test_substitution_order_independence():
    # sequential innermost-first equals one-shot substitution
    f = 2 * Z1 * E2 + 3 * E1 - G1 ** 2 * Z2 + 7
    j = eps(1)
    seq = f
    for idx in sorted(f.support_indices(), reverse=True):
        if idx >= j:
            seq = seq.lim_from(idx)
    assert seq == f.lim_from(j)


def test_repr_ordering():
    f = ONE - 3 * E1 + Z1
    s = repr(f)
    assert s.index("1") < s.index("z1") < s.index("e1")


def test_exact_div():
    f = (ONE + E1) * (2 * Z1 - E1 ** 2)
    assert f / (ONE + E1) == 2 * Z1 - E1 ** 2
    assert (2 * Z1) / 2 == Z1
    assert (2 * Z1) / QQ(2, 3) == 3 * Z1
    with pytest.raises(ValueError):
        (ONE + E1) / E1
    with pytest.raises(ZeroDivisionError):
        ONE / InfElem()


def test_truth_value_is_nonzero():
    assert not InfElem()
    assert not (E1 - E1)
    assert ONE and E1 and -Z1 * E2


def test_sign_log_records_univariate_blocks():
    x = InfElem.sym(0)
    with log_signs(0) as rec:
        (x - 2 * x ** 3).sign()
        (ONE + x).sign()
        InfElem.const(5).sign()  # rational: not logged
    assert ((1, QQ(1)), (3, QQ(-2))) in rec
    assert ((0, QQ(1)), (1, QQ(1))) in rec
    assert len(rec) == 2
