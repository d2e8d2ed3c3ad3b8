"""Twisted polynomial arithmetic, division, and right gcd / left lcm."""

import pytest

from helpers import backend_contexts, random_poly, rng_for
from wpoly.errors import ContextMismatchError
from wpoly.rings import make_context
from wpoly.skew import (SkewPolynomial, monic_polynomials,
                        monic_right_divisors, product_of_linears, rgcd_llcm)

BACKENDS = backend_contexts()


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_ring_axioms_sampled(name):
    ctx = BACKENDS[name]
    rng = rng_for(name, 10)
    # S: x -> x^2 doubles coefficient degrees with every power of t, so the
    # rational-function backends get smaller inputs
    deg = 2 if ctx.kind == "QV" else 3
    for _ in range(15 if ctx.kind == "QV" else 25):
        f = random_poly(ctx, rng, deg)
        g = random_poly(ctx, rng, deg)
        h = random_poly(ctx, rng, deg - 1)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h
        assert f - f == SkewPolynomial.zero(ctx)
        assert (f * g).degree == f.degree + g.degree


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_commutation_rule(name):
    # t*b = S(b)*t + D(b) is the defining relation
    ctx = BACKENDS[name]
    rng = rng_for(name, 11)
    t = SkewPolynomial.t(ctx)
    for _ in range(30):
        b = ctx.random_element(rng)
        lhs = t * SkewPolynomial.constant(ctx, b)
        rhs = (SkewPolynomial.constant(ctx, ctx.S(b)) * t
               + SkewPolynomial.constant(ctx, ctx.D(b)))
        assert lhs == rhs


def test_twisted_square_expansion():
    # over (Q(u), id, d/du): (t - u)^2 = t^2 - 2u t + (u^2 - 1)
    qu = BACKENDS["Qu"]
    u = qu.x
    f = SkewPolynomial.linear(qu, u) * SkewPolynomial.linear(qu, u)
    assert str(f) == "t^2 + [-2u]*t + [u^2-1]"


def test_frobenius_twist_expansion():
    # over (F4, frob): (t - w)(t - w) has middle coefficient -(w + w^2)
    f4 = BACKENDS["F4"]
    w = f4.w
    f = SkewPolynomial.linear(f4, w) * SkewPolynomial.linear(f4, w)
    assert f.coeffs == (w * w, w + f4.S(w), f4.one)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_right_division(name):
    ctx = BACKENDS[name]
    rng = rng_for(name, 12)
    for _ in range(25 if ctx.kind == "QV" else 40):
        f = random_poly(ctx, rng, 3 if ctx.kind == "QV" else 4)
        g = random_poly(ctx, rng, 2)
        q, r = f.right_divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree
    with pytest.raises(ZeroDivisionError):
        f.right_divmod(SkewPolynomial.zero(ctx))


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_left_division_by_construction(name):
    ctx = BACKENDS[name]
    rng = rng_for(name, 13)
    hits = 0
    for _ in range(30):
        g = random_poly(ctx, rng, 2)
        q = random_poly(ctx, rng, 2)
        f = g * q
        div = f.left_divmod(g)
        if div is None:
            continue
        hits += 1
        q2, r2 = div
        assert g * q2 + r2 == f
        assert r2.is_zero()
        if ctx.s_desc[0] in ("id", "frob"):
            assert q2 == q
    if ctx.s_desc[0] in ("id", "frob"):
        assert hits == 30


def test_left_division_none_means_no_quotient():
    # lc(f) = x has no preimage under x -> x^2, so x*t cannot be g*q + r
    # with deg r < 1 for monic linear g
    qx = BACKENDS["Qx"]
    x = qx.x
    f = SkewPolynomial.monomial(qx, x, 1)
    g = SkewPolynomial.linear(qx, qx.one)
    assert f.left_divmod(g) is None


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_rgcd_llcm_identities(name):
    ctx = BACKENDS[name]
    rng = rng_for(name, 14)
    deg = 2 if ctx.kind == "QV" else 3
    for _ in range(25):
        f = random_poly(ctx, rng, deg, simple=True)
        g = random_poly(ctx, rng, deg, simple=True)
        res = rgcd_llcm(f, g)
        # degree identity
        assert f.degree + g.degree == res.rgcd.degree + res.llcm.degree
        # the gcd right-divides both, both right-divide the lcm
        assert f.right_divmod(res.rgcd)[1].is_zero()
        assert g.right_divmod(res.rgcd)[1].is_zero()
        assert res.llcm.right_divmod(f)[1].is_zero()
        assert res.llcm.right_divmod(g)[1].is_zero()
        # Bezout certificate with left cofactors
        assert res.u * f + res.v * g == res.rgcd
        assert res.rgcd.is_monic()
        assert res.llcm.is_monic() or res.llcm.is_zero()


def test_rgcd_llcm_zero_conventions():
    f4 = BACKENDS["F4"]
    f = SkewPolynomial(f4, (f4.w, f4.w))
    zero = SkewPolynomial.zero(f4)
    res = rgcd_llcm(f, zero)
    assert res.rgcd == f.monic()
    assert res.llcm.is_zero()
    assert res.u * f + res.v * zero == res.rgcd


def test_product_of_linears_order():
    hq = BACKENDS["HQ"]
    i, j = hq.i, hq.j
    f = product_of_linears(hq, [i, j])
    assert f == SkewPolynomial.linear(hq, j) * SkewPolynomial.linear(hq, i)


def test_monic_polynomial_enumeration_counts():
    f4 = BACKENDS["F4"]
    assert sum(1 for _ in monic_polynomials(f4, 0)) == 1
    assert sum(1 for _ in monic_polynomials(f4, 1)) == 4
    assert sum(1 for _ in monic_polynomials(f4, 2)) == 16
    seen = set(monic_polynomials(f4, 2))
    assert len(seen) == 16


@pytest.mark.parametrize("s_desc, d_desc", [
    (("id",), ("zero",)), (("frob", 1), ("zero",)),
    (("frob", 1), ("inner", BACKENDS["F4"].w))],
    ids=["id", "frob", "frob-inner-w"])
def test_monic_right_divisors_match_products(s_desc, d_desc):
    # oracle without division: g right-divides f when c * g = f for some
    # monic c; with D = inner(w) under frob the upper half runs left_divmod
    # in a context with D != 0
    ctx = make_context("F4", s_desc, d_desc)
    monics = [p for d in range(4) for p in monic_polynomials(ctx, d)]
    products = {}
    for c in monics:
        for g in monics:
            if c.degree + g.degree <= 3:
                products.setdefault(c * g, set()).add(g)
    for f in monics:
        found = monic_right_divisors(f)
        degrees = [g.degree for g in found]
        assert degrees == sorted(degrees)
        assert found[0] == SkewPolynomial.one(ctx) and found[-1] == f
        for d in range(f.degree + 1):
            listed = [g for g in found if g.degree == d]
            assert len(set(listed)) == len(listed)
            assert set(listed) == {g for g in products[f] if g.degree == d}


def test_degree_conventions():
    f4 = BACKENDS["F4"]
    zero = SkewPolynomial.zero(f4)
    assert zero.degree < 0
    assert SkewPolynomial.one(f4).degree == 0
    assert SkewPolynomial.t(f4).degree == 1
    assert zero.is_zero()
    assert not zero.is_monic()


def test_context_mixing_rejected():
    f = SkewPolynomial.t(BACKENDS["F4"])
    g = SkewPolynomial.t(BACKENDS["F8"])
    with pytest.raises(ContextMismatchError):
        _ = f + g


def test_scale_left_and_monic():
    qx = BACKENDS["Qx"]
    x = qx.x
    f = SkewPolynomial(qx, (qx.one, x))
    g = f.scale_left(x)
    assert g.coeffs == (x, x * x)
    assert g.monic().coeffs == (qx.inv(x), qx.one)
    assert g.monic().is_monic()
