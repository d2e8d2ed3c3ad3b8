"""Coefficient rings: exact arithmetic, twists, and context plumbing."""

from fractions import Fraction

import pytest

from helpers import backend_contexts, rng_for
from wpoly import rings
from wpoly.errors import CapabilityMissingError, ContextMismatchError
from wpoly.rings import (FiniteFieldContext, Quaternion, RatFunc, gf_field,
                         ip_gcd, ip_mul, make_context)

BACKENDS = backend_contexts()


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_field_axioms_sampled(name):
    ctx = BACKENDS[name]
    rng = rng_for(name, 1)
    for _ in range(60):
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        c = ctx.random_element(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + ctx.zero == a
        assert a * ctx.one == a and ctx.one * a == a
        assert a + (-a) == ctx.zero
        if ctx.commutative:
            assert a * b == b * a
        if not ctx.is_zero(a):
            assert a * ctx.inv(a) == ctx.one
            assert ctx.inv(a) * a == ctx.one


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_endomorphism_and_derivation_laws(name):
    ctx = BACKENDS[name]
    rng = rng_for(name, 2)
    assert ctx.S(ctx.one) == ctx.one
    assert ctx.D(ctx.one) == ctx.zero
    for _ in range(60):
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        assert ctx.S(a + b) == ctx.S(a) + ctx.S(b)
        assert ctx.S(a * b) == ctx.S(a) * ctx.S(b)
        assert ctx.D(a + b) == ctx.D(a) + ctx.D(b)
        assert ctx.D(a * b) == ctx.S(a) * ctx.D(b) + ctx.D(a) * b


def test_finite_field_tables():
    f4 = BACKENDS["F4"]
    w = f4.w
    assert w * w == w + f4.one
    assert len(f4.elements()) == 4
    f8 = BACKENDS["F8"]
    v = f8.w
    assert v * v * v == v + f8.one
    assert len(f8.elements()) == 8
    # multiplicative orders: 3 and 7
    assert w * w * w == f4.one
    acc = f8.one
    for _ in range(7):
        acc = acc * v
    assert acc == f8.one


def test_frobenius_and_preimage():
    f8 = BACKENDS["F8"]
    rng = rng_for("frob", 3)
    for _ in range(40):
        a = f8.random_element(rng)
        assert f8.S(a) == a * a
        assert f8.s_preimage(f8.S(a)) == a
        assert f8.S(f8.s_preimage(a)) == a
    assert f8.s_pow(f8.w, 3) == f8.w


def test_finite_field_elements_are_interned_once_per_field():
    f8 = make_context("F8")
    twisted = make_context("F8", ("frob", 2), ("inner", f8.w))
    for other in (FiniteFieldContext.F8(), twisted):
        assert all(a is b for a, b in zip(f8.elements(), other.elements()))
    # the modulus is read mod p before the field is looked up
    assert gf_field(2, 2, (1, 1, 1)) is gf_field(2, 2, (3, 1, 1))
    f4 = make_context("F4")
    assert not f4.w == f8.w
    with pytest.raises(ContextMismatchError):
        f4.w + f8.w
    with pytest.raises(ContextMismatchError):
        f4.w * f8.w


@pytest.mark.parametrize("name", ["F4", "F8"])
def test_s_table_is_a_frobenius_power(name):
    k = make_context(name).k
    for e in range(k + 2):
        ctx = make_context(name, ("frob", e))
        for a in ctx.elements():
            power = ctx.one
            for _ in range(2 ** e):
                power = power * a
            assert ctx.S(a) is power
            assert ctx.s_preimage(ctx.S(a)) is a


def test_identity_descriptor_normalizes_to_frob_zero():
    ctx = make_context("F4", s_desc=("id",))
    assert ctx.s_desc == ("frob", 0)
    for a in ctx.elements():
        assert ctx.S(a) == a


def test_ratfunc_canonical_form():
    x = RatFunc.gen("x")
    one = RatFunc.const(1, "x")
    # common factors cancel and denominators are monic
    r = RatFunc((-1, 0, 1), (-1, 1), "x")
    assert r == x + one
    s = RatFunc((1,), (0, 2), "x")
    assert s.den == (Fraction(0), Fraction(1)) and s.num == (Fraction(1, 2),)
    assert (x / x) == one
    assert str(RatFunc((1, 0, 1), (-1, 1), "u")) == "(u^2+1)/(u-1)"
    with pytest.raises(ZeroDivisionError):
        RatFunc((1,), (0,), "x")
    with pytest.raises(ZeroDivisionError):
        RatFunc.const(0, "x").inverse()


def test_ip_gcd_start_point_is_above_the_norm_bound():
    # xi = 2 min(|a|/|lc a|, |b|/|lc b|) + 2 = 4 reads gamma = 2 as the
    # constant 2 and so misses x - 2; the bound 2 min(|a|, |b|) + 2 = 8
    # does not
    a, b = (2, 3, -2), (4, -4, 1)
    g, qa, qb = ip_gcd(a, b)
    assert g in ((-2, 1), (2, -1))
    sign = 1 if g == (-2, 1) else -1
    assert qa == tuple(sign * v for v in (-1, -2))
    assert qb == tuple(sign * v for v in (-2, 1))
    assert ip_mul(g, qa) == a and ip_mul(g, qb) == b


def test_ip_gcd_matches_the_prs_on_planted_factors(monkeypatch):
    prs = rings._ip_prs_gcd
    fallbacks = []
    monkeypatch.setattr(rings, "_ip_prs_gcd",
                        lambda a, b: fallbacks.append((a, b)) or prs(a, b))
    rng = rng_for("ip_gcd", 1)

    def poly(deg):
        coeffs = [rng.randint(-50, 50) for _ in range(deg)]
        return tuple(coeffs) + (rng.choice([-1, 1]) * rng.randint(1, 50),)

    for _ in range(2000):
        common = poly(rng.randint(0, 3))
        a = ip_mul(common, poly(rng.randint(0, 4)))
        b = ip_mul(common, poly(rng.randint(0, 4)))
        g, qa, qb = ip_gcd(a, b)
        want = prs(a, b) if len(a) > 1 and len(b) > 1 else (1,)
        assert g in (want, tuple(-v for v in want)), (a, b)
        assert ip_mul(g, qa) == a and ip_mul(g, qb) == b, (a, b)
    # every pair was answered by the heuristic, so the PRS above is an
    # independent reference
    assert fallbacks == []


def test_henrici_sum_shares_a_factor_with_the_denominator_gcd():
    x, one = RatFunc.gen("x"), RatFunc.const(1, "x")
    # gcd(x^2 - x, x^2 + x) = x, and the cross sum 2x keeps that x
    total = one / (x * x - x) + one / (x * x + x)
    assert total == RatFunc((2,), (-1, 0, 1), "x")
    assert (total.inum, total.iden) == ((2,), (-1, 0, 1))


def test_henrici_product_cancels_both_cross_gcds():
    x, one = RatFunc.gen("x"), RatFunc.const(1, "x")
    product = (x / (x + one)) * ((x + one) / x)
    assert product == one and (product.inum, product.iden) == ((1,), (1,))
    # integer content still cancels across the two operands
    half = RatFunc((1,), (2,), "x")
    assert (RatFunc((2,), (1, 1), "x") * (half / (x + one))
            == RatFunc((1,), (1, 2, 1), "x"))


def test_henrici_difference_with_itself_is_zero():
    for r in (RatFunc((1, 0, 1), (-1, 1), "x"), RatFunc((3,), (2, 2), "x"),
              RatFunc.const(Fraction(-2, 3), "x")):
        diff = r - r
        assert diff == RatFunc.const(0, "x") and not diff
        assert (diff.inum, diff.iden) == ((), (1,))


def test_henrici_sum_with_a_constant_denominator():
    x, one = RatFunc.gen("x"), RatFunc.const(1, "x")
    total = x / (x + one) + RatFunc.const(Fraction(1, 2), "x")
    assert (total.inum, total.iden) == ((1, 3), (2, 2))
    assert str(total) == "(3/2x+1/2)/(x+1)"
    assert total - RatFunc.const(Fraction(1, 2), "x") == x / (x + one)


def test_ratfunc_variables_do_not_mix():
    x = RatFunc.gen("x")
    u = RatFunc.gen("u")
    with pytest.raises(ContextMismatchError):
        _ = x + u


def test_ratfunc_derivative_quotient_rule():
    rng = rng_for("ratfunc", 4)
    qu = BACKENDS["Qu"]
    for _ in range(40):
        a = qu.random_element(rng)
        b = qu.random_element(rng, nonzero=True)
        q = a * qu.inv(b)
        lhs = q.derivative() * b * b
        rhs = a.derivative() * b - a * b.derivative()
        assert lhs == rhs


def test_subs_square_is_the_twist():
    qx = BACKENDS["Qx"]
    x = qx.x
    r = (x * x + qx.one) * qx.inv(x - qx.one)
    assert qx.S(r) == r.subs_square()
    assert str(qx.S(x)) == "x^2"


def test_quaternion_identities():
    rng = rng_for("hq", 5)
    hq = BACKENDS["HQ"]
    i, j, k = hq.i, hq.j, hq.k
    assert i * j == k and j * k == i and k * i == j
    assert j * i == -k
    assert i * i == -hq.one
    for _ in range(40):
        p = hq.random_element(rng)
        q = hq.random_element(rng)
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()
        assert p.norm() == (p * p.conjugate()).components()[0]
        assert p.trace() == (p + p.conjugate()).components()[0]
        if not hq.is_zero(p):
            assert p * p.inverse() == hq.one
    assert hq.one.is_central() and not i.is_central()


def test_vector_coordinates_roundtrip():
    for name in ("F4", "F8", "HQ", "F8-inner"):
        ctx = BACKENDS[name]
        rng = rng_for(name, 6)
        for _ in range(30):
            a = ctx.random_element(rng)
            assert ctx.from_vec(ctx.to_vec(a)) == a
        zero_vec = ctx.to_vec(ctx.zero)
        assert not any(zero_vec)
        assert len(zero_vec) == ctx.base_dim


def test_context_validation():
    with pytest.raises(ValueError):
        make_context("Z7")
    with pytest.raises(CapabilityMissingError):
        make_context("F4", s_desc=("xsq",))
    with pytest.raises(CapabilityMissingError):
        make_context("HQ", s_desc=("frob", 1))
    with pytest.raises(CapabilityMissingError):
        make_context("HQ", d_desc=("ddx",))
    with pytest.raises(CapabilityMissingError):
        make_context("Qx", s_desc=("xsq",), d_desc=("ddx",))
    with pytest.raises(CapabilityMissingError):
        BACKENDS["Q"].elements()


def test_describe_and_keys():
    assert BACKENDS["F4"].describe() == "F4 [S=frob^1, D=0]"
    assert BACKENDS["Qu"].describe() == "Q(u) [S=id, D=d/du]"
    assert BACKENDS["HQ"].describe() == "HQ [S=id, D=0]"
    assert BACKENDS["F8"] != BACKENDS["F8-inner"]
    assert BACKENDS["F8"] == make_context("F8")
    f8 = make_context("F8", ("frob", 2), ("inner", BACKENDS["F8"].w))
    same = FiniteFieldContext.F8(("frob", 2), ("inner", f8.w))
    assert same == f8 and hash(same) == hash(f8)
    assert make_context("F8", ("frob", 2), ("inner", f8.one + f8.w)) != f8
    assert make_context("F8", ("frob", 2)) != f8
    # an inner derivation by a central element is zero once S = id
    hq = BACKENDS["HQ"]
    assert make_context("HQ", d_desc=("inner", hq.from_int(2))) == hq
    assert make_context("HQ", d_desc=("inner", hq.i)) != hq


def test_sort_key_orders_elements_totally():
    for name in ("F4", "F8"):
        ctx = BACKENDS[name]
        elems = sorted(ctx.elements(), key=ctx.sort_key)
        keys = [ctx.sort_key(a) for a in elems]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(elems)


def test_prime_field_classmethod():
    f3 = FiniteFieldContext.prime_field(3)
    vals = f3.elements()
    assert len(vals) == 3
    assert f3.S(vals[2]) == vals[2]
