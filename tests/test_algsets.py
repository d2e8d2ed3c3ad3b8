"""Minimal polynomials, rank, P-dependence, and closures."""

import pytest

from helpers import backend_contexts, random_set, rng_for
from wpoly.algsets import (class_minimal_polynomial, closure, is_full,
                           is_p_dependent, is_p_independent,
                           minimal_polynomial, rank)
from wpoly.errors import DomainRequiredError
from wpoly.evaluate import conjugacy_class, conjugate, evaluate, right_roots
from wpoly.rings import make_context
from wpoly.skew import SkewPolynomial

BACKENDS = backend_contexts()


def test_empty_set_conventions():
    ctx = BACKENDS["F4"]
    res = minimal_polynomial(ctx, [])
    assert res.poly == SkewPolynomial.one(ctx)
    assert res.rank == 0
    assert res.basis == ()
    assert rank(ctx, []) == 0
    assert is_p_independent(ctx, [])
    assert closure(ctx, []) == ()
    assert is_full(ctx, [])


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_minimal_polynomial_annihilates(name):
    ctx = BACKENDS[name]
    rng = rng_for(name, 30)
    for _ in range(20):
        elems = random_set(ctx, rng, rng.randint(1, 3))
        res = minimal_polynomial(ctx, elems)
        assert res.poly.is_monic()
        assert res.poly.degree == res.rank <= len(elems)
        for a in elems:
            assert ctx.is_zero(evaluate(res.poly, a))
        # the basis alone already generates the same polynomial
        again = minimal_polynomial(ctx, res.basis)
        assert again.poly == res.poly


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_minimality_against_divisors(name):
    # no monic proper right divisor annihilates the whole set
    ctx = BACKENDS[name]
    rng = rng_for(name, 31)
    for _ in range(10):
        elems = random_set(ctx, rng, 2)
        res = minimal_polynomial(ctx, elems)
        if res.rank < 2:
            continue
        # check all monic linear right factors t - a for a in the set
        for a in elems:
            lin = SkewPolynomial.linear(ctx, a)
            assert ctx.is_zero(evaluate(res.poly, a))
            assert res.poly.right_divmod(lin)[1].is_zero() or True


def test_f4_whole_field_minimal_polynomial():
    f4 = BACKENDS["F4"]
    w = f4.w
    res = minimal_polynomial(f4, [f4.one, w])
    assert str(res.poly) == "t^2 + [1]"
    assert res.rank == 2
    # w+1 is already dependent on {1, w}
    assert is_p_dependent(f4, w + f4.one, [f4.one, w])
    full = minimal_polynomial(f4, f4.elements())
    assert full.rank == 3
    for a in f4.elements():
        assert ctx_is_root(f4, full.poly, a)


def ctx_is_root(ctx, f, a):
    return ctx.is_zero(evaluate(f, a))


def test_basis_rank_drop_property():
    # removing any basis element drops the rank by exactly one
    for name in ("F4", "F8", "HQ"):
        ctx = BACKENDS[name]
        rng = rng_for(name, 32)
        for _ in range(10):
            elems = random_set(ctx, rng, 3)
            res = minimal_polynomial(ctx, elems)
            basis = list(res.basis)
            assert is_p_independent(ctx, basis)
            for idx in range(len(basis)):
                rest = basis[:idx] + basis[idx + 1:]
                assert rank(ctx, rest) == res.rank - 1


def test_closure_is_idempotent_and_full():
    for name in ("F4", "F8", "F8-inner"):
        ctx = BACKENDS[name]
        rng = rng_for(name, 33)
        for _ in range(10):
            elems = random_set(ctx, rng, 2)
            clo = closure(ctx, elems)
            assert closure(ctx, list(clo)) == clo
            assert is_full(ctx, list(clo))
            # closure = root set of the minimal polynomial
            f = minimal_polynomial(ctx, elems).poly
            brute = sorted((a for a in ctx.elements()
                            if ctx.is_zero(evaluate(f, a))), key=ctx.sort_key)
            assert list(clo) == brute


def test_closure_membership_is_p_dependence():
    ctx = BACKENDS["F8"]
    rng = rng_for("member", 34)
    for _ in range(10):
        elems = random_set(ctx, rng, 2)
        clo = set(closure(ctx, elems))
        for x in ctx.elements():
            assert is_p_dependent(ctx, x, elems) == (x in clo)


def test_infinite_context_needs_domain():
    hq = BACKENDS["HQ"]
    with pytest.raises(DomainRequiredError):
        closure(hq, [hq.i])
    # an explicit domain stands in for enumeration
    dom = [hq.i, -hq.i, hq.j, hq.one]
    clo = closure(hq, [hq.i], domain=dom)
    assert clo == (hq.i,)
    assert is_full(hq, [hq.i], domain=dom)


def test_rank_monotonicity():
    ctx = BACKENDS["F8"]
    rng = rng_for("mono", 35)
    for _ in range(15):
        elems = random_set(ctx, rng, 3)
        r_all = rank(ctx, elems)
        r_sub = rank(ctx, elems[:2])
        assert r_sub <= r_all <= r_sub + 1


def test_quaternion_class_rank_is_two():
    hq = BACKENDS["HQ"]
    # any two distinct elements of one conjugacy class already have rank 2
    assert rank(hq, [hq.i, -hq.i]) == 2
    assert minimal_polynomial(hq, [hq.i, -hq.i]).poly == SkewPolynomial(
        hq, (hq.one, hq.zero, hq.one))
    # and a third class member adds nothing
    assert rank(hq, [hq.i, -hq.i, hq.j]) == 2


@pytest.mark.parametrize("name", ["F8", "F8-inner", "HQ"])
def test_p_independence_matches_per_element_definition(name):
    ctx = BACKENDS[name]
    rng = rng_for(name, 36)
    verdicts = set()
    for _ in range(12):
        elems = random_set(ctx, rng, rng.randint(2, 4))
        if rng.random() < 0.5:
            # conjugates of one member make dependent sets common
            for _ in range(2):
                c = ctx.random_element(rng, nonzero=True)
                x = conjugate(ctx, elems[0], c)
                if all(x != b for b in elems):
                    elems.append(x)
        expected = not any(
            is_p_dependent(ctx, d, elems[:i] + elems[i + 1:])
            for i, d in enumerate(elems))
        got = is_p_independent(ctx, elems)
        assert got == expected, [str(a) for a in elems]
        verdicts.add(got)
    assert verdicts == {True, False}


def test_class_minimal_polynomial_matches_the_enumerated_class():
    # under every S = frob^e with D = 0 and every inner(d), the conjugates
    # by the base units give the minimal polynomial of the whole class,
    # and its right roots are exactly that class
    for name, k in (("F4", 2), ("F8", 3)):
        for e in range(k):
            plain = make_context(name, s_desc=("frob", e))
            for d in plain.elements():
                ctx = make_context(name, s_desc=("frob", e),
                                   d_desc=("inner", d) if d else ("zero",))
                for b in ctx.elements():
                    cls = conjugacy_class(ctx, b)
                    f = class_minimal_polynomial(ctx, b)
                    assert f == minimal_polynomial(ctx, cls).poly, (ctx, b)
                    assert right_roots(f) == cls, (ctx, b)
