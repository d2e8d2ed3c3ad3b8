"""Evaluation by right division, conjugation, and root machinery."""

import pytest

from helpers import backend_contexts, random_poly, rng_for
from wpoly.evaluate import (conjugacy_class, conjugacy_class_reps, conjugate,
                            coset_check, evaluate, is_left_root,
                            is_right_root, lambda_matrix, left_roots,
                            phi_transform, power_functions, right_roots)
from wpoly.linalg import kernel
from wpoly.skew import SkewPolynomial, product_of_linears
from wpoly.wedderburn import centralizer

BACKENDS = backend_contexts()


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_remainder_theorem(name):
    # f = q*(t - a) + f(a), so evaluation is the right remainder
    ctx = BACKENDS[name]
    rng = rng_for(name, 20)
    for _ in range(100):
        f = random_poly(ctx, rng, 3, simple=True)
        a = ctx.random_element(rng)
        q, r = f.right_divmod(SkewPolynomial.linear(ctx, a))
        assert r.degree <= 0
        val = evaluate(f, a)
        assert r.coeff(0) == val
        assert q * SkewPolynomial.linear(ctx, a) + SkewPolynomial.constant(ctx, val) == f


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_power_function_recursion(name):
    ctx = BACKENDS[name]
    rng = rng_for(name, 21)
    for _ in range(25):
        a = ctx.random_element(rng)
        powers = power_functions(ctx, a, 5)
        assert powers[0] == ctx.one
        for i in range(5):
            assert powers[i + 1] == ctx.S(powers[i]) * a + ctx.D(powers[i])
            # N_i really is the evaluation of t^i
            t_i = SkewPolynomial.monomial(ctx, ctx.one, i)
            assert evaluate(t_i, a) == powers[i]


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_product_formula(name):
    # (gh)(a) = 0 if h(a) = 0, else g(a^{h(a)}) h(a)
    ctx = BACKENDS[name]
    rng = rng_for(name, 22)
    zero_branch = 0
    for _ in range(120):
        g = random_poly(ctx, rng, 2, simple=True)
        h = random_poly(ctx, rng, 2, simple=True)
        if rng.random() < 0.3:
            # force the h(a) = 0 branch
            a = ctx.random_element(rng)
            h = h * SkewPolynomial.linear(ctx, a)
        else:
            a = ctx.random_element(rng)
        ha = evaluate(h, a)
        got = evaluate(g * h, a)
        if ctx.is_zero(ha):
            zero_branch += 1
            assert ctx.is_zero(got)
        else:
            assert got == evaluate(g, conjugate(ctx, a, ha)) * ha
    assert zero_branch > 10


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_conjugation_composition(name):
    # (a^c)^d = a^{dc}
    ctx = BACKENDS[name]
    rng = rng_for(name, 23)
    for _ in range(80):
        a = ctx.random_element(rng)
        c = ctx.random_element(rng, nonzero=True)
        d = ctx.random_element(rng, nonzero=True)
        assert conjugate(ctx, conjugate(ctx, a, c), d) == conjugate(ctx, a, d * c)
        assert conjugate(ctx, a, ctx.one) == a


def test_conjugacy_classes_partition_finite():
    for name in ("F4", "F8", "F8-inner"):
        ctx = BACKENDS[name]
        reps = conjugacy_class_reps(ctx)
        seen = []
        for r in reps:
            cls = conjugacy_class(ctx, r)
            assert r in cls
            for x in cls:
                assert all(x != y for y in seen)
                seen.append(x)
        assert len(seen) == len(ctx.elements())


def test_commutative_untwisted_classes_are_singletons():
    from wpoly.rings import make_context
    f4 = make_context("F4", s_desc=("id",))
    for a in f4.elements():
        assert conjugacy_class(f4, a) == [a]


def test_phi_transform_matches_conjugation_by_value():
    ctx = BACKENDS["F8"]
    rng = rng_for("phi", 24)
    for _ in range(40):
        h = random_poly(ctx, rng, 2)
        a = ctx.random_element(rng)
        val = evaluate(h, a)
        got = phi_transform(h, a)
        if ctx.is_zero(val):
            assert got is None
        else:
            assert got == conjugate(ctx, a, val)


@pytest.mark.parametrize("name", ("F4", "F8", "F8-inner"))
def test_right_roots_by_enumeration(name):
    ctx = BACKENDS[name]
    rng = rng_for(name, 25)
    for _ in range(15):
        f = random_poly(ctx, rng, 3, monic=True, min_deg=1)
        roots = right_roots(f)
        brute = [a for a in ctx.elements() if ctx.is_zero(evaluate(f, a))]
        assert sorted(roots, key=ctx.sort_key) == sorted(brute, key=ctx.sort_key)
        for a in roots:
            assert is_right_root(f, a)
            assert f.right_divmod(SkewPolynomial.linear(ctx, a))[1].is_zero()


def test_left_roots_by_enumeration():
    ctx = BACKENDS["F8"]
    rng = rng_for("left", 26)
    for _ in range(15):
        f = random_poly(ctx, rng, 3, monic=True, min_deg=1)
        roots = left_roots(f)
        brute = []
        for b in ctx.elements():
            div = f.left_divmod(SkewPolynomial.linear(ctx, b))
            if div is not None and div[1].is_zero():
                brute.append(b)
        assert sorted(roots, key=ctx.sort_key) == sorted(brute, key=ctx.sort_key)
        for b in roots:
            assert is_left_root(f, b)


def test_root_count_bounded_by_classes():
    # quadratics over F8 never have three roots in distinct classes
    ctx = BACKENDS["F8"]
    rng = rng_for("classes", 27)
    for _ in range(20):
        f = random_poly(ctx, rng, 2, monic=True, min_deg=2)
        roots = right_roots(f)
        classes = set()
        for a in roots:
            classes.add(frozenset(conjugacy_class(ctx, a)))
        assert len(classes) <= 2


def test_coset_check_single_and_empty():
    qx = BACKENDS["Qx"]
    x = qx.x
    f = product_of_linears(qx, [x, x * x])
    report = coset_check(f, left_roots_for(f))
    assert report.monic and report.holds
    g = SkewPolynomial.monomial(qx, x, 1)  # x*t, not monic
    report = coset_check(g, [])
    assert not report.monic and report.holds


def test_coset_check_violation_is_a_library_defect():
    # 0 and x differ by x, which is not in S(K) = Q(x^2); monic t^2 cannot
    # have both as left roots, so the alternative fails as a defect would
    qx = BACKENDS["Qx"]
    t2 = SkewPolynomial.monomial(qx, qx.one, 2)
    with pytest.raises(AssertionError, match="single S\\(K\\)-coset"):
        coset_check(t2, [qx.zero, qx.x])


def left_roots_for(f):
    # quadratic left roots via the derived formula -f1 - S(c) over roots c
    ctx = f.ctx
    out = []
    for c in right_roots_qx(f):
        cand = -f.coeff(1) - ctx.S(c)
        div = f.left_divmod(SkewPolynomial.linear(ctx, cand))
        if div is not None and div[1].is_zero():
            if all(cand != z for z in out):
                out.append(cand)
    return out


def right_roots_qx(f):
    # the construction above planted x and x^2 as a split chain
    ctx = f.ctx
    out = []
    for c in (ctx.x, ctx.x * ctx.x):
        if ctx.is_zero(evaluate(f, c)):
            out.append(c)
    return out


def test_lambda_matrix_kernel_is_exponential_set():
    # kernel vectors x satisfy f(a^x) = 0 for x != 0
    ctx = BACKENDS["F8"]
    rng = rng_for("lambda", 28)
    for _ in range(10):
        f = random_poly(ctx, rng, 2, monic=True, min_deg=1)
        a = ctx.random_element(rng)
        ker = kernel(lambda_matrix(ctx, f, a), ctx.base)
        for vec in ker:
            x = ctx.from_vec(vec)
            if not ctx.is_zero(x):
                assert ctx.is_zero(evaluate(f, conjugate(ctx, a, x)))


def test_stabilizer_matrix_centralizer_dimension():
    # the centralizer is the kernel of the Lambda matrix of t - a at a
    hq = BACKENDS["HQ"]
    assert len(centralizer(hq, hq.i)) == 2  # span{1, i}
    assert len(centralizer(hq, hq.one)) == 4
