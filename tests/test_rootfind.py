"""Classical root engines behind the infinite-ring searches."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import backend_contexts, rng_for
from wpoly import rootfind
from wpoly.evaluate import evaluate, right_roots
from wpoly.rootfind import (central_factor_candidates,
                            derivation_quadratic_roots, norm_polynomial,
                            quaternion_candidate_classes,
                            quaternion_class_rep, rational_poly_roots,
                            ratfunc_classical_roots)
from wpoly.parsing import parse_elements, parse_polynomial
from wpoly.rings import Quaternion, make_context
from wpoly.skew import SkewPolynomial, product_of_linears
from wpoly.wedderburn import IS_W, is_wedderburn, right_root_report

BACKENDS = backend_contexts()


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def test_rational_poly_roots():
    # (x - 2)(x + 1/3)(x^2 + 1) -> roots 2 and -1/3
    f = Fraction
    p = [f(1)]
    for root_poly in ([f(-2), f(1)], [f(1, 3), f(1)], [f(1), f(0), f(1)]):
        p = _poly_mul(p, root_poly)
    assert rational_poly_roots(tuple(p)) == [f(-1, 3), f(2)]
    assert rational_poly_roots((f(0), f(0), f(1))) == [f(0)]
    assert rational_poly_roots((f(1),)) == []
    with pytest.raises(ValueError):
        rational_poly_roots((f(0), f(0)))


def _rational_root_theorem(coeffs):
    """Reference: every candidate +-p/q, p dividing the constant and q the
    leading coefficient of the integer form, tested by Horner evaluation."""
    c = list(coeffs)
    roots = set()
    while not c[0]:
        roots.add(Fraction(0))
        c = c[1:]
    scale = math.lcm(*(v.denominator for v in c))
    ints = [int(v * scale) for v in c]
    for p in sympy.divisors(abs(ints[0])):
        for q in sympy.divisors(abs(ints[-1])):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for v in reversed(c):
                    acc = acc * cand + v
                if acc == 0:
                    roots.add(cand)
    return sorted(roots)


def test_rational_poly_roots_match_rational_root_theorem():
    rng = rng_for("rational-roots", 7)
    irreducible = ([2, 0, 1], [-3, 0, 1], [1, 1, 1], [5, -2, 3])
    seen = set()
    for _ in range(200):
        coeffs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                           rng.randint(1, 7))]
        target = rng.randint(1, 7)
        while len(coeffs) - 1 < target:
            kind = rng.choice(("root", "root", "double", "zero", "quad",
                               "random"))
            if kind in ("root", "double"):
                lin = [Fraction(-rng.randint(-9, 9)), Fraction(rng.randint(1, 6))]
                factors = [lin] * (2 if kind == "double" else 1)
            elif kind == "zero":
                factors = [[Fraction(0), Fraction(1)]]
            elif kind == "quad":
                factors = [[Fraction(v) for v in rng.choice(irreducible)]]
            else:  # a quadratic that may or may not split over Q
                factors = [[Fraction(rng.randint(-6, 6)),
                            Fraction(rng.randint(-6, 6)),
                            Fraction(rng.randint(1, 4))]]
            if len(coeffs) - 1 + sum(len(fac) - 1 for fac in factors) <= target:
                for fac in factors:
                    coeffs = _poly_mul(coeffs, fac)
                seen.add(kind)
        got = rational_poly_roots(tuple(coeffs))
        assert got == _rational_root_theorem(coeffs), coeffs
        if not got:
            seen.add("none")
        if coeffs[0] == coeffs[1] == 0:
            seen.add("zero-multiple")
    assert seen >= {"double", "zero-multiple", "quad", "none"}


def test_ratfunc_classical_roots():
    ctx = make_context("Qx", s_desc=("id",))
    x = ctx.x
    f = product_of_linears(ctx, [x, ctx.inv(x + ctx.one)])
    roots = ratfunc_classical_roots(ctx, f)
    assert set(roots) == {x, ctx.inv(x + ctx.one)}
    for a in roots:
        assert ctx.is_zero(evaluate(f, a))
    g = SkewPolynomial(ctx, (ctx.one, ctx.zero, ctx.one))  # t^2 + 1
    assert ratfunc_classical_roots(ctx, g) == []


def test_derivation_quadratic_roots():
    qu = BACKENDS["Qu"]
    u = qu.x
    f = SkewPolynomial.linear(qu, u) * SkewPolynomial.linear(qu, u)
    roots, parametric = derivation_quadratic_roots(qu, f)
    assert parametric
    assert any(r == u for r in roots)
    assert any(r == u + qu.inv(u) for r in roots)
    for a in roots:
        assert qu.is_zero(evaluate(f, a))
    g = SkewPolynomial(qu, (qu.x, qu.zero, qu.one))  # t^2 + u has no rational root
    roots, parametric = derivation_quadratic_roots(qu, g)
    assert roots == [] and not parametric


@pytest.mark.parametrize("poly, roots", [
    ("t^2 + [(-u+4)/(u+2)]*t + [-3u/(u^2+4u+4)]", ["(u-1)/(u+2)", "-3/(u+2)"]),
    ("t^2 + [(-u+5)/(u-1)]*t + [(-2u+4)/(u^2-2u+1)]",
     ["(u-3)/(u-1)", "-2/(u-1)"]),
])
def test_riccati_with_constant_invariant(poly, roots):
    # the invariant a = b0 + b1^2/4 - b1'/2 is the constant 1/4 on both;
    # sympy's Riccati solver fails on them, the exact route answers
    qu = BACKENDS["Qu"]
    f = parse_polynomial(poly, qu)
    want = parse_elements(", ".join(roots), qu)
    got, parametric = derivation_quadratic_roots(qu, f)
    assert not parametric and set(got) == set(want)
    cert = is_wedderburn(f)
    assert cert.verdict == IS_W and len(cert.roots) == 2
    assert cert.recheck()


def test_riccati_constant_invariant_square_or_not():
    # a = 2 and a = -1 are not rational squares: no rational root;
    # a = 4 gives the roots -2 and 2 (the same answers as sympy's solver)
    qu = BACKENDS["Qu"]
    for poly, want in (("t^2 + [-2]", []), ("t^2 + [1]", []),
                       ("t^2 + [-4]", ["-2", "2"])):
        got, parametric = derivation_quadratic_roots(
            qu, parse_polynomial(poly, qu))
        assert [str(r) for r in got] == want and not parametric


@pytest.mark.parametrize("poly", ["t^2 + [1/u]", "[u]*t^2 + [1]"])
def test_riccati_solver_proof_of_no_rational_root(poly):
    # the invariant has a pole at u = 0 where the solver's necessary
    # conditions fail; its "Rational Solution doesn't exist" is a proof
    qu = BACKENDS["Qu"]
    f = parse_polynomial(poly, qu)
    assert derivation_quadratic_roots(qu, f.monic()) == ([], False)
    report = right_root_report(f)
    assert report.finite and report.roots == ()


# sympy's rational Riccati solver misses rational solutions, so its empty
# answer is no proof and it cannot serve as the oracle of ROADMAP item 7;
# these reproducers pass once item 7(c) replaces it
MISSED = pytest.mark.xfail(strict=True, reason="sympy's Riccati solver "
                           "misses a rational root (ROADMAP item 7(c))")


@MISSED
def test_riccati_solver_finds_u():
    # f' = 1 + u*f - f^2 is solved by f = u
    x = sympy.Symbol("x_")
    fx = sympy.Function("f_")(x)
    sols = rootfind.solve_riccati(fx, x, sympy.Integer(1), x,
                                  sympy.Integer(-1))
    assert any(sympy.simplify(sol.rhs - x) == 0 for sol in sols)


@MISSED
def test_riccati_roots_include_zero():
    # 0 is a right root of t^2 + (2u - 1)t, which has no constant term
    f = parse_polynomial("t^2 + [2u-1]*t", BACKENDS["Qu"])
    assert BACKENDS["Qu"].zero in right_root_report(f).roots


@MISSED
def test_riccati_recognition_sees_minus_u():
    qu = BACKENDS["Qu"]
    f = parse_polynomial("t^2 + [-1/3u^2+u+1/3]*t + [-1/3u^3+1/3u+1]", qu)
    assert qu.is_zero(evaluate(f, -qu.x))
    assert -qu.x in is_wedderburn(f).roots


def test_norm_polynomial_is_central():
    hq = BACKENDS["HQ"]
    rng = rng_for("norm", 50)
    for _ in range(15):
        coeffs = [hq.random_element(rng) for _ in range(2)] + [hq.one]
        f = SkewPolynomial(hq, tuple(coeffs))
        nf = norm_polynomial(f)
        assert len(nf) == 5
        assert all(isinstance(c, Fraction) for c in nf)
        # evaluating the central polynomial at a right root of f gives zero
        for a in right_roots_via_classes(f):
            val = evaluate_central(hq, nf, a)
            assert hq.is_zero(val)


def right_roots_via_classes(f):
    report = right_root_report(f)
    roots = list(report.roots)
    for cls in report.classes:
        roots.append(cls.sample_root())
    return roots


def evaluate_central(ctx, coeffs, a):
    # central coefficients commute, so ordinary Horner evaluation applies
    acc = ctx.zero
    for c in reversed(coeffs):
        acc = acc * a + Quaternion(c)
    return acc


def test_central_factor_candidates_gaussian():
    # t^4 + 2t^2 + 1 = (t^2 + 1)^2
    f = Fraction
    tags = central_factor_candidates((f(1), f(0), f(2), f(0), f(1)))
    assert ("quad", f(0), f(1)) in tags
    # squarefree part kills repeated linear factors but keeps the root
    tags = central_factor_candidates((f(1), f(2), f(1)))  # (t + 1)^2
    assert tags == [("lin", f(-1))]


def test_quaternion_class_reps():
    f = Fraction
    # trace 0, norm 1: the class of i
    rep = quaternion_class_rep(f(0), f(1))
    assert rep == Quaternion(0, 1)
    # trace 2, norm 1: (t - 1)^2, central root, no pure part
    assert quaternion_class_rep(f(2), f(1)) is None
    # norm needing two squares: t^2 + 5 -> pure part i*2 + j*1 scaled
    rep = quaternion_class_rep(f(0), f(5))
    assert rep is not None and rep.trace() == 0 and rep.norm() == 5
    # 7 is not a sum of <= 3 rational squares... it is (4+1+1+1 needs 4);
    # the class of t^2 + 7 is realized over HQ only if 7 = sum of 3 squares
    assert quaternion_class_rep(f(0), f(7)) is None


def test_quaternion_candidate_classes_cover_roots():
    hq = BACKENDS["HQ"]
    f = SkewPolynomial(hq, (hq.one, hq.zero, hq.one))
    classes = quaternion_candidate_classes(f)
    assert len(classes) == 1
    tag, rep = classes[0]
    assert tag == ("quad", Fraction(0), Fraction(1))
    assert rep.trace() == 0 and rep.norm() == 1


def _class_tag(r):
    """Tag of the central minimal polynomial of a quaternion's class."""
    if r.is_central():
        return ("lin", r.components()[0])
    return ("quad", r.trace(), r.norm())


def _assert_candidates_cover(roots):
    f = product_of_linears(BACKENDS["HQ"], roots)
    tags = central_factor_candidates(norm_polynomial(f))
    missing = {_class_tag(r) for r in roots} - set(tags)
    assert not missing, (str(f), missing)
    return f


@pytest.mark.parametrize("roots", [
    "1+2i-9/2j+2/3k, -7/3-3i-3/2j-2k, 1+3/2i+j-7/3k, -4-5i-5/3j+5/3k, "
    "-5/3+2i+2j+8/3k, -5-3i-2j-5/2k",
    "3/2-6i-1/3k, -2/3-4i-8/3j-2k, -3/2-5/2i-8/3j, -4/3-2/3i+2j+7/2k, "
    "4/3+9/2i-9j",
])
def test_exact_candidates_keep_every_factor_class(roots):
    # products on which a numeric root search of the norm dropped classes
    f = _assert_candidates_cover(parse_elements(roots, BACKENDS["HQ"]))
    cert = is_wedderburn(f)
    assert cert.verdict == IS_W
    assert cert.recheck()


_COMPONENT = st.fractions(min_value=-9, max_value=9, max_denominator=3)
_QUATERNION = st.builds(Quaternion, _COMPONENT, _COMPONENT, _COMPONENT,
                        _COMPONENT)


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(_QUATERNION, min_size=2, max_size=5))
def test_candidates_contain_every_factor_class(roots):
    # Gordon-Motzkin: the class of each factor's root is a root class of
    # the product, so its central minimal polynomial divides the norm
    _assert_candidates_cover(roots)
