"""The metro equation ax - S(x)b - D(x) = c across solver strategies."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import rng_for
from wpoly import metro
from wpoly.algsets import class_minimal_polynomial
from wpoly.errors import CapabilityMissingError, ClassMembershipError
from wpoly.evaluate import conjugate, evaluate, is_right_root
from wpoly.metro import (MULTIPLE, NO_SOLUTION, SOLUTION, UNIQUE,
                         MetroProblem, MetroSolutionReport,
                         class_algebraic_uniqueness, metro_polynomial,
                         metro_wedderburn_equivalence, solve_metro)
from wpoly.parsing import parse_elements
from wpoly.rings import Quaternion, RatFunc, _ip_eval, make_context
from wpoly.skew import SkewPolynomial

HQ = make_context("HQ")
QU = make_context("Qu", d_desc=("ddx",))
F4 = make_context("F4")


def test_quaternion_unique_solution():
    p = MetroProblem(HQ, HQ.i, HQ.from_int(2), HQ.one)
    rep = solve_metro(p)
    assert rep.status == SOLUTION
    assert rep.x == HQ.from_vec((Fraction(-2, 5), Fraction(-1, 5), 0, 0))
    assert rep.uniqueness == UNIQUE and rep.second is None
    assert rep.strategy == "base-linear"
    assert p.is_solution(rep.x) and rep.revalidate()


def test_quaternion_no_solution():
    rep = solve_metro(MetroProblem(HQ, HQ.i, HQ.i, HQ.one))
    assert rep.status == NO_SOLUTION and rep.x is None
    assert rep.revalidate()


def test_quaternion_solution_family():
    p = MetroProblem(HQ, HQ.i, HQ.i, HQ.j)
    rep = solve_metro(p)
    assert rep.status == SOLUTION and rep.uniqueness == MULTIPLE
    assert str(rep.x) == "-1/2k"
    assert str(rep.second) == "1-1/2k"
    assert p.is_solution(rep.x) and p.is_solution(rep.second)


def test_finite_field_enumeration_matches_brute_force():
    elems = sorted(F4.elements(), key=F4.sort_key)
    for a, b, c in itertools.product(elems, elems, elems):
        if F4.is_zero(c):
            continue
        p = MetroProblem(F4, a, b, c)
        rep = solve_metro(p)
        brute = [x for x in elems if p.is_solution(x)]
        assert rep.strategy == "enumeration"
        if not brute:
            assert rep.status == NO_SOLUTION
        else:
            assert rep.status == SOLUTION and rep.x == brute[0]
            if len(brute) > 1:
                assert rep.uniqueness == MULTIPLE and rep.second == brute[1]
            else:
                assert rep.uniqueness == UNIQUE and rep.second is None


def test_differential_constant_shift():
    # a = b: x' = -1, so x = -u up to an added constant
    u = QU.x
    rep = solve_metro(MetroProblem(QU, u, u, QU.one))
    assert rep.status == SOLUTION and rep.strategy == "universal-denominator"
    assert rep.x == -u
    assert rep.uniqueness == MULTIPLE and rep.second == -u + QU.one


def test_differential_unique_solution():
    # x' = u*x - u: x = 1, and x' = u*x has no rational solution but 0
    u = QU.x
    rep = solve_metro(MetroProblem(QU, u, QU.zero, u))
    assert rep.status == SOLUTION and rep.x == QU.one
    assert rep.uniqueness == UNIQUE and rep.second is None
    assert rep.reason is None


def test_differential_no_solution():
    # u*x - x' = 1: the leading terms and the poles of x rule out any x;
    # -x' = 1/u would need x = -log(u)
    for abc in ("u, 0, 1", "0, 0, 1/u", "u^2, 1/u, (u+1)/(2u)"):
        rep = solve_metro(MetroProblem(QU, *parse_elements(abc, QU)))
        assert rep.status == NO_SOLUTION and rep.x is None, abc
        assert rep.strategy == "universal-denominator" and rep.revalidate()


def _qu_poly(rng, deg):
    lead = rng.choice((-2, -1, 1, 2))
    return RatFunc([rng.randint(-3, 3) for _ in range(deg)] + [lead], (1,), "u")


def _qu_ratfunc(rng):
    return RatFunc([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))],
                   [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
                   + [1], "u")


def _known_answer_case(kind, rng):
    """(f, c, x) with x' = f*x - c; x is None when no rational x exists."""
    while True:
        if kind == "simple-pole-c":
            # c has a simple pole at r where f has none; a pole of x of
            # order m at r would give x' - f*x a pole of order m + 1 >= 2
            r, f, g = rng.randint(-3, 3), _qu_ratfunc(rng), _qu_ratfunc(rng)
            if _ip_eval(f.iden, r) and _ip_eval(g.iden, r):
                pole = RatFunc((rng.choice((-2, -1, 1, 2)),), (-r, 1), "u")
                return f, g + pole, None
            continue
        if kind == "any-f":
            f = _qu_ratfunc(rng)
        elif kind == "polynomial-f":
            f = _qu_poly(rng, rng.randint(0, 2))
        else:
            y = _qu_ratfunc(rng)
            if not y:
                continue
            f = y.derivative() / y
        x = _qu_ratfunc(rng)
        c = f * x - x.derivative()
        if c:
            return f, c, x


def test_differential_known_answers():
    # 100 seeded equations of each kind, built around a known answer
    for kind in ("any-f", "polynomial-f", "log-derivative-f", "simple-pole-c"):
        rng = rng_for("metro-known", kind)
        for _ in range(100):
            f, c, x = _known_answer_case(kind, rng)
            rep = solve_metro(MetroProblem(QU, f, QU.zero, c))
            if x is None:
                assert rep.status == NO_SOLUTION, (f, c)
                continue
            assert rep.status == SOLUTION, (f, c)
            if kind == "polynomial-f":
                # x' = f*x has no rational solution but 0 for f != 0
                assert rep.uniqueness == UNIQUE and rep.x == x, (f, c)
            elif kind == "log-derivative-f":
                # the solutions of x' = f*x are the constant multiples of y
                assert rep.uniqueness == MULTIPLE, (f, c)
            elif rep.uniqueness == UNIQUE:
                assert rep.x == x, (f, c)


def test_zero_right_side_is_rejected():
    with pytest.raises(ValueError):
        MetroProblem(HQ, HQ.i, HQ.j, HQ.zero)


def test_revalidate_catches_wrong_reports():
    p = MetroProblem(HQ, HQ.i, HQ.from_int(2), HQ.one)
    good = solve_metro(p)
    bad = MetroSolutionReport(p, SOLUTION, x=HQ.one, uniqueness=UNIQUE)
    assert not bad.revalidate()
    fake_second = MetroSolutionReport(p, SOLUTION, x=good.x,
                                      uniqueness=MULTIPLE, second=HQ.one)
    assert not fake_second.revalidate()


def test_metro_polynomial_shape():
    rng = rng_for("metro-poly", 7)
    from wpoly.evaluate import conjugate
    for _ in range(10):
        a = HQ.random_element(rng)
        b = HQ.random_element(rng)
        c = HQ.random_element(rng, nonzero=True)
        f = metro_polynomial(MetroProblem(HQ, a, b, c))
        bc = conjugate(HQ, b, c)
        assert f == (SkewPolynomial.linear(HQ, bc)
                     * SkewPolynomial.linear(HQ, a))
        assert f.degree == 2 and f.coeff(2) == HQ.one


def test_equivalence_quaternion_bridge():
    rep = metro_wedderburn_equivalence(MetroProblem(HQ, HQ.i, HQ.i, HQ.j))
    assert rep.decided and rep.consistent
    assert rep.solvable is True and rep.poly_is_w is True
    assert str(rep.poly) == "t^2 + [1]"
    assert rep.bridge_root == -HQ.i
    assert rep.bridge_is_second_root


def test_equivalence_differential_bridge():
    u = QU.x
    rep = metro_wedderburn_equivalence(MetroProblem(QU, u, u, QU.one))
    assert rep.decided and rep.consistent
    assert rep.bridge_root == u + QU.inv(u)
    assert rep.bridge_is_second_root


def test_equivalence_differential_no_solution():
    rep = metro_wedderburn_equivalence(
        MetroProblem(QU, *parse_elements("0, 0, 1/u", QU)))
    assert rep.solvable is False and rep.poly_is_w is False
    assert rep.consistent is True


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the Riccati engine misses the root u of "
                          "t^2 - u*t - 1 (ROADMAP item 7(c))")
def test_equivalence_differential_missed_root():
    # u*x - x' = 1 has no rational solution, so t^2 - u*t - 1 = t(t - u)
    # has the single root u; the root report is empty, and the check
    # that a = u is listed raises
    rep = metro_wedderburn_equivalence(
        MetroProblem(QU, *parse_elements("u, 0, 1", QU)))
    assert rep.consistent is True


@pytest.mark.parametrize("ctx, abc", [(HQ, "i, i, 1"), (HQ, "i, 2, 1"),
                                      (F4, "w, 0, 1")])
def test_equivalence_requires_a_among_finite_roots(ctx, abc, monkeypatch):
    # a root engine that drops a, a right root of (t - b^c)(t - a) by
    # construction, is caught even where the two sides would agree
    problem = MetroProblem(ctx, *parse_elements(abc, ctx))
    report = metro.right_root_report(metro_polynomial(problem))
    assert report.finite and problem.a in report.roots
    metro_wedderburn_equivalence(problem)
    dropped = replace(report, roots=tuple(r for r in report.roots
                                          if r != problem.a))
    monkeypatch.setattr(metro, "right_root_report", lambda f: dropped)
    with pytest.raises(AssertionError, match="misses a"):
        metro_wedderburn_equivalence(problem)


def test_equivalence_negative_case():
    rep = metro_wedderburn_equivalence(MetroProblem(HQ, HQ.i, HQ.i, HQ.one))
    assert rep.solvable is False and rep.poly_is_w is False
    assert rep.consistent is True
    assert rep.bridge_root is None and rep.bridge_is_second_root is None


def test_equivalence_random_quaternion_instances():
    rng = rng_for("metro-equiv", 3)
    solved = 0
    for _ in range(25):
        a = HQ.random_element(rng)
        b = HQ.random_element(rng)
        c = HQ.random_element(rng, nonzero=True)
        rep = metro_wedderburn_equivalence(MetroProblem(HQ, a, b, c))
        assert rep.decided and rep.consistent
        if rep.solvable:
            solved += 1
            assert rep.bridge_is_second_root
    assert solved > 5


def test_class_uniqueness_outside_the_class():
    rep = class_algebraic_uniqueness(HQ, HQ.i, HQ.one + HQ.j, HQ.one)
    assert rep.ok and rep.uniqueness == UNIQUE
    assert str(rep.class_minpoly) == "t^2 + [1]"
    rep = class_algebraic_uniqueness(HQ, HQ.from_int(2), HQ.from_int(3), HQ.one)
    assert rep.ok
    assert str(rep.class_minpoly) == "t + [-2]"
    rep = class_algebraic_uniqueness(F4, F4.w, F4.zero, F4.one)
    assert rep.ok and str(rep.class_minpoly) == "t^2 + [1]"


def test_class_uniqueness_membership_is_rejected():
    with pytest.raises(ClassMembershipError):
        class_algebraic_uniqueness(HQ, HQ.i, -HQ.i, HQ.one)
    # every nonzero element of F4 is Frobenius-conjugate to w
    with pytest.raises(ClassMembershipError):
        class_algebraic_uniqueness(F4, F4.w, F4.one, F4.one)


def test_class_uniqueness_over_q_and_qu():
    # the classes of Q are its points; Q(u) has no finite base dimension
    q = make_context("Q")
    rep = class_algebraic_uniqueness(q, q.from_int(2), q.from_int(3), q.one)
    assert rep.ok and str(rep.class_minpoly) == "t + [-2]"
    with pytest.raises(ClassMembershipError):
        class_algebraic_uniqueness(q, q.from_int(2), q.from_int(2), q.one)
    with pytest.raises(CapabilityMissingError):
        class_algebraic_uniqueness(QU, QU.x, QU.one, QU.one)


def test_hq_class_polynomial_under_an_inner_derivation():
    ctx = make_context("HQ", d_desc=("inner", HQ.i))
    minpoly = class_minimal_polynomial(ctx, ctx.j)
    assert str(minpoly) == "t^2 + [-2i]*t + [1]"
    assert ctx.is_zero(evaluate(minpoly, ctx.j))
    # every conjugate x(j - i)x^-1 + i differs from i
    assert not is_right_root(minpoly, ctx.i)
    # so the product is a minimal polynomial and the solution is unique
    rep = class_algebraic_uniqueness(ctx, ctx.j, ctx.i, ctx.one)
    assert rep.ok and rep.uniqueness == UNIQUE and rep.poly_is_w


def test_hq_class_polynomial_vanishes_on_conjugates():
    rng = rng_for("hq-class", 1)
    for d in (HQ.i, Quaternion(1, 0, 1, Fraction(-1, 2))):
        ctx = make_context("HQ", d_desc=("inner", d))
        for _ in range(10):
            b = ctx.random_element(rng)
            minpoly = class_minimal_polynomial(ctx, b)
            assert is_right_root(minpoly, b) and minpoly.degree in (1, 2)
            for _ in range(3):
                x = conjugate(ctx, b, ctx.random_element(rng, nonzero=True))
                assert ctx.is_zero(evaluate(minpoly, x))


def test_hq_class_polynomial_without_derivation_is_trace_and_norm():
    rng = rng_for("hq-class", 2)
    for _ in range(100):
        b = HQ.random_element(rng)
        minpoly = class_minimal_polynomial(HQ, b)
        if b.is_central():
            assert minpoly == SkewPolynomial.linear(HQ, b)
        else:
            assert minpoly == SkewPolynomial(HQ, (HQ.from_int(b.norm()),
                                                  HQ.from_int(-b.trace()),
                                                  HQ.one))
