"""The metro equation ax - S(x)b - D(x) = c across solver strategies."""

import itertools
from fractions import Fraction

import pytest

from helpers import rng_for
from wpoly.errors import ClassMembershipError, NotSplitError
from wpoly.evaluate import conjugate, evaluate
from wpoly.metro import (MULTIPLE, NO_SOLUTION, SOLUTION, UNDECIDED, UNIQUE,
                         UNKNOWN, MetroProblem, MetroSolutionReport,
                         _class_minpoly_and_membership,
                         class_algebraic_uniqueness, metro_polynomial,
                         metro_wedderburn_equivalence, solve_metro)
from wpoly.rings import Quaternion, make_context
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


def test_differential_antiderivative():
    u = QU.x
    rep = solve_metro(MetroProblem(QU, u, u, QU.one))
    assert rep.status == SOLUTION and rep.strategy == "antiderivative"
    assert rep.x == -u
    assert rep.uniqueness == MULTIPLE and rep.second == -u + QU.one


def test_differential_rational_ansatz():
    u = QU.x
    rep = solve_metro(MetroProblem(QU, u, QU.zero, u))
    assert rep.status == SOLUTION and rep.strategy == "rational-ansatz"
    assert rep.x == QU.one
    # the ansatz finds a solution but cannot rule out others
    assert rep.uniqueness == UNKNOWN
    assert "ansatz" in rep.reason


def test_differential_undecided_reports_its_bound():
    rep = solve_metro(MetroProblem(QU, QU.x, QU.zero, QU.one))
    assert rep.status == UNDECIDED and rep.x is None
    assert "deg n <= 8" in rep.reason
    assert rep.revalidate()


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


def test_hq_class_polynomial_under_an_inner_derivation():
    ctx = make_context("HQ", d_desc=("inner", HQ.i))
    minpoly, member = _class_minpoly_and_membership(ctx, ctx.j, ctx.i)
    assert str(minpoly) == "t^2 + [-2i]*t + [1]"
    assert ctx.is_zero(evaluate(minpoly, ctx.j))
    # every conjugate x(j - i)x^-1 + i differs from i
    assert not member
    # so no class membership is claimed; the root engine then cannot
    # decide the product under a non-central inner D
    with pytest.raises(NotSplitError):
        class_algebraic_uniqueness(ctx, ctx.j, ctx.i, ctx.one)


def test_hq_class_polynomial_vanishes_on_conjugates():
    rng = rng_for("hq-class", 1)
    for d in (HQ.i, Quaternion(1, 0, 1, Fraction(-1, 2))):
        ctx = make_context("HQ", d_desc=("inner", d))
        for _ in range(10):
            b = ctx.random_element(rng)
            minpoly, member = _class_minpoly_and_membership(ctx, b, b)
            assert member and minpoly.degree in (1, 2)
            for _ in range(3):
                x = conjugate(ctx, b, ctx.random_element(rng, nonzero=True))
                assert ctx.is_zero(evaluate(minpoly, x))


def test_hq_class_polynomial_without_derivation_is_trace_and_norm():
    rng = rng_for("hq-class", 2)
    for _ in range(100):
        b = HQ.random_element(rng)
        minpoly, _ = _class_minpoly_and_membership(HQ, b, HQ.zero)
        if b.is_central():
            assert minpoly == SkewPolynomial.linear(HQ, b)
        else:
            assert minpoly == SkewPolynomial(HQ, (HQ.from_int(b.norm()),
                                                  HQ.from_int(-b.trace()),
                                                  HQ.one))
