"""Property tests of the integer representations of RatFunc and Quaternion
against independent models: sympy for rational functions, Hamilton's
product on Fraction 4-tuples for quaternions."""

from fractions import Fraction
from math import gcd

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wpoly.rings import Quaternion, RatFunc, make_context

PROPS = settings(max_examples=60, deadline=None, database=None)

X = sympy.Symbol("x")
small = st.integers(-4, 4)
# (numerator, denominator) coefficient lists, ascending, denominator nonzero
fractions_of_polys = st.tuples(
    st.lists(small, max_size=3),
    st.lists(small, min_size=1, max_size=3).filter(any))


def _poly(coeffs):
    return sum((sympy.Integer(c) * X**i for i, c in enumerate(coeffs)),
               sympy.Integer(0))


def _rf(pair):
    num, den = pair
    return RatFunc(num, den, "x"), _poly(num) / _poly(den)


def _times(a, b):
    out = [0] * (len(a) + len(b))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _as_sympy(r):
    return _poly(r.inum) / _poly(r.iden)


def _assert_canonical(r):
    num, den = r.inum, r.iden
    assert den and den[-1] > 0
    if not num:
        assert den == (1,)
        return
    assert gcd(*num, *den) == 1
    assert sympy.degree(sympy.gcd(_poly(num), _poly(den)), X) == 0


def _assert_matches(r, expr):
    _assert_canonical(r)
    assert sympy.cancel(_as_sympy(r) - expr) == 0


@PROPS
@given(fractions_of_polys, fractions_of_polys)
def test_ratfunc_arithmetic_matches_sympy(p, q):
    (a, ea), (b, eb) = _rf(p), _rf(q)
    _assert_matches(a, ea)
    _assert_matches(a + b, ea + eb)
    _assert_matches(a - b, ea - eb)
    _assert_matches(a * b, ea * eb)
    if b:
        _assert_matches(a / b, ea / eb)
        _assert_matches(b.inverse(), 1 / eb)


@PROPS
@given(fractions_of_polys)
def test_ratfunc_maps_match_sympy(p):
    a, ea = _rf(p)
    _assert_matches(a.derivative(), sympy.diff(ea, X))
    _assert_matches(a.subs_square(), ea.subs(X, X**2))
    _assert_matches(a.subs_neg(), ea.subs(X, -X))


@PROPS
@given(fractions_of_polys, fractions_of_polys,
       st.lists(small, min_size=1, max_size=4).filter(any),
       st.integers(1, 5))
def test_ratfunc_equality_is_canonical(p, q, common, scale):
    a, b = _rf(p)[0], _rf(q)[0]
    assert (a == b) == (str(a) == str(b))
    # the same value written with a common factor in both parts
    num, den = p
    factor = [scale * c for c in common]
    same = RatFunc(_times(num, factor), _times(den, factor), "x")
    assert same == a and hash(same) == hash(a) and str(same) == str(a)


fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
quads = st.tuples(fractions, fractions, fractions, fractions)


def _hamilton(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def _inverse(p):
    n = sum(v * v for v in p)
    return (p[0] / n, -p[1] / n, -p[2] / n, -p[3] / n)


def _assert_lowest(q):
    assert q.den > 0 and gcd(*q.nums, q.den) == 1


@PROPS
@given(quads, quads)
def test_quaternion_arithmetic_matches_fraction_model(p, q):
    a, b = Quaternion(*p), Quaternion(*q)
    assert a.components() == p
    for got, want in ((a * b, _hamilton(p, q)),
                      (a + b, tuple(x + y for x, y in zip(p, q))),
                      (a - b, tuple(x - y for x, y in zip(p, q)))):
        _assert_lowest(got)
        assert got.components() == want
    if b:
        for got, want in ((b.inverse(), _inverse(q)),
                          (a / b, _hamilton(p, _inverse(q)))):
            _assert_lowest(got)
            assert got.components() == want


@PROPS
@given(quads, quads)
def test_quaternion_equality_is_canonical(p, q):
    a, b = Quaternion(*p), Quaternion(*q)
    assert (a == b) == (str(a) == str(b))
    if b:
        same = a * b / b
        assert same == a and hash(same) == hash(a) and str(same) == str(a)


QX = make_context("Qx", s_desc=("xsq",), d_desc=("inner", RatFunc.gen("x")))
QU = make_context("Qu", d_desc=("ddx",))


@PROPS
@given(fractions_of_polys, fractions_of_polys)
def test_twisted_leibniz_rule(p, q):
    for ctx in (QX, QU):
        a = RatFunc(*p, ctx.variable)
        b = RatFunc(*q, ctx.variable)
        assert ctx.D(a * b) == ctx.S(a) * ctx.D(b) + ctx.D(a) * b
        assert ctx.S(a * b) == ctx.S(a) * ctx.S(b)
        assert ctx.S(a + b) == ctx.S(a) + ctx.S(b)
