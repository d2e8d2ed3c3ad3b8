"""Element and polynomial literals: exact values, errors, round trips."""

from fractions import Fraction

import pytest

from helpers import backend_contexts, random_poly, rng_for
from wpoly.errors import ParseError, WrongRingError
from wpoly.parsing import parse_element, parse_elements, parse_polynomial
from wpoly.rings import FiniteFieldContext
from wpoly.skew import SkewPolynomial

BACKENDS = backend_contexts()


def test_rational_literals():
    q = BACKENDS["Q"]
    assert parse_element("-3/4", q) == Fraction(-3, 4)
    assert parse_element("7", q) == Fraction(7)
    assert parse_element("2^10", q) == Fraction(1024)
    assert parse_element("1/2 + 1/3", q) == Fraction(5, 6)
    assert parse_element("(1+2)*(1-1/4)", q) == Fraction(9, 4)


def test_quaternion_literals():
    hq = BACKENDS["HQ"]
    got = parse_element("1+2i-3j+k/2", hq)
    assert got == hq.from_vec((1, 2, -3, Fraction(1, 2)))
    assert parse_element("-1/2k", hq) == hq.from_vec((0, 0, 0, Fraction(-1, 2)))
    assert parse_element("i*j", hq) == hq.k
    # letter runs lex as one identifier, so adjacency needs the star
    with pytest.raises(ParseError):
        parse_element("ij", hq)
    assert parse_element("j^2", hq) == -hq.one


def test_finite_field_literals_reduce():
    f4 = BACKENDS["F4"]
    w = f4.w
    assert parse_element("w^2+w+1", f4) == f4.zero
    assert parse_element("w^2", f4) == w + f4.one
    f8 = BACKENDS["F8"]
    assert parse_element("w^3", f8) == f8.w + f8.one


def test_rational_function_literals():
    qx = BACKENDS["Qx"]
    x = qx.x
    assert parse_element("(x^2+1)/(x-1)", qx) == (x * x + qx.one) * qx.inv(x - qx.one)
    # a leading rational binds as one number, then multiplies the variable
    assert parse_element("1/2x", qx) == qx.from_int(1) * qx.inv(qx.from_int(2)) * x
    qu = BACKENDS["Qu"]
    u = qu.x
    assert parse_element("(u^2+1)/(u)", qu) == u + qu.inv(u)


def test_wrong_ring_symbols():
    cases = [("x", BACKENDS["Qu"]), ("u", BACKENDS["Qx"]), ("i", BACKENDS["Q"]),
             ("w", BACKENDS["HQ"]), ("x", BACKENDS["F4"])]
    for text, ctx in cases:
        with pytest.raises(WrongRingError):
            parse_element(text, ctx)


def test_malformed_elements():
    q = BACKENDS["Q"]
    for text in ("", "1+", "2^-1", "2^x", "(1", "1)", "*3", "3//4", "1/0",
                 "3/0", "zzz"):
        with pytest.raises(ParseError):
            parse_element(text, q)


def test_parse_elements_list():
    hq = BACKENDS["HQ"]
    assert parse_elements("i, j, -k", hq) == [hq.i, hq.j, -hq.k]
    assert parse_elements("", hq) == []
    assert parse_elements("1", hq) == [hq.one]


def test_polynomial_literals():
    qu = BACKENDS["Qu"]
    u = qu.x
    f = parse_polynomial("t^2 + [-2u]*t + [u^2-1]", qu)
    assert f == SkewPolynomial(qu, (u * u - qu.one, -(u + u), qu.one))
    assert str(f) == "t^2 + [-2u]*t + [u^2-1]"
    hq = BACKENDS["HQ"]
    assert parse_polynomial("t^2 + [j]", hq) == SkewPolynomial(
        hq, (hq.j, hq.zero, hq.one))
    assert parse_polynomial("0", hq).is_zero()


def test_polynomial_term_forms():
    f4 = BACKENDS["F4"]
    w = f4.w
    # the star is optional, bare t^k means a unit coefficient
    assert parse_polynomial("[w]t", f4) == parse_polynomial("[w]*t", f4)
    assert parse_polynomial("t", f4) == SkewPolynomial.t(f4)
    assert parse_polynomial("-[w]*t^2 + t", f4) == SkewPolynomial(
        f4, (f4.zero, f4.one, -w))
    # repeated powers accumulate
    q = BACKENDS["Q"]
    assert parse_polynomial("[1]*t + [2] + [3]*t", q) == SkewPolynomial(
        q, (q.from_int(2), q.from_int(4)))


ACCEPTED_POLYNOMIALS = [
    ("F4", "--t", "t"),
    ("F4", "[w]t", "[w]*t"),
    ("Q", "[3]*t^0", "[3]"),
    ("F4", "- - [w]*t^2", "[w]*t^2"),
    ("Q", "t ^ 2", "t^2"),
    ("Q", "[0]", "0"),
    ("Q", "t^0", "[1]"),
    ("Q", "[1]*t + [2] + [3]*t", "[4]*t + [2]"),
    ("Q", "t^2 - t^2 + [1/2]", "[1/2]"),
    ("HQ", "[i] + t - [(1+j)/2]*t^1", "[1/2-1/2j]*t + [i]"),
]

REJECTED_POLYNOMIALS = [
    ("[]", ParseError), ("[1", ParseError), ("[1]]", ParseError),
    ("[1]*", ParseError), ("[1]*[2]", ParseError), ("t^", ParseError),
    ("t^1/2", ParseError), ("t -", ParseError), ("+", ParseError),
    ("2t", ParseError), ("[x", ParseError), ("[i]", WrongRingError),
]


@pytest.mark.parametrize("ring,text,canonical", ACCEPTED_POLYNOMIALS)
def test_polynomial_language_accepts(ring, text, canonical):
    ctx = BACKENDS[ring]
    f = parse_polynomial(text, ctx)
    assert str(f) == canonical
    assert parse_polynomial(canonical, ctx) == f


@pytest.mark.parametrize("text,error", REJECTED_POLYNOMIALS)
def test_polynomial_language_rejects_with_exact_class(text, error):
    # an unclosed bracket is found before its contents are read, so `[x`
    # over Q is malformed rather than a symbol of another ring
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, BACKENDS["Q"])
    assert type(info.value) is error


def test_polynomial_requires_bracketed_coefficients():
    q = BACKENDS["Q"]
    for text in ("1+t", "t^2+1", "[1", "[1]]", "t^", "[1]*", "t -", "2t"):
        with pytest.raises(ParseError):
            parse_polynomial(text, q)


ROUND_TRIP = {**BACKENDS, "F3": FiniteFieldContext.prime_field(3),
              "F5": FiniteFieldContext.prime_field(5),
              "F9": FiniteFieldContext(3, 2, (1, 0, 1))}


def test_element_round_trips():
    for name, ctx in ROUND_TRIP.items():
        rng = rng_for("parse-elem", name)
        for _ in range(60):
            a = ctx.random_element(rng)
            assert parse_element(str(a), ctx) == a, (name, str(a))


def test_polynomial_round_trips():
    for name, ctx in ROUND_TRIP.items():
        rng = rng_for("parse-poly", name)
        for _ in range(25):
            f = random_poly(ctx, rng, max_deg=3, simple=True)
            assert parse_polynomial(str(f), ctx) == f, (name, str(f))
