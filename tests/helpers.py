"""Shared generators for the test suite."""

import random

from wpoly.algsets import minimal_polynomial
from wpoly.evaluate import conjugate
from wpoly.rings import RatFunc, make_context
from wpoly.skew import SkewPolynomial


def backend_contexts():
    """One representative context per ring family, covering every twist."""
    f8 = make_context("F8")
    return {
        "Q": make_context("Q"),
        "F4": make_context("F4"),
        "F8": f8,
        "F8-inner": make_context("F8", d_desc=("inner", f8.w)),
        "Qx": make_context("Qx", s_desc=("xsq",)),
        "Qu": make_context("Qu", d_desc=("ddx",)),
        "HQ": make_context("HQ"),
    }


def rng_for(name, salt=0):
    return random.Random(f"{name}:{salt}")


def simple_element(ctx, rng, nonzero=False):
    """Low-height elements; over Q(x)/Q(u) mostly polynomial with short
    numerators, which keeps gcd chains under the x -> x^2 twist tame."""
    if ctx.kind != "QV":
        return ctx.random_element(rng, nonzero)
    while True:
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
        den = [rng.randint(-2, 2), 1] if rng.random() < 0.25 else [1]
        a = RatFunc(num, den, ctx.variable)
        if a or not nonzero:
            return a


def random_set(ctx, rng, size, simple=False):
    """Distinct elements; algebraic-set inputs reject duplicates."""
    elem = simple_element if simple else (
        lambda c, r, nonzero=False: c.random_element(r, nonzero))
    out = []
    guard = 0
    while len(out) < size:
        a = elem(ctx, rng)
        if all(a != b for b in out):
            out.append(a)
        guard += 1
        if guard > 100 * size:
            raise RuntimeError("element universe too small for requested set")
    return out


def random_poly(ctx, rng, max_deg=3, monic=False, min_deg=0, simple=False):
    elem = simple_element if simple else (
        lambda c, r, nonzero=False: c.random_element(r, nonzero))
    deg = rng.randint(min_deg, max_deg)
    coeffs = [elem(ctx, rng) for _ in range(deg)]
    coeffs.append(ctx.one if monic else elem(ctx, rng, nonzero=True))
    return SkewPolynomial(ctx, tuple(coeffs))


def planted_w_polynomials(ctx, rng, count, max_size=3):
    """Seeded pairs (f, delta): f is the minimal polynomial of a random set
    delta of 2 to max_size elements, so f is W by definition and delta lies
    in V(f), an answer known before any root engine runs.  Half the time
    the last element is replaced by a conjugate of the first, which plants
    a whole class where conjugation moves it."""
    for _ in range(count):
        delta = random_set(ctx, rng, rng.randint(2, max_size), simple=True)
        x = conjugate(ctx, delta[0], simple_element(ctx, rng, nonzero=True))
        if rng.random() < 0.5 and x not in delta:
            delta[-1] = x
        yield minimal_polynomial(ctx, delta).poly, delta
