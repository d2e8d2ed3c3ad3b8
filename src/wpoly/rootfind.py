"""Exact right-root search engines for the infinite coefficient rings.

Four machines live here: rational roots over Q, read off the linear
factors of the exact factorization over Z; bivariate factorization over Z
for untwisted rational-function rings; a Riccati solver for quadratics
twisted by d/dx; and the quaternion class machinery (norm polynomial, its
central factors of degree <= 2 from the same factorization over Z, class
representatives from a bounded search for sums of squares).

sympy loads only when a root engine over Q, HQ, Q(x) or Q(u) runs, and it
sees only integer polynomials to factor and the Riccati solver's data.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import NotSplitError
from .rings import (Quaternion, RatFunc, _ip_exact_div, _qp_to_int,
                    _rf_signed, ip_gcd, ip_mul, qp_trim)
from .skew import SkewPolynomial


# ---------------------------------------------------------------------------
# rationals: the linear factors of the exact factorization over Z

def rational_poly_roots(coeffs):
    """All rational roots of a nonzero polynomial with Fraction coefficients,
    sorted; they are the roots of its linear factors over Z."""
    if not qp_trim(coeffs):
        raise ValueError("zero polynomial")
    return sorted(c[1] for c in central_factor_candidates(coeffs)
                  if c[0] == "lin")


# ---------------------------------------------------------------------------
# sympy bridges for rational functions

def solve_riccati(*args):
    """sympy's rational Riccati solver, imported when it is called."""
    from sympy.solvers.ode.riccati import solve_riccati
    return solve_riccati(*args)


def _rf_to_sympy(a, x):
    """a with its denominator made monic, as a sympy expression in x."""
    import sympy

    num, den = (sympy.Poly(p[::-1], x, domain="QQ").as_expr()
                for p in (a.num, a.den))
    return num / den


def _sympy_to_rf(expr, x, var):
    """expr as a RatFunc in var; None unless it is rational in x over Q."""
    import sympy

    try:
        num, den = (sympy.Poly(p, x, domain="QQ").all_coeffs()[::-1]
                    for p in sympy.fraction(sympy.cancel(expr)))
    except sympy.polys.polyerrors.BasePolynomialError:
        return None
    return RatFunc(num, den, var)


def ratfunc_classical_roots(ctx, f):
    """Right roots over an untwisted rational-function ring (S = id, D = 0).

    Classical commutative case: f times the lcm of its denominators is an
    integer polynomial in (t, x); each irreducible factor a1*t + a0 over Z
    gives the root -a0/a1, in lowest terms as the factor is primitive.
    """
    import sympy

    lcd = (1,)
    for c in f.coeffs:
        lcd = ip_mul(lcd, ip_gcd(lcd, c.iden)[2])
    terms = {(i, j): v for i, c in enumerate(f.coeffs)
             for j, v in enumerate(ip_mul(c.inum, _ip_exact_div(lcd, c.iden)))}
    _, factors = sympy.Poly.from_dict(terms, sympy.symbols("t_ x_"),
                                      domain="ZZ").factor_list()
    roots = set()
    for fac, _mult in factors:
        if fac.degree() == 1:
            a1, a0 = (tuple(int(v) for v in reversed(c))
                      for c in fac.rep.to_list())
            roots.add(_rf_signed(tuple(-v for v in a0), a1, ctx.variable))
    return sorted(roots, key=ctx.sort_key)


def derivation_quadratic_roots(ctx, f):
    """Right roots of a monic quadratic over Q(x) with S = id, D = d/dx.

    A right root a satisfies the Riccati equation a' = -(q + p*a + a^2).
    The shift a = z - p/2 turns it into z' = c - z^2 with the invariant
    c = p^2/4 + p'/2 - q.  When c is a nonzero rational constant, the
    rational solutions are decided exactly: z = w'/w with w'' = c*w, so z
    is rational only for w = exp(+-s*x), that is z = +-s where c = s^2, and
    there is none when c is not a rational square.  Otherwise sympy's
    solver runs; its parametric solution families are sampled at small
    parameter values and at the parameter's limit at infinity.  Every
    candidate is verified by exact evaluation.  The constant-invariant
    route is complete; sympy's is not: it returns no solution of
    f' = 1 + x*f - f^2, which f = x solves, so a root can be missing from
    its result (ROADMAP item 7(c)).

    Returns (roots, parametric): parametric is True when a verified family
    makes the root set infinite, in which case roots holds samples.  The
    solver's "no rational solution" error proves there is none; any other
    failure raises NotSplitError, since the search is then not complete.
    """
    from .evaluate import evaluate

    p, q = f.coeff(1), f.coeff(0)
    half = RatFunc.const(Fraction(1, 2), ctx.variable)
    shift = -p * half
    c = shift * shift - shift.derivative() - q
    if c and len(c.inum) == 1 and len(c.iden) == 1:
        n, d = c.inum[0], c.iden[0]
        sn, sd = isqrt(max(n, 0)), isqrt(d)
        roots = []
        if sn * sn == n and sd * sd == d:
            s = RatFunc.const(Fraction(sn, sd), ctx.variable)
            roots = sorted((shift + s, shift - s), key=ctx.sort_key)
        for r in roots:
            if not ctx.is_zero(evaluate(f, r)):
                raise AssertionError(f"Riccati root {r} of {f} fails evaluation")
        return roots, False
    import sympy  # only the solver route needs it

    x = sympy.Symbol("x_")
    fx = sympy.Function("f_")(x)
    b0 = -_rf_to_sympy(q, x)
    b1 = -_rf_to_sympy(p, x)
    try:
        sols = solve_riccati(fx, x, b0, b1, sympy.Integer(-1))
    except Exception as exc:
        # the message proves no rational root: a condition fails at a pole
        if str(exc) != "Rational Solution doesn't exist":
            raise NotSplitError("sympy's Riccati solver failed on the "
                                f"equation of {f}") from None
        sols = []
    roots = set()
    def consider(expr):
        cand = _sympy_to_rf(expr, x, ctx.variable)
        if cand is None:
            return False
        if not ctx.is_zero(evaluate(f, cand)):
            return False
        roots.add(cand)
        return True
    parametric = False
    for sol in sols:
        expr = sol.rhs
        params = sorted(expr.free_symbols - {x}, key=str)
        if not params:
            consider(expr)
            continue
        cpar = params[0]
        hits = [consider(expr.subs(cpar, val)) for val in (0, 1, 2, 3, 4)]
        hits.append(consider(sympy.limit(expr, cpar, sympy.oo)))
        if sum(hits) >= 2:
            parametric = True
    return sorted(roots, key=ctx.sort_key), parametric


# ---------------------------------------------------------------------------
# quaternions: norm polynomial and conjugacy-class candidates

def norm_polynomial(f):
    """f * fbar as a rational polynomial (ascending Fraction tuple).

    fbar conjugates each coefficient; the product is central, which is
    asserted rather than assumed.
    """
    ctx = f.ctx
    fbar = SkewPolynomial(ctx, tuple(c.conjugate() for c in f.coeffs))
    prod = f * fbar
    out = []
    for c in prod.coeffs:
        a, b, cc, d = c.components()
        if b or cc or d:
            raise AssertionError("norm polynomial has a non-central coefficient")
        out.append(a)
    return tuple(out)


def central_factor_candidates(ncoeffs):
    """Monic rational factors of degree <= 2 of a rational polynomial.

    The primitive integer form is factored exactly over Z; by Gauss's lemma
    its irreducible factors are, up to their leading coefficients, the
    monic irreducible factors over Q.  Returns ('lin', r) for t - r and
    ('quad', p, q) for t^2 - p*t + q, sorted.
    """
    import sympy

    nc = qp_trim(ncoeffs)
    if len(nc) <= 1:
        return []
    _, factors = sympy.Poly(_qp_to_int(nc)[::-1], sympy.Symbol("t"),
                            domain="ZZ").factor_list()
    found = []
    for fac, _mult in factors:
        c = [Fraction(int(v)) for v in reversed(fac.all_coeffs())]
        if len(c) == 2:
            found.append(("lin", -c[0] / c[1]))
        elif len(c) == 3:
            found.append(("quad", -c[1] / c[2], c[0] / c[2]))
    found.sort(key=lambda c: (len(c),) + tuple(c[1:]))
    return found


def _least_squares(n, k, low):
    """The lexicographically least ascending k-tuple of integers >= low
    whose squares sum to n > 0, or None."""
    if k == 1:
        s = isqrt(n)
        return (s,) if s >= low and s * s == n else None
    for a in range(low, isqrt(n // k) + 1):
        rest = _least_squares(n - a * a, k - 1, a)
        if rest:
            return (a,) + rest
    return None


def quaternion_class_rep(p, q):
    """Deterministic representative of the conjugacy class with central
    minimal polynomial t^2 - p*t + q, or None when the class is empty.

    The pure part squares to -(q - p^2/4) = -n/den^2; its i, j, k parts
    are v/den for the least ascending tuple v of as few positive integers
    as possible whose squares sum to n.  Squares are 0 or 1 mod 4, so the
    tuples of 4n are those of n doubled; n = 8b + 7 has none (Legendre).
    """
    m = q - p * p / 4
    if m <= 0:
        return None
    den = m.denominator
    n, scale = m.numerator * den, 1
    while n % 4 == 0:
        n, scale = n // 4, 2 * scale
    if n % 8 == 7:
        return None
    v = next(filter(None, (_least_squares(n, k, 1) for k in (1, 2, 3))))
    return Quaternion(p / 2, *(Fraction(scale * c, den) for c in v))


def quaternion_candidate_classes(f):
    """Candidate conjugacy classes possibly containing right roots of f.

    Every right root's central minimal polynomial divides the norm
    polynomial, so its degree <= 2 rational factors enumerate all classes.
    Returns (tag, representative) pairs in a deterministic order; empty
    classes (central quadratics that no rational quaternion realizes) are
    dropped.
    """
    out = []
    for cand in central_factor_candidates(norm_polynomial(f)):
        if cand[0] == "lin":
            out.append((cand, Quaternion(cand[1])))
        else:
            rep = quaternion_class_rep(cand[1], cand[2])
            if rep is not None:
                out.append((cand, rep))
    return out
