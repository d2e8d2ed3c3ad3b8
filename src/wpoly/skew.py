"""Skew polynomials R = K[t; S, D] with left coefficients.

Multiplication is driven by the commutation rule t*b = S(b)*t + D(b).
The zero polynomial has degree NEG_INF, a sentinel that behaves correctly
under comparisons and addition of degrees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ContextMismatchError

NEG_INF = float("-inf")


class SkewPolynomial:
    __slots__ = ("ctx", "coeffs", "_hash")

    def __init__(self, ctx, coeffs):
        cs = list(coeffs)
        while cs and ctx.is_zero(cs[-1]):
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)
        self._hash = None

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (ctx.one,))

    @classmethod
    def constant(cls, ctx, a):
        return cls(ctx, (a,))

    @classmethod
    def t(cls, ctx):
        return cls(ctx, (ctx.zero, ctx.one))

    @classmethod
    def linear(cls, ctx, a):
        """The monic linear polynomial t - a."""
        return cls(ctx, (-a, ctx.one))

    @classmethod
    def monomial(cls, ctx, c, k):
        return cls(ctx, (ctx.zero,) * k + (c,))

    # -- structure ------------------------------------------------------------
    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ctx.zero

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.lc == self.ctx.one

    def _check(self, other):
        if not isinstance(other, SkewPolynomial):
            return None
        if other.ctx != self.ctx:
            raise ContextMismatchError("polynomials from different contexts")
        return other

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other):
        if self._check(other) is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPolynomial(self.ctx, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        if self._check(other) is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPolynomial(self.ctx, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return SkewPolynomial(self.ctx, [-c for c in self.coeffs])

    def _t_times(self, coeffs):
        """Coefficients of t * (sum coeffs[i] t^i)."""
        ctx = self.ctx
        out = [ctx.zero] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            out[i + 1] = out[i + 1] + ctx.S(c)
            d = ctx.D(c)
            if not ctx.is_zero(d):
                out[i] = out[i] + d
        return out

    def __mul__(self, other):
        if self._check(other) is None:
            return NotImplemented
        ctx = self.ctx
        if self.is_zero() or other.is_zero():
            return SkewPolynomial.zero(ctx)
        acc = [ctx.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        cur = list(other.coeffs)
        for i, b in enumerate(self.coeffs):
            if i:
                cur = self._t_times(cur)
            if not ctx.is_zero(b):
                for j, c in enumerate(cur):
                    acc[j] = acc[j] + b * c
        return SkewPolynomial(ctx, acc)

    def scale_left(self, c):
        return SkewPolynomial(self.ctx, [c * b for b in self.coeffs])

    def monic(self):
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        if self.is_monic():
            return self
        return self.scale_left(self.ctx.inv(self.lc))

    # -- division ---------------------------------------------------------------
    def right_divmod(self, g):
        """(q, r) with self = q*g + r and deg r < deg g."""
        self._check(g)
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        ctx = self.ctx
        q = SkewPolynomial.zero(ctx)
        r = self
        dg = g.degree
        while not r.is_zero() and r.degree >= dg:
            k = r.degree - dg
            c = r.lc * ctx.inv(ctx.s_pow(g.lc, k))
            mono = SkewPolynomial.monomial(ctx, c, k)
            q = q + mono
            r = r - mono * g
        return q, r

    def left_divmod(self, g):
        """(q, r) with self = g*q + r and deg r < deg g, or None.

        When S is not surjective the quotient coefficients are forced
        top-down and each one needs an iterated S-preimage; if any preimage
        is missing, no such (q, r) exists at all.
        """
        self._check(g)
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        ctx = self.ctx
        dg = g.degree
        if self.degree < dg:
            return SkewPolynomial.zero(ctx), self
        m = self.degree - dg
        glc_inv = ctx.inv(g.lc)
        qc = [ctx.zero] * (m + 1)
        r = self
        for k in range(m, -1, -1):
            target = r.coeff(dg + k)
            if ctx.is_zero(target):
                continue
            val = glc_inv * target
            for _ in range(dg):
                val = ctx.s_preimage(val)
                if val is None:
                    return None
            qc[k] = val
            r = r - g * SkewPolynomial.monomial(ctx, val, k)
        return SkewPolynomial(ctx, qc), r

    # -- misc ---------------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, SkewPolynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:  # computed once: polynomials are immutable
            self._hash = hash((self.ctx.key, self.coeffs))
        return self._hash

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if self.ctx.is_zero(c):
                continue
            if i == 0:
                parts.append(f"[{c}]")
            else:
                tpart = "t" if i == 1 else f"t^{i}"
                parts.append(tpart if c == self.ctx.one else f"[{c}]*{tpart}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over {self.ctx.name}>"


def product_of_linears(ctx, roots):
    """(t - r_n)***(t - r_1) for roots listed innermost first."""
    f = SkewPolynomial.one(ctx)
    for r in roots:
        f = SkewPolynomial.linear(ctx, r) * f
    return f


@dataclass(frozen=True)
class GcdLcmResult:
    """rgcd and llcm with Bezout cofactors: rgcd = u*f + v*g."""

    rgcd: SkewPolynomial
    llcm: SkewPolynomial
    u: SkewPolynomial
    v: SkewPolynomial


def rgcd_llcm(f, g):
    """Monic greatest common right divisor and least common left multiple.

    Conventions: rgcd(f, 0) = monic(f), llcm(f, 0) = 0; both arguments zero
    is rejected.
    """
    f._check(g)
    ctx = f.ctx
    zero = SkewPolynomial.zero(ctx)
    one = SkewPolynomial.one(ctx)
    if f.is_zero() and g.is_zero():
        raise ValueError("rgcd/llcm of two zero polynomials is undefined")
    if f.is_zero():
        return GcdLcmResult(g.monic(), zero, zero,
                            SkewPolynomial.constant(ctx, ctx.inv(g.lc)))
    if g.is_zero():
        return GcdLcmResult(f.monic(), zero,
                            SkewPolynomial.constant(ctx, ctx.inv(f.lc)), zero)
    r0, r1 = f, g
    u0, u1 = one, zero
    v0, v1 = zero, one
    while not r1.is_zero():
        q, r2 = r0.right_divmod(r1)
        r0, r1 = r1, r2
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    lcm = u1 * f
    c = ctx.inv(r0.lc)
    return GcdLcmResult(r0.monic(), lcm.monic() if not lcm.is_zero() else lcm,
                        u0.scale_left(c), v0.scale_left(c))


def monic_polynomials(ctx, degree):
    """All monic polynomials of the exact degree, in lexicographic
    coefficient order; finite contexts only."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    elems = list(ctx.elements())
    if degree == 0:
        yield SkewPolynomial.one(ctx)
        return
    for lower in itertools.product(elems, repeat=degree):
        yield SkewPolynomial(ctx, lower + (ctx.one,))


def monic_right_divisors(f):
    """Every monic right divisor of a monic f, in ascending degree; finite
    contexts only.

    1 and f are listed without a division.  Past the halfway degree the
    divisors are read off their monic left cofactors (a degree-d divisor
    pairs with a degree n-d cofactor), which keeps the candidate count at
    q^min(d, n-d).
    """
    n = f.degree
    out = [SkewPolynomial.one(f.ctx)]
    for d in range(1, n):
        if d <= n - d:
            out += [p for p in monic_polynomials(f.ctx, d)
                    if f.right_divmod(p)[1].is_zero()]
        else:
            for p in monic_polynomials(f.ctx, n - d):
                res = f.left_divmod(p)
                if res is not None and res[1].is_zero():
                    out.append(res[0])
    if n > 0:
        out.append(f)
    return out
