"""Right evaluation, (S,D)-conjugation, the phi transform, and root search.

Evaluation follows the power functions N_0(a) = 1,
N_{i+1}(a) = S(N_i(a))*a + D(N_i(a)), with f(a) = sum b_i N_i(a); this is
the unique value with f - f(a) in R*(t - a).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainRequiredError
from .skew import SkewPolynomial


def power_functions(ctx, a, n):
    """The list [N_0(a), ..., N_n(a)]."""
    out = [ctx.one]
    cur = ctx.one
    for _ in range(n):
        cur = ctx.S(cur) * a + ctx.D(cur)
        out.append(cur)
    return out


def _lambda_sum(f, a, x):
    """sum_i b_i Lambda_i(x) for f = sum_i b_i t^i, where Lambda_0(x) = x and
    Lambda_{i+1}(x) = S(Lambda_i(x))*a + D(Lambda_i(x)); Lambda_i(1) = N_i(a)."""
    ctx = f.ctx
    lam = x
    acc = ctx.zero
    for i, b in enumerate(f.coeffs):
        if i:
            lam = ctx.S(lam) * a + ctx.D(lam)
        if not ctx.is_zero(b):
            acc = acc + b * lam
    return acc


def evaluate(f, a):
    """Right evaluation f(a)."""
    return _lambda_sum(f, a, f.ctx.one)


def conjugate(ctx, a, c):
    """a^c = S(c)*a*c^-1 + D(c)*c^-1; the conjugator c must be nonzero."""
    if ctx.is_zero(c):
        raise ZeroDivisionError("conjugation by zero")
    ci = ctx.inv(c)
    return ctx.S(c) * a * ci + ctx.D(c) * ci


def conjugacy_class(ctx, a):
    """The full (S,D)-conjugacy class of a on an enumerable context."""
    return sorted({conjugate(ctx, a, c) for c in ctx.elements() if not ctx.is_zero(c)},
                  key=ctx.sort_key)


def conjugacy_class_reps(ctx):
    """One representative per (S,D)-conjugacy class, for finite contexts.

    Each class is represented by its least element under the context sort
    order, and the representatives come back in that same order.
    """
    seen = set()
    reps = []
    for a in ctx.elements():
        if a in seen:
            continue
        reps.append(a)
        seen.update(conjugacy_class(ctx, a))
    return reps


def phi_transform(h, x):
    """Phi_h(x) = x^{h(x)}, or None when h(x) = 0 (undefined at a root)."""
    v = evaluate(h, x)
    if h.ctx.is_zero(v):
        return None
    return conjugate(h.ctx, x, v)


def is_right_root(f, a):
    return f.ctx.is_zero(evaluate(f, a))


def is_left_root(f, b):
    res = f.left_divmod(SkewPolynomial.linear(f.ctx, b))
    return res is not None and res[1].is_zero()


def _resolve_domain(ctx, domain, what):
    """The distinct elements of an explicit domain, else the whole ring when
    it is finite; ``what`` names the operation in the error otherwise."""
    if domain is not None:
        return list(dict.fromkeys(domain))
    if ctx.finite:
        return ctx.elements()
    raise DomainRequiredError(f"{what} over {ctx.name} needs an explicit search domain")


def right_roots(f, domain=None):
    """The right roots of f in the domain (the whole ring when finite), in
    domain order; the zero polynomial keeps the whole domain."""
    dom = _resolve_domain(f.ctx, domain, "right root search")
    return [a for a in dom if is_right_root(f, a)]


def left_roots(f):
    """Left roots (b with f in (t-b)R) of f over a finite ring."""
    if f.is_zero():
        raise ValueError("every element is a left root of the zero polynomial")
    return [b for b in f.ctx.elements() if is_left_root(f, b)]


@dataclass(frozen=True)
class CosetReport:
    """Which S(K)-coset alternative a set of left roots satisfies."""

    monic: bool
    n_roots: int
    alternative: str  # 'single' | 'disjoint' | 'mixed'
    holds: bool


def coset_check(f, roots):
    """Classify pairwise differences of left roots relative to S(K).

    For monic f the single-coset alternative is asserted; a violation would
    be a library defect and raises.
    """
    ctx = f.ctx
    distinct = list(dict.fromkeys(roots))
    n = len(distinct)
    flags = [ctx.s_image_contains(distinct[i] - distinct[j])
             for i in range(n) for j in range(i + 1, n)]
    if all(flags):
        alternative = "single"
    elif not any(flags):
        alternative = "disjoint"
    else:
        alternative = "mixed"
    monic = f.is_monic()
    if monic and n >= 2 and alternative != "single":
        raise AssertionError(
            "left roots of a monic polynomial left a single S(K)-coset")
    return CosetReport(monic=monic, n_roots=n, alternative=alternative,
                       holds=alternative != "mixed")


# ---------------------------------------------------------------------------
# base-linear matrices attached to evaluation maps

def lambda_matrix(ctx, f, a):
    """Base-field matrix of x -> sum_i b_i Lambda_i(x) (see _lambda_sum).

    For x != 0, Lambda_i(x) = N_i(a^x)*x, so the kernel is the exponential
    space E(f, a) = {0} u {x : f(a^x) = 0}.
    """
    return ctx.base_matrix(lambda x: _lambda_sum(f, a, x))
