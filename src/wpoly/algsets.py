"""Algebraic sets: minimal polynomials, rank, P-dependence, closure.

A finite set of elements determines a left ideal of skew polynomials
vanishing on it; the monic generator is the minimal polynomial, built
here by the iterative product of conjugated linear factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evaluate import _resolve_domain, conjugate, evaluate, right_roots
from .skew import SkewPolynomial


def _check_distinct(ctx, elements):
    elems = tuple(elements)
    seen = set()
    for a in elems:
        if a in seen:
            raise ValueError(f"duplicate generator {a}")
        seen.add(a)
    return elems


@dataclass(frozen=True)
class MinimalPolynomialResult:
    poly: SkewPolynomial
    basis: tuple

    @property
    def rank(self) -> int:
        return self.poly.degree if not self.poly.is_zero() else 0


def minimal_polynomial(ctx, elements) -> MinimalPolynomialResult:
    """Monic minimal polynomial of a finite set, with a P-basis.

    Generators are folded in order: whenever the current polynomial g has
    g(a) != 0, it is replaced by (t - a^{g(a)}) * g and a joins the basis.
    The polynomial is order-independent; the chosen basis is not.
    """
    elems = _check_distinct(ctx, elements)
    g = SkewPolynomial.one(ctx)
    basis = []
    for a in elems:
        val = evaluate(g, a)
        if not ctx.is_zero(val):
            g = SkewPolynomial.linear(ctx, conjugate(ctx, a, val)) * g
            basis.append(a)
    return MinimalPolynomialResult(g, tuple(basis))


def class_minimal_polynomial(ctx, b) -> SkewPolynomial:
    """Minimal polynomial of the (S, D)-conjugacy class of b (Lam & Leroy
    1988), from the conjugates of b by the base units alone: for x != 0,
    f(b^x)*x = Lambda_f(x), which is linear over the central base field, so
    f vanishes on the class once it vanishes on those conjugates."""
    return minimal_polynomial(ctx, dict.fromkeys(
        conjugate(ctx, b, e) for e in ctx.base_units())).poly


def rank(ctx, elements) -> int:
    return minimal_polynomial(ctx, elements).rank


def is_p_dependent(ctx, d, elements) -> bool:
    """True when every polynomial vanishing on the set also kills d."""
    f = minimal_polynomial(ctx, elements).poly
    return ctx.is_zero(evaluate(f, d))


def is_p_independent(ctx, elements) -> bool:
    """No generator is P-dependent on the remaining ones, that is, the rank
    of the set equals its size."""
    elems = tuple(elements)
    return minimal_polynomial(ctx, elems).rank == len(elems)


def closure(ctx, elements, domain=None):
    """All domain elements P-dependent on the set, sorted canonically.

    On finite backends the domain defaults to the whole ring; infinite
    backends require an explicit candidate domain.
    """
    elems = _check_distinct(ctx, elements)
    f = minimal_polynomial(ctx, elems).poly
    found = right_roots(f, _resolve_domain(ctx, domain, "closure"))
    return tuple(sorted(dict.fromkeys(found + list(elems)), key=ctx.sort_key))


def is_full(ctx, elements, domain=None) -> bool:
    """True when the set already contains every root of its minimal polynomial."""
    elems = _check_distinct(ctx, elements)
    return len(closure(ctx, elems, domain)) == len(elems)
