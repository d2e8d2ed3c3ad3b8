"""Wedderburn polynomial recognition and the structural theorems around it.

A monic polynomial is Wedderburn when it equals the minimal polynomial of
its own right-root set.  This module decides that property exactly, with
certificates, and implements the supporting machinery: centralizers and
exponential spaces, complete splitting into linear factors, companion and
Vandermonde matrices with the diagonalization identity, dual left-root
representations, the factor and product criteria, and the three rank
identities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import linalg
from .algsets import (class_minimal_polynomial, is_p_independent,
                      minimal_polynomial, rank)
from .errors import (
    CapabilityMissingError,
    DisjointnessError,
    NotPIndependentError,
    NotSplitError,
)
from .evaluate import (
    _resolve_domain,
    conjugate,
    evaluate,
    lambda_matrix,
    phi_transform,
    power_functions,
    right_roots,
)
from .rootfind import (
    derivation_quadratic_roots,
    quaternion_candidate_classes,
    ratfunc_classical_roots,
    rational_poly_roots,
)
from .skew import SkewPolynomial, monic_right_divisors, product_of_linears

IS_W = "IS_W"
NOT_W = "NOT_W"


# ---------------------------------------------------------------------------
# centralizers and exponential spaces

def centralizer(ctx, a):
    """Base-field basis of C_a = {0} u {c != 0 : a^c = a}, which is the
    exponential space E(t - a, a)."""
    matrix = lambda_matrix(ctx, SkewPolynomial.linear(ctx, a), a)
    ker = linalg.kernel(matrix, ctx.base)
    return tuple(ctx.from_vec(v) for v in ker)


@dataclass(frozen=True)
class ClassRootSet:
    """A right basis over the centralizer of rep of the exponential space
    E(f, rep), whose nonzero x give the roots rep^x of f in the class of
    rep; central_poly is the quaternion engine's tag ('lin', a) for t - a or
    ('quad', p, q) for t^2 - p*t + q, and None on a transported class."""

    ctx: object
    rep: object
    basis: tuple
    central_poly: tuple = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def finite(self) -> bool:
        return self.dimension <= 1

    @property
    def central_text(self) -> str:
        return str(class_minimal_polynomial(self.ctx, self.rep))

    def sample_root(self):
        return conjugate(self.ctx, self.rep, self.basis[0])


def exponential_space(f, a):
    """Right-centralizer basis of E(f, a) = {0} u {x != 0 : f(a^x) = 0}.

    The base-field kernel of the additive map Lambda_f is reduced to a
    right C_a-basis greedily; the reduction must come out exact, since
    E(f, a) is a right C_a-vector space.
    """
    ctx = f.ctx
    ker = linalg.kernel(lambda_matrix(ctx, f, a), ctx.base)
    elems = tuple(ctx.from_vec(v) for v in ker)
    cent = centralizer(ctx, a)
    if len(ker) % len(cent):
        raise AssertionError("exponential space is not free over the centralizer")
    chosen = []
    span_rows = []
    for x in elems:
        if linalg.span_contains(span_rows, ctx.to_vec(x), ctx.base):
            continue
        chosen.append(x)
        for c in cent:
            span_rows.append(list(ctx.to_vec(x * c)))
        span_rows, _ = linalg.rref(span_rows, ctx.base)
    if len(chosen) * len(cent) != len(ker):
        raise AssertionError("centralizer reduction lost dimensions")
    return ClassRootSet(ctx, a, tuple(chosen))


# ---------------------------------------------------------------------------
# right-root reports

@dataclass(frozen=True)
class RootReport:
    """Exact description of V(f): a finite list, or per-class data."""

    poly: SkewPolynomial
    finite: bool
    roots: tuple
    classes: tuple
    method: str

    @property
    def basis(self) -> tuple:
        """Roots with the same minimal polynomial as V(f): the listed roots
        when no classes are given, else a^x for each exponential-space
        basis vector x of each class a.  Within a class the rank of V(f) is
        the dimension of E(f, a) over the centralizer, and ranks add across
        classes."""
        if not self.classes:
            return self.roots
        return tuple(conjugate(c.ctx, c.rep, x)
                     for c in self.classes for x in c.basis)


def _quaternion_root_classes(f):
    out = []
    for tag, rep in quaternion_candidate_classes(f):
        space = exponential_space(f, rep)
        if space.dimension:
            out.append(replace(space, central_poly=tag))
    return tuple(out)


def _transport(f, target, coeff, t_image, anti, back, moved):
    """right_root_report(f) through the isomorphism (anti-isomorphism if
    anti) onto target sending a to coeff(a) and t to the polynomial with
    coefficients t_image; back and moved carry roots and classes back to
    f's ring, and refusals name f's context."""
    ctx = f.ctx
    g, image = SkewPolynomial.zero(target), SkewPolynomial(target, t_image)
    for c in reversed(f.coeffs):
        c = SkewPolynomial.constant(target, coeff(c))
        g = (image * g if anti else g * image) + c
    try:
        rep = right_root_report(g)
    except (NotSplitError, CapabilityMissingError) as exc:
        raise type(exc)(str(exc).replace(target.describe(),
                                         ctx.describe())) from None
    roots = tuple(sorted(map(back, rep.roots), key=ctx.sort_key))
    return RootReport(f, rep.finite, roots, tuple(map(moved, rep.classes)),
                      rep.method)


def _inner_transport(f) -> RootReport:
    """right_root_report(f) under D = inner(d), from the D = 0 twin:
    t' = t - d has t'a = S(a)t' (Ore 1933), so r is a right root of f iff
    r - d is one of g(t') = f(t' + d), and (r + d)^x = r^x + d keeps class
    bases."""
    ctx, twin, d = f.ctx, f.ctx.twin, f.ctx.d_desc[1]
    return _transport(f, twin, lambda a: a, (d, twin.one), False,
                      lambda r: r + d,
                      lambda c: replace(c, ctx=ctx, rep=c.rep + d,
                                        central_poly=None))


def right_root_report(f) -> RootReport:
    """Complete right-root description where an exact engine exists.

    Raises NotSplitError when the context offers no complete search for
    this degree (twisted rational functions beyond the linear case,
    derivations beyond the quadratic case).
    """
    ctx = f.ctx
    if f.is_zero():
        raise ValueError("zero polynomial has every element as a root")
    if ctx.finite:
        return RootReport(f, True, tuple(right_roots(f)), (), "enumeration")
    if ctx.d_desc[0] == "inner":
        return _inner_transport(f)
    deg = f.degree
    if deg == 0:
        return RootReport(f, True, (), (), "constant")
    if ctx.kind == "Q":
        roots = tuple(rational_poly_roots(f.coeffs))
        return RootReport(f, True, roots, (), "rational-root-theorem")
    if ctx.kind == "HQ":
        classes = _quaternion_root_classes(f)
        finite = all(c.finite for c in classes)
        roots = ()
        if finite:
            roots = tuple(sorted((c.sample_root() for c in classes),
                                 key=ctx.sort_key))
        return RootReport(f, finite, roots, classes, "conjugacy-classes")
    # rational functions
    if deg == 1:
        root = ctx.inv(f.lc) * (-f.coeff(0))
        return RootReport(f, True, (root,), (), "linear")
    s_kind, d_kind = ctx.s_desc[0], ctx.d_desc[0]
    if s_kind == "id" and d_kind == "zero":
        roots = tuple(ratfunc_classical_roots(ctx, f))
        return RootReport(f, True, roots, (), "bivariate-factorization")
    if s_kind == "id" and d_kind == "ddx" and deg == 2:
        roots, parametric = derivation_quadratic_roots(ctx, f.monic())
        return RootReport(f, not parametric, tuple(roots), (), "riccati")
    raise NotSplitError(
        f"no exact root search for degree {deg} over {ctx.describe()}")


def _first_root(f):
    basis = right_root_report(f).basis
    return basis[0] if basis else None


# ---------------------------------------------------------------------------
# splitting and recognition

def split(f):
    """Roots (c_1, ..., c_n) with f = (t - c_n) ... (t - c_1).

    Found by repeatedly locating a right root and dividing it out; raises
    NotSplitError (carrying the partial chain) when some quotient has no
    root in the decidable search space.
    """
    if f.is_zero() or not f.is_monic():
        raise ValueError("split expects a monic polynomial")
    ctx = f.ctx
    roots = []
    g = f
    while g.degree > 0:
        try:
            c = _first_root(g)
        except NotSplitError as exc:
            raise NotSplitError(exc.reason, partial_roots=roots) from None
        if c is None:
            raise NotSplitError(
                f"{g} has no right root in {ctx.name}", partial_roots=roots)
        roots.append(c)
        g, r = g.right_divmod(SkewPolynomial.linear(ctx, c))
        if not r.is_zero():
            raise AssertionError("division by a verified root left a remainder")
    if product_of_linears(ctx, roots) != f:
        raise AssertionError("split chain does not multiply back")
    return tuple(roots)


@dataclass(frozen=True)
class WCertificate:
    poly: SkewPolynomial
    verdict: str
    roots: tuple = ()
    f_v: SkewPolynomial = None

    @property
    def is_w(self) -> bool:
        return self.verdict == IS_W

    def recheck(self) -> bool:
        """Re-validate the evidence from scratch."""
        ctx = self.poly.ctx
        if self.verdict == IS_W:
            res = minimal_polynomial(ctx, self.roots)
            return (res.poly == self.poly
                    and res.rank == len(self.roots) == self.poly.degree)
        if self.f_v is None or self.f_v == self.poly:
            return False
        return (self.f_v.is_monic()
                and self.f_v.degree < self.poly.degree
                and self.poly.right_divmod(self.f_v)[1].is_zero())


def _certify(f, roots):
    ctx = f.ctx
    res = minimal_polynomial(ctx, roots)
    if res.poly == f:
        return WCertificate(f, IS_W, res.basis)
    return WCertificate(f, NOT_W, res.basis, res.poly)


def is_wedderburn(f) -> WCertificate:
    """Decide f = f_{V(f)} with a re-checkable certificate.

    The candidate roots are the P-basis of V(f) from right_root_report:
    finite rings enumerate; the rationals and untwisted rational functions
    use complete classical root searches; quadratics over (Q(x), id, d/dx)
    use the Riccati engine; quaternions take, per root class, the
    conjugates by an exponential-space basis.  NotSplitError propagates
    where no complete search exists.
    """
    if f.is_zero() or not f.is_monic():
        raise ValueError("is_wedderburn expects a monic polynomial")
    if f.degree == 0:
        return WCertificate(f, IS_W, ())
    return _certify(f, right_root_report(f).basis)


# ---------------------------------------------------------------------------
# companion and Vandermonde matrices (diagonalization identity)

def companion(f):
    """Companion matrix of a monic polynomial: identity superdiagonal,
    negated coefficients along the bottom row."""
    if f.is_zero() or not f.is_monic():
        raise ValueError("companion matrix needs a monic polynomial")
    ctx = f.ctx
    n = f.degree
    rows = [[ctx.one if j == i + 1 else ctx.zero for j in range(n)]
            for i in range(n - 1)]
    rows.append([-f.coeff(j) for j in range(n)])
    return rows


def vandermonde(ctx, elements):
    """Rows of iterated power functions: row i holds N_i of each element."""
    elements = list(elements)
    n = len(elements)
    powers = [power_functions(ctx, c, n - 1) for c in elements]
    return [[powers[j][i] for j in range(n)] for i in range(n)]


def diagonalization_check(f, roots) -> bool:
    """Exact check of C(f) V = S(V) diag(roots) + D(V) with V invertible."""
    roots = list(roots)
    if f.is_zero() or not f.is_monic() or f.degree != len(roots):
        raise ValueError("need a monic polynomial and deg-many elements")
    ctx = f.ctx
    if not roots:
        return True
    v = vandermonde(ctx, roots)
    lhs = linalg.km_mul(ctx, companion(f), v)
    rhs = linalg.km_add(ctx,
                        linalg.km_scale_cols_right(linalg.km_map(v, ctx.S), roots),
                        linalg.km_map(v, ctx.D))
    return linalg.km_eq(lhs, rhs) and linalg.km_invertible(ctx, v)


# ---------------------------------------------------------------------------
# dual representation (left-root symmetry)

def dual_representation(ctx, basis):
    """Left-root companions b_i = a_i^{h_i(a_i)} of a P-independent basis,
    where h_i is the minimal polynomial of the other basis elements.

    Each t - b_i is verified to left-divide the minimal polynomial of the
    whole basis.
    """
    basis = tuple(basis)
    if not is_p_independent(ctx, basis):
        raise NotPIndependentError("dual representation needs a P-basis")
    f = minimal_polynomial(ctx, basis).poly
    out = []
    for idx, a in enumerate(basis):
        rest = basis[:idx] + basis[idx + 1:]
        h = minimal_polynomial(ctx, rest).poly
        val = evaluate(h, a)
        if ctx.is_zero(val):
            raise AssertionError("independence contradicted during dualization")
        out.append(conjugate(ctx, a, val))
    if len(set(out)) != len(out):
        raise AssertionError("dual companions collide")
    for b in out:
        div = f.left_divmod(SkewPolynomial.linear(ctx, b))
        if div is None or not div[1].is_zero():
            raise AssertionError(f"t - ({b}) fails to left-divide {f}")
    return tuple(out)


# ---------------------------------------------------------------------------
# factor and product criteria

def monic_factors(f):
    """All monic p of positive degree with f = p1 * p * p2 for monic p1, p2;
    finite contexts.

    For each monic right divisor p2 of f, the factors are the monic right
    divisors of positive degree of the left cofactor f / p2 (p1 = 1 when p
    is the whole cofactor).  They are listed once each, in the order found.
    """
    return list(dict.fromkeys(
        p for p2 in monic_right_divisors(f)
        for p in monic_right_divisors(f.right_divmod(p2)[0])[1:]))


def _chain_factors(f, chain):
    n = len(chain)
    return list(dict.fromkeys(product_of_linears(f.ctx, chain[lo:hi])
                              for lo in range(n) for hi in range(lo + 1, n + 1)))


@dataclass(frozen=True)
class FactorTheoremReport:
    poly: SkewPolynomial
    is_w: bool
    splits: bool
    factors: tuple
    all_factors_w: bool
    quadratic_factors_w: bool

    @property
    def consistent(self) -> bool:
        return self.is_w == self.all_factors_w == self.quadratic_factors_w


def factor_theorem_check(f) -> FactorTheoremReport:
    """The three equivalent conditions on factors, evaluated independently.

    Finite contexts search f = p1 * p * p2 exhaustively; elsewhere the
    factors are the consecutive subproducts of one splitting chain.
    """
    if f.is_zero() or not f.is_monic():
        raise ValueError("factor criteria need a monic polynomial")
    ctx = f.ctx
    is_w = is_wedderburn(f).is_w
    try:
        chain = split(f)
        splits = True
    except NotSplitError:
        chain = ()
        splits = False
    factors = ()
    all_w = quad_w = splits
    if splits:
        factors = tuple(monic_factors(f) if ctx.finite
                        else _chain_factors(f, chain))
        all_w = all(is_wedderburn(p).is_w for p in factors)
        quad_w = all(is_wedderburn(p).is_w
                     for p in factors if p.degree == 2)
    return FactorTheoremReport(f, is_w, splits, factors, all_w, quad_w)


def _bezout_one_membership(g, h):
    """Exact test of 1 in Rg + hR via the bounded-degree linear system.

    Any witness reduces, by left division of the cofactor of g by h, to one
    with deg(u) < deg(h) and deg(v) < deg(g), so the bounded search is
    complete whenever left division is available (finite contexts qualify).
    """
    ctx = g.ctx
    n = g.degree + h.degree
    def poly_to_vec(p):
        vec = []
        for i in range(n):
            vec.extend(ctx.to_vec(p.coeff(i)))
        return vec
    units = ctx.base_units()
    cols = [poly_to_vec(SkewPolynomial.monomial(ctx, e, i) * g)
            for i in range(h.degree) for e in units]
    cols += [poly_to_vec(h * SkewPolynomial.monomial(ctx, e, j))
             for j in range(g.degree) for e in units]
    rhs = poly_to_vec(SkewPolynomial.one(ctx))
    rows = [list(row) for row in zip(*cols)]
    return linalg.solve(rows, rhs, ctx.base) is not None


def left_root_report(f) -> RootReport:
    """Exact description of V'(f) = {b : f in (t-b)R} where available.

    psi: a -> conj(a), t -> -t is an anti-isomorphism onto the opposite ring
    K[t; S^-1, D o S^-1] (Ore 1933) with psi((t - b)g) = -psi(g)(t + conj(b)),
    so b is a left root of f iff -conj(b) is a right root of psi(f).  A class
    (a, x) moves to (-conj(a), conj(x)^-1), as
    -conj(a^x) = (-conj(a))^(conj(x)^-1).  Raises
    CapabilityMissingError where S has no inverse.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has every element as a left root")
    ctx, op = f.ctx, f.ctx.opposite

    def moved(c):
        return replace(c, ctx=ctx, rep=-ctx.conj(c.rep),
                       basis=tuple(ctx.inv(ctx.conj(x)) for x in c.basis),
                       central_poly=None)
    return _transport(f, op, ctx.conj, (op.zero, -op.one), True,
                      lambda r: -ctx.conj(r), moved)


@dataclass(frozen=True)
class ProductTheoremReport:
    g: SkewPolynomial
    h: SkewPolynomial
    product_w: bool
    g_w: bool
    h_w: bool
    bezout_one: object
    phi_image_cover: object
    quadratic_pairs: object

    @property
    def untested(self) -> tuple:
        names = []
        for name in ("bezout_one", "phi_image_cover", "quadratic_pairs"):
            if getattr(self, name) is None:
                names.append(name)
        return tuple(names)

    @property
    def consistent(self) -> bool:
        both = self.g_w and self.h_w
        for cond in (self.bezout_one, self.phi_image_cover,
                     self.quadratic_pairs):
            if cond is not None and (both and cond) != self.product_w:
                return False
        return True


def product_theorem_check(g, h) -> ProductTheoremReport:
    """Evaluate the product criteria for f = g*h independently.

    Conditions that need an unavailable search space are reported as None
    (untested), never silently guessed.
    """
    g._check(h)
    if not (g.is_monic() and h.is_monic()):
        raise ValueError("product criteria need monic polynomials")
    ctx = g.ctx
    f = g * h
    product_w = is_wedderburn(f).is_w
    g_w = is_wedderburn(g).is_w
    h_w = is_wedderburn(h).is_w
    bezout = phi_cover = quad = None
    try:
        rg, rh = right_root_report(g), left_root_report(h)
    except (NotSplitError, CapabilityMissingError):
        rg = rh = None
    if rh is not None and rg.finite and rh.finite:
        quad = all(is_wedderburn(SkewPolynomial.linear(ctx, a)
                                 * SkewPolynomial.linear(ctx, b)).is_w
                   for a in rg.roots for b in rh.roots)
    if ctx.finite:
        bezout = _bezout_one_membership(g, h) if f.degree else True
        image = set()
        for x in ctx.elements():
            y = phi_transform(h, x)
            if y is not None:
                image.add(y)
        phi_cover = all(a in image for a in rg.roots)
    return ProductTheoremReport(g, h, product_w, g_w, h_w,
                                bezout, phi_cover, quad)


# ---------------------------------------------------------------------------
# rank identities

def rank_union_check(ctx, delta, gamma, domain=None):
    """Both sides of rk(D) + rk(G) = rk(D u G) + rk(clos(D) n clos(G))."""
    delta, gamma = list(delta), list(gamma)
    dom = _resolve_domain(ctx, domain, "the union rank identity")
    fd = minimal_polynomial(ctx, delta).poly
    fg = minimal_polynomial(ctx, gamma).poly
    union = list(dict.fromkeys(delta + gamma))
    inter = right_roots(fg, right_roots(fd, dom))
    lhs = rank(ctx, delta) + rank(ctx, gamma)
    rhs = rank(ctx, union) + rank(ctx, inter)
    return lhs, rhs


def phi_rank_check(h, delta, domain=None):
    """Both sides of rk(Phi_h(D)) = rk(D) - rk(clos(D) n V(h));
    D must avoid V(h)."""
    ctx = h.ctx
    delta = list(delta)
    for d in delta:
        if ctx.is_zero(evaluate(h, d)):
            raise DisjointnessError(f"{d} lies in V({h})")
    dom = _resolve_domain(ctx, domain, "the phi rank identity")
    fd = minimal_polynomial(ctx, delta).poly
    images = list(dict.fromkeys(phi_transform(h, d) for d in delta))
    inter = right_roots(h, right_roots(fd, dom))
    lhs = rank(ctx, images)
    rhs = rank(ctx, delta) - rank(ctx, inter)
    return lhs, rhs


def product_rank_bound(g, h, domain=None):
    """(rk V(gh), rk V(g) + rk V(h)) over the enumerated domain."""
    ctx = g.ctx
    dom = _resolve_domain(ctx, domain, "the product rank bound")
    lhs = rank(ctx, right_roots(g * h, dom))
    rhs = rank(ctx, right_roots(g, dom)) + rank(ctx, right_roots(h, dom))
    return lhs, rhs
