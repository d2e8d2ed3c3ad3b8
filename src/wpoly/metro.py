"""The metro equation ax - S(x)b - D(x) = c and its polynomial counterpart.

Solvability of the equation is equivalent to (t - b^c)(t - a) being the
minimal polynomial of two distinct elements, and a solution x converts into
the second root a - c*x^{-1}.  Both directions are computed independently
here so the equivalence can be checked rather than assumed.  The equation is
decided exactly over the finite rings, over rings of finite dimension over
a central field, over Q(x) with S = id, D = 0, and over Q(u) with d/du,
where all its rational solutions are found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algsets import class_minimal_polynomial
from .errors import (
    CapabilityMissingError,
    ClassMembershipError,
    NotSplitError,
)
from .evaluate import conjugate, is_right_root
from .rings import RatFunc, ip_add, ip_deriv, ip_gcd, ip_mul, ip_sub
from .skew import SkewPolynomial
from .wedderburn import is_wedderburn, right_root_report

SOLUTION = "SOLUTION"
NO_SOLUTION = "NO_SOLUTION"
UNDECIDED = "UNDECIDED"

UNIQUE = "UNIQUE"
MULTIPLE = "MULTIPLE"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class MetroProblem:
    ctx: object
    a: object
    b: object
    c: object

    def __post_init__(self):
        if self.ctx.is_zero(self.c):
            raise ValueError(
                "c = 0 is rejected: x = 0 already solves that equation")

    def residual(self, x):
        ctx = self.ctx
        return self.a * x - ctx.S(x) * self.b - ctx.D(x)

    def is_solution(self, x) -> bool:
        return self.residual(x) == self.c


@dataclass(frozen=True)
class MetroSolutionReport:
    problem: MetroProblem
    status: str
    x: object = None
    uniqueness: str = UNKNOWN
    second: object = None
    strategy: str = ""
    reason: str = None

    def revalidate(self) -> bool:
        """Substitute every reported solution back into the equation."""
        if self.status != SOLUTION:
            return self.x is None and self.second is None
        if not self.problem.is_solution(self.x):
            return False
        if self.uniqueness == MULTIPLE:
            return (self.second != self.x
                    and self.problem.is_solution(self.second))
        return True


def _solve_enumerate(problem) -> MetroSolutionReport:
    ctx = problem.ctx
    sols = [x for x in ctx.elements() if problem.is_solution(x)]
    if not sols:
        return MetroSolutionReport(problem, NO_SOLUTION,
                                   strategy="enumeration")
    uniq = UNIQUE if len(sols) == 1 else MULTIPLE
    second = sols[1] if len(sols) > 1 else None
    return MetroSolutionReport(problem, SOLUTION, sols[0], uniq, second,
                               strategy="enumeration")


def _linear_report(problem, aug, one, element, strategy):
    """Report for an equation whose solutions are element(v) for the
    solutions v of M v = r, element being linear, from aug = (M | -r).

    The kernel of aug holds both answers: its basis vector with last
    entry one is a solution (free variables zero), and any other is a
    nonzero solution of M v = 0.
    """
    ker = linalg.kernel(aug, one)
    if not ker or not ker[-1][-1]:
        return MetroSolutionReport(problem, NO_SOLUTION, strategy=strategy)
    x = element(ker[-1][:-1])
    if len(ker) > 1:
        return MetroSolutionReport(problem, SOLUTION, x, MULTIPLE,
                                   x + element(ker[0][:-1]), strategy=strategy)
    return MetroSolutionReport(problem, SOLUTION, x, UNIQUE, strategy=strategy)


def _solve_base_linear(problem) -> MetroSolutionReport:
    ctx = problem.ctx
    aug = [list(row) + [-v] for row, v in
           zip(ctx.base_matrix(problem.residual), ctx.to_vec(problem.c))]
    return _linear_report(problem, aug, ctx.base, ctx.from_vec, "base-linear")


def _solve_differential(problem) -> MetroSolutionReport:
    """Every rational solution of x' = f*x - c over K = Q(u), S = id,
    D = d/du, where f = a - b = fn/fd and c = cn/cd.

    Write x = z/h (Abramov 1989; Bronstein, Symbolic Integration I,
    ch. 6).  A pole of x of order m is a pole of c of order m + 1, or a
    simple pole of f with residue -m, so h = gcd(cd, cd') * prod p_m^m,
    where p_m = gcd(fd, fn + m*fd') collects the simple poles with residue
    -m, and those m are the negative integer roots of
    Res_u(fd, fn - z*fd').  At infinity deg x = deg c - deg f when
    deg f >= 0, and else deg x <= max(deg c + 1, 0, F), with
    F = lc(fn)/lc(fd) counted when deg f = -1 and F is an integer.
    Multiplied by lcm(fd, cd)*h^2 the equation is one linear system over
    Q in the coefficients of z.
    """
    ctx = problem.ctx
    f, c = problem.a - problem.b, problem.c
    fn, fd, cn, cd = f.inum, f.iden, c.inum, c.iden
    h = ip_gcd(cd, ip_deriv(cd))[0] if len(cd) > 1 else (1,)
    _, fd1, cd1 = ip_gcd(fd, cd)
    bound = max(len(cn) - len(cd) + 1, 0)
    if fn and len(fn) >= len(fd):
        bound = len(cn) - len(cd) - (len(fn) - len(fd))
    elif fn and len(fn) == len(fd) - 1 and fn[-1] % fd[-1] == 0:
        bound = max(bound, fn[-1] // fd[-1])
    if len(fd) > 1:
        import sympy

        from .rootfind import rational_poly_roots

        u, z = sympy.symbols("u z")
        fdd = ip_deriv(fd)
        def poly(p, k=0):   # p(u) * z^k
            return sympy.Poly.from_dict({(i, k): v for i, v in enumerate(p)},
                                        u, z)
        res = poly(fd).resultant(poly(fn) - poly(fdd, 1))
        for r in rational_poly_roots([Fraction(int(v)) for v
                                      in reversed(res.all_coeffs())]):
            if r < 0 and r.denominator == 1:
                s = ip_add(fn, tuple(-r.numerator * v for v in fdd))
                p = ip_gcd(fd, s)[0] if s else fd
                for _ in range(-r.numerator):
                    h = ip_mul(h, p)
    # times lcm(fd, cd)*h^2 = fd*cd1*h^2: z = u^k gives the column
    # fd*cd1*h*k*u^(k-1) - (fd*cd1*h' + fn*cd1*h)*u^k, c gives cn*fd1*h^2
    lead = ip_mul(ip_mul(fd, cd1), h)
    tail = ip_add(ip_mul(ip_mul(fd, cd1), ip_deriv(h)),
                  ip_mul(ip_mul(fn, cd1), h))
    cols = [ip_sub((0,) * (k - 1) + tuple(k * v for v in lead) if k else (),
                   (0,) * k + tail)
            for k in range(len(h) + bound)]
    cols.append(ip_mul(ip_mul(cn, fd1), ip_mul(h, h)))
    aug = [[col[r] if r < len(col) else 0 for col in cols]
           for r in range(max(map(len, cols)))]
    return _linear_report(problem, aug, Fraction(1),
                          lambda v: RatFunc(v, h, ctx.variable),
                          "universal-denominator")


def solve_metro(problem: MetroProblem) -> MetroSolutionReport:
    """Solve ax - S(x)b - D(x) = c by the strongest applicable strategy.

    Finite rings enumerate; rings of finite dimension over a central base
    field solve one exact linear system, where uniqueness is equivalent to
    a trivial kernel; over Q(u) with d/du one exact linear system over Q
    holds every rational solution (``_solve_differential``), so the answer
    is NO_SOLUTION, UNIQUE or MULTIPLE there too.  Anything else is
    reported UNDECIDED rather than guessed.
    """
    ctx = problem.ctx
    report = None
    if ctx.finite:
        report = _solve_enumerate(problem)
    elif ctx.base_dim:
        report = _solve_base_linear(problem)
    elif ctx.commutative and ctx.s_desc[0] == "id":
        if ctx.d_desc[0] == "zero":
            diff = problem.a - problem.b
            if ctx.is_zero(diff):
                report = MetroSolutionReport(problem, NO_SOLUTION,
                                             strategy="direct")
            else:
                x = ctx.inv(diff) * problem.c
                report = MetroSolutionReport(problem, SOLUTION, x, UNIQUE,
                                             strategy="direct")
        elif ctx.d_desc[0] == "ddx":
            report = _solve_differential(problem)
    if report is None:
        report = MetroSolutionReport(
            problem, UNDECIDED,
            strategy="none",
            reason=f"no solver strategy for {ctx.describe()}")
    if not report.revalidate():
        raise AssertionError("metro solution failed substitution")
    return report


# ---------------------------------------------------------------------------
# the equivalence with quadratic minimal polynomials

def metro_polynomial(problem: MetroProblem) -> SkewPolynomial:
    """(t - b^c)(t - a) for the problem's data."""
    ctx = problem.ctx
    bc = conjugate(ctx, problem.b, problem.c)
    return (SkewPolynomial.linear(ctx, bc)
            * SkewPolynomial.linear(ctx, problem.a))


@dataclass(frozen=True)
class MetroEquivalenceReport:
    problem: MetroProblem
    poly: SkewPolynomial
    solve_report: MetroSolutionReport
    solvable: object        # True / False / None when undecided
    poly_is_w: object       # True / False / None when no root search exists
    bridge_root: object     # a - c*x^{-1} for the found x, when any
    bridge_is_second_root: object

    @property
    def decided(self) -> bool:
        return self.solvable is not None and self.poly_is_w is not None

    @property
    def consistent(self):
        if not self.decided:
            return None
        return self.solvable == self.poly_is_w


def metro_wedderburn_equivalence(problem: MetroProblem) -> MetroEquivalenceReport:
    """Check solvability against the two-root property of (t-b^c)(t-a).

    The two sides are computed independently: the equation by solve_metro,
    the polynomial side by a root search.  A decided disagreement is a
    library defect and raises, and so is a finite root report without a,
    which is a right root of the product by construction.
    """
    ctx = problem.ctx
    f = metro_polynomial(problem)
    rep = solve_metro(problem)
    solvable = {SOLUTION: True, NO_SOLUTION: False}.get(rep.status)
    try:
        roots = right_root_report(f)
        if roots.finite and problem.a not in roots.roots:
            raise AssertionError(f"the root report of {f} misses a = {problem.a}")
        w = True if not roots.finite else len(roots.roots) >= 2
    except (NotSplitError, CapabilityMissingError):
        w = None
    bridge = bridge_ok = None
    if rep.status == SOLUTION:
        x = rep.x
        bridge = problem.a - problem.c * ctx.inv(x)
        bridge_ok = bool(is_right_root(f, bridge) and bridge != problem.a)
    if solvable is not None and w is not None and solvable != w:
        raise AssertionError(
            "metro solvability and the two-root property disagree")
    return MetroEquivalenceReport(problem, f, rep, solvable, w,
                                  bridge, bridge_ok)


@dataclass(frozen=True)
class ClassUniquenessReport:
    problem: MetroProblem
    class_minpoly: SkewPolynomial
    poly: SkewPolynomial
    poly_is_w: bool
    uniqueness: str

    @property
    def ok(self) -> bool:
        return self.poly_is_w and self.uniqueness == UNIQUE


def class_algebraic_uniqueness(ctx, b, a, c) -> ClassUniquenessReport:
    """Unique solvability when a avoids the algebraic class of b.

    The class of b must be algebraic with a computable minimal polynomial
    f_b; a lies in the class iff f_b(a) = 0, since ranks add across distinct
    classes.  Then both halves of the claimed conclusion are verified:
    (t-b^c)(t-a) is the minimal polynomial of its roots, and the equation
    has exactly one solution.
    """
    problem = MetroProblem(ctx, a, b, c)
    minpoly = class_minimal_polynomial(ctx, b)
    if is_right_root(minpoly, a):
        raise ClassMembershipError(
            "a lies in the conjugacy class of b; uniqueness is not claimed there")
    f = metro_polynomial(problem)
    cert = is_wedderburn(f)
    rep = solve_metro(problem)
    report = ClassUniquenessReport(problem, minpoly, f, cert.is_w,
                                   rep.uniqueness)
    if not report.ok:
        raise AssertionError(
            "class-disjoint metro instance broke the uniqueness conclusion")
    return report
