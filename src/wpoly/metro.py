"""The metro equation ax - S(x)b - D(x) = c and its polynomial counterpart.

Solvability of the equation is equivalent to (t - b^c)(t - a) being the
minimal polynomial of two distinct elements, and a solution x converts into
the second root a - c*x^{-1}.  Both directions are computed independently
here so the equivalence can be checked rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algsets import minimal_polynomial
from .errors import (
    CapabilityMissingError,
    ClassMembershipError,
    NotSplitError,
)
from .evaluate import conjugacy_class, conjugate, is_right_root
from .rings import RatFunc, ip_mul
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


def _solve_base_linear(problem) -> MetroSolutionReport:
    ctx = problem.ctx
    rows = ctx.base_matrix(problem.residual)
    rhs = list(ctx.to_vec(problem.c))
    sol = linalg.solve(rows, rhs, ctx.base)
    if sol is None:
        return MetroSolutionReport(problem, NO_SOLUTION,
                                   strategy="base-linear")
    x = ctx.from_vec(sol)
    ker = linalg.kernel(rows, ctx.base)
    if ker:
        second = x + ctx.from_vec(ker[0])
        return MetroSolutionReport(problem, SOLUTION, x, MULTIPLE, second,
                                   strategy="base-linear")
    return MetroSolutionReport(problem, SOLUTION, x, UNIQUE,
                               strategy="base-linear")


def _poly_part(r: RatFunc):
    """Coefficient tuple when r has a constant denominator, else None."""
    if len(r.iden) == 1:
        return tuple(Fraction(c, r.iden[0]) for c in r.inum)
    return None


def _solve_differential(problem) -> MetroSolutionReport:
    """Commutative K = Q(var), S = id, D = d/dvar: (a-b)x - x' = c."""
    ctx = problem.ctx
    var = ctx.variable
    diff = problem.a - problem.b
    c = problem.c
    if ctx.is_zero(diff):
        coeffs = _poly_part(c)
        if coeffs is None:
            return MetroSolutionReport(
                problem, UNDECIDED,
                strategy="antiderivative",
                reason="antiderivative search covers polynomial c only")
        anti = (Fraction(0),) + tuple(-coeffs[i] / (i + 1)
                                      for i in range(len(coeffs)))
        x = RatFunc(anti, (1,), var)
        second = x + ctx.one
        return MetroSolutionReport(problem, SOLUTION, x, MULTIPLE, second,
                                   strategy="antiderivative")
    # fixed-denominator ansatz x = n(var)/q0, n of bounded degree, q0 the
    # product of the monic denominators; the system L(x) = c is linear in
    # the coefficients of n
    bound = 2 * max(len(diff.inum), len(diff.iden), len(c.inum), len(c.iden)) + 4
    iq0 = ip_mul(diff.iden, c.iden)
    basis = []
    for k in range(bound + 1):
        xk = RatFunc((0,) * k + (iq0[-1],), iq0, var)
        basis.append((xk, diff * xk - xk.derivative()))
    # clear all denominators: every equation is multiplied by the product
    # of the denominators times one constant, which keeps its solutions
    terms = [img for _, img in basis] + [c]
    scaled = []
    for i, t in enumerate(terms):
        n = t.inum
        for m, other in enumerate(terms):
            if m != i:
                n = ip_mul(n, other.iden)
        scaled.append(n)
    width = max(len(n) for n in scaled)
    rows = [[Fraction(scaled[k][r]) if r < len(scaled[k]) else Fraction(0)
             for k in range(len(basis))] for r in range(width)]
    rhs = [Fraction(scaled[-1][r]) if r < len(scaled[-1]) else Fraction(0)
           for r in range(width)]
    sol = linalg.solve(rows, rhs, Fraction(1))
    if sol is None:
        return MetroSolutionReport(
            problem, UNDECIDED,
            strategy="rational-ansatz",
            reason=(f"no solution n/q0 with deg n <= {bound} and "
                    f"q0 = den(a-b)*den(c); larger solutions are not excluded"))
    x = ctx.zero
    for lam, (xk, _) in zip(sol, basis):
        if lam:
            x = x + RatFunc.const(lam, var) * xk
    ker = linalg.kernel(rows, Fraction(1))
    if ker:
        y = ctx.zero
        for lam, (xk, _) in zip(ker[0], basis):
            if lam:
                y = y + RatFunc.const(lam, var) * xk
        second = x + y
        if problem.is_solution(second) and second != x:
            return MetroSolutionReport(problem, SOLUTION, x, MULTIPLE,
                                       second, strategy="rational-ansatz")
    return MetroSolutionReport(
        problem, SOLUTION, x, UNKNOWN,
        strategy="rational-ansatz",
        reason="uniqueness outside the ansatz space is not decided")


def solve_metro(problem: MetroProblem) -> MetroSolutionReport:
    """Solve ax - S(x)b - D(x) = c by the strongest applicable strategy.

    Finite rings enumerate; rings of finite dimension over a central base
    field solve one exact linear system, where uniqueness is equivalent to
    a trivial kernel; the commutative differential model falls back to
    antiderivatives and a bounded rational ansatz.  Anything else is
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
    library defect and raises.
    """
    ctx = problem.ctx
    f = metro_polynomial(problem)
    rep = solve_metro(problem)
    solvable = {SOLUTION: True, NO_SOLUTION: False}.get(rep.status)
    try:
        roots = right_root_report(f)
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


def _class_minpoly_and_membership(ctx, b, a):
    if ctx.finite:
        cls = conjugacy_class(ctx, b)
        member = a in cls
        return minimal_polynomial(ctx, list(cls)).poly, member
    if ctx.kind == "HQ":
        # a class of HQ is {b}, or it has rank 2 and is the root set of the
        # minimal polynomial of any two of its elements; b^i or b^j differs
        # from b unless the class is {b}
        gens = [b]
        for x in (ctx.i, ctx.j):
            y = conjugate(ctx, b, x)
            if y != b:
                gens.append(y)
                break
        minpoly = minimal_polynomial(ctx, gens).poly
        return minpoly, is_right_root(minpoly, a)
    raise CapabilityMissingError(
        f"no algebraic conjugacy classes available over {ctx.name}")


def class_algebraic_uniqueness(ctx, b, a, c) -> ClassUniquenessReport:
    """Unique solvability when a avoids the algebraic class of b.

    The class of b must be algebraic with a computable minimal polynomial;
    membership of a is tested exactly, and then both halves of the claimed
    conclusion are verified: (t-b^c)(t-a) is the minimal polynomial of its
    roots, and the equation has exactly one solution.
    """
    problem = MetroProblem(ctx, a, b, c)
    minpoly, member = _class_minpoly_and_membership(ctx, b, a)
    if member:
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
