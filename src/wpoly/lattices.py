"""Finite lattices of full algebraic sets and their polynomial duals.

Everything here is restricted to finitely enumerable coefficient rings.
There the whole ring is algebraic, both lattices are finite, and every
structural claim (order reversal, modularity, dimension laws, interval
isomorphism) can be verified node by node instead of taken on faith.

A subset is an int bitset, bit i standing for the i-th element in sort_key
order.  The P-closures of all 2^q subsets are tabulated once per call, and
intersection and the closure of a union are read off the table.  Each
lattice's order is read off its own join table.  The duality check lists
the monic right divisors of each polynomial node once, and compares the
intervals of the polynomial lattice with those lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algsets import closure, is_full, is_p_dependent, minimal_polynomial
from .errors import CapabilityMissingError, NotFullError
from .evaluate import right_roots
from .skew import SkewPolynomial, monic_right_divisors, rgcd_llcm


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteLattice:
    """An explicit finite lattice: nodes, meet and join tables, order bitsets.

    The order is read off the join table: node i is below node j exactly
    when join[i][j] == j, and then bit j of up[i] and bit i of down[j] are
    set.  Construction verifies the partial-order axioms and that the
    supplied meet and join tables are the true greatest lower and least
    upper bounds; a violation is a library defect, not an input error, so it
    raises AssertionError.
    """

    def __init__(self, kind, ctx, nodes, meet, join):
        self.kind = kind
        self.ctx = ctx
        self.nodes = tuple(nodes)
        self.up = [sum(1 << j for j, v in enumerate(row) if v == j)
                   for row in join]
        self.down = [sum(1 << i for i in range(self.n) if self.up[i] >> j & 1)
                     for j in range(self.n)]
        self.meet = meet
        self.join = join
        self._index = {node: i for i, node in enumerate(self.nodes)}
        self._verify()

    @property
    def n(self):
        return len(self.nodes)

    def index(self, node):
        return self._index[node]

    @classmethod
    def from_functions(cls, kind, ctx, nodes, bounds_fn):
        """Tabulate bounds_fn(a, b) -> (meet, join)."""
        nodes = tuple(nodes)
        n = len(nodes)
        index = {node: i for i, node in enumerate(nodes)}
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m, v = bounds_fn(nodes[i], nodes[j])
                if m not in index or v not in index:
                    raise AssertionError(
                        "meet or join left the node set, the lattice is not closed")
                meet[i][j] = meet[j][i] = index[m]
                join[i][j] = join[j][i] = index[v]
        return cls(kind, ctx, nodes, meet, join)

    def _verify(self):
        n, up, down = self.n, self.up, self.down
        if n == 0:
            raise ValueError("empty lattice")
        if not all(up[i] >> i & 1 for i in range(n)):
            raise AssertionError("order is not reflexive")
        if any(up[i] & down[i] != 1 << i for i in range(n)):
            raise AssertionError("order is not antisymmetric")
        if any(up[j] & ~up[i] for i in range(n) for j in _bits(up[i])):
            raise AssertionError("order is not transitive")
        # the elements below meet(i, j) are exactly the common lower bounds:
        # meet bounds both arguments and every common bound lies below it
        for table, rel, what in ((self.meet, down, "meet"),
                                 (self.join, up, "join")):
            for i in range(n):
                row = table[i]
                if any(rel[row[j]] != rel[i] & rel[j] for j in range(n)):
                    raise AssertionError(f"{what} is not the tightest bound "
                                         "of its arguments")

    # -- structure ------------------------------------------------------------
    @property
    def bottom(self) -> int:
        full = (1 << self.n) - 1
        rows = [i for i in range(self.n) if self.up[i] == full]
        if len(rows) != 1:
            raise AssertionError("no unique bottom element")
        return rows[0]

    @property
    def top(self) -> int:
        full = (1 << self.n) - 1
        cols = [j for j in range(self.n) if self.down[j] == full]
        if len(cols) != 1:
            raise AssertionError("no unique top element")
        return cols[0]

    def covers(self):
        """Covering bitsets: bit j of covers()[i] when j covers i."""
        out = []
        for i in range(self.n):
            above = self.up[i] & ~(1 << i)
            out.append(sum(1 << j for j in _bits(above)
                           if above & self.down[j] == 1 << j))
        return out

    def atoms(self):
        return list(_bits(self.covers()[self.bottom]))

    def coatoms(self):
        top = self.top
        return [i for i, c in enumerate(self.covers()) if c >> top & 1]

    def is_modular(self) -> bool:
        """a <= b forces a v (x ^ b) = (a v x) ^ b, checked on all triples."""
        meet, join = self.meet, self.join
        for a in range(self.n):
            for b in _bits(self.up[a]):
                if any(join[a][meet[x][b]] != meet[join[a][x]][b]
                       for x in range(self.n)):
                    return False
        return True

    def interval(self, lo: int, hi: int):
        """Node indices g with lo <= g <= hi."""
        return list(_bits(self.up[lo] & self.down[hi]))


def hasse_edges(lattice: FiniteLattice):
    """Covering pairs (lower index, upper index) for diagram emission."""
    return [(i, j) for i, c in enumerate(lattice.covers()) for j in _bits(c)]


# ---------------------------------------------------------------------------
# construction over a finite ring

def _members(elems, mask):
    """The elements that a bitset picks out of elems, in order."""
    return tuple(elems[i] for i in _bits(mask))


def _closure_table(ctx, what):
    """The elements of a finite ring in sort_key order, and the P-closure of
    every subset as a bitset: table[m] is the closure of the subset m."""
    if not ctx.finite:
        raise CapabilityMissingError(f"{what} needs a finite ring")
    elems = ctx.elements()
    bit = {a: 1 << i for i, a in enumerate(elems)}
    table = [sum(bit[a] for a in closure(ctx, _members(elems, m)))
             for m in range(1 << len(elems))]
    return elems, table


def build_full_lattice(ctx) -> FiniteLattice:
    """Lattice of full algebraic subsets: meet by intersection, join by
    closure of the union, read off the closure table; the order this join
    gives is inclusion.  Nodes are sorted tuples, by rank and then element
    order."""
    elems, table = _closure_table(ctx, "full-set enumeration")
    rank = {m: minimal_polynomial(ctx, _members(elems, m)).rank
            for m in set(table)}
    masks = sorted(rank, key=lambda m: (rank[m], list(_bits(m))))
    index = {m: i for i, m in enumerate(masks)}
    meet = [[index[a & b] for b in masks] for a in masks]
    join = [[index[table[a | b]] for b in masks] for a in masks]
    return FiniteLattice("full-sets", ctx,
                         [_members(elems, m) for m in masks], meet, join)


def build_w_lattice(ctx) -> FiniteLattice:
    """Lattice of the minimal polynomials of subsets of K.  Meet is the
    least common left multiple, join the greatest common right divisor, and
    the order this join gives is left-ideal inclusion: f <= h exactly when
    h right-divides f.  A subset and its closure share their minimal
    polynomial, so the nodes come from all 2^q subsets without any
    closure."""
    elems = list(ctx.elements())
    polys = {minimal_polynomial(ctx, _members(elems, m)).poly
             for m in range(1 << len(elems))}
    nodes = sorted(polys,
                   key=lambda p: (p.degree,
                                  [ctx.sort_key(c) for c in p.coeffs]))

    def bounds_fn(f, h):
        res = rgcd_llcm(f, h)
        return res.llcm, res.rgcd

    return FiniteLattice.from_functions("w-polys", ctx, nodes, bounds_fn)


# ---------------------------------------------------------------------------
# duality verification

def _dimension_law(lattice, dims):
    """dims(x ^ y) + dims(x v y) = dims(x) + dims(y) on every pair."""
    meet, join = lattice.meet, lattice.join
    return all(dims[meet[i][j]] + dims[join[i][j]] == dims[i] + dims[j]
               for i in range(lattice.n) for j in range(lattice.n))


@dataclass(frozen=True)
class DualityReport:
    n_nodes: int
    bijection: bool
    inverses: bool
    order_reversing: bool
    rank_dimension_law: bool
    degree_dimension_law: bool
    rank_equals_degree: bool
    cover_steps: bool
    atoms_are_singletons: bool
    maximal_are_linear: bool
    bounds_as_stated: bool
    modular_full: bool
    modular_w: bool
    intervals_checked: int
    intervals_match: bool

    @property
    def ok(self) -> bool:
        return all(v for k, v in self.__dict__.items()
                   if k not in ("n_nodes", "intervals_checked"))


def duality_check(fl: FiniteLattice, wl: FiniteLattice) -> DualityReport:
    """Exhaustive verification that the two lattices are dual.

    Covers: the two maps set -> minimal polynomial and polynomial -> root
    set as mutually inverse order-reversing bijections; rank and degree as
    dimension functions; atoms and maximal elements; modularity; and, for
    every comparable pair in the polynomial lattice, agreement between the
    lattice interval and the full divisor enumeration.  The divisors come
    from enumeration and the lattice order from the right gcd, so the
    interval check does not read the lattice it verifies.
    """
    if fl.ctx != wl.ctx:
        raise ValueError("lattices come from different contexts")
    ctx = fl.ctx
    n = fl.n
    key = ctx.sort_key

    mins = [minimal_polynomial(ctx, list(node)) for node in fl.nodes]
    ranks_f = [m.rank for m in mins]
    degs_w = [p.degree for p in wl.nodes]

    bijection = n == wl.n
    sigma = []
    if bijection:
        sigma = [wl.index(m.poly) for m in mins]
        bijection = len(set(sigma)) == n

    inverses = bijection and all(
        tuple(sorted(right_roots(wl.nodes[sigma[i]]), key=key)) == node
        for i, node in enumerate(fl.nodes))

    order_reversing = bijection and all(
        (fl.up[i] >> j & 1) == (wl.up[sigma[j]] >> sigma[i] & 1)
        for i in range(n) for j in range(n))

    rank_dimension_law = _dimension_law(fl, ranks_f)
    degree_dimension_law = _dimension_law(wl, degs_w)

    rank_equals_degree = bijection and all(
        len(m.basis) == degs_w[sigma[i]] for i, m in enumerate(mins))

    cover_steps = (
        all(ranks_f[j] - ranks_f[i] == 1 for i, j in hasse_edges(fl))
        and all(degs_w[i] - degs_w[j] == 1 for i, j in hasse_edges(wl)))

    atoms_are_singletons = (
        {fl.nodes[i] for i in fl.atoms()}
        == {s for s in fl.nodes if len(s) == 1})
    linear_nodes = {p for p in wl.nodes if p.degree == 1}
    maximal_are_linear = ({wl.nodes[i] for i in wl.coatoms()} == linear_nodes
                          and all(p.is_monic() for p in linear_nodes))

    bounds_as_stated = bool(
        fl.nodes[fl.bottom] == ()
        and wl.nodes[wl.top] == SkewPolynomial.one(ctx)
        and len(fl.nodes[fl.top]) == len(list(ctx.elements()))
        and wl.nodes[wl.bottom].degree == max(degs_w))

    modular_full = fl.is_modular()
    modular_w = wl.is_modular()

    # every factor of a W-polynomial is W, so every divisor of a node is a
    # node; the interval [f, h] is then the divisors of f that h right-divides
    divisors = {f: set(monic_right_divisors(f)) for f in wl.nodes}
    intervals_match = all(g in divisors for d in divisors.values() for g in d)
    intervals_checked = 0
    for i, f in enumerate(wl.nodes):
        for j in _bits(wl.up[i]):
            h = wl.nodes[j]
            enumerated = {g for g in divisors[f] if h in divisors.get(g, ())}
            via_lattice = {wl.nodes[g] for g in wl.interval(i, j)}
            intervals_checked += 1
            intervals_match &= enumerated == via_lattice
    return DualityReport(
        n_nodes=n,
        bijection=bijection,
        inverses=inverses,
        order_reversing=order_reversing,
        rank_dimension_law=rank_dimension_law,
        degree_dimension_law=degree_dimension_law,
        rank_equals_degree=rank_equals_degree,
        cover_steps=cover_steps,
        atoms_are_singletons=atoms_are_singletons,
        maximal_are_linear=maximal_are_linear,
        bounds_as_stated=bounds_as_stated,
        modular_full=modular_full,
        modular_w=modular_w,
        intervals_checked=intervals_checked,
        intervals_match=intervals_match,
    )


# ---------------------------------------------------------------------------
# intersections of full sets, and the modular law for P-dependence

def intersection_minpoly(ctx, sets, domain=None):
    """Minimal polynomial of an intersection of full sets, via the right gcd
    of their minimal polynomials.

    Every input set must be full; otherwise the gcd identity genuinely
    fails (the gcd of the polynomials can strictly divide the minimal
    polynomial of the intersection), and NotFullError is raised so the
    caller can fall back to gcd_vs_intersection and inspect both sides.
    """
    sets = [list(s) for s in sets]
    if not sets:
        raise ValueError("need at least one set")
    for s in sets:
        if not is_full(ctx, s, domain):
            raise NotFullError(
                "a set is not full; the gcd identity is not guaranteed")
    g, expected = gcd_vs_intersection(ctx, sets)
    if g != expected:
        raise AssertionError("gcd identity failed on full sets")
    return g


def gcd_vs_intersection(ctx, sets):
    """Both sides of the intersection identity, with no fullness check:
    (rgcd of the minimal polynomials, minimal polynomial of the
    intersection).  On non-full sets the two can differ."""
    sets = [list(s) for s in sets]
    polys = [minimal_polynomial(ctx, s).poly for s in sets]
    g = polys[0]
    for p in polys[1:]:
        g = rgcd_llcm(g, p).rgcd
    others = [set(s) for s in sets[1:]]
    inter = [x for x in sets[0] if all(x in s for s in others)]
    return g, minimal_polynomial(ctx, inter).poly


@dataclass(frozen=True)
class ModularLawReport:
    checked: int
    dependent: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def modular_law_check(ctx, gamma, pi, delta, domain=None) -> ModularLawReport:
    """P-dependence version of the modular law.

    For full gamma and pi, and delta inside gamma: every x in gamma that is
    P-dependent on pi + delta must already be P-dependent on the smaller
    set (gamma intersect pi) + delta.
    """
    gamma, pi, delta = list(gamma), list(pi), list(delta)
    if not is_full(ctx, gamma, domain):
        raise NotFullError("gamma is not full")
    if not is_full(ctx, pi, domain):
        raise NotFullError("pi is not full")
    if not set(gamma).issuperset(delta):
        raise ValueError("delta must be contained in gamma")
    pi_set = set(pi)
    big = pi + [d for d in delta if d not in pi_set]
    inter = [g for g in gamma if g in pi_set]
    inter_set = set(inter)
    small = inter + [d for d in delta if d not in inter_set]
    checked = dependent = 0
    violations = []
    for x in gamma:
        checked += 1
        if not is_p_dependent(ctx, x, big):
            continue
        dependent += 1
        if not is_p_dependent(ctx, x, small):
            violations.append(x)
    return ModularLawReport(checked, dependent, tuple(violations))


def modular_law_sweep(ctx):
    """Exhaustive modular-law verification over a finite ring.

    Runs over every full gamma, every full pi, and every delta inside gamma,
    all as bitsets.  P-dependence of x on a set is membership of x in the
    set's closure, so the violations of a triple are the bits of gamma in
    table[pi | delta] but not in table[(gamma & pi) | delta].  The full sets
    are the fixed points of the closure table.  Returns (triples, violations).
    """
    _, table = _closure_table(ctx, "the exhaustive sweep")
    fulls = [m for m, cl in enumerate(table) if cl == m]
    triples = violations = 0
    for gamma in fulls:
        for pi in fulls:
            inter = gamma & pi
            delta = gamma
            while True:  # every submask of gamma, down to the empty set
                triples += 1
                violations += (gamma & table[pi | delta]
                               & ~table[inter | delta]).bit_count()
                if not delta:
                    break
                delta = (delta - 1) & gamma
    return triples, violations
