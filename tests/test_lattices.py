"""Lattices of full sets, their polynomial duals, and the modular law."""

import itertools

import pytest

from wpoly import lattices
from wpoly.algsets import closure
from wpoly.errors import CapabilityMissingError, NotFullError
from wpoly.lattices import (FiniteLattice, build_full_lattice, build_w_lattice,
                            duality_check, gcd_vs_intersection, hasse_edges,
                            intersection_minpoly, modular_law_check,
                            modular_law_sweep)
from wpoly.rings import make_context
from wpoly.skew import SkewPolynomial

CLASSIC = make_context("F4", s_desc=("id",))
FROB = make_context("F4")
HQ = make_context("HQ")


def _lattice_pair(ctx):
    return build_full_lattice(ctx), build_w_lattice(ctx)


def test_classical_f4_is_the_boolean_lattice():
    # with the identity twist every subset is its own closure
    fl, wl = _lattice_pair(CLASSIC)
    assert fl.n == 16 and wl.n == 16
    assert fl.nodes[fl.bottom] == ()
    assert len(fl.nodes[fl.top]) == 4
    assert len(fl.atoms()) == 4 and len(fl.coatoms()) == 4
    assert len(hasse_edges(fl)) == 32
    assert fl.is_modular() and wl.is_modular()


def test_construction_rejects_a_wrong_meet():
    def bounds(a, b):
        return min(a, b), max(a, b)

    chain = FiniteLattice.from_functions("chain", None, range(4), bounds)
    assert chain.bottom == 0 and chain.top == 3 and chain.is_modular()
    assert chain.up == [0b1111, 0b1110, 0b1100, 0b1000]

    def wrong_meet(a, b):
        return (0 if a != b else a), max(a, b)

    # the order is read off the join table, so joining distinct elements at
    # the top leaves 0, 1, 2 pairwise incomparable, and min is no meet there
    def wrong_join(a, b):
        return min(a, b), (3 if a != b else a)

    for wrong in (wrong_meet, wrong_join):
        with pytest.raises(AssertionError, match="meet"):
            FiniteLattice.from_functions("chain", None, range(4), wrong)

    # 0 < a, b < c < 1: joining a and b at 1 keeps the order, which only
    # reads the joins of comparable pairs, and fails as a least upper bound
    below = {"0": "0", "a": "0a", "b": "0b", "c": "0abc", "1": "0abc1"}

    def loose_join(x, y):
        if x in below[y] or y in below[x]:
            return sorted((x, y), key=lambda z: len(below[z]))
        return "0", "1"

    with pytest.raises(AssertionError, match="join"):
        FiniteLattice.from_functions("diamond", None, below, loose_join)


def test_pentagon_is_not_modular():
    # N5: 0 < a < c < 1 and 0 < b < 1, with b incomparable to a and c
    below = {"0": {"0"}, "a": {"0", "a"}, "c": {"0", "a", "c"},
             "b": {"0", "b"}, "1": {"0", "a", "b", "c", "1"}}

    def bounds(x, y):
        common = below[x] & below[y]
        meet = max(common, key=lambda z: len(below[z]))
        upper = [z for z in below if x in below[z] and y in below[z]]
        return meet, min(upper, key=lambda z: len(below[z]))

    n5 = FiniteLattice.from_functions("N5", None, below, bounds)
    assert n5.n == 5 and n5.nodes[n5.top] == "1"
    assert not n5.is_modular()


@pytest.mark.parametrize("ctx", [CLASSIC, FROB], ids=["id", "frob"])
def test_full_lattice_bounds_match_closure_of_union(ctx):
    # join is read off the closure table and the order off the join;
    # closing the union pair by pair, and inclusion, are the oracles
    fl = build_full_lattice(ctx)
    for i, a in enumerate(fl.nodes):
        for j, b in enumerate(fl.nodes):
            union = list(a) + [x for x in b if x not in a]
            assert fl.nodes[fl.join[i][j]] == closure(ctx, union)
            assert fl.nodes[fl.meet[i][j]] == tuple(x for x in a if x in b)
            assert (fl.up[i] >> j & 1) == (set(a) <= set(b))


def test_frobenius_f4_collapses_to_ten_nodes():
    fl, wl = _lattice_pair(FROB)
    assert fl.n == 10 and wl.n == 10
    one, w = FROB.one, FROB.w
    node_sets = {frozenset(s) for s in fl.nodes}
    assert frozenset((one, w)) not in node_sets
    # all nonzero elements are conjugate, so {1, w} closes up to all of them
    assert frozenset((one, w, w * w)) in node_sets
    # brute force: the subsets of F4 that are their own closure
    elems = sorted(FROB.elements(), key=FROB.sort_key)
    subsets = (frozenset(s) for r in range(len(elems) + 1)
               for s in itertools.combinations(elems, r))
    expected = {s for s in subsets if frozenset(closure(FROB, s)) == s}
    assert node_sets == expected


def test_w_lattice_order_is_reverse_divisibility():
    # the order is read off the rgcd table; right division is the oracle
    for ctx, bottom_degree in ((CLASSIC, 4), (FROB, 3)):
        wl = build_w_lattice(ctx)
        assert wl.nodes[wl.top] == SkewPolynomial.one(ctx)
        assert wl.nodes[wl.bottom].degree == bottom_degree
        for i, f in enumerate(wl.nodes):
            for j, h in enumerate(wl.nodes):
                assert (wl.up[i] >> j & 1) == f.right_divmod(h)[1].is_zero()
        for i, j in hasse_edges(wl):
            assert wl.nodes[i].degree == wl.nodes[j].degree + 1


def test_full_lattice_cover_steps_add_one_element():
    fl = build_full_lattice(FROB)
    for i, j in hasse_edges(fl):
        assert set(fl.nodes[i]) < set(fl.nodes[j])
    # intervals are themselves lattices of sets between the endpoints
    atom = fl.atoms()[0]
    inside = fl.interval(atom, fl.top)
    assert fl.bottom not in inside and fl.top in inside
    assert all(set(fl.nodes[atom]) <= set(fl.nodes[g]) for g in inside)
    assert fl.interval(fl.bottom, fl.top) == list(range(fl.n))


def test_duality_check_classical():
    report = duality_check(*_lattice_pair(CLASSIC))
    assert report.ok
    assert report.n_nodes == 16
    assert report.intervals_checked == 81


def test_duality_check_frobenius():
    report = duality_check(*_lattice_pair(FROB))
    assert report.ok
    assert report.bijection and report.inverses and report.order_reversing
    assert report.rank_dimension_law and report.degree_dimension_law
    assert report.rank_equals_degree and report.cover_steps
    assert report.atoms_are_singletons and report.maximal_are_linear
    assert report.bounds_as_stated and report.modular_full and report.modular_w
    assert report.intervals_match and report.intervals_checked == 36


def test_duality_check_sees_a_wrong_divisor_list(monkeypatch):
    # the intervals are compared with enumerated divisor sets, so one
    # divisor too many (t^2, which is no node) or one too few must show
    fl, wl = _lattice_pair(CLASSIC)
    real = lattices.monic_right_divisors
    bottom = wl.nodes[wl.bottom]
    t2 = SkewPolynomial.monomial(CLASSIC, CLASSIC.one, 2)
    assert t2 not in wl.nodes

    def one_too_many(f):
        return real(f) + [t2] if f == bottom else real(f)

    def one_too_few(f):
        return real(f)[:1] + real(f)[2:] if f == bottom else real(f)

    for wrong in (one_too_many, one_too_few):
        monkeypatch.setattr(lattices, "monic_right_divisors", wrong)
        report = duality_check(fl, wl)
        assert not report.intervals_match and report.intervals_checked == 81


def test_enumeration_needs_a_finite_ring():
    with pytest.raises(CapabilityMissingError):
        build_full_lattice(make_context("Q"))
    with pytest.raises(CapabilityMissingError):
        build_w_lattice(make_context("HQ"))
    with pytest.raises(CapabilityMissingError):
        modular_law_sweep(make_context("Qx", s_desc=("id",)))


def test_intersection_minpoly_on_full_sets():
    zero, one, w = CLASSIC.zero, CLASSIC.one, CLASSIC.w
    g = intersection_minpoly(CLASSIC, [[zero, one], [one, w]])
    assert g == SkewPolynomial.linear(CLASSIC, one)
    i, j = HQ.i, HQ.j
    g = intersection_minpoly(HQ, [[i], [j]], domain=[i, j])
    assert g == SkewPolynomial.one(HQ)


def test_intersection_minpoly_rejects_non_full_sets():
    i, j, k = HQ.i, HQ.j, HQ.k
    domain = [i, -i, j, -j, k, -k]
    with pytest.raises(NotFullError):
        intersection_minpoly(HQ, [[i], [j, k]], domain=domain)
    with pytest.raises(ValueError):
        intersection_minpoly(CLASSIC, [])


def test_gcd_can_exceed_the_intersection_polynomial():
    # {j, k} is not full, and there the two sides genuinely split
    i, j, k = HQ.i, HQ.j, HQ.k
    g, inter = gcd_vs_intersection(HQ, [[i], [j, k]])
    assert g == SkewPolynomial.linear(HQ, i)
    assert inter == SkewPolynomial.one(HQ)


def test_modular_law_check_reports():
    elems = sorted(FROB.elements(), key=FROB.sort_key)
    gamma = list(elems)
    pi = [FROB.zero, FROB.one]
    report = modular_law_check(FROB, gamma, pi, [FROB.zero])
    assert report.ok and report.checked == 4 and not report.violations
    i, j = HQ.i, HQ.j
    report = modular_law_check(HQ, [i, -i], [i], [i], domain=[i, -i])
    assert report.ok and report.checked == 2


def test_modular_law_check_input_errors():
    one, w = FROB.one, FROB.w
    with pytest.raises(NotFullError):
        modular_law_check(FROB, [one, w], [one], [])
    with pytest.raises(ValueError):
        modular_law_check(FROB, [one], [one], [w])


def test_modular_law_sweep_exhaustive_f4():
    assert modular_law_sweep(FROB) == (450, 0)
    assert modular_law_sweep(CLASSIC) == (1296, 0)


class _ThreePoints:
    """A stand-in finite context: the sweep only enumerates and sorts."""

    finite = True

    def elements(self):
        return [3, 1, 2]

    def sort_key(self, a):
        return a


def test_modular_law_sweep_counts_violations(monkeypatch):
    # closed sets {}, {1}, {1,2}, {3} and {1,2,3} form the pentagon N5,
    # which is not modular: gamma = {1,2}, pi = {3}, delta = {1} gives
    # 2 in cl(pi + delta) = {1,2,3} but not in cl({} + delta) = {1}, the
    # one violation; the triples are 5 pi per delta, 5 * (1+2+4+2+8) = 85
    closed = [set(), {1}, {1, 2}, {3}, {1, 2, 3}]

    def n5_closure(ctx, elems):
        return tuple(sorted(min((c for c in closed if c >= set(elems)),
                                key=len)))

    monkeypatch.setattr(lattices, "closure", n5_closure)
    assert modular_law_sweep(_ThreePoints()) == (85, 1)
