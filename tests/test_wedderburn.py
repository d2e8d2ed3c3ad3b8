"""Recognition of minimal polynomials and the supporting theorems."""

import itertools
from collections import Counter

import pytest

from helpers import (backend_contexts, planted_w_polynomials, random_poly,
                     random_set, rng_for, simple_element)
from wpoly import wedderburn
from wpoly.algsets import class_minimal_polynomial, minimal_polynomial, rank
from wpoly.errors import (CapabilityMissingError, DisjointnessError,
                          DomainRequiredError, NotPIndependentError,
                          NotSplitError)
from wpoly.evaluate import (conjugacy_class_reps, conjugate, evaluate,
                            is_left_root, is_right_root)
from wpoly.parsing import parse_elements, parse_polynomial
from wpoly.rings import make_context
from wpoly.skew import SkewPolynomial, monic_polynomials, product_of_linears
from wpoly.wedderburn import (IS_W, NOT_W, centralizer,
                              diagonalization_check, dual_representation,
                              exponential_space, factor_theorem_check,
                              is_wedderburn,
                              left_root_report, monic_factors,
                              phi_rank_check, product_rank_bound,
                              product_theorem_check, rank_union_check,
                              right_root_report, split)

BACKENDS = backend_contexts()


# ---------------------------------------------------------------------------
# flagship verdicts

def test_quaternion_central_quadratic_is_w():
    hq = BACKENDS["HQ"]
    f = SkewPolynomial(hq, (hq.one, hq.zero, hq.one))  # t^2 + 1
    cert = is_wedderburn(f)
    assert cert.is_w and cert.recheck()
    assert minimal_polynomial(hq, [hq.i, -hq.i]).poly == f


def test_quaternion_mixed_product_is_not_w():
    hq = BACKENDS["HQ"]
    f = product_of_linears(hq, [hq.i, hq.j])  # (t - j)(t - i)
    report = right_root_report(f)
    assert report.finite and list(report.roots) == [hq.i]
    cert = is_wedderburn(f)
    assert not cert.is_w
    assert cert.f_v == SkewPolynomial.linear(hq, hq.i)
    assert cert.recheck()


def test_quaternion_infinite_classes_are_w():
    # a set holding two conjugates of a non-central element has a minimal
    # polynomial with infinitely many roots in that class
    hq = BACKENDS["HQ"]
    rng = rng_for("hq-infinite", 42)

    def small():
        return hq.from_vec(tuple(rng.randint(-2, 2) for _ in range(4)))

    seen = 0
    while seen < 12:
        elems = []
        for _ in range(rng.randint(1, 3)):
            a = small()
            for _ in range(rng.randint(1, 2)):
                c = small()
                if not c.is_zero():
                    x = conjugate(hq, a, c)
                    if not any(x == y for y in elems):
                        elems.append(x)
        f = minimal_polynomial(hq, elems).poly
        if f.degree < 3 or right_root_report(f).finite:
            continue
        seen += 1
        cert = is_wedderburn(f)
        assert cert.verdict == IS_W and cert.recheck()
        assert len(cert.roots) == f.degree


def test_differential_twisted_square_is_w():
    qu = BACKENDS["Qu"]
    u = qu.x
    f = SkewPolynomial.linear(qu, u) * SkewPolynomial.linear(qu, u)
    cert = is_wedderburn(f)
    assert cert.is_w and cert.recheck()
    assert set(cert.roots) == {u, u + qu.inv(u)}


def test_rational_splitting_cases():
    q = BACKENDS["Q"]
    two = q.from_int(2)
    f = product_of_linears(q, [q.one, two])
    cert = is_wedderburn(f)
    assert cert.is_w and set(cert.roots) == {q.one, two}
    # (t - 1)^2 over a commutative untwisted field has the single root 1
    g = product_of_linears(q, [q.one, q.one])
    cert = is_wedderburn(g)
    assert not cert.is_w
    assert cert.f_v == SkewPolynomial.linear(q, q.one)


def test_finite_field_frobenius_square():
    f4 = BACKENDS["F4"]
    one = f4.one
    f = product_of_linears(f4, [one, one])  # (t-1)^2 = t^2 + 1 over F4/frob
    assert f.coeffs == (one, f4.zero, one)
    cert = is_wedderburn(f)
    # V(t^2 + 1) = F4* has rank 2, so the verdict is positive
    assert cert.is_w and cert.recheck()


PLANTED = {**BACKENDS,
           "HQ-inner": make_context("HQ", d_desc=("inner", BACKENDS["HQ"].i)),
           "Qx-id": make_context("Qx", s_desc=("id",))}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="sympy's Riccati solver misses a rational root "
        "and the verdict is NOT_W (ROADMAP item 7(c1))"))
    if name == "Qu" else name for name in sorted(PLANTED)])
def test_planted_minimal_polynomials_are_recognized(name):
    # f = f_delta is W by definition and delta lies in V(f): no NOT_W, and
    # every element of delta is listed, is the root of a listed class of
    # dimension 1, or lies in a listed infinite class; NOT_SPLIT is an
    # honest refusal, and the only answer for S = x -> x^2
    ctx = PLANTED[name]
    if name == "Qu":  # the ROADMAP Baseline reproducer
        delta = parse_elements("3, -2/u", ctx)
        cases = [(minimal_polynomial(ctx, delta).poly, delta)]
    else:
        cases = planted_w_polynomials(ctx, rng_for("planted", name), 12,
                                      2 if ctx.kind == "QV" else 3)
    counts = Counter()
    for f, delta in cases:
        try:
            cert, report = is_wedderburn(f), right_root_report(f)
        except NotSplitError:
            counts["NOT_SPLIT"] += 1
            continue
        counts[cert.verdict] += 1
        assert cert.verdict == IS_W and cert.recheck(), (f, delta)
        for x in delta:
            assert x in report.roots or any(
                x == c.sample_root() if c.finite else
                is_right_root(class_minimal_polynomial(ctx, c.rep), x)
                for c in report.classes), (f, x)
    assert (set(counts) == {"NOT_SPLIT"}) == (name == "Qx"), counts


# ---------------------------------------------------------------------------
# exponential spaces

def test_exponential_space_dimensions_quaternion():
    hq = BACKENDS["HQ"]
    f = SkewPolynomial(hq, (hq.one, hq.zero, hq.one))
    space = exponential_space(f, hq.i)
    assert space.dimension == 2
    g = SkewPolynomial.linear(hq, hq.i)
    assert exponential_space(g, hq.i).dimension == 1
    # j is conjugate to i (equal trace and norm), so it contributes too
    assert exponential_space(g, hq.j).dimension == 1
    # 1 is central and not conjugate to i
    assert exponential_space(g, hq.one).dimension == 0


def test_exponential_space_membership():
    ctx = BACKENDS["F8"]
    rng = rng_for("exp", 40)
    for _ in range(10):
        f = random_poly(ctx, rng, 3, monic=True, min_deg=1)
        for a in conjugacy_class_reps(ctx):
            for x in exponential_space(f, a).basis:
                for c in centralizer(ctx, a):
                    assert ctx.is_zero(evaluate(f, conjugate(ctx, a, x * c)))


def test_dimension_sum_equals_degree_iff_w():
    ctx = BACKENDS["F8-inner"]
    rng = rng_for("dimsum", 41)
    reps = conjugacy_class_reps(ctx)
    for _ in range(12):
        f = random_poly(ctx, rng, 3, monic=True, min_deg=1)
        total = sum(exponential_space(f, a).dimension for a in reps)
        assert (total == f.degree) == is_wedderburn(f).is_w


def test_centralizer_quaternion():
    hq = BACKENDS["HQ"]
    cent = centralizer(hq, hq.i)
    assert len(cent) == 2
    for c in cent:
        assert c * hq.i == hq.i * c


# ---------------------------------------------------------------------------
# split and left roots

def test_split_reconstructs_product():
    for name in ("F4", "F8", "F8-inner", "HQ"):
        ctx = BACKENDS[name]
        rng = rng_for(name, 42)
        for _ in range(8):
            planted = [ctx.random_element(rng) for _ in range(2)]
            f = product_of_linears(ctx, planted)
            chain = split(f)
            assert product_of_linears(ctx, chain) == f


def test_split_failure_carries_partial_chain():
    qx = BACKENDS["Qx"]
    x = qx.x
    f = SkewPolynomial(qx, (x, qx.zero, qx.zero, qx.one))  # t^3 + x
    with pytest.raises(NotSplitError):
        split(f)


def test_left_root_report_finite_matches_brute():
    # under every S = frob^e, with D = 0 and with every inner(d), the right
    # roots of psi(f) in the opposite ring, moved back, are exactly the b
    # with t - b left-dividing f
    for name, k, max_deg in (("F4", 2, 3), ("F8", 3, 2)):
        elems = make_context(name).elements()
        contexts = dict.fromkeys(
            make_context(name, s_desc=("frob", e), d_desc=d_desc)
            for e in range(k)
            for d_desc in [("zero",)] + [("inner", d) for d in elems[1:]])
        for ctx in contexts:
            for deg in range(max_deg + 1):
                for f in monic_polynomials(ctx, deg):
                    brute = [b for b in elems if is_left_root(f, b)]
                    assert list(left_root_report(f).roots) == brute, (ctx, f)


def test_left_root_report_quaternion_conjugate_transpose():
    hq = BACKENDS["HQ"]
    f = product_of_linears(hq, [hq.i, hq.j])
    report = left_root_report(f)
    assert report.finite and list(report.roots) == [hq.j]
    g = SkewPolynomial(hq, (hq.one, hq.zero, hq.one))
    report = left_root_report(g)
    assert not report.finite
    assert report.classes[0].dimension == 2


def test_left_roots_of_commutative_untwisted_rings_are_right_roots():
    # K[t] is commutative when K is and S = id, D = 0
    q = BACKENDS["Q"]
    f = parse_polynomial("t^2 + [-1]", q)
    left, right = left_root_report(f), right_root_report(f)
    assert left == right
    assert left.finite and list(left.roots) == [-q.one, q.one]
    qx = make_context("Qx", s_desc=("id",))
    f = parse_polynomial("t^2 + [-x^2]", qx)
    assert left_root_report(f) == right_root_report(f)
    # under x -> x^2 left and right roots differ, and there is no search
    qx = BACKENDS["Qx"]
    with pytest.raises(CapabilityMissingError, match="no left-root search"):
        left_root_report(SkewPolynomial.linear(qx, qx.x))


def test_left_roots_of_quaternions_under_an_inner_derivation():
    # under inner(i) the left root 1 + j of (t - (1+j))(t - (i+2k)) is not
    # the conjugate of a right root of the coefficient-conjugated
    # polynomial; the transport to t' = t - i finds it
    hq = make_context("HQ", d_desc=("inner", BACKENDS["HQ"].i))
    f = product_of_linears(hq, [hq.i + hq.k + hq.k, hq.one + hq.j])
    report = left_root_report(f)
    assert report.finite and hq.one + hq.j in report.roots
    for b in report.roots:
        assert f.left_divmod(SkewPolynomial.linear(hq, b))[1].is_zero()
    assert hq.i + hq.k + hq.k in right_root_report(f).roots


def test_left_roots_and_class_samples_of_quaternions_left_divide():
    # p(t - d) * (t - a) and (t - a) * p(t - d) with p = t^2 + c central:
    # every listed left root, class sample and basis element left-divides f
    hq = BACKENDS["HQ"]
    for d in (hq.zero, hq.i):
        ctx = make_context("HQ", d_desc=("inner", d))
        rng = rng_for("hq-left-samples", 0)
        x = SkewPolynomial.linear(ctx, d)
        infinite = 0
        for _ in range(12):
            n = ctx.from_int(rng.randint(1, 3))
            p = x * x + SkewPolynomial.constant(ctx, n)
            lin = SkewPolynomial.linear(ctx, _small_quaternion(ctx, rng))
            for f in (p * lin, lin * p):
                report = left_root_report(f)
                infinite += not report.finite
                for b in (*report.roots, *report.basis,
                          *(c.sample_root() for c in report.classes)):
                    assert is_left_root(f, b), (ctx, f, b)
        assert infinite


def test_left_roots_over_qu_left_divide():
    # Q(u) with d/du is its own opposite ring; psi(f) is the formal adjoint
    qu = BACKENDS["Qu"]
    rng = rng_for("qu-left", 0)
    listed = 0
    for _ in range(8):
        a, b = simple_element(qu, rng), simple_element(qu, rng)
        f = product_of_linears(qu, [a, b])  # (t - b)(t - a)
        report = left_root_report(f)
        assert all(is_left_root(f, r) for r in report.roots), f
        listed += b in report.roots
    # the Riccati engine misses b in two of them (ROADMAP item 7(c1))
    assert listed >= 6


@pytest.mark.xfail(strict=True, reason="sympy's Riccati solver misses a "
                   "rational root (ROADMAP item 7(c1))")
def test_left_roots_over_qu_list_u():
    qu = BACKENDS["Qu"]
    f = parse_polynomial("t^2 + [-u]*t", qu)  # (t - u) * t
    assert qu.x in left_root_report(f).roots


def test_inner_transport_matches_enumeration_over_f4_and_f8():
    # finite contexts enumerate in the D context itself; the transport to
    # the D = 0 twin must list the same right roots
    for name, s_descs, max_deg in (("F4", (("frob", 1),), 3),
                                   ("F8", (("frob", 1), ("frob", 2)), 2)):
        for s_desc in s_descs:
            base = make_context(name, s_desc=s_desc)
            for d in base.elements()[1:]:
                ctx = make_context(name, s_desc=s_desc, d_desc=("inner", d))
                for deg in range(1, max_deg + 1):
                    for f in monic_polynomials(ctx, deg):
                        moved = wedderburn._inner_transport(f)
                        assert moved.roots == right_root_report(f).roots, f


def _small_quaternion(ctx, rng, nonzero=False):
    while True:
        a = ctx.from_vec([rng.randint(-2, 2) for _ in range(4)])
        if a or not nonzero:
            return a


def test_inner_transport_commutes_with_quaternion_automorphisms():
    # x -> q x q^-1 sends HQ[t; inner(d)] onto HQ[t; inner(q d q^-1)]
    # coefficientwise, so roots, class dimensions, central polynomials and
    # verdicts correspond; the last ten inputs, d = 0, run the plain engine
    rng = rng_for("hq-inner-model", 0)
    hq = BACKENDS["HQ"]
    for n in range(40):
        d = _small_quaternion(hq, rng)
        if d.is_central():
            d = d + hq.j
        if n >= 30:
            d = hq.zero
        q = _small_quaternion(hq, rng, nonzero=True)
        phi = lambda x: q * x * q.inverse()
        ctx = make_context("HQ", d_desc=("inner", d))
        img = make_context("HQ", d_desc=("inner", phi(d)))
        roots = [_small_quaternion(ctx, rng)]
        for _ in range(rng.randint(1, 3)):
            # a new root, one in the class of the previous root, or the one
            # that makes (t - b)(t - prev) central in t' = t - d
            prev = roots[-1]
            roots.append(rng.choice((
                _small_quaternion(ctx, rng),
                conjugate(ctx, prev, _small_quaternion(ctx, rng, True)),
                (prev - d).conjugate() + d)))
        f = product_of_linears(ctx, roots)
        g = SkewPolynomial(img, tuple(phi(c) for c in f.coeffs))
        for report in (right_root_report, left_root_report):
            a, b = report(f), report(g)
            assert a.finite == b.finite
            assert sorted(map(phi, a.roots), key=img.sort_key) == list(b.roots)
            assert (sorted(c.dimension for c in a.classes)
                    == sorted(c.dimension for c in b.classes))
            central = [parse_polynomial(c.central_text, ctx) for c in a.classes]
            assert (sorted(str(SkewPolynomial(img, tuple(map(phi, p.coeffs))))
                           for p in central)
                    == sorted(c.central_text for c in b.classes))
            # p(t - d) is central in t and vanishes on its class
            for c, p in zip(a.classes, central):
                for x in (SkewPolynomial.t(ctx), *(SkewPolynomial.constant(
                        ctx, u) for u in (ctx.i, ctx.j, ctx.k))):
                    assert p * x == x * p, (p, x)
                for r in (c.rep, c.sample_root()):
                    assert ctx.is_zero(evaluate(p, r)), (p, r)
        assert all(img.is_zero(evaluate(g, phi(x)))
                   for x in right_root_report(f).basis)
        cert, image = is_wedderburn(f), is_wedderburn(g)
        assert cert.verdict == image.verdict and cert.recheck()


# ---------------------------------------------------------------------------
# dual representation and diagonalization

def test_dual_representation_left_divides():
    for name in ("F4", "F8", "HQ"):
        ctx = BACKENDS[name]
        rng = rng_for(name, 44)
        built = 0
        while built < 6:
            elems = random_set(ctx, rng, 2)
            res = minimal_polynomial(ctx, elems)
            if res.rank != 2:
                continue
            built += 1
            duals = dual_representation(ctx, res.basis)
            assert len(duals) == 2
            f = res.poly
            for b in duals:
                div = f.left_divmod(SkewPolynomial.linear(ctx, b))
                assert div is not None and div[1].is_zero()


def test_dual_representation_requires_independence():
    hq = BACKENDS["HQ"]
    with pytest.raises(NotPIndependentError):
        dual_representation(hq, [hq.i, -hq.i, hq.j])


def test_diagonalization_identity():
    for name in ("F4", "F8", "HQ", "Qu"):
        ctx = BACKENDS[name]
        rng = rng_for(name, 45)
        done = 0
        while done < 5:
            elems = random_set(ctx, rng, 2, simple=True)
            res = minimal_polynomial(ctx, elems)
            if res.rank != 2:
                continue
            done += 1
            assert diagonalization_check(res.poly, res.basis)


def test_diagonalization_rejects_dependent_roots():
    hq = BACKENDS["HQ"]
    f = SkewPolynomial(hq, (hq.one, hq.zero, hq.one))
    # i and i give a singular Vandermonde matrix
    assert not diagonalization_check(f, [hq.i, hq.i])


# ---------------------------------------------------------------------------
# factor and product criteria

def test_monic_factors_f4_square():
    f4 = BACKENDS["F4"]
    f = product_of_linears(f4, [f4.one, f4.one])
    got = {str(p) for p in monic_factors(f)}
    assert got == {"t + [1]", "t + [w]", "t + [w+1]", "t^2 + [1]"}
    # t + [w] is only a left factor (p1 = 1) of this cubic
    f = parse_polynomial("t^3 + [w+1]*t^2 + [w]*t", f4)
    assert "t + [w]" in {str(p) for p in monic_factors(f)}
    # reference: every product p1 * p * p2 of monic factors with deg p >= 1
    n = 3
    brute = {}
    for d1 in range(n):
        for dp in range(1, n - d1 + 1):
            for p1, p, p2 in itertools.product(
                    monic_polynomials(f4, d1), monic_polynomials(f4, dp),
                    monic_polynomials(f4, n - d1 - dp)):
                brute.setdefault(str(p1 * p * p2), set()).add(str(p))
    cubics = list(monic_polynomials(f4, n))
    assert len(brute) == len(cubics) == 64
    for f in cubics:
        found = [str(p) for p in monic_factors(f)]
        assert len(found) == len(set(found))
        assert set(found) == brute[str(f)], str(f)


def test_factor_theorem_consistency():
    for name in ("F4", "F8", "HQ"):
        ctx = BACKENDS[name]
        rng = rng_for(name, 46)
        for _ in range(6):
            f = random_poly(ctx, rng, 2, monic=True, min_deg=2)
            report = factor_theorem_check(f)
            assert report.consistent


def _factor_strs(report):
    return [str(p) for p in report.factors]


def test_factor_theorem_over_infinite_rings_uses_the_splitting_chain():
    # outside finite contexts the factors are the consecutive subproducts
    # of one splitting chain: three linears, two quadratics and f itself
    q = BACKENDS["Q"]
    f = product_of_linears(q, [q.from_int(1), q.from_int(2), q.from_int(3)])
    report = factor_theorem_check(f)
    assert report.is_w and report.splits and report.consistent
    assert report.all_factors_w and report.quadratic_factors_w
    assert sorted(_factor_strs(report)) == sorted([
        "t + [-1]", "t + [-2]", "t + [-3]",
        "t^2 + [-3]*t + [2]", "t^2 + [-5]*t + [6]", str(f)])
    # (t - 1)^2 has the one root 1, so it is not W; its chain repeats t - 1
    f = product_of_linears(q, [q.one, q.one])
    report = factor_theorem_check(f)
    assert not report.is_w and report.splits and report.consistent
    assert _factor_strs(report) == ["t + [-1]", str(f)]
    assert not report.all_factors_w and not report.quadratic_factors_w
    # (t - j)(t - i) over HQ: NOT_W, with the non-W quadratic among the factors
    hq = BACKENDS["HQ"]
    f = product_of_linears(hq, [hq.i, hq.j])
    report = factor_theorem_check(f)
    assert not report.is_w and report.splits and report.consistent
    assert sorted(_factor_strs(report)) == sorted(["t + [-i]", "t + [-j]", str(f)])
    assert not report.quadratic_factors_w


def test_product_theorem_consistency():
    hq = BACKENDS["HQ"]
    rep = product_theorem_check(SkewPolynomial.linear(hq, -hq.i),
                                SkewPolynomial.linear(hq, hq.i))
    assert rep.product_w and rep.consistent
    rep = product_theorem_check(SkewPolynomial.linear(hq, hq.j),
                                SkewPolynomial.linear(hq, hq.i))
    assert not rep.product_w and rep.consistent
    f4 = BACKENDS["F4"]
    rep = product_theorem_check(SkewPolynomial.linear(f4, f4.one),
                                SkewPolynomial.linear(f4, f4.one))
    assert rep.product_w and rep.consistent
    assert rep.untested == ()
    # the quadratic criterion runs wherever both root reports are finite
    qx = make_context("Qx", s_desc=("id",))
    for ctx, g, h, product_w in (
            (BACKENDS["Q"], "t + [-1]", "t + [1]", True),
            (BACKENDS["Q"], "t + [-1]", "t + [-1]", False),
            (qx, "t + [-x]", "t + [x]", True),
            (qx, "t + [-x]", "t + [-x]", False),
            (BACKENDS["Qu"], "t + [-2]", "t + [1]", True),
            (BACKENDS["Qu"], "t + [-u]", "t + [-u]", True)):
        rep = product_theorem_check(parse_polynomial(g, ctx),
                                    parse_polynomial(h, ctx))
        assert rep.quadratic_pairs is not None, (ctx, g, h)
        assert rep.product_w == product_w and rep.consistent, (ctx, g, h)


# ---------------------------------------------------------------------------
# rank identities

def test_rank_union_identity_exhaustive_small():
    f4 = BACKENDS["F4"]
    elems = f4.elements()
    subsets = [[]]
    for a in elems:
        subsets += [s + [a] for s in subsets]
    for delta in subsets[:8]:
        for gamma in subsets[:8]:
            lhs, rhs = rank_union_check(f4, delta, gamma)
            assert lhs == rhs


def test_phi_rank_identity():
    f4 = BACKENDS["F4"]
    w = f4.w
    h = SkewPolynomial(f4, (f4.one, f4.zero, f4.one))  # V(h) = F4*
    lhs, rhs = phi_rank_check(h, [f4.zero])
    assert lhs == rhs == 1
    with pytest.raises(DisjointnessError):
        phi_rank_check(h, [w])


def test_product_rank_bound():
    f4 = BACKENDS["F4"]
    rng = rng_for("bound", 47)
    for _ in range(15):
        g = random_poly(f4, rng, 2, monic=True, min_deg=1)
        h = random_poly(f4, rng, 2, monic=True, min_deg=1)
        lhs, rhs = product_rank_bound(g, h)
        assert lhs <= rhs


def test_rank_check_names_itself_when_a_domain_is_missing():
    hq = BACKENDS["HQ"]
    with pytest.raises(DomainRequiredError) as err:
        phi_rank_check(SkewPolynomial.linear(hq, hq.i), [hq.j])
    assert str(err.value) == ("the phi rank identity over HQ needs an "
                              "explicit search domain")


def test_rank_theorem_quaternion_instances():
    hq = BACKENDS["HQ"]
    i, j, k = hq.i, hq.j, hq.k
    dom = [i, -i, j, -j, k, -k]
    # union identity: 1 + 2 = 2 + 1
    lhs, rhs = rank_union_check(hq, [i], [j, k], domain=dom)
    assert lhs == rhs == 3
    # transform identity: the images of j and k under h = t - i coincide
    h = SkewPolynomial.linear(hq, i)
    lhs, rhs = phi_rank_check(h, [j, k], domain=dom)
    assert lhs == rhs == 1
    # product bound: rk V((t-j)(t-i)) = 1 <= 1 + 1
    lhs, rhs = product_rank_bound(SkewPolynomial.linear(hq, j),
                                  SkewPolynomial.linear(hq, i), domain=dom)
    assert lhs == 1 and rhs == 2
