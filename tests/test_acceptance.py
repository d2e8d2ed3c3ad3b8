"""The eleven contract criteria, one test per criterion, exact arithmetic.

Each test prints a single pass/fail line (visible with -s or -rA) and the
verbose test name doubles as the criterion label.  Tolerance is zero
everywhere: every identity is checked with exact field arithmetic.
"""

import itertools
import time

from helpers import backend_contexts, random_poly, rng_for, simple_element
from wpoly.algsets import minimal_polynomial, rank
from wpoly.errors import ClassMembershipError
from wpoly.evaluate import (conjugacy_class_reps, conjugate, evaluate,
                            is_right_root)
from wpoly.lattices import (build_full_lattice, build_w_lattice, duality_check,
                            gcd_vs_intersection, modular_law_sweep)
from wpoly.metro import (MULTIPLE, SOLUTION, UNIQUE, MetroProblem,
                         class_algebraic_uniqueness,
                         metro_wedderburn_equivalence, solve_metro)
from wpoly.rings import make_context
from wpoly.skew import (SkewPolynomial, monic_polynomials, rgcd_llcm)
from wpoly.wedderburn import (dual_representation, exponential_space,
                              factor_theorem_check, is_wedderburn,
                              phi_rank_check, product_rank_bound,
                              rank_union_check, right_root_report)

BACKENDS = backend_contexts()


def _report(num, ok, text):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    assert ok, line


def _rand_elem(ctx, rng, nonzero=False):
    if ctx.kind == "QV":
        return simple_element(ctx, rng, nonzero)
    return ctx.random_element(rng, nonzero)


def test_criterion_01_remainder_theorem():
    start = time.perf_counter()
    bad = 0
    for name, ctx in BACKENDS.items():
        rng = rng_for(f"acc1-{name}")
        qv = ctx.kind == "QV"
        for _ in range(1000):
            f = random_poly(ctx, rng, max_deg=3, simple=qv)
            a = _rand_elem(ctx, rng)
            lin = SkewPolynomial.linear(ctx, a)
            q, r = f.right_divmod(lin)
            if r.degree > 0 or r.coeff(0) != evaluate(f, a):
                bad += 1
            elif q * lin + r != f:
                bad += 1
    elapsed = time.perf_counter() - start
    _report(1, bad == 0 and elapsed < 10.0,
            f"f = q(t-a) + f(a) on 1000 pairs x {len(BACKENDS)} backends, "
            f"{bad} failures, {elapsed:.1f}s (< 10s)")


def test_criterion_02_product_formula():
    bad = 0
    branch_missing = []
    for name, ctx in BACKENDS.items():
        rng = rng_for(f"acc2-{name}")
        qv = ctx.kind == "QV"
        zero_branch = 0
        for _ in range(1000):
            g = random_poly(ctx, rng, max_deg=2, simple=qv)
            h = random_poly(ctx, rng, max_deg=2, simple=qv)
            a = _rand_elem(ctx, rng)
            if rng.random() < 0.25:
                h = h * SkewPolynomial.linear(ctx, a)
            ha = evaluate(h, a)
            got = evaluate(g * h, a)
            if ctx.is_zero(ha):
                zero_branch += 1
                if not ctx.is_zero(got):
                    bad += 1
            elif got != evaluate(g, conjugate(ctx, a, ha)) * ha:
                bad += 1
        if zero_branch == 0:
            branch_missing.append(name)
    _report(2, bad == 0 and not branch_missing,
            f"(gh)(a) = g(a^h(a)) h(a) with the h(a)=0 branch exercised on "
            f"every backend, {bad} failures")


def test_criterion_03_conjugation_composition():
    bad = 0
    for name, ctx in BACKENDS.items():
        rng = rng_for(f"acc3-{name}")
        for _ in range(1000):
            a = _rand_elem(ctx, rng)
            c = _rand_elem(ctx, rng, nonzero=True)
            d = _rand_elem(ctx, rng, nonzero=True)
            if conjugate(ctx, conjugate(ctx, a, c), d) != conjugate(ctx, a, d * c):
                bad += 1
    _report(3, bad == 0,
            f"(a^c)^d = a^(dc) on 1000 triples x {len(BACKENDS)} backends, "
            f"{bad} failures")


def test_criterion_04_gcd_lcm_degree_identity():
    bad = 0
    for name, ctx in BACKENDS.items():
        rng = rng_for(f"acc4-{name}")
        qv = ctx.kind == "QV"
        max_deg = 2 if qv else 3
        for _ in range(1000):
            f = random_poly(ctx, rng, max_deg=max_deg, simple=qv)
            g = random_poly(ctx, rng, max_deg=max_deg, simple=qv)
            res = rgcd_llcm(f, g)
            if res.rgcd.degree + res.llcm.degree != f.degree + g.degree:
                bad += 1
    _report(4, bad == 0,
            f"deg rgcd + deg llcm = deg f + deg g on 1000 pairs x "
            f"{len(BACKENDS)} backends, {bad} failures")


def test_criterion_05_worked_examples():
    hq = BACKENDS["HQ"]
    qu = BACKENDS["Qu"]
    i, j = hq.i, hq.j
    checks = []

    cert = is_wedderburn(SkewPolynomial(hq, (hq.one, hq.zero, hq.one)))
    checks.append(cert.is_w and cert.recheck()
                  and {str(r) for r in cert.roots} == {"i", "-i"})

    g = SkewPolynomial.linear(hq, j) * SkewPolynomial.linear(hq, i)
    cert = is_wedderburn(g)
    rep = right_root_report(g)
    checks.append(not cert.is_w and cert.recheck()
                  and rep.finite and list(rep.roots) == [i]
                  and cert.f_v == SkewPolynomial.linear(hq, i))

    lin_i = SkewPolynomial.linear(hq, i)
    quad = SkewPolynomial(hq, (hq.one, hq.zero, hq.one))
    checks.append(rgcd_llcm(lin_i, quad).rgcd == lin_i)
    gcd_side, inter_side = gcd_vs_intersection(hq, [[i], [j, hq.k]])
    checks.append(gcd_side == lin_i and inter_side == SkewPolynomial.one(hq))

    u = qu.x
    f = SkewPolynomial.linear(qu, u) * SkewPolynomial.linear(qu, u)
    cert = is_wedderburn(f)
    checks.append(cert.is_w and cert.recheck()
                  and set(cert.roots) == {u, u + qu.inv(u)})
    sol = solve_metro(MetroProblem(qu, u, u, qu.one))
    checks.append(sol.status == SOLUTION and sol.x == -u
                  and sol.uniqueness == MULTIPLE)

    _report(5, all(checks),
            f"worked examples exact, {sum(checks)} of {len(checks)} parts hold")


def test_criterion_06_w_recognition_cross_validation():
    start = time.perf_counter()
    checked = mismatches = 0
    for ring in ("F4", "F8"):
        w = make_context(ring).w
        for d_desc in (("zero",), ("inner", w)):
            ctx = make_context(ring, d_desc=d_desc)
            elems = sorted(ctx.elements(), key=ctx.sort_key)
            reps = conjugacy_class_reps(ctx)
            for deg in range(4):
                for f in monic_polynomials(ctx, deg):
                    roots = [a for a in elems if is_right_root(f, a)]
                    by_rank = rank(ctx, roots) == deg
                    by_quadratic = factor_theorem_check(f).quadratic_factors_w
                    by_expspace = sum(exponential_space(f, r).dimension
                                      for r in reps) == deg
                    res = minimal_polynomial(ctx, roots)
                    by_dual = res.poly == f and res.rank == deg
                    if by_dual:
                        dual_representation(ctx, res.basis)
                    checked += 1
                    if not by_rank == by_quadratic == by_expspace == by_dual:
                        mismatches += 1
    elapsed = time.perf_counter() - start
    _report(6, checked == 1340 and mismatches == 0 and elapsed < 60.0,
            f"four verdicts agree on {checked} monic polynomials over "
            f"F4/F8 x (D=0, D=inner(w)), {mismatches} mismatches, "
            f"{elapsed:.1f}s (< 60s)")


def test_criterion_07_rank_theorems():
    f4 = BACKENDS["F4"]
    elems = sorted(f4.elements(), key=f4.sort_key)
    subsets = [list(s) for r in range(5)
               for s in itertools.combinations(elems, r)]
    union_pairs = union_bad = 0
    for delta in subsets:
        for gamma in subsets:
            lhs, rhs = rank_union_check(f4, delta, gamma)
            union_pairs += 1
            if lhs != rhs:
                union_bad += 1

    phi_cases = phi_bad = 0
    monics = [f for deg in range(3) for f in monic_polynomials(f4, deg)]
    for h in monics:
        outside = [a for a in elems if not is_right_root(h, a)]
        for r in range(len(outside) + 1):
            for delta in itertools.combinations(outside, r):
                lhs, rhs = phi_rank_check(h, list(delta))
                phi_cases += 1
                if lhs != rhs:
                    phi_bad += 1

    prod_cases = prod_bad = 0
    for g in monics:
        for h in monics:
            lhs, rhs = product_rank_bound(g, h)
            prod_cases += 1
            if lhs > rhs:
                prod_bad += 1

    hq = BACKENDS["HQ"]
    i, j, k = hq.i, hq.j, hq.k
    dom = [i, -i, j, -j, k, -k]
    hq_checks = []
    lhs, rhs = rank_union_check(hq, [i], [j, k], domain=dom)
    hq_checks.append(lhs == rhs == 3)
    h = SkewPolynomial.linear(hq, i)
    phi_j = conjugate(hq, j, evaluate(h, j))
    phi_k = conjugate(hq, k, evaluate(h, k))
    lhs, rhs = phi_rank_check(h, [j, k], domain=dom)
    hq_checks.append(phi_j == -i and phi_k == -i and lhs == rhs == 1)
    lhs, rhs = product_rank_bound(SkewPolynomial.linear(hq, j),
                                  SkewPolynomial.linear(hq, i), domain=dom)
    hq_checks.append(lhs == 1 and rhs == 2 and lhs <= rhs)

    ok = (union_bad == 0 and phi_bad == 0 and prod_bad == 0
          and all(hq_checks))
    _report(7, ok,
            f"rank identities: {union_pairs} unions, {phi_cases} transforms, "
            f"{prod_cases} products over F4 plus 3 quaternion instances, "
            f"{union_bad + phi_bad + prod_bad} violations")


def test_criterion_08_metro_equivalence():
    exhaustive = exceptions = 0
    w = make_context("F8").w
    for d_desc in (("zero",), ("inner", w)):
        ctx = make_context("F8", d_desc=d_desc)
        elems = sorted(ctx.elements(), key=ctx.sort_key)
        for a, b, c in itertools.product(elems, elems, elems):
            if ctx.is_zero(c):
                continue
            rep = metro_wedderburn_equivalence(MetroProblem(ctx, a, b, c))
            exhaustive += 1
            if not (rep.decided and rep.consistent):
                exceptions += 1

    hq = BACKENDS["HQ"]
    rng = rng_for("acc8-hq")
    random_ok = 0
    for _ in range(200):
        a = hq.random_element(rng)
        b = hq.random_element(rng)
        c = hq.random_element(rng, nonzero=True)
        rep = metro_wedderburn_equivalence(MetroProblem(hq, a, b, c))
        if rep.decided and rep.consistent and (
                not rep.solvable or rep.bridge_is_second_root):
            random_ok += 1

    rng = rng_for("acc8-unique")
    unique_ok = attempts = 0
    while unique_ok < 100 and attempts < 1000:
        attempts += 1
        b = hq.random_element(rng)
        a = hq.random_element(rng)
        c = hq.random_element(rng, nonzero=True)
        try:
            rep = class_algebraic_uniqueness(hq, b, a, c)
        except ClassMembershipError:
            continue
        if rep.ok and rep.uniqueness == UNIQUE:
            unique_ok += 1

    ok = (exhaustive == 896 and exceptions == 0 and random_ok == 200
          and unique_ok == 100)
    _report(8, ok,
            f"solvability equivalence on {exhaustive} exhaustive F8 triples "
            f"(both derivations, {exceptions} exceptions), {random_ok}/200 "
            f"random quaternion triples, {unique_ok}/100 class-disjoint "
            f"instances UNIQUE")


def test_criterion_09_lattice_duality():
    start = time.perf_counter()
    results = {}
    for ring, nodes, intervals, triples in (("F4", 10, 36, 450),
                                            ("F8", 32, 198, 19104)):
        ctx = make_context(ring)
        report = duality_check(build_full_lattice(ctx), build_w_lattice(ctx))
        swept, violations = modular_law_sweep(ctx)
        results[ring] = (report.ok and report.n_nodes == nodes
                         and report.intervals_checked == intervals
                         and swept == triples and violations == 0)
    elapsed = time.perf_counter() - start
    _report(9, all(results.values()) and elapsed < 120.0,
            f"dual lattices verified exhaustively over F4 (10 nodes, 450 "
            f"dependence triples) and F8 (32 nodes, 19104 triples), "
            f"{elapsed:.1f}s (< 120s)")


def test_criterion_10_left_root_cosets():
    qx = BACKENDS["Qx"]
    x = qx.x
    rng = rng_for("acc10")
    monic_ok = scaled_ok = 0
    for _ in range(100):
        b1 = simple_element(qx, rng)
        b2 = simple_element(qx, rng)
        while b2 == b1:
            b2 = simple_element(qx, rng)
        f = rgcd_llcm(SkewPolynomial.linear(qx, b1),
                      SkewPolynomial.linear(qx, b2)).llcm
        lefts = [-f.coeff(1) - qx.S(b) for b in (b1, b2)]
        good = f.is_monic() and f.degree == 2
        for c, b in zip(lefts, (b1, b2)):
            good = good and (SkewPolynomial.linear(qx, c)
                             * SkewPolynomial.linear(qx, b) == f)
        # monic case: both discovered left roots in one additive S(K)-coset
        good = good and qx.s_image_contains(lefts[0] - lefts[1])
        monic_ok += good

        g = SkewPolynomial.constant(qx, x) * f
        # lc = x has no S-preimage, so the scaled polynomial has no left
        # roots at all and the other branch of the alternative holds
        alt = g.coeff(2) == x and not qx.s_image_contains(g.coeff(2))
        for c in lefts:
            res = g.left_divmod(SkewPolynomial.linear(qx, c))
            alt = alt and (res is None or not res[1].is_zero())
        scaled_ok += alt
    _report(10, monic_ok == 100 and scaled_ok == 100,
            f"left roots of {monic_ok}/100 monic split quadratics over "
            f"twisted Q(x) share one S(K)-coset; the x-scaled alternative "
            f"holds {scaled_ok}/100 times")


def test_criterion_11_central_quadratics_are_w():
    hq = BACKENDS["HQ"]
    rng = rng_for("acc11")
    ok = 0
    for _ in range(100):
        a = hq.random_element(rng)
        while a.is_central():
            a = hq.random_element(rng)
        f = SkewPolynomial(hq, (hq.from_vec((a.norm(), 0, 0, 0)),
                                -hq.from_vec((a.trace(), 0, 0, 0)),
                                hq.one))
        cert = is_wedderburn(f)
        if cert.is_w and cert.recheck() and is_right_root(f, a):
            ok += 1
    _report(11, ok == 100,
            f"t^2 - tr(a) t + N(a) certified minimal for {ok}/100 random "
            f"non-central quaternions")
