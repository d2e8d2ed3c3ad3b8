"""Command-line front end.

Every subcommand takes ``--ring {Q|F4|F8|Qx|Qu|HQ}``, ``--S
{id|frob[:e]|xsq}`` and ``--D {zero|ddx|inner:<element>}``.  ``main``
builds the context once and passes it to the handler, so an invalid
combination exits 2 before any subcommand runs, ``batch`` and ``examples``
included.  Output is canonical text, or one JSON document per invocation
with ``--json`` (fields: ring, inputs, result, and certificate where one
exists; key order is sorted, so output is stable across runs).

Exit codes: 0 on success, 1 when a decision procedure answers "no" and
``--strict`` was given, 2 on usage or parse errors.  The ``examples``
subcommand replays the library's worked examples and exits 1 if any of
them fails, independently of ``--strict``.
"""

import argparse
import json
import shlex
import sys
from dataclasses import asdict

from . import algsets, lattices, metro, wedderburn
from .errors import (CapabilityMissingError, ClassMembershipError,
                     ContextMismatchError, DisjointnessError,
                     DomainRequiredError, NotFullError, NotPIndependentError,
                     NotSplitError, ParseError)
from .evaluate import conjugate, evaluate, phi_transform
from .parsing import parse_element, parse_elements, parse_polynomial
from .rings import make_context
from .skew import SkewPolynomial, product_of_linears, rgcd_llcm


# ---------------------------------------------------------------------------
# context construction from flags

def _decode_s(text):
    if text == "id":
        return ("id",)
    if text == "xsq":
        return ("xsq",)
    if text == "frob":
        return ("frob", 1)
    if text.startswith("frob:"):
        return ("frob", int(text[5:]))
    raise ValueError(f"unrecognized endomorphism {text!r} "
                     "(expected id, frob, frob:<e>, or xsq)")


def build_context(args):
    s_desc = _decode_s(args.S)
    if args.D == "zero":
        d_desc = ("zero",)
    elif args.D == "ddx":
        d_desc = ("ddx",)
    elif args.D.startswith("inner:"):
        host = make_context(args.ring, s_desc, ("zero",))
        d_desc = ("inner", parse_element(args.D[6:], host))
    else:
        raise ValueError(f"unrecognized derivation {args.D!r} "
                         "(expected zero, ddx, or inner:<element>)")
    return make_context(args.ring, s_desc, d_desc)


# ---------------------------------------------------------------------------
# shared output plumbing

def _emit(args, ctx, inputs, result, lines, certificate=None, negative=False):
    if args.json:
        doc = {"ring": ctx.describe(), "inputs": inputs, "result": result}
        if certificate is not None:
            doc["certificate"] = certificate
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 1 if (negative and args.strict) else 0


def _sorted_strs(ctx, elems):
    return [str(a) for a in sorted(elems, key=ctx.sort_key)]


def _set_text(ctx, elems):
    return "{" + ", ".join(_sorted_strs(ctx, elems)) + "}"


def _class_doc(cls):
    return {"rep": str(cls.rep), "dimension": cls.dimension,
            "finite": cls.finite, "central": cls.central_text}


def _root_report_payload(ctx, report):
    result = {"finite": report.finite, "method": report.method,
              "roots": _sorted_strs(ctx, report.roots),
              "classes": [_class_doc(c) for c in report.classes]}
    lines = [f"method: {report.method}"]
    if report.finite:
        lines.append(f"roots = {_set_text(ctx, report.roots)}")
    elif not report.classes:
        lines.append("infinitely many roots; samples = "
                     + _set_text(ctx, report.roots))
    else:
        lines.append("infinitely many roots; per conjugacy class:")
        for cls in report.classes:
            lines.append(f"  class of {cls.rep}: central {cls.central_text}, "
                         f"dimension {cls.dimension}, sample {cls.sample_root()}")
    return result, lines


def _not_split(args, ctx, inputs, exc):
    partial = [str(c) for c in exc.partial_roots]
    result = {"status": "NOT_SPLIT", "reason": str(exc.reason),
              "partial_roots": partial}
    lines = [f"NOT_SPLIT: {exc.reason}"]
    if partial:
        lines.append("partial chain: " + ", ".join(partial))
    return _emit(args, ctx, inputs, result, lines, negative=True)


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed arguments and the context

def _cmd_eval(args, ctx):
    f = parse_polynomial(args.poly, ctx)
    a = parse_element(args.at, ctx)
    value = str(evaluate(f, a))
    inputs = {"poly": args.poly, "at": args.at}
    return _emit(args, ctx, inputs, {"value": value}, [f"f(a) = {value}"])


def _cmd_conj(args, ctx):
    a = parse_element(args.base, ctx)
    c = parse_element(args.by, ctx)
    if ctx.is_zero(c):
        raise ValueError("conjugation by zero is undefined")
    value = conjugate(ctx, a, c)
    inputs = {"base": args.base, "by": args.by}
    return _emit(args, ctx, inputs, {"value": str(value)}, [f"a^c = {value}"])


def _cmd_phi(args, ctx):
    h = parse_polynomial(args.h, ctx)
    a = parse_element(args.at, ctx)
    value = phi_transform(h, a)
    inputs = {"h": args.h, "at": args.at}
    if value is None:
        return _emit(args, ctx, inputs, {"defined": False},
                     ["phi_h(a) is undefined: a is a right root of h"],
                     negative=True)
    return _emit(args, ctx, inputs, {"defined": True, "value": str(value)},
                 [f"phi_h(a) = {value}"])


def _cmd_roots(args, ctx, left=False):
    f = parse_polynomial(args.poly, ctx)
    inputs = {"poly": args.poly}
    try:
        report = (wedderburn.left_root_report(f) if left
                  else wedderburn.right_root_report(f))
    except NotSplitError as exc:
        return _not_split(args, ctx, inputs, exc)
    result, lines = _root_report_payload(ctx, report)
    return _emit(args, ctx, inputs, result, lines)


def _cmd_minpoly(args, ctx):
    elems = parse_elements(args.set, ctx)
    res = algsets.minimal_polynomial(ctx, elems)
    inputs = {"set": args.set}
    result = {"poly": str(res.poly), "rank": res.rank,
              "basis": [str(b) for b in res.basis]}
    lines = [f"minimal polynomial = {res.poly}",
             f"rank = {res.rank}",
             "P-basis = " + (", ".join(str(b) for b in res.basis) or "(empty)")]
    return _emit(args, ctx, inputs, result, lines)


def _cmd_rank(args, ctx):
    elems = parse_elements(args.set, ctx)
    r = algsets.rank(ctx, elems)
    return _emit(args, ctx, {"set": args.set}, {"rank": r}, [f"rank = {r}"])


def _cmd_pbasis(args, ctx):
    elems = parse_elements(args.set, ctx)
    res = algsets.minimal_polynomial(ctx, elems)
    result = {"basis": [str(b) for b in res.basis], "rank": res.rank}
    lines = ["P-basis = " + (", ".join(str(b) for b in res.basis) or "(empty)"),
             f"rank = {res.rank}"]
    return _emit(args, ctx, {"set": args.set}, result, lines)


def _cmd_closure_member(args, ctx):
    x = parse_element(args.elem, ctx)
    elems = parse_elements(args.set, ctx)
    member = algsets.is_p_dependent(ctx, x, elems)
    inputs = {"elem": args.elem, "set": args.set}
    lines = [f"{x} in closure{_set_text(ctx, elems)}: "
             + ("true" if member else "false")]
    return _emit(args, ctx, inputs, {"member": member}, lines,
                 negative=not member)


def _cmd_is_wedderburn(args, ctx):
    f = parse_polynomial(args.poly, ctx)
    inputs = {"poly": args.poly}
    try:
        cert = wedderburn.is_wedderburn(f)
    except NotSplitError as exc:
        return _not_split(args, ctx, inputs, exc)
    result = {"verdict": cert.verdict,
              "roots": [str(c) for c in cert.roots],
              "proper_divisor": str(cert.f_v) if cert.f_v is not None else None}
    certificate = {"recheck": cert.recheck(),
                   "roots": [str(c) for c in cert.roots]}
    lines = [f"verdict = {cert.verdict}"]
    if cert.roots:
        lines.append("root basis: " + ", ".join(str(c) for c in cert.roots))
    if cert.f_v is not None and not cert.is_w:
        lines.append(f"minimal polynomial of V(f): {cert.f_v}")
    lines.append(f"certificate recheck: {'pass' if certificate['recheck'] else 'fail'}")
    return _emit(args, ctx, inputs, result, lines, certificate=certificate,
                 negative=not cert.is_w)


def _cmd_split(args, ctx):
    f = parse_polynomial(args.poly, ctx)
    inputs = {"poly": args.poly}
    try:
        chain = wedderburn.split(f)
    except NotSplitError as exc:
        return _not_split(args, ctx, inputs, exc)
    text = " * ".join(f"(t - [{c}])" for c in reversed(chain)) or "1"
    result = {"status": "SPLIT", "chain": [str(c) for c in chain]}
    certificate = {"product_matches": product_of_linears(ctx, chain) == f}
    return _emit(args, ctx, inputs, result, [f"f = {text}"],
                 certificate=certificate)


def _cmd_dual(args, ctx):
    basis = parse_elements(args.set, ctx)
    duals = wedderburn.dual_representation(ctx, basis)
    f = algsets.minimal_polynomial(ctx, basis).poly
    inputs = {"set": args.set}
    result = {"companions": [str(b) for b in duals], "poly": str(f)}
    lines = [f"minimal polynomial = {f}",
             "left-root companions: " + ", ".join(str(b) for b in duals),
             "each t - b verified to left-divide the minimal polynomial"]
    return _emit(args, ctx, inputs, result, lines)


def _cmd_expspace(args, ctx):
    f = parse_polynomial(args.poly, ctx)
    a = parse_element(args.rep, ctx)
    basis = wedderburn.exponential_space(f, a)
    inputs = {"poly": args.poly, "rep": args.rep}
    result = {"dimension": basis.dimension,
              "basis": [str(x) for x in basis.basis],
              "centralizer_dimension": len(wedderburn.centralizer(ctx, a))}
    lines = [f"dim E(f, a) over the centralizer = {basis.dimension}",
             "basis: " + (", ".join(str(x) for x in basis.basis) or "(zero space)")]
    return _emit(args, ctx, inputs, result, lines)


def _cmd_vandermonde(args, ctx):
    f = parse_polynomial(args.poly, ctx)
    roots = parse_elements(args.roots, ctx)
    ok = wedderburn.diagonalization_check(f, roots)
    inputs = {"poly": args.poly, "roots": args.roots}
    lines = [f"diagonalization identity with invertible Vandermonde: "
             + ("true" if ok else "false")]
    return _emit(args, ctx, inputs, {"holds": ok}, lines, negative=not ok)


def _cmd_rank_theorems(args, ctx):
    domain = parse_elements(args.domain, ctx) if args.domain else None
    if args.theorem == "union":
        delta = parse_elements(args.delta, ctx)
        gamma = parse_elements(args.gamma, ctx)
        lhs, rhs = wedderburn.rank_union_check(ctx, delta, gamma, domain)
        inputs = {"theorem": "union", "delta": args.delta, "gamma": args.gamma}
        label = "rk(D) + rk(G) vs rk(D u G) + rk(clos n clos)"
    elif args.theorem == "phi":
        h = parse_polynomial(args.h, ctx)
        delta = parse_elements(args.delta, ctx)
        lhs, rhs = wedderburn.phi_rank_check(h, delta, domain)
        inputs = {"theorem": "phi", "h": args.h, "delta": args.delta}
        label = "rk(phi_h(D)) vs rk(D) - rk(clos(D) n V(h))"
    else:
        g = parse_polynomial(args.g, ctx)
        h = parse_polynomial(args.h, ctx)
        lhs, rhs = wedderburn.product_rank_bound(g, h, domain)
        inputs = {"theorem": "product", "g": args.g, "h": args.h}
        label = "rk V(gh) vs rk V(g) + rk V(h)"
    holds = lhs == rhs if args.theorem != "product" else lhs <= rhs
    result = {"lhs": lhs, "rhs": rhs, "holds": holds}
    lines = [f"{label}: {lhs} vs {rhs}", f"holds: {'true' if holds else 'false'}"]
    return _emit(args, ctx, inputs, result, lines, negative=not holds)


def _cmd_gcd(args, ctx, want):
    f = parse_polynomial(args.f, ctx)
    g = parse_polynomial(args.g, ctx)
    res = rgcd_llcm(f, g)
    inputs = {"f": args.f, "g": args.g}
    if want == "rgcd":
        result = {"rgcd": str(res.rgcd), "u": str(res.u), "v": str(res.v)}
        certificate = {"bezout": res.u * f + res.v * g == res.rgcd}
        lines = [f"rgcd = {res.rgcd}",
                 f"cofactors: u = {res.u}; v = {res.v}"]
        return _emit(args, ctx, inputs, result, lines, certificate=certificate)
    result = {"llcm": str(res.llcm)}
    return _emit(args, ctx, inputs, result, [f"llcm = {res.llcm}"])


def _cmd_lattice(args, ctx):
    fl = lattices.build_full_lattice(ctx)
    wl = lattices.build_w_lattice(ctx)
    inputs = {"action": args.action}
    if args.action == "build":
        full_edges = [(_set_text(ctx, fl.nodes[i]), _set_text(ctx, fl.nodes[j]))
                      for i, j in lattices.hasse_edges(fl)]
        w_edges = [(str(wl.nodes[i]), str(wl.nodes[j]))
                   for i, j in lattices.hasse_edges(wl)]
        result = {"full_nodes": fl.n, "w_nodes": wl.n,
                  "full_hasse": [list(e) for e in full_edges],
                  "w_hasse": [list(e) for e in w_edges]}
        lines = [f"full algebraic sets: {fl.n} nodes",
                 f"minimal polynomials:  {wl.n} nodes",
                 "full-set Hasse diagram (lower < upper):"]
        lines += [f"  {a} < {b}" for a, b in full_edges]
        lines.append("W-polynomial Hasse diagram (lower < upper):")
        lines += [f"  {a} < {b}" for a, b in w_edges]
        return _emit(args, ctx, inputs, result, lines)
    report = lattices.duality_check(fl, wl)
    triples, violations = lattices.modular_law_sweep(ctx)
    ok = report.ok and violations == 0
    fields = {("nodes" if k == "n_nodes" else k): v
              for k, v in asdict(report).items()}
    fields.update(dependence_triples=triples, dependence_violations=violations)
    result = dict(fields, ok=ok)
    lines = [f"{k}: {str(v).lower() if isinstance(v, bool) else v}"
             for k, v in fields.items()]
    lines.append(f"ok: {'true' if ok else 'false'}")
    return _emit(args, ctx, inputs, result, lines, negative=not ok)


def _cmd_metro(args, ctx):
    a = parse_element(args.a, ctx)
    b = parse_element(args.b, ctx)
    c = parse_element(args.c, ctx)
    problem = metro.MetroProblem(ctx, a, b, c)
    inputs = {"action": args.action, "a": args.a, "b": args.b, "c": args.c}
    if args.action == "solve":
        rep = metro.solve_metro(problem)
        result = {"status": rep.status, "uniqueness": rep.uniqueness,
                  "strategy": rep.strategy,
                  "x": str(rep.x) if rep.x is not None else None,
                  "second": str(rep.second) if rep.second is not None else None,
                  "reason": rep.reason}
        lines = [f"status = {rep.status}"]
        if rep.x is not None:
            lines.append(f"x = {rep.x}")
        lines.append(f"uniqueness = {rep.uniqueness}")
        if rep.second is not None:
            lines.append(f"second solution = {rep.second}")
        if rep.reason:
            lines.append(f"reason: {rep.reason}")
        lines.append(f"strategy: {rep.strategy}")
        return _emit(args, ctx, inputs, result, lines,
                     negative=rep.status != metro.SOLUTION)
    rep = metro.metro_wedderburn_equivalence(problem)
    result = {"solvable": rep.solvable, "poly": str(rep.poly),
              "poly_is_w": rep.poly_is_w,
              "bridge_root": str(rep.bridge_root) if rep.bridge_root is not None else None,
              "bridge_is_second_root": rep.bridge_is_second_root,
              "consistent": rep.consistent}
    def _tf(v):
        return "undecided" if v is None else str(v).lower()
    lines = [f"equation solvable: {_tf(rep.solvable)}",
             f"(t - b^c)(t - a) = {rep.poly}",
             f"product is a minimal polynomial of its roots: {_tf(rep.poly_is_w)}",
             f"consistent: {_tf(rep.consistent)}"]
    if rep.bridge_root is not None:
        lines.append(f"second root from solution: {rep.bridge_root} "
                     f"(verified: {_tf(rep.bridge_is_second_root)})")
    return _emit(args, ctx, inputs, result, lines,
                 negative=rep.solvable is not True)


def _cmd_batch(args, ctx):
    with open(args.file, encoding="utf-8") as handle:
        lines = handle.readlines()
    worst = 0
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        print(f"$ {line}")
        try:
            argv = shlex.split(line)
            if argv[:1] == ["batch"]:  # a file could include itself
                raise ValueError("batch cannot run inside a batch file")
            code = main(argv)
        except SystemExit as exc:  # argparse rejects one line, keep going
            code = exc.code if isinstance(exc.code, int) else 2
        except ValueError as exc:  # one line cannot run, keep going
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# worked-example replay

def _examples_checks():
    hq = make_context("HQ")
    i, j = hq.i, hq.j
    one = hq.one

    def classical_quadratic():
        f = parse_polynomial("t^2 + [1]", hq)
        cert = wedderburn.is_wedderburn(f)
        res = algsets.minimal_polynomial(hq, [i, -i])
        return (cert.is_w and cert.recheck() and res.poly == f
                and res.rank == 2)

    def non_w_product():
        f = product_of_linears(hq, [i, j])
        report = wedderburn.right_root_report(f)
        cert = wedderburn.is_wedderburn(f)
        return (report.finite and list(report.roots) == [i]
                and not cert.is_w)

    def phi_conjugation():
        f4 = make_context("F4")
        u = f4.w
        # constant h = c acts as conjugation by c; h = 1 is the identity
        for c in (f4.one, u, u * u):
            h = SkewPolynomial.constant(f4, c)
            for a in f4.elements():
                if phi_transform(h, a) != conjugate(f4, a, c):
                    return False
        # with D = 0 and h = t, the transform is S away from zero
        h = SkewPolynomial.t(f4)
        for a in f4.elements():
            got = phi_transform(h, a)
            if f4.is_zero(a):
                if got is not None:
                    return False
            elif got != f4.S(a):
                return False
        c = one + i
        h = SkewPolynomial.constant(hq, c)
        return phi_transform(h, j) == conjugate(hq, j, c)

    def gcd_vs_intersection_remark():
        lin = SkewPolynomial.linear(hq, i)
        quad = parse_polynomial("t^2 + [1]", hq)
        res = rgcd_llcm(lin, quad)
        if res.rgcd != lin:
            return False
        gcd_chain, inter_poly = lattices.gcd_vs_intersection(
            hq, [[i], [j, hq.k]])
        return gcd_chain == lin and inter_poly == SkewPolynomial.one(hq)

    def differential_model():
        qu = make_context("Qu", d_desc=("ddx",))
        u = qu.x
        f = SkewPolynomial.linear(qu, u) * SkewPolynomial.linear(qu, u)
        cert = wedderburn.is_wedderburn(f)
        want = {u, u + qu.inv(u)}
        if not (cert.is_w and set(cert.roots) == want):
            return False
        rep = metro.solve_metro(metro.MetroProblem(qu, u, u, qu.one))
        return rep.status == metro.SOLUTION and rep.x == -u

    return [
        ("quaternion quadratic t^2+1 is a minimal polynomial", classical_quadratic),
        ("(t-j)(t-i) has root set {i} and is not one", non_w_product),
        ("constant-polynomial transforms act by conjugation", phi_conjugation),
        ("rgcd can exceed the intersection minimal polynomial", gcd_vs_intersection_remark),
        ("differential model: (t-u)^2 splits and x = -u", differential_model),
    ]


def _cmd_examples(args, ctx):
    checks = _examples_checks()
    failures = 0
    for name, check in checks:
        try:
            ok = check()
        except Exception as exc:  # a replay must never take the CLI down
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures} of {len(checks)} examples pass")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument surface

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ring", default="Q",
                        choices=["Q", "F4", "F8", "Qx", "Qu", "HQ"])
    common.add_argument("--S", default="id", metavar="DESC",
                        help="id, frob, frob:<e>, or xsq")
    common.add_argument("--D", default="zero", metavar="DESC",
                        help="zero, ddx, or inner:<element>")
    common.add_argument("--json", action="store_true",
                        help="emit one structured JSON document")
    common.add_argument("--strict", action="store_true",
                        help="exit 1 when the mathematical answer is negative")

    parser = argparse.ArgumentParser(
        prog="wpoly",
        description="Skew polynomial evaluation, root sets, and minimal polynomials")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add("eval", _cmd_eval, help="evaluate a polynomial at an element")
    p.add_argument("poly")
    p.add_argument("at")

    p = add("conj", _cmd_conj, help="conjugate a^c = S(c)ac^-1 + D(c)c^-1")
    p.add_argument("base")
    p.add_argument("by")

    p = add("phi", _cmd_phi, help="apply the transform a -> a^{h(a)}")
    p.add_argument("h")
    p.add_argument("at")

    p = add("roots", _cmd_roots,
            help="right root set, listed or by conjugacy class")
    p.add_argument("poly")

    p = add("left-roots", lambda a, ctx: _cmd_roots(a, ctx, left=True),
            help="left root set")
    p.add_argument("poly")

    p = add("minpoly", _cmd_minpoly,
            help="minimal polynomial, rank and P-basis of a finite set")
    p.add_argument("set", help="comma-separated elements")

    p = add("rank", _cmd_rank, help="rank of a finite set")
    p.add_argument("set")

    p = add("pbasis", _cmd_pbasis, help="P-basis of a finite set")
    p.add_argument("set")

    p = add("closure-member", _cmd_closure_member,
            help="membership of an element in the P-closure of a set")
    p.add_argument("elem")
    p.add_argument("set")

    p = add("is-wedderburn", _cmd_is_wedderburn,
            help="decide whether f is the minimal polynomial of its roots")
    p.add_argument("poly")

    p = add("split", _cmd_split, help="factor f into linear factors by roots")
    p.add_argument("poly")

    p = add("dual", _cmd_dual,
            help="left-root companions of a P-independent set")
    p.add_argument("set")

    p = add("expspace", _cmd_expspace,
            help="exponential space of f at a class representative")
    p.add_argument("poly")
    p.add_argument("rep")

    p = add("vandermonde-check", _cmd_vandermonde,
            help="companion/Vandermonde diagonalization identity")
    p.add_argument("poly")
    p.add_argument("roots", help="comma-separated elements")

    p = add("rank-theorems", _cmd_rank_theorems,
            help="rank identities for unions, transforms, and products")
    p.add_argument("theorem", choices=["union", "phi", "product"])
    p.add_argument("--delta", default="", help="comma-separated elements")
    p.add_argument("--gamma", default="", help="comma-separated elements")
    p.add_argument("--g", default="", help="polynomial literal")
    p.add_argument("--h", default="", help="polynomial literal")
    p.add_argument("--domain", default="",
                   help="explicit search domain for infinite rings")

    p = add("rgcd", lambda a, ctx: _cmd_gcd(a, ctx, "rgcd"),
            help="greatest common right divisor with Bezout cofactors")
    p.add_argument("f")
    p.add_argument("g")

    p = add("llcm", lambda a, ctx: _cmd_gcd(a, ctx, "llcm"),
            help="least common left multiple")
    p.add_argument("f")
    p.add_argument("g")

    p = add("lattice", _cmd_lattice,
            help="build or check the dual lattices of a finite ring")
    p.add_argument("action", choices=["build", "check"])

    p = add("metro", _cmd_metro, help="solve ax - S(x)b - D(x) = c")
    p.add_argument("action", choices=["solve", "equiv"])
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)

    p = add("examples", _cmd_examples,
            help="replay the worked examples and report pass/fail")

    p = add("batch", _cmd_batch, help="run commands from a file, one per line")
    p.add_argument("file")

    return parser


_NEGATIVE_ERRORS = (NotPIndependentError, NotFullError, ClassMembershipError)
_USAGE_ERRORS = (ParseError, CapabilityMissingError, DomainRequiredError,
                 ContextMismatchError, DisjointnessError, ValueError,
                 ZeroDivisionError, OSError)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, build_context(args))
    except NotSplitError as exc:
        print(f"NOT_SPLIT: {exc.reason}", file=sys.stderr)
        return 1 if args.strict else 0
    except _NEGATIVE_ERRORS as exc:
        print(f"negative: {exc}", file=sys.stderr)
        return 1 if args.strict else 0
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # a broken internal invariant
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
