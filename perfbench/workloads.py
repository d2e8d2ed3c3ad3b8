"""Seeded inputs, timed operations and independent oracles.

Each workload is an endless, deterministic stream of operations built from
``random.Random("<workload>:<seed>:<stream>")``: the same seed and stream
give the same inputs in every process, and the warm-up stream never
repeats the timed inputs, so sympy's process-wide cache cannot replay a
timed answer.  An :class:`Op` carries the call that is timed (``run``) and
the check that is not (``check``); ``check`` returns True when the answer
is right.  The program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

from wpoly import (MetroProblem, build_full_lattice, build_w_lattice,
                   duality_check, evaluate, factor_theorem_check,
                   is_wedderburn, metro_wedderburn_equivalence,
                   minimal_polynomial, modular_law_sweep, parse_element,
                   parse_polynomial,
                   product_of_linears, rgcd_llcm, right_root_report, split)
from wpoly.rings import FiniteFieldContext, RatFunc, make_context
from wpoly.skew import SkewPolynomial, monic_polynomials

WORKLOADS = ("arith-infinite", "decide-infinite", "finite-exhaustive",
             "cli-cold")


@dataclass
class Op:
    kind: str
    inputs: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def rng_for(workload, seed, stream):
    return random.Random(f"{workload}:{seed}:{stream}")


# ---------------------------------------------------------------------------
# element and polynomial generators (the shapes of acceptance criterion 04)

class Deck:
    """Draws from a shuffled copy of ``items``, shuffled again when used
    up, so every ``len(items)`` draws in a row hold each item once."""

    def __init__(self, rng, items):
        self.rng, self.items, self.left = rng, list(items), []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def shape_decks(rng):
    """The two shape choices of :func:`simple_element` over Q(x)/Q(u), as
    decks: a constant or linear numerator, half and half, and a linear
    denominator on one element in four."""
    return {"num_len": Deck(rng, (1, 2)),
            "has_den": Deck(rng, (True, False, False, False))}


def simple_element(ctx, rng, nonzero=False, decks=None):
    """Low-height elements; over Q(x)/Q(u) short polynomial numerators and
    rare linear denominators, which keeps gcd chains under x -> x^2 tame.

    With ``decks`` (from :func:`shape_decks`) the numerator length and the
    denominator come from the decks instead of independent draws: the
    same shares, with less variation in how many costly elements a run
    meets.
    """
    if ctx.kind != "QV":
        return ctx.random_element(rng, nonzero)
    while True:
        if decks is None:
            n_num, has_den = rng.randint(1, 2), rng.random() < 0.25
        else:
            n_num, has_den = decks["num_len"].draw(), decks["has_den"].draw()
        num = [rng.randint(-3, 3) for _ in range(n_num)]
        den = [rng.randint(-2, 2), 1] if has_den else [1]
        a = RatFunc(num, den, ctx.variable)
        if a or not nonzero:
            return a


def random_poly(ctx, rng, deg, decks=None):
    coeffs = [simple_element(ctx, rng, decks=decks) for _ in range(deg)]
    coeffs.append(simple_element(ctx, rng, nonzero=True, decks=decks))
    return SkewPolynomial(ctx, coeffs)


def _linear(ctx, a):
    return SkewPolynomial.linear(ctx, a)


# ---------------------------------------------------------------------------
# arith-infinite: f*g, rgcd_llcm and right division over Qx, Qu, HQ and Q

def _arith_contexts():
    return (("Qx", make_context("Qx", s_desc=("xsq",))),
            ("Qu", make_context("Qu", d_desc=("ddx",))),
            ("HQ", make_context("HQ")),
            ("Q", make_context("Q")))


def arith_run(f, g, a):
    prod = f * g
    res = rgcd_llcm(f, g)
    _, rem = f.right_divmod(_linear(f.ctx, a))
    return prod, res, rem


def arith_check(f, g, a, out):
    """Bezout identity, degree identity, both inputs right-divide the llcm,
    and the remainder of division by t - a is f(a)."""
    prod, res, rem = out
    if prod.degree != f.degree + g.degree:
        return False
    if res.u * f + res.v * g != res.rgcd:
        return False
    if res.rgcd.degree + res.llcm.degree != f.degree + g.degree:
        return False
    for p in (f, g):
        if not res.llcm.right_divmod(p)[1].is_zero():
            return False
    return rem.degree <= 0 and rem.coeff(0) == evaluate(f, a)


def arith_ops(seed, stream="timed"):
    rng = rng_for("arith-infinite", seed, stream)
    rings = _arith_contexts()
    pending = {name: [] for name, _ in rings}
    decks = {name: shape_decks(rng) for name, _ in rings}
    while True:
        for name, ctx in rings:
            # Degrees are uniform on 0..max as in criterion 04, but drawn
            # without replacement: each ring meets every (deg f, deg g)
            # pair once per block, so the costly pairs cannot bunch up in
            # one seed and the mix does not drift between seeds.
            if not pending[name]:
                top = 2 if ctx.kind == "QV" else 3
                pending[name] = [(i, j) for i in range(top + 1)
                                 for j in range(top + 1)]
                rng.shuffle(pending[name])
            df, dg = pending[name].pop()
            f = random_poly(ctx, rng, df, decks[name])
            g = random_poly(ctx, rng, dg, decks[name])
            a = simple_element(ctx, rng, decks=decks[name])
            yield Op(name, f"{f} | {g} | {a}",
                     lambda f=f, g=g, a=a: arith_run(f, g, a),
                     lambda out, f=f, g=g, a=a: arith_check(f, g, a, out))


# ---------------------------------------------------------------------------
# decide-infinite: root engines and decision procedures

def class_tag(q):
    """Gordon-Motzkin class of a quaternion: its central minimal polynomial,
    in the tag format of the quaternion root engine."""
    if q.is_central():
        return ("lin", q.components()[0])
    return ("quad", q.trace(), q.norm())


def hq_roots_check(f, roots, report):
    """The innermost factor's root is a right root, and f has a root in
    the class of every linear factor: the minimal polynomial of each
    factor's root divides the norm of f (Gordon-Motzkin)."""
    if not f.ctx.is_zero(evaluate(f, roots[0])):
        return False
    found = {c.central_poly for c in report.classes}
    return all(class_tag(r) in found for r in roots)


def split_check(f, chain):
    return product_of_linears(f.ctx, chain) == f


def recognition_run(f):
    cert = is_wedderburn(f)
    return cert, cert.recheck()


def recognition_check(f, inner, out):
    """recheck() passes, and the innermost factor's root and every root in
    the certificate are right roots."""
    cert, rechecked = out
    return rechecked is True and f.ctx.is_zero(evaluate(f, inner)) and all(
        f.ctx.is_zero(evaluate(f, r)) for r in cert.roots)


def metro_check(rep):
    return bool(rep.decided and rep.consistent
                and (not rep.solvable or rep.bridge_is_second_root))


def decide_ops(seed, stream="timed"):
    rng = rng_for("decide-infinite", seed, stream)
    hq = make_context("HQ")
    q = make_context("Q")
    qu = make_context("Qu", d_desc=("ddx",))
    qx = make_context("Qx", s_desc=("id",))
    while True:
        # Every block of five rounds holds each product degree 2..6 once,
        # so the mix (and with it ops_per_s) does not drift with the seed.
        degrees = [2, 3, 4, 5, 6]
        rng.shuffle(degrees)
        for deg in degrees:
            roots = [hq.random_element(rng) for _ in range(deg)]
            f = product_of_linears(hq, roots)
            yield Op("hq-recognition", str(f), lambda f=f: recognition_run(f),
                     lambda out, f=f, r=roots: recognition_check(f, r[0], out))
            qroots = [q.random_element(rng) for _ in range(deg)]
            g = product_of_linears(q, qroots)
            yield Op("q-split", str(g), lambda g=g: split(g),
                     lambda out, g=g: split_check(g, out))
            for kind, ctx in (("qu-riccati", qu), ("qx-bivariate", qx)):
                a = simple_element(ctx, rng)
                b = simple_element(ctx, rng)
                h = _linear(ctx, a) * _linear(ctx, b)
                yield Op(kind, str(h), lambda h=h: recognition_run(h),
                         lambda out, h=h, b=b: recognition_check(h, b, out))
            # Two metro ops per round put the median latency inside their
            # narrow band instead of in the gap between two op kinds.
            for _ in range(2):
                a, b = hq.random_element(rng), hq.random_element(rng)
                c = hq.random_element(rng, nonzero=True)
                problem = MetroProblem(hq, a, b, c)
                yield Op("hq-metro", f"a={a} b={b} c={c}",
                         lambda p=problem: metro_wedderburn_equivalence(p),
                         metro_check)


def decide_warmup_ops():
    """One round of decide-infinite ops on fixed inputs that the seeded
    generators never produce: each holds a coefficient beyond their
    ranges (HQ and Q components within 9, Q(x)/Q(u) numerator
    coefficients within 3), so sympy's cache cannot answer a timed op
    from the warm-up."""
    hq, q = make_context("HQ"), make_context("Q")
    roots = [parse_element(a, hq) for a in ("10+i", "-11+2j-k", "12+3i+k")]
    f = product_of_linears(hq, roots)
    yield Op("warmup", str(f), lambda: recognition_run(f),
             lambda out: recognition_check(f, roots[0], out))
    g = product_of_linears(q, [parse_element(a, q) for a in ("10", "-23/2")])
    yield Op("warmup", str(g), lambda: split(g),
             lambda out: split_check(g, out))
    for ctx, b in ((make_context("Qu", d_desc=("ddx",)), "u+11"),
                   (make_context("Qx", s_desc=("id",)), "x+11")):
        b = parse_element(b, ctx)
        h = _linear(ctx, parse_element("10", ctx)) * _linear(ctx, b)
        yield Op("warmup", str(h), lambda h=h: recognition_run(h),
                 lambda out, h=h, b=b: recognition_check(h, b, out))
    for a, b, c in (("10+i", "-10+j", "2+11k"), ("j-k", "12", "11i")):
        problem = MetroProblem(hq, *(parse_element(x, hq) for x in (a, b, c)))
        yield Op("warmup", f"a={a} b={b} c={c}",
                 lambda p=problem: metro_wedderburn_equivalence(p),
                 metro_check)


def hq_roots_probe(seed):
    """`right_root_report` on HQ products of 2-6 random linear factors,
    checked with the Gordon-Motzkin oracle.

    The numeric pre-filter of the quaternion root engine misses a root
    class on about 1 product in 100 (ROADMAP item 1), so these ops are not
    in the timed stream, whose ops must all succeed.  The traced run
    measures the miss on this stream instead and reports it as
    ``rootfind.hq_miss_ratio``.
    """
    rng = rng_for("decide-infinite", seed, "probe")
    hq = make_context("HQ")
    while True:
        degrees = [2, 3, 4, 5, 6]
        rng.shuffle(degrees)
        for deg in degrees:
            roots = [hq.random_element(rng) for _ in range(deg)]
            f = product_of_linears(hq, roots)
            yield Op("hq-roots", str(f), lambda f=f: right_root_report(f),
                     lambda out, f=f, r=roots: hq_roots_check(f, r, out))


# ---------------------------------------------------------------------------
# finite-exhaustive: lattices, exhaustive recognition and metro over F4/F8

def lattice_counts(ring, s_desc):
    """Expected (nodes, intervals, dependence triples).

    With S = id every subset of the field is a full set, so the lattice is
    Boolean on q points: 2^q nodes, 3^q intervals and 6^q triples.  The
    Frobenius counts are those of acceptance criterion 09.  An inner
    derivation is removed by the change of variable t' = t - d, so it does
    not change the counts.
    """
    q = 4 if ring == "F4" else 8
    if s_desc == ("id",):
        return 2 ** q, 3 ** q, 6 ** q
    return {"F4": (10, 36, 450), "F8": (32, 198, 19104)}[ring]


def lattice_contexts():
    """Every twist the CLI accepts on F4 and F8, except F8 with S = id.

    The untwisted F8 lattice (256 nodes) takes about a minute in one
    operation, longer than a whole run; the untwisted case stays covered
    by F4 with S = id.
    """
    out = []
    for ring, s_list in (("F4", (("id",), ("frob", 1))),
                         ("F8", (("frob", 1), ("frob", 2)))):
        w = make_context(ring).w
        for s_desc in s_list:
            for d_desc in (("zero",), ("inner", w)):
                out.append((ring, s_desc, d_desc,
                            make_context(ring, s_desc, d_desc)))
    return out


def lattice_run(ctx):
    fl = build_full_lattice(ctx)
    wl = build_w_lattice(ctx)
    return duality_check(fl, wl), modular_law_sweep(ctx)


def lattice_check(expected, out):
    report, (triples, violations) = out
    nodes, intervals, n_triples = expected
    return (report.ok and report.n_nodes == nodes
            and report.intervals_checked == intervals
            and triples == n_triples and violations == 0)


def wcert_check(f, cert):
    ctx = f.ctx
    return cert.recheck() is True and all(
        ctx.is_zero(evaluate(f, r)) for r in cert.roots)


def finite_pass(rng):
    """One pass over the whole exhaustive op set, interleaved so that each
    lattice operation comes with an equal share of the small operations."""
    f8 = make_context("F8")
    lattices = lattice_contexts()
    rng.shuffle(lattices)
    small = []
    for deg in range(5):
        for f in monic_polynomials(f8, deg):
            small.append(Op("f8-is-wedderburn", str(f),
                            lambda f=f: is_wedderburn(f),
                            lambda out, f=f: wcert_check(f, out)))
    for deg in range(4):
        for f in monic_polynomials(f8, deg):
            small.append(Op("f8-factor-theorem", str(f),
                            lambda f=f: factor_theorem_check(f),
                            lambda out: out.consistent))
    w = f8.w
    for d_desc in (("zero",), ("inner", w)):
        ctx = make_context("F8", d_desc=d_desc)
        elems = sorted(ctx.elements(), key=ctx.sort_key)
        for a, b, c in itertools.product(elems, elems, elems):
            if ctx.is_zero(c):
                continue
            problem = MetroProblem(ctx, a, b, c)
            small.append(Op("f8-metro", f"D={d_desc[0]} a={a} b={b} c={c}",
                            lambda p=problem: metro_wedderburn_equivalence(p),
                            metro_check))
    rng.shuffle(small)
    n = len(lattices)
    for i, (ring, s_desc, d_desc, ctx) in enumerate(lattices):
        expected = lattice_counts(ring, s_desc)
        chunk = small[i * len(small) // n:(i + 1) * len(small) // n]
        yield Op("lattice", f"{ring} S={s_desc} D={d_desc[0]}",
                 lambda ctx=ctx: lattice_run(ctx),
                 lambda out, e=expected: lattice_check(e, out))
        yield from chunk


def finite_ops(seed, stream="timed"):
    rng = rng_for("finite-exhaustive", seed, stream)
    while True:
        yield from finite_pass(rng)


def finite_warmup_ops():
    """Warm-up on F4 polynomials and the F3 lattice, none of them timed."""
    f4 = make_context("F4")
    for deg in range(3):
        for f in monic_polynomials(f4, deg):
            yield Op("warmup", f"F4 {f}", lambda f=f: factor_theorem_check(f),
                     lambda out: out.consistent)
    f3 = FiniteFieldContext.prime_field(3)
    yield Op("warmup", "F3 lattice", lambda: lattice_run(f3),
             lambda out: lattice_check((2 ** 3, 3 ** 3, 6 ** 3), out))


# ---------------------------------------------------------------------------
# cli-cold: fresh interpreter per command

def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli(root, argv, timeout=120):
    """One cold `python -m wpoly.cli` process; returns (code, stdout)."""
    proc = subprocess.run([sys.executable, "-m", "wpoly.cli", *argv],
                          cwd=root, env=cli_env(root), capture_output=True,
                          text=True, timeout=timeout)
    return proc.returncode, proc.stdout


def _text_value(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _json_result(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _sorted_strs(ctx, elems):
    return [str(a) for a in sorted(elems, key=ctx.sort_key)]


def cli_commands(seed, stream="timed"):
    """Endless command mix as (argv, expected) pairs.

    ``expected(code, stdout)`` recomputes the answer with the library on
    the same literals and compares it with what the process printed.
    Positional literals follow ``--`` because they may start with '-'.
    """
    rng = rng_for("cli-cold", seed, stream)
    f4, f8 = make_context("F4", ("id",)), make_context("F8", ("frob", 1))
    q, hq = make_context("Q"), make_context("HQ")
    qu = make_context("Qu", ("id",), ("ddx",))

    def poly_text(ctx, deg):
        coeffs = [ctx.random_element(rng) for _ in range(deg)] + [ctx.one]
        return str(SkewPolynomial(ctx, coeffs))

    while True:
        text, at = poly_text(f4, 3), str(f4.random_element(rng))
        yield (["eval", "--ring", "F4", "--", text, at],
               lambda code, out, t=text, a=at: code == 0 and _text_value(
                   out, "f(a) = ") == str(evaluate(
                       parse_polynomial(t, f4), parse_element(a, f4))))
        ftext, gtext = poly_text(q, 3), poly_text(q, 2)
        yield (["rgcd", "--ring", "Q", "--", ftext, gtext],
               lambda code, out, ft=ftext, gt=gtext: code == 0 and _text_value(
                   out, "rgcd = ") == str(rgcd_llcm(
                       parse_polynomial(ft, q), parse_polynomial(gt, q)).rgcd))
        elems = rng.sample(f8.elements(), 3)
        stext = ", ".join(str(a) for a in elems)
        yield (["minpoly", "--ring", "F8", "--S", "frob", "--", stext],
               lambda code, out, e=elems: code == 0 and _text_value(
                   out, "minimal polynomial = ") == str(
                       minimal_polynomial(f8, e).poly))
        roots = [q.random_element(rng) for _ in range(3)]
        ptext = str(product_of_linears(q, roots))
        yield (["roots", "--ring", "Q", "--json", "--", ptext],
               lambda code, out, p=ptext: code == 0 and _roots_match(
                   q, p, _json_result(out)))
        a, b = simple_element(qu, rng), simple_element(qu, rng)
        ptext = str(_linear(qu, a) * _linear(qu, b))
        yield (["roots", "--ring", "Qu", "--D", "ddx", "--json", "--", ptext],
               lambda code, out, p=ptext: code == 0 and _roots_match(
                   qu, p, _json_result(out)))
        hroots = [hq.random_element(rng) for _ in range(2)]
        ptext = str(product_of_linears(hq, hroots))
        yield (["is-wedderburn", "--ring", "HQ", "--json", "--", ptext],
               lambda code, out, p=ptext: code == 0 and _verdict_match(
                   hq, p, _json_result(out)))
        s_flag = rng.choice(["id", "frob"])
        yield (["lattice", "check", "--ring", "F4", "--S", s_flag, "--json"],
               lambda code, out, s=s_flag: code == 0 and _lattice_match(
                   s, _json_result(out)))
        text, at = poly_text(hq, 2), str(hq.random_element(rng))
        yield (["eval", "--ring", "HQ", "--json", "--", text, at],
               lambda code, out, t=text, a=at: code == 0 and (
                   _json_result(out) or {}).get("result", {}).get(
                       "value") == str(evaluate(parse_polynomial(t, hq),
                                                parse_element(a, hq))))


def _roots_match(ctx, ptext, doc):
    if not doc:
        return False
    report = right_root_report(parse_polynomial(ptext, ctx))
    return (doc["result"]["finite"] == report.finite
            and doc["result"]["roots"] == _sorted_strs(ctx, report.roots))


def _verdict_match(ctx, ptext, doc):
    if not doc:
        return False
    cert = is_wedderburn(parse_polynomial(ptext, ctx))
    return (doc["result"]["verdict"] == cert.verdict
            and doc["certificate"]["recheck"] is True)


def _lattice_match(s_flag, doc):
    if not doc:
        return False
    s_desc = ("id",) if s_flag == "id" else ("frob", 1)
    nodes, intervals, triples = lattice_counts("F4", s_desc)
    res = doc["result"]
    return (res["ok"] is True and res["nodes"] == nodes
            and res["intervals_checked"] == intervals
            and res["dependence_triples"] == triples)


def cli_ops(root, seed, stream="timed"):
    for argv, expected in cli_commands(seed, stream):
        yield Op(argv[0], " ".join(argv),
                 lambda argv=argv: run_cli(root, argv),
                 lambda out, e=expected: e(*out))


def batch_lines(seed, n_lines=40):
    """Cheap `eval` lines for one `wpoly batch` file, with their answers."""
    rng = rng_for("cli-cold", seed, "batch")
    rings = [(name, make_context(name, ("id",)))
             for name in ("F4", "F8", "Q", "HQ")]
    lines, answers = [], []
    for i in range(n_lines):
        name, ctx = rings[i % len(rings)]
        coeffs = [ctx.random_element(rng) for _ in range(3)] + [ctx.one]
        f = SkewPolynomial(ctx, coeffs)
        a = ctx.random_element(rng)
        lines.append(f"eval --ring {name} -- '{f}' '{a}'")
        answers.append(str(evaluate(f, a)))
    return lines, answers


def batch_check(stdout, answers):
    got = [line[len("f(a) = "):] for line in stdout.splitlines()
           if line.startswith("f(a) = ")]
    return got == answers


# ---------------------------------------------------------------------------

def op_stream(workload, seed, root, stream="timed"):
    if workload == "arith-infinite":
        return arith_ops(seed, stream)
    if workload == "decide-infinite":
        return decide_ops(seed, stream)
    if workload == "finite-exhaustive":
        return finite_ops(seed, stream)
    if workload == "cli-cold":
        return cli_ops(root, seed, stream)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_stream(workload, root):
    """Warm-up ops.  They are the same for every seed, so set-up cost does
    not vary with the seed, and they come from a stream of their own, so
    no timed op repeats one of them."""
    if workload == "finite-exhaustive":
        return finite_warmup_ops()
    if workload == "decide-infinite":
        return decide_warmup_ops()
    return op_stream(workload, "any", root, "warmup")
