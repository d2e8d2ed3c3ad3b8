"""Spans around the public functions of each wpoly layer, from outside.

Nothing under ``src/`` is edited: :func:`install` replaces every binding of
a traced function (in every loaded module that imported it by name, and
on the class for methods) with a wrapper that records a span.  Each span
holds its op id, span id, parent span id, name, start and end; spans stay
in memory and :meth:`Tracer.write_spans` writes them out when the run
ends.  Self time is a span's duration minus the time covered by its child
spans, kept exactly by a stack even for spans past the storage cap.

Cheap predicates (``__eq__``, ``__hash__``, ``is_zero``, ``__str__``) are
not wrapped: they are called far more often than they cost, and a wrapper
around them would mostly measure itself.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

SPAN_CAP = 100_000

_ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
          "inverse")

# (module, function, span name) for module-level functions
FUNCTIONS = [
    ("wpoly.skew", "rgcd_llcm", "skew.rgcd_llcm"),
    ("wpoly.evaluate", "evaluate", "evaluate.evaluate"),
    ("wpoly.evaluate", "conjugate", "evaluate.conjugate"),
    ("wpoly.evaluate", "lambda_matrix", "evaluate.lambda_matrix"),
    ("wpoly.algsets", "minimal_polynomial", "algsets.minimal_polynomial"),
    ("wpoly.algsets", "closure", "algsets.closure"),
    ("wpoly.rootfind", "rational_poly_roots", "rootfind.rational_poly_roots"),
    ("wpoly.rootfind", "central_factor_candidates",
     "rootfind.central_factor_candidates"),
    ("wpoly.rootfind", "quaternion_class_rep", "rootfind.quaternion_class_rep"),
    ("wpoly.rootfind", "ratfunc_classical_roots",
     "rootfind.ratfunc_classical_roots"),
    ("wpoly.rootfind", "derivation_quadratic_roots",
     "rootfind.derivation_quadratic_roots"),
    ("wpoly.wedderburn", "is_wedderburn", "wedderburn.is_wedderburn"),
    ("wpoly.wedderburn", "right_root_report", "wedderburn.right_root_report"),
    ("wpoly.wedderburn", "exponential_space", "wedderburn.exponential_space"),
    ("wpoly.wedderburn", "split", "wedderburn.split"),
    ("wpoly.wedderburn", "factor_theorem_check",
     "wedderburn.factor_theorem_check"),
    ("wpoly.lattices", "build_full_lattice", "lattices.build_full_lattice"),
    ("wpoly.lattices", "build_w_lattice", "lattices.build_w_lattice"),
    ("wpoly.lattices", "duality_check", "lattices.duality_check"),
    ("wpoly.lattices", "modular_law_sweep", "lattices.modular_law_sweep"),
    ("wpoly.metro", "solve_metro", "metro.solve_metro"),
    ("wpoly.metro", "metro_wedderburn_equivalence",
     "metro.metro_wedderburn_equivalence"),
    ("wpoly.parsing", "parse_element", "parsing"),
    ("wpoly.parsing", "parse_elements", "parsing"),
    ("wpoly.parsing", "parse_polynomial", "parsing"),
    ("wpoly.cli", "main", "cli.main"),
] + [("wpoly.linalg", fn, "linalg")
     for fn in ("rref", "rank", "kernel", "solve", "span_contains", "km_mul",
                "km_map", "km_add", "km_eq", "km_scale_cols_right",
                "km_invertible")]

# (module, class, methods, span name); a method is wrapped on every class
# of the module that defines it, so subclass overrides are traced too
METHODS = [
    ("wpoly.rings", "RatFunc", _ARITH + ("derivative", "subs_square",
                                         "subs_neg"), "rings.ratfunc"),
    ("wpoly.rings", "Quaternion", _ARITH + ("conjugate", "norm", "trace"),
     "rings.quaternion"),
    ("wpoly.rings", "FFElement", _ARITH, "rings.gf"),
    ("wpoly.rings", "DivisionRingContext",
     ("S", "D", "s_pow", "s_preimage", "inv"), "rings.twist"),
    ("wpoly.skew", "SkewPolynomial", ("__mul__",), "skew.mul"),
    ("wpoly.skew", "SkewPolynomial", ("right_divmod",), "skew.right_divmod"),
    ("wpoly.skew", "SkewPolynomial", ("left_divmod",), "skew.left_divmod"),
    ("wpoly.wedderburn", "WCertificate", ("recheck",), "wedderburn.recheck"),
]


def elem_bits(a):
    """Bit size of one coefficient: the largest numerator or denominator."""
    if isinstance(a, Fraction):
        return max(abs(a.numerator).bit_length(), a.denominator.bit_length())
    if isinstance(a, int):
        return abs(a).bit_length()
    if hasattr(a, "num") and hasattr(a, "den"):
        return max(elem_bits(c) for c in a.num + a.den)
    if hasattr(a, "components"):
        return max(elem_bits(c) for c in a.components())
    return a.code.bit_length()


def _poly_bits(p):
    return max((elem_bits(c) for c in p.coeffs), default=0)


class Tracer:
    def __init__(self):
        self.op_id = 0
        self.active = True          # off while an oracle checks an answer
        self.stack = []             # [span id, child seconds]
        self.next_id = 1
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()     # behind the ratios and maxima
        self.spans = []
        self.dropped = 0

    # -- recording --------------------------------------------------------
    def span(self, name, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((tracer.op_id, sid, parent, name, t0, t1))
                else:
                    tracer.dropped += 1
            if post is not None:
                h0 = perf_counter()
                post(tracer, result)
                if stack:
                    stack[-1][1] += perf_counter() - h0
            return result
        return wrapper

    def counter(self, fn, post):
        """Wrapper that only counts, for helpers inside a traced span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                post(tracer, result)
            return result
        return wrapper

    # -- output -----------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["op", "span", "parent", "name", "start",
                                  "end"],
                       "dropped": self.dropped, "spans": self.spans}, handle)


# post-call hooks for the counts behind the per-layer ratios

def _right_divmod_post(tr, res):
    tr.counts["skew.right_divmod.exact"] += res[1].is_zero()


def _left_divmod_post(tr, res):
    tr.counts["skew.left_divmod.exact"] += res is not None and res[1].is_zero()


def _rgcd_post(tr, res):
    key = "skew.rgcd_llcm.cofactor_bits_max"
    tr.counts[key] = max(tr.counts[key], _poly_bits(res.u), _poly_bits(res.v))


def _metro_post(tr, rep):
    tr.counts["metro.decided"] += bool(rep.decided)


def _duality_post(tr, rep):
    tr.counts["lattices.nodes"] += rep.n_nodes
    tr.counts["lattices.intervals_checked"] += rep.intervals_checked


def _candidates_post(tr, result):
    tr.counts["rootfind.candidates"] += len(result)


def _class_hits_post(tr, result):
    tr.counts["rootfind.class_hits"] += len(result)


POSTS = {
    "skew.right_divmod": _right_divmod_post,
    "skew.left_divmod": _left_divmod_post,
    "skew.rgcd_llcm": _rgcd_post,
    "metro.metro_wedderburn_equivalence": _metro_post,
    "lattices.duality_check": _duality_post,
}


def _rebind(original, replacement):
    """Point every module-level binding of ``original`` at the wrapper."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def install(tracer):
    """Wrap every traced function and method for the rest of the process."""
    import wpoly.cli  # noqa: F401  (the CLI imports every layer)
    for modname, fname, name in FUNCTIONS:
        original = getattr(sys.modules[modname], fname)
        _rebind(original, tracer.span(name, original, POSTS.get(name)))
    for modname, fname, post in (
            ("wpoly.rootfind", "quaternion_candidate_classes", _candidates_post),
            ("wpoly.wedderburn", "_quaternion_root_classes", _class_hits_post)):
        original = getattr(sys.modules[modname], fname)
        _rebind(original, tracer.counter(original, post))
    for modname, clsname, methods, name in METHODS:
        module = sys.modules[modname]
        base = getattr(module, clsname)
        for cls in vars(module).values():
            if not (isinstance(cls, type) and issubclass(cls, base)):
                continue
            for meth in methods:
                if meth in cls.__dict__:
                    setattr(cls, meth, tracer.span(name, cls.__dict__[meth],
                                                   POSTS.get(name)))


def layer_metrics(tracer):
    """The per-layer figures of one traced pass, keyed by metric name."""
    out = {}
    span_names = sorted({name for _, _, name in FUNCTIONS}
                        | {name for *_, name in METHODS})
    for name in span_names:
        if name in ("lattices.build_full_lattice", "lattices.build_w_lattice",
                    "lattices.duality_check", "lattices.modular_law_sweep"):
            out[f"{name}.self_ms"] = (tracer.self_s[name] * 1e3, "ms")
            continue
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.self_ms"] = (tracer.self_s[name] * 1e3, "ms")
    c = tracer.counts
    out["skew.right_divmod.exact_ratio"] = (
        _ratio(c["skew.right_divmod.exact"], tracer.calls["skew.right_divmod"]),
        "ratio")
    out["skew.left_divmod.exact_ratio"] = (
        _ratio(c["skew.left_divmod.exact"], tracer.calls["skew.left_divmod"]),
        "ratio")
    out["skew.rgcd_llcm.cofactor_bits_max"] = (
        c["skew.rgcd_llcm.cofactor_bits_max"], "bits")
    out["rootfind.class_hit_ratio"] = (
        _ratio(c["rootfind.class_hits"], c["rootfind.candidates"]), "ratio")
    out["lattices.nodes"] = (c["lattices.nodes"], "count")
    out["lattices.intervals_checked"] = (c["lattices.intervals_checked"],
                                         "count")
    out["metro.decided_ratio"] = (
        _ratio(c["metro.decided"],
               tracer.calls["metro.metro_wedderburn_equivalence"]), "ratio")
    return out


def _ratio(num, den):
    return num / den if den else 0.0
