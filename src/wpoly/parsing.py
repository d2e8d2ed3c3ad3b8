"""Text forms of ring elements and skew polynomial literals.

One reader serves both.  An element is an expression in `+ - * / ^`,
parentheses and juxtaposition over numbers and the symbols of the
context (`w` in the finite fields, the variable in the rational function
fields, `i j k` for quaternions).  A slash directly between two integer
literals lexes as a single rational number, so `-1/2k` reads as
(-1/2)*k, exactly what the printers emit; elsewhere `/` is ordinary
division.  A polynomial is the single literal `0` or a sequence of terms
`[coeff]`, `[coeff]*t^k` and `t^k`, each after a run of signs (optional
before the first term; each `-` negates).  A coefficient is an element
read up to the first `]`, so brackets avoid any ambiguity between `it`
and `[i]*t`.  Terms may appear in any order and repeated powers
accumulate.  Every exponent is a nonnegative integer literal.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import ParseError, WrongRingError
from .skew import SkewPolynomial

_SYMBOLS = set("+-*/^()[]")
_KNOWN_ATOMS = frozenset("wxuijk")
_Token = namedtuple("_Token", "kind value pos")


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            if j + 1 < n and text[j] == "/" and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                den = int(text[j + 1:k])
                if den == 0:
                    raise ParseError("zero denominator in rational literal", j + 1)
                toks.append(_Token("num", Fraction(num, den), i))
                i = k
            else:
                toks.append(_Token("num", Fraction(num), i))
                i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            toks.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return toks


def _atoms_for(ctx):
    kind = ctx.kind
    if kind == "GF":
        return {"w": ctx.w} if ctx.k > 1 else {}
    if kind == "QV":
        return {ctx.variable: ctx.x}
    if kind == "HQ":
        return {"i": ctx.i, "j": ctx.j, "k": ctx.k}
    return {}


def _embed(ctx, q, pos):
    num = ctx.from_int(q.numerator)
    if q.denominator == 1:
        return num
    den = ctx.from_int(q.denominator)
    if ctx.is_zero(den):
        raise ParseError(f"denominator {q.denominator} vanishes in {ctx.name}", pos)
    return num * ctx.inv(den)


class _ElementReader:
    """Recursive-descent reader over the tokens of one literal."""

    def __init__(self, ctx, text, what):
        self.toks = _tokenize(text)
        if not self.toks:
            raise ParseError(f"empty {what} literal", 0)
        self.ctx = ctx
        self.i = 0
        self.hi = len(self.toks)
        self.text_len = len(text)
        self.atoms = _atoms_for(ctx)

    def peek(self):
        return self.toks[self.i] if self.i < self.hi else None

    def advance(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def take(self, kind, value=None):
        """Consume the next token if it has this kind (and value)."""
        tok = self.peek()
        hit = tok is not None and tok.kind == kind and value in (None, tok.value)
        if hit:
            self.i += 1
        return hit

    def here(self):
        tok = self.peek()
        return tok.pos if tok is not None else self.text_len

    def element(self, hi, trailing):
        """expr() over the tokens before `hi`, which it must use up."""
        self.hi = hi
        try:
            value = self.expr()
        except ZeroDivisionError:
            raise ParseError("division by zero", self.here()) from None
        if self.i != hi:
            raise ParseError(trailing, self.here())
        self.hi = len(self.toks)
        return value

    def expr(self):
        tok = self.peek()
        negate = False
        if tok is not None and tok.kind in "+-":
            negate = tok.kind == "-"
            self.advance()
        value = self.term()
        if negate:
            value = -value
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in "+-":
                return value
            self.advance()
            rhs = self.term()
            value = value - rhs if tok.kind == "-" else value + rhs

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is None:
                return value
            if tok.kind == "*":
                self.advance()
                value = value * self.factor()
            elif tok.kind == "/":
                self.advance()
                pos = self.here()
                rhs = self.factor()
                if self.ctx.is_zero(rhs):
                    raise ParseError("division by zero", pos)
                value = value * self.ctx.inv(rhs)
            elif tok.kind in ("num", "ident", "("):
                value = value * self.factor()
            else:
                return value

    def factor(self):
        base = self.atom()
        e = self.exponent()
        if e == 1:
            return base
        out = self.ctx.one
        for _ in range(e):
            out = out * base
        return out

    def exponent(self):
        """The nonnegative integer after an optional '^'; 1 without one."""
        if not self.take("^"):
            return 1
        tok = self.advance()
        if tok is None or tok.kind != "num" or tok.value.denominator != 1:
            raise ParseError("exponent must be a nonnegative integer",
                             tok.pos if tok else self.text_len)
        return tok.value.numerator

    def atom(self):
        tok = self.advance()
        if tok is None:
            raise ParseError("unexpected end of input", self.text_len)
        if tok.kind == "num":
            return _embed(self.ctx, tok.value, tok.pos)
        if tok.kind == "ident":
            if tok.value in self.atoms:
                return self.atoms[tok.value]
            if tok.value in _KNOWN_ATOMS:
                raise WrongRingError(
                    f"symbol {tok.value!r} is not defined in {self.ctx.name}",
                    tok.pos)
            raise ParseError(f"unknown symbol {tok.value!r}", tok.pos)
        if tok.kind == "(":
            value = self.expr()
            close = self.advance()
            if close is None or close.kind != ")":
                raise ParseError("missing closing parenthesis",
                                 close.pos if close else self.text_len)
            return value
        raise ParseError(f"unexpected {tok.kind!r}", tok.pos)

    def monomial(self):
        """One term `[coeff]`, `[coeff]*t^k`, `[coeff]t^k` or `t^k`."""
        tok = self.peek()
        if self.take("ident", "t"):
            return self.ctx.one, self.exponent()
        if tok.kind != "[":
            raise ParseError("expected a bracketed coefficient or t", tok.pos)
        close = next((k for k in range(self.i, self.hi)
                      if self.toks[k].kind == "]"), None)
        if close is None:
            raise ParseError("missing closing bracket", self.text_len)
        if close == self.i + 1:
            raise ParseError("empty coefficient brackets", tok.pos)
        self.advance()
        coeff = self.element(close, "trailing input inside coefficient")
        self.advance()
        star = self.take("*")
        if self.take("ident", "t"):
            return coeff, self.exponent()
        if star:
            raise ParseError("expected t after '*'", self.here())
        return coeff, 0


def parse_element(text, ctx):
    """Read one ring element; raises ParseError on malformed input and
    WrongRingError when a single-letter symbol belongs to another ring."""
    reader = _ElementReader(ctx, text, "element")
    return reader.element(len(reader.toks), "trailing input after element")


def parse_elements(text, ctx):
    """Comma-separated list of elements; an empty string is the empty list."""
    if not text.strip():
        return []
    return [parse_element(piece, ctx) for piece in text.split(",")]


def parse_polynomial(text, ctx):
    """Read a skew polynomial literal; the grammar is in the module
    docstring, and coefficient brackets are mandatory."""
    reader = _ElementReader(ctx, text, "polynomial")
    toks = reader.toks
    if len(toks) == 1 and toks[0].kind == "num" and toks[0].value == 0:
        return SkewPolynomial.zero(ctx)
    acc = {}
    while True:
        negate = False
        while reader.peek() is not None and reader.peek().kind in "+-":
            negate ^= reader.advance().kind == "-"
        if reader.peek() is None:
            raise ParseError("dangling sign at end of polynomial", len(text))
        coeff, power = reader.monomial()
        if negate:
            coeff = -coeff
        acc[power] = acc[power] + coeff if power in acc else coeff
        tok = reader.peek()
        if tok is None:
            break
        if tok.kind not in "+-":
            raise ParseError("expected '+' or '-' between terms", tok.pos)
    coeffs = tuple(acc.get(p, ctx.zero) for p in range(max(acc) + 1))
    return SkewPolynomial(ctx, coeffs)
