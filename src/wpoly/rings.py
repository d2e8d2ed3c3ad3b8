"""Division-ring coefficient contexts and their exact element types.

Four coefficient rings are supported: the rationals, small finite fields
GF(p^k) with table-driven arithmetic, rational functions over Q in one
variable, and rational quaternions.  A context bundles one of these rings
with a ring endomorphism S and an S-derivation D obeying the twisted
Leibniz rule D(a*b) = S(a)*D(b) + D(a)*b.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import gcd as _igcd, isqrt, lcm

from .errors import CapabilityMissingError, ContextMismatchError

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# dense univariate polynomials, ascending coefficients, no trailing zeros;
# () is the zero polynomial.  The ip_* helpers take int coefficients.

def qp_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def ip_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return qp_trim(out)


def ip_sub(a, b):
    return ip_add(a, tuple(-v for v in b))


def ip_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _qp_to_int(a):
    """Scale a Fraction tuple to a primitive integer list."""
    scale = lcm(*(c.denominator for c in a))
    return _ip_primitive([c.numerator * (scale // c.denominator) for c in a])


def _ip_pseudo_rem(a, b):
    """Pseudo-remainder of integer polynomial a by nonzero b."""
    a = list(a)
    lb = b[-1]
    db = len(b)
    while len(a) >= db:
        c = a.pop()
        if lb != 1:
            a = [lb * v for v in a]
        k = len(a) - db + 1
        for i in range(db - 1):
            a[k + i] -= c * b[i]
        while a and a[-1] == 0:
            a.pop()
    return a


def _ip_primitive(a):
    g = _igcd(*a)
    return [v // g for v in a] if g > 1 else a


def _ip_exact_div(a, b):
    """a / b for nonzero integer polynomials when b divides a in Z[x], else
    None."""
    a = list(a)
    lb = b[-1]
    db = len(b)
    n = len(a) - db + 1
    if n <= 0:
        return None
    q = [0] * n
    for k in range(n - 1, -1, -1):
        c, r = divmod(a[k + db - 1], lb)
        if r:
            return None
        if c:
            q[k] = c
            for i in range(db - 1):
                a[k + i] -= c * b[i]
    return None if any(a[:db - 1]) else tuple(q)


def _ip_eval(a, xi):
    v = 0
    for c in reversed(a):
        v = v * xi + c
    return v


def _ip_balanced_digits(v, xi):
    """The integer polynomial h with h(xi) = v and |coefficients| <= xi/2."""
    out = []
    half = xi // 2
    while v:
        d = v % xi
        if d > half:
            d -= xi
        out.append(d)
        v = (v - d) // xi
    return out


def _ip_prs_gcd(a, b):
    """Primitive gcd of two nonzero integer polynomials, by a primitive PRS."""
    a, b = _ip_primitive(a), _ip_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _ip_pseudo_rem(a, b)
        if b:
            b = _ip_primitive(b)
    return tuple(a)


def ip_gcd(a, b):
    """``(g, a/g, b/g)`` for nonzero integer polynomials a and b, where g is
    their primitive gcd (of arbitrary sign) and both cofactors lie in Z[x].

    GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput. 7, 1989): with a', b'
    the primitive parts, take gamma = igcd(a'(xi), b'(xi)) and read g as the
    primitive part of gamma's balanced base-xi digits.  g is accepted only
    when exact division over Z shows that it divides a and b; the quotients
    are the cofactors.  Starting from xi = 2 min(|a'|, |b'|) + 2 (max-norms)
    an accepted g is the gcd, not merely a common divisor: a root of any
    common factor has modulus below xi/2, so a missing factor q of degree
    >= 1 would have |q(xi)| > xi/2 >= the content of the digits, which q(xi)
    divides.  xi grows after a rejected g; after six tries the primitive
    PRS decides.
    """
    if len(a) == 1 or len(b) == 1:
        return (1,), a, b
    ca, cb = _igcd(*a), _igcd(*b)
    xi = 2 * min(max(map(abs, a)) // ca, max(map(abs, b)) // cb) + 2
    for _ in range(6):
        va, vb = _ip_eval(a, xi) // ca, _ip_eval(b, xi) // cb
        if va and vb:
            g = _ip_balanced_digits(_igcd(va, vb), xi)
            if len(g) == 1:
                return (1,), a, b
            g = _ip_primitive(g)
            qa = _ip_exact_div(a, g)
            if qa is not None:
                qb = _ip_exact_div(b, g)
                if qb is not None:
                    return tuple(g), qa, qb
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    g = _ip_prs_gcd(a, b)
    return g, _ip_exact_div(a, g), _ip_exact_div(b, g)


def ip_deriv(a):
    return tuple(a[i] * i for i in range(1, len(a)))


def ip_neg_x(a):
    """a(-x)."""
    return tuple(c if i % 2 == 0 else -c for i, c in enumerate(a))


def ip_up2(a):
    """a(x^2)."""
    if not a:
        return ()
    out = [0] * (2 * len(a) - 1)
    out[::2] = a
    return tuple(out)


def _term_str(coeff, var, power):
    if power == 0:
        return str(coeff)
    v = var if power == 1 else f"{var}^{power}"
    if coeff == 1:
        return v
    if coeff == -1:
        return "-" + v
    return f"{coeff}{v}"


def qp_str(a, var):
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        s = _term_str(c, var, i)
        if not parts:
            parts.append(s)
        elif s.startswith("-"):
            parts.append("-" + s[1:])
        else:
            parts.append("+" + s)
    out = parts[0]
    for p in parts[1:]:
        out += p
    return out


# ---------------------------------------------------------------------------
# rational functions over Q

def _rf(inum, iden, var):
    """A RatFunc from integer tuples already in canonical form."""
    r = object.__new__(RatFunc)
    r.inum, r.iden, r.var = inum, iden, var
    return r


def _content_free(inum, iden):
    """inum/iden, coprime over Q, without integer content and with a
    positive leading denominator coefficient."""
    c = _igcd(*inum, *iden)
    if iden[-1] < 0:
        c = -c
    if c != 1:
        inum = tuple(v // c for v in inum)
        iden = tuple(v // c for v in iden)
    return inum, iden


def _canonical(inum, iden):
    """The canonical form of inum/iden, integer tuples with inum trimmed
    and iden nonzero."""
    if not inum:
        return (), (1,)
    _, inum, iden = ip_gcd(inum, iden)
    return _content_free(inum, iden)


def _rf_reduce(inum, iden, var):
    return _rf(*_canonical(inum, iden), var)


def _rf_signed(inum, iden, var):
    """A RatFunc from coprime integer tuples without common content."""
    if iden[-1] < 0:
        inum, iden = tuple(-v for v in inum), tuple(-v for v in iden)
    return _rf(inum, iden, var)


class RatFunc:
    """A rational function over Q in canonical form.

    ``inum`` and ``iden`` are integer coefficient tuples (ascending) that
    are coprime, share no integer content, and give ``iden`` a positive
    leading coefficient; zero is ()/(1,).  The form is unique, so equality
    and hashing compare the tuples.  The variable name is part of the
    value, so Q(x) and Q(u) do not mix.  ``+`` and ``*`` reduce each
    result with gcds of parts of their operands (Henrici), not with one
    gcd of the unreduced result.
    """

    __slots__ = ("inum", "iden", "var")

    def __init__(self, num, den=(1,), var="x"):
        num = [Fraction(c) for c in num]
        den = [Fraction(c) for c in den]
        scale = lcm(*(c.denominator for c in num + den))
        num = qp_trim(c.numerator * (scale // c.denominator) for c in num)
        den = qp_trim(c.numerator * (scale // c.denominator) for c in den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.inum, self.iden = _canonical(num, den)
        self.var = var

    @classmethod
    def const(cls, q, var="x"):
        q = Fraction(q)
        return _rf((q.numerator,) if q else (), (q.denominator,), var)

    @classmethod
    def gen(cls, var="x"):
        return _rf((0, 1), (1,), var)

    @property
    def num(self):
        """Numerator over the monic denominator, as Fractions."""
        lc = self.iden[-1]
        return tuple(Fraction(c, lc) for c in self.inum)

    @property
    def den(self):
        """The monic denominator, as Fractions."""
        lc = self.iden[-1]
        return tuple(Fraction(c, lc) for c in self.iden)

    def _coerced(self, other):
        if not isinstance(other, RatFunc):
            return None
        if other.var != self.var:
            raise ContextMismatchError("rational functions in different variables")
        return other

    def is_zero(self):
        return not self.inum

    def __bool__(self):
        return bool(self.inum)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.inum == other.inum and self.iden == other.iden
                and self.var == other.var)

    def __hash__(self):
        return hash((self.var, self.inum, self.iden))

    # Henrici's cancellation (Knuth, TAOCP vol. 2, 4.5.1): the gcds are
    # taken on the operands' parts, which are smaller than the results'
    def __add__(self, other):
        if self._coerced(other) is None:
            return NotImplemented
        a, b, c, d = self.inum, self.iden, other.inum, other.iden
        if not a:
            return other
        if not c:
            return self
        # a/b + c/d = (a d1 + c b1) / (b1 d1 g) with g = gcd(b, d), which is
        # b when b == d; only a factor of g can be common to the two parts
        g, b1, d1 = (b, (1,), (1,)) if b == d else ip_gcd(b, d)
        num = ip_add(ip_mul(a, d1), ip_mul(c, b1))
        if not num:
            return _rf((), (1,), self.var)
        if len(g) > 1:
            _, num, g = ip_gcd(num, g)
        return _rf(*_content_free(num, ip_mul(ip_mul(b1, d1), g)), self.var)

    def __sub__(self, other):
        if self._coerced(other) is None:
            return NotImplemented
        return self + -other

    def __neg__(self):
        return _rf(tuple(-v for v in self.inum), self.iden, self.var)

    def __mul__(self, other):
        if self._coerced(other) is None:
            return NotImplemented
        a, b, c, d = self.inum, self.iden, other.inum, other.iden
        if not a or not c:
            return _rf((), (1,), self.var)
        _, a, d = ip_gcd(a, d)
        _, c, b = ip_gcd(c, b)
        return _rf(*_content_free(ip_mul(a, c), ip_mul(b, d)), self.var)

    def __truediv__(self, other):
        if self._coerced(other) is None:
            return NotImplemented
        return self * other.inverse()

    def inverse(self):
        if not self.inum:
            raise ZeroDivisionError("inverse of zero rational function")
        return _rf_signed(self.iden, self.inum, self.var)

    def derivative(self):
        n, d = self.inum, self.iden
        if len(d) == 1:
            return _rf_reduce(ip_deriv(n), d, self.var)
        return _rf_reduce(ip_sub(ip_mul(ip_deriv(n), d), ip_mul(n, ip_deriv(d))),
                          ip_mul(d, d), self.var)

    # x -> x^2 and x -> -x keep numerator and denominator coprime (apply
    # the substitution to a Bezout identity) and keep their content
    def subs_square(self):
        """r(x) -> r(x^2)."""
        return _rf(ip_up2(self.inum), ip_up2(self.iden), self.var)

    def subs_neg(self):
        """r(x) -> r(-x)."""
        return _rf_signed(ip_neg_x(self.inum), ip_neg_x(self.iden), self.var)

    def __str__(self):
        if not self.inum:
            return "0"
        ns = qp_str(self.num, self.var)
        if len(self.iden) == 1:
            return ns
        if len([c for c in self.inum if c]) > 1:
            ns = f"({ns})"
        return f"{ns}/({qp_str(self.den, self.var)})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# small finite fields GF(p^k), table arithmetic

_FIELDS = {}


def gf_field(p, k, modulus):
    """The one field object of GF(p^k) for a monic modulus, which is read
    mod p: two spellings of one modulus give the same object."""
    key = (p, k, tuple(int(c) % p for c in modulus))
    if key not in _FIELDS:
        _FIELDS[key] = _GFField(*key)
    return _FIELDS[key]


class _GFField:
    """GF(p^k) with its elements interned, one FFElement per integer code.

    ``elems[c]`` is the element of code c, whose base-p digits are its
    coordinates on 1, w, ..., w^(k-1).  The tables ``add``, ``neg``, ``mul``
    and ``inv`` are indexed by codes and hold the interned result elements.
    """

    def __init__(self, p, k, modulus):
        q = p ** k
        if q > 256:
            raise CapabilityMissingError("table-driven finite fields capped at 256 elements")
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        self.p, self.k, self.q, self.modulus = p, k, q, modulus
        self.key = (p, k, modulus)

        def decode(code):
            digits = []
            for _ in range(k):
                digits.append(code % p)
                code //= p
            return digits

        def encode(digits):
            code = 0
            for d in reversed(digits):
                code = code * p + (d % p)
            return code

        self.decode = decode

        def reduce(poly):
            poly = [c % p for c in poly]
            while len(poly) > k:
                lead = poly.pop()
                if lead:
                    shift = len(poly) - k
                    for i in range(k):
                        poly[shift + i] = (poly[shift + i] - lead * modulus[i]) % p
            while len(poly) < k:
                poly.append(0)
            return poly

        elems = self.elems = [FFElement(self, code) for code in range(q)]
        self.add = [[elems[encode([(x + y) % p for x, y in zip(decode(a), decode(b))])]
                     for b in range(q)] for a in range(q)]
        self.neg = [elems[encode([(-x) % p for x in decode(a)])] for a in range(q)]

        mul = self.mul = []
        for a in range(q):
            da = decode(a)
            row = []
            for b in range(q):
                db = decode(b)
                prod = [0] * (2 * k - 1 if k > 1 else 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(db):
                            prod[i + j] += x * y
                row.append(elems[encode(reduce(prod))])
            mul.append(row)

        one = elems[1]
        self.inv = [elems[0]]
        for a in range(1, q):
            for b in elems[1:]:
                if mul[a][b.code] is one:
                    self.inv.append(b)
                    break
            else:
                raise ValueError("modulus is not irreducible")


class FFElement:
    """An element of a table-driven finite field.

    Elements are interned in their field's ``elems`` and one field object
    exists per modulus, so equality is identity; arithmetic between two
    field objects raises.  The hash reads the field key and the code.
    """

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    def _check(self, other):
        if not isinstance(other, FFElement):
            return None
        if other.field is not self.field:
            raise ContextMismatchError("elements from different finite fields")
        return other

    def __add__(self, other):
        if self._check(other) is None:
            return NotImplemented
        return self.field.add[self.code][other.code]

    def __sub__(self, other):
        if self._check(other) is None:
            return NotImplemented
        field = self.field
        return field.add[self.code][field.neg[other.code].code]

    def __neg__(self):
        return self.field.neg[self.code]

    def __mul__(self, other):
        if self._check(other) is None:
            return NotImplemented
        return self.field.mul[self.code][other.code]

    def __truediv__(self, other):
        if self._check(other) is None:
            return NotImplemented
        return self * other.inverse()

    def inverse(self):
        if self.code == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.field.inv[self.code]

    def is_zero(self):
        return self.code == 0

    def __bool__(self):
        return self.code != 0

    def __hash__(self):
        return hash((self.field.key, self.code))

    def __str__(self):
        digits = self.field.decode(self.code)
        if not any(digits):
            return "0"
        parts = []
        for i in range(len(digits) - 1, -1, -1):
            if digits[i] == 0:
                continue
            s = _term_str(digits[i], "w", i)
            parts.append(("+" + s) if parts and not s.startswith("-") else s)
        return "".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# rational quaternions

def _lowest(nums, den):
    """An int 4-tuple over a positive int denominator, in lowest terms."""
    g = _igcd(*nums, den)
    if g == 1:
        return nums, den
    return tuple(v // g for v in nums), den // g


def _quat(nums, den):
    """A Quaternion from a 4-tuple and denominator already in lowest terms."""
    q = object.__new__(Quaternion)
    q.nums, q.den = nums, den
    return q


class Quaternion:
    """A quaternion with rational components a + b*i + c*j + d*k.

    Stored as the ints ``nums = (a, b, c, d)`` over one positive common
    denominator ``den``, in lowest terms, so equal quaternions have equal
    fields.
    """

    __slots__ = ("nums", "den")

    def __init__(self, a, b=0, c=0, d=0):
        parts = [Fraction(v) for v in (a, b, c, d)]
        den = lcm(*(p.denominator for p in parts))
        self.nums, self.den = _lowest(
            tuple(p.numerator * (den // p.denominator) for p in parts), den)

    def __add__(self, o):
        if not isinstance(o, Quaternion):
            return NotImplemented
        m, n = self.den, o.den
        if m == n:
            return _quat(*_lowest(tuple(x + y for x, y in zip(self.nums, o.nums)), m))
        return _quat(*_lowest(tuple(x * n + y * m for x, y in zip(self.nums, o.nums)),
                              m * n))

    def __sub__(self, o):
        if not isinstance(o, Quaternion):
            return NotImplemented
        m, n = self.den, o.den
        if m == n:
            return _quat(*_lowest(tuple(x - y for x, y in zip(self.nums, o.nums)), m))
        return _quat(*_lowest(tuple(x * n - y * m for x, y in zip(self.nums, o.nums)),
                              m * n))

    def __neg__(self):
        return _quat(tuple(-v for v in self.nums), self.den)

    def __mul__(self, o):
        if not isinstance(o, Quaternion):
            return NotImplemented
        a1, b1, c1, d1 = self.nums
        a2, b2, c2, d2 = o.nums
        return _quat(*_lowest((
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        ), self.den * o.den))

    def __truediv__(self, o):
        if not isinstance(o, Quaternion):
            return NotImplemented
        return self * o.inverse()

    def conjugate(self):
        a, b, c, d = self.nums
        return _quat((a, -b, -c, -d), self.den)

    def norm(self):
        a, b, c, d = self.nums
        return Fraction(a * a + b * b + c * c + d * d, self.den * self.den)

    def trace(self):
        return Fraction(2 * self.nums[0], self.den)

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero quaternion")
        # conj(nums)/den divided by n
        a, b, c, d = self.nums
        m = n.denominator
        return _quat(*_lowest((a * m, -b * m, -c * m, -d * m),
                              self.den * n.numerator))

    def is_zero(self):
        return not any(self.nums)

    def __bool__(self):
        return any(self.nums)

    def is_central(self):
        return not any(self.nums[1:])

    def components(self):
        """(a, b, c, d) as Fractions."""
        den = self.den
        return tuple(Fraction(v, den) for v in self.nums)

    def __eq__(self, o):
        if not isinstance(o, Quaternion):
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __str__(self):
        parts = []
        for coeff, unit in zip(self.components(), ("", "i", "j", "k")):
            if coeff == 0:
                continue
            if unit:
                s = _term_str(coeff, unit, 1)
            else:
                s = str(coeff)
            parts.append(("+" + s) if parts and not s.startswith("-") else s)
        return "".join(parts) if parts else "0"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# contexts

class DivisionRingContext:
    """A coefficient division ring together with (S, D).

    Subclasses fill in the ring-specific pieces; shared capability flags and
    derivation dispatch live here.  Contexts compare equal by configuration,
    which is what the polynomial layer uses to reject mixed operands.

    ``key`` is that configuration, (kind, ring parameters, S, D), set once
    construction has normalized an inner derivation that vanishes to D = 0.
    """

    kind = "?"
    commutative = True
    finite = False
    base_dim = None   # dimension over the central base field, None if infinite
    base = None       # unit of that base field, whose elements are coordinates

    def __init__(self, s_desc, d_desc):
        self.s_desc = s_desc
        self.d_desc = d_desc
        self._validate()
        if (d_desc[0] == "inner" and self.s_is_identity
                and (self.commutative or d_desc[1].is_central())):
            # d*a - S(a)*d = d*a - a*d vanishes identically for central d
            self.d_desc = ("zero",)
        if self.d_desc[0] != "zero":
            self._check_sd_samples()
        self.key = (self.kind, self._ring_params(), self.s_desc, self.d_desc)

    # -- identity -----------------------------------------------------------
    def _ring_params(self):
        return ()

    def __eq__(self, other):
        return isinstance(other, DivisionRingContext) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"<context {self.describe()}>"

    @cached_property
    def twin(self):
        """The same ring and S with D = 0, built on first use."""
        return self._rebuild(self.s_desc, ("zero",))

    @cached_property
    def opposite(self):
        """K[t; S^-1, D o S^-1], onto which a -> conj(a), t -> -t is an
        anti-isomorphism (Ore 1933); built on first use."""
        s_desc, d_desc = self.s_desc, self.d_desc
        if s_desc[0] == "frob":
            s_desc = ("frob", -s_desc[1] % self.k)
        elif not self.s_is_identity:  # left roots are searched in this ring
            raise CapabilityMissingError(
                f"no left-root search over {self.describe()}")
        if d_desc[0] == "inner":
            d_desc = ("inner", -self.conj(d_desc[1]))
        return self._rebuild(s_desc, d_desc)

    def _rebuild(self, s_desc, d_desc):
        """A new context on the same ring, under its name, with S and D."""
        ctx = type(self)(*self._ring_params(), s_desc, d_desc)
        ctx.name = self.name
        return ctx

    def describe(self):
        s = {"id": "S=id", "frob": f"S=frob^{self.s_desc[1]}" if len(self.s_desc) > 1 else "S=frob",
             "xsq": "S=x->x^2"}[self.s_desc[0]]
        dkind = self.d_desc[0]
        if dkind == "zero":
            d = "D=0"
        elif dkind == "ddx":
            d = "D=d/d" + self.variable
        else:
            d = f"D=inner({self.d_desc[1]})"
        return f"{self.name} [{s}, {d}]"

    # -- ring-specific hooks --------------------------------------------------
    def _validate(self):
        pass

    def from_int(self, n):
        raise NotImplementedError

    def inv(self, a):
        return a.inverse()

    def conj(self, a):
        """The conjugation anti-automorphism, trivial when K is commutative."""
        return a

    def is_zero(self, a):
        return a == self.zero

    def elements(self):
        """Every element of a finite ring, in sort_key order."""
        raise CapabilityMissingError(f"{self.name} is not finitely enumerable")

    def sort_key(self, a):
        """A total order key making element listings deterministic."""
        raise NotImplementedError

    def random_element(self, rng, nonzero=False):
        raise NotImplementedError

    # -- S and D ---------------------------------------------------------------
    @property
    def s_is_identity(self):
        return self.s_desc[0] == "id"

    def S(self, a):
        if self.s_desc[0] == "id":
            return a
        return self._apply_s(a)

    def s_pow(self, a, m):
        for _ in range(m):
            a = self.S(a)
        return a

    def D(self, a):
        kind = self.d_desc[0]
        if kind == "zero":
            return self.zero
        if kind == "inner":
            d = self.d_desc[1]
            return d * a - self.S(a) * d
        return self._apply_ddx(a)

    def s_image_contains(self, a):
        if self.s_desc[0] in ("id", "frob"):
            return True
        return self.s_preimage(a) is not None

    def s_preimage(self, a):
        """An element b with S(b) = a, or None when a is outside S(K)."""
        raise NotImplementedError

    def _apply_s(self, a):
        raise CapabilityMissingError("no nontrivial endomorphism on this ring")

    def _apply_ddx(self, a):
        raise CapabilityMissingError("formal derivative unavailable on this ring")

    # -- base-field vectorization ----------------------------------------------
    def to_vec(self, a):
        raise CapabilityMissingError(f"{self.name} has no finite central base dimension")

    def from_vec(self, vec):
        raise CapabilityMissingError(f"{self.name} has no finite central base dimension")

    def base_units(self):
        """The elements whose base-field coordinates are the unit vectors."""
        if self.base_dim is None:
            raise CapabilityMissingError(
                f"{self.name} is not finite dimensional over a central subfield")
        one = self.base
        zero = one - one
        return [self.from_vec([one if i == m else zero
                               for i in range(self.base_dim)])
                for m in range(self.base_dim)]

    def base_matrix(self, fn):
        """Base-field matrix of an additive map fn: K -> K; column m holds
        the coordinates of fn(e_m)."""
        cols = [self.to_vec(fn(e)) for e in self.base_units()]
        return [list(row) for row in zip(*cols)]

    # -- construction-time sanity -----------------------------------------------
    def _sample_elements(self):
        raise NotImplementedError

    def _check_sd_samples(self):
        samples = self._sample_elements()
        for a in samples:
            for b in samples:
                lhs = self.D(a * b)
                rhs = self.S(a) * self.D(b) + self.D(a) * b
                if lhs != rhs:
                    raise ValueError("D does not satisfy the twisted Leibniz rule")


class RationalContext(DivisionRingContext):
    kind = "Q"
    name = "Q"
    base_dim = 1
    base = _F1
    zero = _F0
    one = _F1

    def __init__(self, s_desc=("id",), d_desc=("zero",)):
        super().__init__(s_desc, d_desc)

    def _validate(self):
        if self.s_desc[0] != "id":
            raise CapabilityMissingError("only the identity endomorphism exists on Q")
        if self.d_desc[0] == "ddx":
            raise CapabilityMissingError("no formal derivative on Q")

    def from_int(self, n):
        return Fraction(n)

    def inv(self, a):
        return 1 / a

    def s_preimage(self, a):
        return a

    def sort_key(self, a):
        return a

    def to_vec(self, a):
        return (a,)

    def from_vec(self, vec):
        return Fraction(vec[0])

    def random_element(self, rng, nonzero=False):
        while True:
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if a or not nonzero:
                return a

    def _sample_elements(self):
        return [Fraction(n, d) for n in (-2, 0, 1, 3) for d in (1, 2)]


class FiniteFieldContext(DivisionRingContext):
    kind = "GF"
    commutative = True
    finite = True

    def __init__(self, p, k, modulus, s_desc=("frob", 1), d_desc=("zero",), name=None):
        self.field = gf_field(p, k, modulus)
        self.p, self.k = p, k
        self.base_dim = k
        self.name = name or f"GF({p}^{k})"
        elems = self.field.elems
        self.zero = elems[0]
        self.one = self.base = elems[1 % self.field.q]
        if s_desc == ("id",):
            s_desc = ("frob", 0)
        if s_desc[0] != "frob":
            raise CapabilityMissingError("finite fields support Frobenius powers only")
        # S = frob^e: a -> a^(p^e), and its inverse, as tables indexed by
        # code; position c of the inverse holds the element S sends to code c
        mul = self.field.mul
        s_table = []
        for a in elems:
            r = self.one
            for _ in range(p ** (s_desc[1] % k)):
                r = mul[r.code][a.code]
            s_table.append(r)
        self._s_table = s_table
        self._s_inverse = sorted(elems, key=lambda a: s_table[a.code].code)
        super().__init__(s_desc, d_desc)

    @classmethod
    def F4(cls, s_desc=("frob", 1), d_desc=("zero",)):
        return cls(2, 2, (1, 1, 1), s_desc, d_desc, name="F4")

    @classmethod
    def F8(cls, s_desc=("frob", 1), d_desc=("zero",)):
        return cls(2, 3, (1, 1, 0, 1), s_desc, d_desc, name="F8")

    @classmethod
    def prime_field(cls, p, s_desc=("frob", 0), d_desc=("zero",)):
        return cls(p, 1, (0, 1), s_desc, d_desc, name=f"F{p}")

    def _ring_params(self):
        return self.field.key

    def _validate(self):
        if self.d_desc[0] == "ddx":
            raise CapabilityMissingError("no formal derivative on a finite field")

    @property
    def w(self):
        if self.k < 2:
            raise ValueError("prime field has no generator symbol")
        return self.field.elems[self.field.p]

    def from_int(self, n):
        return self.field.elems[n % self.p]

    def elements(self):
        return list(self.field.elems)

    def sort_key(self, a):
        return a.code

    def random_element(self, rng, nonzero=False):
        lo = 1 if nonzero else 0
        return self.field.elems[rng.randint(lo, self.field.q - 1)]

    @property
    def s_is_identity(self):
        return self.s_desc[1] % self.k == 0

    def _apply_s(self, a):
        return self._s_table[a.code]

    def s_preimage(self, a):
        return self._s_inverse[a.code]

    def to_vec(self, a):
        # digit d is the element of code d of the prime subfield
        elems = self.field.elems
        return tuple(elems[d] for d in self.field.decode(a.code))

    def from_vec(self, vec):
        code = 0
        for v in reversed(vec):
            code = code * self.p + v.code
        return self.field.elems[code]

    def _sample_elements(self):
        return self.elements()


class RatFuncContext(DivisionRingContext):
    kind = "QV"

    def __init__(self, variable="x", s_desc=("id",), d_desc=("zero",)):
        self.variable = variable
        self.name = f"Q({variable})"
        self.zero = RatFunc.const(0, variable)
        self.one = RatFunc.const(1, variable)
        super().__init__(s_desc, d_desc)

    def _ring_params(self):
        return (self.variable,)

    def _validate(self):
        if self.s_desc[0] not in ("id", "xsq"):
            raise CapabilityMissingError("rational functions support id or x->x^2 only")
        if self.d_desc[0] == "ddx" and self.s_desc[0] != "id":
            raise CapabilityMissingError("the formal derivative is a derivation only for S=id")

    @property
    def x(self):
        return RatFunc.gen(self.variable)

    def from_int(self, n):
        return RatFunc.const(n, self.variable)

    def sort_key(self, a):
        return (len(a.inum), len(a.iden), a.num, a.den)

    def random_element(self, rng, nonzero=False):
        while True:
            num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            den = [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
            if not any(den):
                den = [1]
            a = RatFunc(num, den, self.variable)
            if a or not nonzero:
                return a

    def _apply_s(self, a):
        return a.subs_square()

    def _apply_ddx(self, a):
        return a.derivative()

    def s_preimage(self, a):
        if self.s_desc[0] == "id":
            return a
        # r lies in the image of x -> x^2 iff r(x) = r(-x); normalize to an
        # even denominator and test the numerator
        dneg = ip_neg_x(a.iden)
        num = ip_mul(a.inum, dneg)
        if any(num[1::2]):
            return None
        return _rf_reduce(num[::2], ip_mul(a.iden, dneg)[::2], self.variable)

    def _sample_elements(self):
        x = self.x
        one = self.one
        return [one, x, x * x + one, one / (x + one), self.zero + RatFunc.const(Fraction(-2, 3), self.variable)]


class QuaternionContext(DivisionRingContext):
    kind = "HQ"
    name = "HQ"
    commutative = False
    base_dim = 4
    base = _F1
    zero = Quaternion(0)
    one = Quaternion(1)

    def __init__(self, s_desc=("id",), d_desc=("zero",)):
        super().__init__(s_desc, d_desc)

    def _validate(self):
        if self.s_desc[0] != "id":
            raise CapabilityMissingError("only the identity endomorphism is offered on HQ")
        if self.d_desc[0] == "ddx":
            raise CapabilityMissingError("no formal derivative on HQ")

    @property
    def i(self):
        return Quaternion(0, 1)

    @property
    def j(self):
        return Quaternion(0, 0, 1)

    @property
    def k(self):
        return Quaternion(0, 0, 0, 1)

    def from_int(self, n):
        return Quaternion(n)

    def conj(self, a):
        return a.conjugate()

    def s_preimage(self, a):
        return a

    def to_vec(self, a):
        return a.components()

    def from_vec(self, vec):
        return Quaternion(*vec)

    def sort_key(self, a):
        return a.components()

    def random_element(self, rng, nonzero=False):
        while True:
            a = Quaternion(*[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4)])
            if a or not nonzero:
                return a

    def _sample_elements(self):
        return [Quaternion(1), Quaternion(0, 1), Quaternion(0, 0, 1),
                Quaternion(0, 0, 0, 1), Quaternion(Fraction(1, 2), -1, 0, 2)]


# ---------------------------------------------------------------------------

_RING_BUILDERS = {
    "Q": RationalContext,
    "F4": FiniteFieldContext.F4,
    "F8": FiniteFieldContext.F8,
    "Qx": partial(RatFuncContext, "x", s_desc=("xsq",)),
    "Qu": partial(RatFuncContext, "u", d_desc=("ddx",)),
    "HQ": QuaternionContext,
}


def make_context(ring, s_desc=None, d_desc=None):
    """Build a context from a short ring tag and optional (S, D) descriptors."""
    try:
        builder = _RING_BUILDERS[ring]
    except KeyError:
        raise ValueError(f"unknown ring tag {ring!r}") from None
    kwargs = {}
    if s_desc is not None:
        kwargs["s_desc"] = s_desc
    if d_desc is not None:
        kwargs["d_desc"] = d_desc
    return builder(**kwargs)
