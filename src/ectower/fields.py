"""Exact arithmetic: rationals, prime fields F_p, and extensions F_{p^k} in polynomial basis.

Every value is immutable and every operation is a pure function, so the whole
module is safe for concurrent use.  There is no floating point anywhere:
rationals are kept in lowest terms with a positive denominator, residues are
reduced into [0, p), and extension elements are coefficient vectors of exact
length k over F_p.

Primality and irreducibility are certified by brute force (trial division,
exhaustive root and factor search) under the configured field-size cap.
"""

import itertools
import math

from .config import DEFAULT_CAPS
from .errors import BoundExceeded, DivisionByZero, MixedFields, UnsupportedField


class Rational:
    """Fraction of arbitrary-precision integers, always normalized.

    Invariants: gcd(|num|, den) == 1, den > 0, zero is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if den == 0:
            raise DivisionByZero("rational with zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Rational is immutable")

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, Rational):
            return other
        if isinstance(other, int):
            return cls(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Rational(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Rational(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Rational(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num == 0:
            raise DivisionByZero("division by zero rational")
        return Rational(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return Rational(-self.num, self.den)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den < o.num * self.den

    def __le__(self, other):
        return self == other or self < other

    def __hash__(self):
        # consistent with __eq__ against plain integers
        if self.den == 1:
            return hash(self.num)
        return hash((self.num, self.den))

    def __bool__(self):
        return self.num != 0

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return "%d/%d" % (self.num, self.den)

    def __repr__(self):
        return "Rational(%d, %d)" % (self.num, self.den)

    @classmethod
    def parse(cls, text):
        """Parse 'n' or 'n/d' with decimal integers."""
        parts = text.strip().split("/")
        if len(parts) == 1:
            return cls(int(parts[0]))
        if len(parts) == 2:
            return cls(int(parts[0]), int(parts[1]))
        raise ValueError("not a rational: %r" % text)


def is_prime(n):
    """Trial-division primality check, exact at desk scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over F_p; polynomials are int tuples, constant term first


def poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return poly_trim(out)


def poly_mod(f, m, p):
    """Remainder of f modulo the monic polynomial m."""
    r = list(f)
    dm = len(m) - 1
    while len(r) - 1 >= dm and poly_trim(r):
        lead = r[-1] % p
        shift = len(r) - 1 - dm
        if lead:
            for i in range(dm + 1):
                r[shift + i] = (r[shift + i] - lead * m[i]) % p
        r.pop()
    return poly_trim(r)


def poly_eval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def poly_ext_gcd(a, b, p):
    """Extended gcd over F_p[x]: returns (g, s, t) with s*a + t*b = g, g monic or zero."""
    r0, r1 = poly_trim(a), poly_trim(b)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, poly_mul(q, s1, p), p)
        t0, t1 = t1, _poly_sub(t0, poly_mul(q, t1, p), p)
    if r0:
        inv = pow(r0[-1], p - 2, p)
        r0 = tuple(c * inv % p for c in r0)
        s0 = tuple(c * inv % p for c in s0)
        t0 = tuple(c * inv % p for c in t0)
    return r0, s0, t0


def _poly_sub(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out[i] = (a - b) % p
    return poly_trim(out)


def _poly_divmod(f, g, p):
    if not g:
        raise DivisionByZero("polynomial division by zero")
    r = list(f)
    dg = len(g) - 1
    ginv = pow(g[-1], p - 2, p)
    q = [0] * max(len(f) - dg, 0)
    while len(r) - 1 >= dg and poly_trim(r):
        lead = r[-1] * ginv % p
        shift = len(r) - 1 - dg
        if lead:
            q[shift] = lead
            for i in range(dg + 1):
                r[shift + i] = (r[shift + i] - lead * g[i]) % p
        r.pop()
    return poly_trim(q), poly_trim(r)


def is_irreducible(coeffs, p):
    """Exhaustive irreducibility check for a monic polynomial over F_p.

    Degree 1 is always irreducible; otherwise the polynomial must have no
    roots and no monic factor of degree 2..deg/2.
    """
    f = poly_trim(coeffs)
    k = len(f) - 1
    if k < 1:
        return False
    if f[-1] != 1:
        raise ValueError("modulus must be monic")
    if k == 1:
        return True
    for x in range(p):
        if poly_eval(f, x, p) == 0:
            return False
    for d in range(2, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = tuple(tail) + (1,)
            _, rem = _poly_divmod(f, g, p)
            if not rem:
                return False
    return True


def find_irreducible(p, k, caps=DEFAULT_CAPS):
    """First monic irreducible of degree k over F_p in base-p counter order.

    The k non-leading coefficients run through 0, 1, ..., p^k - 1 encoded
    base p with the constant term least significant, so the choice is
    deterministic and reproducible across runs.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if k < 1:
        raise ValueError("degree must be >= 1")
    if p**k > caps.field_size:
        raise BoundExceeded("p^k = %d exceeds cap %d" % (p**k, caps.field_size))
    for m in range(p**k):
        tail = []
        v = m
        for _ in range(k):
            tail.append(v % p)
            v //= p
        f = tuple(tail) + (1,)
        if is_irreducible(f, p):
            return f
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# fields


class Field:
    """Common surface of the three exact fields."""

    def element(self, value):
        return FieldElement(self, self._coerce(value))

    @property
    def zero(self):
        return self.element(0)

    @property
    def one(self):
        return self.element(1)

    def elements(self):
        raise UnsupportedField("cannot enumerate an infinite field")

    @property
    def is_finite(self):
        return self.size is not None


class RationalField(Field):
    """The field of exact rationals."""

    characteristic = 0
    size = None

    def _coerce(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise MixedFields("element of %r given to %r" % (value.field, self))
            return value.value
        if isinstance(value, Rational):
            return value
        if isinstance(value, int):
            return Rational(value)
        if isinstance(value, str):
            return Rational.parse(value)
        raise TypeError("cannot coerce %r into Q" % (value,))

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero in Q")
        return Rational(a.den, a.num)

    def _sort_key(self, a):
        return (a.num, a.den)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


QQ = RationalField()


class PrimeField(Field):
    """F_p for a prime p certified by trial division."""

    __slots__ = ("p",)

    def __init__(self, p, caps=DEFAULT_CAPS):
        if not isinstance(p, int) or p < 2:
            raise ValueError("modulus must be an integer >= 2")
        if p > caps.field_size:
            raise BoundExceeded("p = %d exceeds cap %d" % (p, caps.field_size))
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        self.p = p

    @property
    def characteristic(self):
        return self.p

    @property
    def size(self):
        return self.p

    def _coerce(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise MixedFields("element of %r given to %r" % (value.field, self))
            return value.value
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            return int(value) % self.p
        raise TypeError("cannot coerce %r into F_%d" % (value, self.p))

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def _sort_key(self, a):
        return a

    def elements(self):
        for v in range(self.p):
            yield self.element(v)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "F_%d" % self.p


class ExtField(Field):
    """F_{p^k} as F_p[x] modulo a certified-irreducible monic polynomial.

    Elements are coefficient tuples of exact length k, constant term first.
    """

    __slots__ = ("base", "degree", "modulus")

    def __init__(self, base, degree, modulus=None, caps=DEFAULT_CAPS):
        if not isinstance(base, PrimeField):
            raise ValueError("base must be a prime field")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        # p >= 2, so a degree of the cap's bit length or more exceeds the cap
        # for every p; testing that first keeps p**degree small
        if degree >= caps.field_size.bit_length() or base.p**degree > caps.field_size:
            raise BoundExceeded(
                "p^k = %d^%d exceeds cap %d" % (base.p, degree, caps.field_size)
            )
        if modulus is None:
            modulus = find_irreducible(base.p, degree, caps)
        modulus = tuple(int(c) % base.p for c in modulus)
        if len(modulus) != degree + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree %d" % degree)
        if not is_irreducible(modulus, base.p):
            raise ValueError("modulus %r is reducible over F_%d" % (modulus, base.p))
        self.base = base
        self.degree = degree
        self.modulus = modulus

    @property
    def characteristic(self):
        return self.base.p

    @property
    def size(self):
        return self.base.p**self.degree

    def _pad(self, coeffs):
        c = list(coeffs)[: self.degree]
        return tuple(c + [0] * (self.degree - len(c)))

    def _coerce(self, value):
        p = self.base.p
        if isinstance(value, FieldElement):
            if value.field != self:
                raise MixedFields("element of %r given to %r" % (value.field, self))
            return value.value
        if isinstance(value, int):
            return self._pad([value % p])
        if isinstance(value, (list, tuple)):
            if len(value) > self.degree:
                raise ValueError("coefficient vector longer than degree")
            return self._pad([int(c) % p for c in value])
        raise TypeError("cannot coerce %r into %r" % (value, self))

    def _add(self, a, b):
        p = self.base.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.base.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _mul(self, a, b):
        p = self.base.p
        return self._pad(poly_mod(poly_mul(a, b, p), self.modulus, p))

    def _neg(self, a):
        p = self.base.p
        return tuple((-x) % p for x in a)

    def _inv(self, a):
        p = self.base.p
        if not poly_trim(a):
            raise DivisionByZero("inverse of zero in %r" % self)
        g, s, _ = poly_ext_gcd(a, self.modulus, p)
        if g != (1,):
            raise ArithmeticError("modulus not irreducible")  # ruled out at init
        return self._pad(poly_mod(s, self.modulus, p))

    def _sort_key(self, a):
        return a

    def embed(self, value):
        """Embed an F_p residue (or F_p element) as a constant vector."""
        if isinstance(value, FieldElement):
            if value.field != self.base:
                raise MixedFields("can only embed elements of %r" % self.base)
            value = value.value
        return self.element([value])

    def elements(self):
        for tail in itertools.product(range(self.base.p), repeat=self.degree):
            yield self.element(list(tail))

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.base == self.base
            and other.degree == self.degree
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("Fpk", self.base.p, self.degree, self.modulus))

    def __repr__(self):
        return "F_%d^%d" % (self.base.p, self.degree)


class FieldElement:
    """Immutable element of one of the three exact fields."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _raw(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise MixedFields(
                    "operands from different fields: %r and %r"
                    % (self.field, other.field)
                )
            return other.value
        return self.field._coerce(other)

    def __add__(self, other):
        return FieldElement(self.field, self.field._add(self.value, self._raw(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.field, self.field._sub(self.value, self._raw(other)))

    def __rsub__(self, other):
        return FieldElement(self.field, self.field._sub(self._raw(other), self.value))

    def __mul__(self, other):
        return FieldElement(self.field, self.field._mul(self.value, self._raw(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        raw = self._raw(other)
        return FieldElement(
            self.field, self.field._mul(self.value, self.field._inv(raw))
        )

    def __rtruediv__(self, other):
        raw = self._raw(other)
        return FieldElement(
            self.field, self.field._mul(raw, self.field._inv(self.value))
        )

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.value))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return (self ** (-n)).inverse()
        acc = self.field.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self):
        return FieldElement(self.field, self.field._inv(self.value))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        try:
            raw = self.field._coerce(other)
        except (TypeError, ValueError, MixedFields):
            return NotImplemented
        return self.value == raw

    def __hash__(self):
        """Over Q, the hash of the Rational, so agreeing with == on plain ints.

        Over F_p and F_{p^k}, == with a plain int compares modulo p (F_5's 1
        equals 6), which no hash can follow; those hash with their field.
        """
        if isinstance(self.value, Rational):
            return hash(self.value)
        return hash((self.field, self.value))

    def __bool__(self):
        return self.value != self.field._coerce(0)

    def sort_key(self):
        return self.field._sort_key(self.value)

    def __repr__(self):
        return "%r(%s)" % (self.field, self.value)
