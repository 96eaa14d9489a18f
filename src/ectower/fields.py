"""Exact arithmetic: prime fields F_p and extensions F_{p^k} in polynomial basis.

Every value is an immutable config.Record, the fields too, and every
operation is a pure function.  There is no floating point anywhere:
residues are reduced into [0, p), and extension elements are coefficient
vectors of exact length k over F_p.  Q lives in ectower.rationals, and
Rational, RationalField and QQ resolve from there on first use (PEP 562), so
an F_q process never compiles Q.

Primality and irreducibility are certified by brute force (trial division,
exhaustive root and factor search) under the configured field-size cap.
"""

import itertools
import operator
import re

from .config import DEFAULT_CAPS, Record
from .errors import BoundExceeded, DivisionByZero, MixedFields, UnsupportedField, quote


def __getattr__(name):
    if name in ("Rational", "RationalField", "QQ"):
        from . import rationals
        return getattr(rationals, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


_DECIMAL = re.compile("-?[0-9]+")


def parse_decimal(text):
    """The integer an ASCII decimal string -?[0-9]+ spells; nothing else int() reads."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError("%s is not an integer" % quote(text))
    return int(text)


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


def poly_eval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _poly_divmod(f, g, p):
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


def require_within_cap(p, k, caps):
    """Refuse p^k over the field-size cap (BoundExceeded), never forming p**k for a huge k.

    p >= 2, so a degree of the cap's bit length or more exceeds the cap for
    every p; testing that first keeps p**k small.
    """
    if k >= caps.field_size.bit_length() or p**k > caps.field_size:
        raise BoundExceeded("p^k = %d^%d exceeds cap %d" % (p, k, caps.field_size))


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
    require_within_cap(p, k, caps)
    # product varies its last entry fastest, so the reversed tails run in counter order
    for tail in itertools.product(range(p), repeat=k):
        f = tail[::-1] + (1,)
        if is_irreducible(f, p):
            return f
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# fields


def per_field(K, key, build):
    """build(), computed once per field object and key, and kept with the field.

    Any finite field keeps its Tonelli-Shanks constants (Field._sqrt), its
    enumeration tables (curves), its realized curve per (a, b), each E[m]
    basis per (a, b, m) and the E[m] it spans (towers); F_p also keeps one
    extension per degree and a_p per (a, b) (towers).  The store is a dict
    in the field's own __dict__ (Field declares no __slots__): it dies with
    the field object, an equal field built again or a copy or pickle of the
    field builds its own, and nothing kept crosses commands.
    """
    store = vars(K).setdefault("_kept", {})
    if key not in store:
        store[key] = build()
    return store[key]


class Field(Record):
    """Common surface of the three exact fields; what per_field keeps is not compared or copied."""

    base = None  # the prime field under an extension

    def element(self, value):
        """value as an element of this field; the one place that takes a FieldElement.

        An element of an extension's prime field is taken as a constant.
        """
        if isinstance(value, FieldElement):
            if value.field == self:
                return value
            if value.field != self.base:
                raise MixedFields("element of %r given to %r" % (value.field, self))
            value = value.value
        return FieldElement(self, self._coerce(value))

    @property
    def zero(self):
        return self.element(0)

    @property
    def one(self):
        return self.element(1)

    def elements(self):
        """Every element of a finite field, in ascending sort key."""
        for value in self._values():
            yield FieldElement(self, value)

    def _values(self):
        """The raw values behind elements(), in the same order."""
        raise UnsupportedField("cannot enumerate an infinite field")

    @property
    def is_finite(self):
        return self.size is not None

    def _sort_key(self, a):
        return a

    def _chord_tangent(self, a, P, Q):
        """P + Q on y^2 = x^3 + a*x + b for affine raw points, None for O.

        The affine chord-tangent law (Washington, Elliptic Curves, 2.2) through
        this field's _add, _sub, _mul, _inv and _neg, for Q and F_{p^k} with
        k = 1 or k >= 5; F_p and F_{p^k}, k = 2, 3, 4, override it with the
        same law in plain ints.
        """
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if y1 != y2 or y1 == self._neg(y1):
                return None
            num = self._add(self._mul(self._coerce(3), self._mul(x1, x1)), a)
            lam = self._mul(num, self._inv(self._mul(self._coerce(2), y1)))
        else:
            lam = self._mul(self._sub(y2, y1), self._inv(self._sub(x2, x1)))
        x3 = self._sub(self._sub(self._mul(lam, lam), x1), x2)
        return (x3, self._sub(self._mul(lam, self._sub(x1, x3)), y1))

    def _pow(self, a, n):
        """a^n for n >= 0 on raw values, by square-and-multiply."""
        acc = self._coerce(1)
        while n:
            if n & 1:
                acc = self._mul(acc, a)
            n >>= 1
            if n:
                a = self._mul(a, a)
        return acc

    def _square_values(self):
        """x^2 for each raw x in _values order, streamed; F_p and F_{p^2} override both kernels."""
        for x in self._values():
            yield self._mul(x, x)

    def _cubic_values(self, a, b):
        """x^3 + a*x + b for every raw x, in _values order: the sweep kernel of enumeration."""
        for x in self._values():
            yield self._add(self._mul(self._add(self._mul(x, x), a), x), b)

    def _non_residue(self):
        """The first non-square value of a finite field of odd order, in _values order.

        For even k the first p values c*u, u = (0, ..., 0, 1), are in u's square class, as
        N(c*u) = c^k N(u) and 0 is a square, so one test decides them.
        """
        values = self._values()
        if getattr(self, "degree", 1) % 2 == 0:
            u = (0,) * (self.degree - 1) + (1,)
            if not self._is_square(u):
                return u
            values = itertools.islice(values, self.base.p, None)
        for z in values:
            if not self._is_square(z):
                return z
        raise ArithmeticError("a field of odd order has non-squares")

    def _tonelli_shanks(self):
        """(s, t, z^t) with q - 1 = 2^s * t, t odd, and z the first non-square."""
        s, t = 0, self.size - 1
        while t % 2 == 0:
            s, t = s + 1, t // 2
        return s, t, self._pow(self._non_residue(), t)

    def _sqrt(self, a):
        """A square root of a raw value a, or None when a is not a square.

        Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number
        Theory, 1.5.1) in a finite field of odd order q = 2^s * t + 1, t odd,
        with z a non-square: x = a^((t+1)/2) is a root up to the 2-power
        part b = a^t, which each step clears with a power of z^t.  a is a
        non-square exactly when b has order 2^s.  (s, t, z^t) are kept with
        the field; x = w*a and b = x*w from one power w = a^((t-1)/2).
        """
        one = self._coerce(1)
        if a == self._coerce(0):
            return a
        s, t, c = per_field(self, "tonelli_shanks", self._tonelli_shanks)
        w = self._pow(a, t // 2)
        x = self._mul(w, a)
        b = self._mul(x, w)
        while b != one:
            i, d = 0, b
            while d != one:
                d = self._mul(d, d)
                i += 1
                if i == s:
                    return None
            g = c
            for _ in range(s - i - 1):
                g = self._mul(g, g)
            x = self._mul(x, g)
            c = self._mul(g, g)
            b = self._mul(b, c)
            s = i
        return x


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
        Record.__init__(self, p)

    @property
    def characteristic(self):
        return self.p

    @property
    def size(self):
        return self.p

    def _coerce(self, value):
        if isinstance(value, int):
            return value % self.p
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

    def _chord_tangent(self, a, P, Q):
        """Field._chord_tangent on plain ints, with one inversion by Fermat."""
        p = self.p
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if y1 != y2 or not y1:
                return None
            lam = (3 * x1 * x1 + a) * pow(2 * y1, p - 2, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return (x3, (lam * (x1 - x3) - y1) % p)

    def _is_square(self, a):
        """Whether a is 0 or a square, by Euler's criterion: a^((p-1)/2) is 0 or 1."""
        return pow(a, self.p // 2, self.p) < 2

    def _values(self):
        return range(self.p)

    def _square_values(self):
        p = self.p
        return (x * x % p for x in range(p))

    def _cubic_values(self, a, b):
        p = self.p
        return (((x * x + a) * x + b) % p for x in range(p))

    def _random(self, rng):
        """A uniformly drawn value, from a random.Random."""
        return rng.randrange(self.p)

    def __repr__(self):
        return "F_%d" % self.p


class ExtField(Field):
    """F_{p^k} as F_p[x] modulo a certified-irreducible monic polynomial f.

    Elements are coefficient tuples of exact length k, constant term first.
    Products fold degrees j >= k back through the rows x^j mod f; inverses
    use the norm, by Itoh-Tsujii through the Frobenius matrix, and the
    square test the norm's Legendre symbol.
    """

    __slots__ = ("base", "degree", "modulus", "_rows", "_law", "_frobenius_rows")
    _compared = ("base", "degree", "modulus")

    def __init__(self, base, degree, modulus=None, caps=DEFAULT_CAPS):
        if not isinstance(base, PrimeField):
            raise ValueError("base must be a prime field")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        require_within_cap(base.p, degree, caps)
        p = base.p
        if modulus is None:
            modulus = find_irreducible(p, degree, caps)
        else:
            if any(type(c) is not int for c in modulus):
                raise TypeError("modulus %s has a non-integer entry" % quote(modulus))
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != degree + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree %d" % degree)
            if not is_irreducible(modulus, p):
                raise ValueError("modulus %r is reducible over F_%d" % (modulus, p))
        # x^j mod f for j = k..2k-2; x^(j+1) is x^j shifted up, its top folded by x^k
        top = tuple(-c % p for c in modulus[:-1])
        rows = [top]
        for _ in range(degree - 2):
            r = rows[-1]
            rows.append(tuple((s + r[-1] * t) % p for s, t in zip((0,) + r[:-1], top)))
        law = None
        if degree != 2:
            from .ext34 import chord_tangent_3_4 as law
        # _mul reads these, so they are stored before the Frobenius columns are formed
        values = (base, degree, modulus, tuple(rows[: degree - 1]), law)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        # column i of the Frobenius matrix is (x^i)^p = (x^p)^i
        columns = [(1,) + (0,) * (degree - 1)]
        if degree > 1:
            xp = (FieldElement(self, (0, 1) + (0,) * (degree - 2)) ** p).value
            while len(columns) < degree:
                columns.append(self._mul(columns[-1], xp))
        object.__setattr__(self, "_frobenius_rows", tuple(zip(*columns)))

    @property
    def characteristic(self):
        return self.base.p

    @property
    def size(self):
        return self.base.p**self.degree

    def _coerce(self, value):
        p = self.base.p
        if isinstance(value, int):
            return (value % p,) + (0,) * (self.degree - 1)
        if isinstance(value, (list, tuple)) and len(value) > self.degree:
            raise ValueError("coefficient vector longer than degree")
        if not isinstance(value, (list, tuple)) or not all(isinstance(c, int) for c in value):
            raise TypeError("cannot coerce %r into %r" % (value, self))
        return tuple([c % p for c in value] + [0] * (self.degree - len(value)))

    def _add(self, a, b):
        """a + b; unrolled for k = 2, as is _neg."""
        p = self.base.p
        if self.degree == 2:
            (a0, a1), (b0, b1) = a, b
            return ((a0 + b0) % p, (a1 + b1) % p)
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def _sub(self, a, b):
        p = self.base.p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def _mul(self, a, b):
        """a*b; the convolution and its folds are unrolled for k = 2, 3 and 4."""
        p = self.base.p
        k = self.degree
        if k == 2:
            (a0, a1), (b0, b1), ((r0, r1),) = a, b, self._rows
            h = a1 * b1
            return ((a0 * b0 + h * r0) % p, (a0 * b1 + a1 * b0 + h * r1) % p)
        if k == 3:
            (a0, a1, a2), (b0, b1, b2) = a, b
            (r0, r1, r2), (s0, s1, s2) = self._rows
            c3 = a1 * b2 + a2 * b1
            c4 = a2 * b2
            return (
                (a0 * b0 + c3 * r0 + c4 * s0) % p,
                (a0 * b1 + a1 * b0 + c3 * r1 + c4 * s1) % p,
                (a0 * b2 + a1 * b1 + a2 * b0 + c3 * r2 + c4 * s2) % p,
            )
        if k == 4:
            (a0, a1, a2, a3), (b0, b1, b2, b3) = a, b
            (r0, r1, r2, r3), (s0, s1, s2, s3), (t0, t1, t2, t3) = self._rows
            c4 = a1 * b3 + a2 * b2 + a3 * b1
            c5 = a2 * b3 + a3 * b2
            c6 = a3 * b3
            return (
                (a0 * b0 + c4 * r0 + c5 * s0 + c6 * t0) % p,
                (a0 * b1 + a1 * b0 + c4 * r1 + c5 * s1 + c6 * t1) % p,
                (a0 * b2 + a1 * b1 + a2 * b0 + c4 * r2 + c5 * s2 + c6 * t2) % p,
                (a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + c4 * r3 + c5 * s3 + c6 * t3) % p,
            )
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for c, row in zip(prod[k:], self._rows):
            if c:
                for i, r in enumerate(row):
                    prod[i] += c * r
        return tuple([c % p for c in prod[:k]])

    def _frobenius(self, a):
        """a^p, which is linear over F_p: the Frobenius matrix times a."""
        p = self.base.p
        return tuple([sum(map(operator.mul, a, row)) % p for row in self._frobenius_rows])

    def _is_square(self, a):
        """Whether a is 0 or a square: whether its norm a * a^p * ... * a^(p^(k-1)) is one in F_p.

        The norm maps g^e, g a generator of F_{p^k}^*, to h^e, h a generator of F_p^*.
        """
        n = u = a
        for _ in range(self.degree - 1):
            u = self._frobenius(u)
            n = self._mul(n, u)
        return self.base._is_square(n[0])

    def _neg(self, a):
        p = self.base.p
        if self.degree == 2:
            a0, a1 = a
            return (-a0 % p, -a1 % p)
        return tuple([-x % p for x in a])

    def _inv(self, a):
        p = self.base.p
        if not any(a):
            raise DivisionByZero("inverse of zero in %r" % self)
        # u = a^(p + p^2 + ... + p^(k-1)), so a*u = a^((p^k - 1)/(p - 1)) is the norm,
        # which lies in F_p: only its constant term is formed, through x^j mod f.
        # For k = 1, u = a^p = a and a*u = a^2, whose inverse times u is 1/a as well
        k = self.degree
        u = self._frobenius(a)
        for _ in range(k - 2):
            u = self._frobenius(self._mul(u, a))
        n = u[0] * a[0]
        for j, row in enumerate(self._rows, k):
            n += row[0] * sum([u[i] * a[j - i] for i in range(j - k + 1, k)])
        n = pow(n % p, p - 2, p)
        return tuple([c * n % p for c in u])

    def _chord_tangent(self, a, P, Q):
        """Field._chord_tangent on plain ints for k = 2, 3 and 4, with _mul and _inv written out.

        A product is the convolution with each coefficient of degree j >= k
        folded back through x^j mod f, the rows of _rows: for k = 2 it is
        (u0 v0 + h r0) + (u0 v1 + u1 v0 + h r1) x with h = u1 v1.  The
        slope's one inversion goes through the norm N of the denominator d,
        which lies in F_p: for k = 2 by the conjugate (a0 - c1 a1) - a1 x of
        a0 + a1 x, f = x^2 + c1 x + c0, and for k = 3, 4 as in _inv, by
        Itoh-Tsujii, u = d^(p + ... + p^(k-1)) from the Frobenius
        rows (1^p = 1, so their first column is (1, 0, ..., 0)), N the
        constant term of u d, and 1/d = u / N with one pow(N, p - 2, p).
        k = 2 runs here.  Other degrees go to ext34.chord_tangent_3_4, which
        keeps the 80-odd locals of k = 3 and 4 out of this frame (a call sets
        up and tears down its frame slot by slot, and k = 2 is the hottest
        degree) and compiles only in a process that builds such a field.
        """
        if self.degree != 2:
            return self._law(self, a, P, Q)
        p = self.base.p
        c0, c1, _ = self.modulus
        ((r0, r1),) = self._rows
        x1, y1 = P
        x2, y2 = Q
        (x10, x11), (y10, y11), (x20, x21) = x1, y1, x2
        if x1 == x2:
            if y1 != y2 or not (y10 or y11):
                return None
            # slope (3 x1^2 + a) / (2 y1)
            h = x11 * x11
            n0 = 3 * (x10 * x10 + h * r0) + a[0]
            n1 = 3 * (2 * x10 * x11 + h * r1) + a[1]
            d0, d1 = 2 * y10, 2 * y11
        else:
            y20, y21 = y2
            n0, n1 = y20 - y10, y21 - y11
            d0, d1 = x20 - x10, x21 - x11
        b0 = d0 - c1 * d1
        t = pow((d0 * b0 + c0 * d1 * d1) % p, p - 2, p)
        e0, e1 = b0 * t % p, -d1 * t % p  # 1 / d
        h = n1 * e1
        l0 = (n0 * e0 + h * r0) % p
        l1 = (n0 * e1 + n1 * e0 + h * r1) % p
        h = l1 * l1
        x30 = (l0 * l0 + h * r0 - x10 - x20) % p
        x31 = (2 * l0 * l1 + h * r1 - x11 - x21) % p
        u0, u1 = x10 - x30, x11 - x31
        h = l1 * u1
        return (
            (x30, x31),
            ((l0 * u0 + h * r0 - y10) % p, (l0 * u1 + l1 * u0 + h * r1 - y11) % p),
        )

    def _values(self):
        return itertools.product(range(self.base.p), repeat=self.degree)

    def _square_values(self):
        """Field._square_values; for k = 2 on plain ints, (x0 + x1 x)^2 folded through _rows."""
        if self.degree != 2:
            return Field._square_values(self)
        p = self.base.p
        ((r0, r1),) = self._rows
        return (((x0 * x0 + x1 * x1 * r0) % p, (2 * x0 * x1 + x1 * x1 * r1) % p)
                for x0 in range(p) for x1 in range(p))

    def _cubic_values(self, a, b):
        """Field._cubic_values; for k = 2 on plain ints, (x^2 + a) x + b folded through _rows."""
        if self.degree != 2:
            yield from Field._cubic_values(self, a, b)
            return
        p = self.base.p
        ((r0, r1),) = self._rows
        (a0, a1), (b0, b1) = a, b
        for x0 in range(p):
            s, d = x0 * x0 + a0, 2 * x0
            for x1 in range(p):
                h = x1 * x1
                t0, t1 = s + h * r0, d * x1 + h * r1 + a1  # x^2 + a, unreduced
                u = t1 * x1
                yield ((t0 * x0 + u * r0 + b0) % p, (t0 * x1 + t1 * x0 + u * r1 + b1) % p)

    def _random(self, rng):
        p = self.base.p
        return tuple([rng.randrange(p) for _ in range(self.degree)])

    def __repr__(self):
        return "F_%d^%d" % (self.base.p, self.degree)


class FieldElement(Record):
    """Element of one of the three exact fields; it also equals the ints it coerces from."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        _set_field(self, field)
        _set_value(self, value)

    def _raw(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
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
        return FieldElement(self.field, self.field._pow(self.value, n))

    def inverse(self):
        return FieldElement(self.field, self.field._inv(self.value))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            same = self.field is other.field or self.field == other.field
            return same and self.value == other.value
        try:
            raw = self.field._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.value == raw

    def __hash__(self):
        """Over Q, which has no size, the hash of the Rational, so agreeing with == on ints.

        Over F_p and F_{p^k}, == with a plain int compares modulo p (F_5's 1
        equals 6), which no hash can follow; those hash with their field.
        It reads size rather than is_finite: this is Q's hot hash, and a
        property costs a call.
        """
        if self.field.size is None:
            return hash(self.value)
        return hash((self.field, self.value))

    def __bool__(self):
        return any(self.value) if isinstance(self.value, tuple) else bool(self.value)

    def sort_key(self):
        return self.field._sort_key(self.value)

    def __repr__(self):
        return "%r(%s)" % (self.field, self.value)


_set_field, _set_value = FieldElement._setters
