"""Exact rationals: the value type Rational and the field Q (QQ).

Only Q's paths load this module; fields.Rational, fields.RationalField and
fields.QQ resolve from here on first use, so an F_q process never compiles Q.
"""

import math

from .config import Record
from .errors import DivisionByZero, quote
from .fields import Field, FieldElement, parse_decimal


class Rational(Record):
    """Q's value type: a fraction of arbitrary-precision integers, always normalized.

    Invariants: gcd(|num|, den) == 1, den > 0, zero is 0/1.

    The public constructor normalizes its arguments.  There are no
    arithmetic operators: RationalField does Q's arithmetic, with the gcd
    helpers below, and builds its already reduced results with _reduced,
    which skips normalizing again.
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
        Record.__init__(self, num, den)

    @classmethod
    def _reduced(cls, num, den):
        """The rational num/den, trusted to be in lowest terms with den > 0."""
        r = object.__new__(cls)
        object.__setattr__(r, "num", num)
        object.__setattr__(r, "den", den)
        return r

    def __eq__(self, other):
        if isinstance(other, Rational):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        return NotImplemented

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
        """Parse 'n' or 'n/d', each part a decimal string, d nonzero."""
        parts = text.split("/")
        if len(parts) > 2:
            raise ValueError("not a rational: %s" % quote(text))
        num = parse_decimal(parts[0])
        den = parse_decimal(parts[1]) if len(parts) == 2 else 1
        if den == 0:
            raise ValueError("%s has a zero denominator" % quote(text))
        return cls(num, den)


def _add(na, da, nb, db):
    """na/da + nb/db for reduced operands, reduced by gcds of the denominators.

    Only gcds of operand parts are taken, never of the full-size result
    (Knuth, TAOCP vol. 2, 4.5.1, as CPython's fractions does).
    """
    g = math.gcd(da, db)
    if g == 1:
        return Rational._reduced(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return Rational._reduced(t, s * db)
    return Rational._reduced(t // g2, s * (db // g2))


def _mul(na, da, nb, db):
    """na/da * nb/db for reduced operands with positive denominators.

    Only the cross pairs (na, db) and (nb, da) can share a factor.
    """
    g1 = math.gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = math.gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return Rational._reduced(na * nb, da * db)


class RationalField(Field):
    """The field of exact rationals: a record with no fields, equal to every RationalField."""

    characteristic = 0
    size = None

    def _coerce(self, value):
        if isinstance(value, Rational):
            return value
        if isinstance(value, int):
            return Rational._reduced(value, 1)
        raise TypeError("cannot coerce %r into Q" % (value,))

    def _add(self, a, b):
        return _add(a.num, a.den, b.num, b.den)

    def _sub(self, a, b):
        return _add(a.num, a.den, -b.num, b.den)

    def _mul(self, a, b):
        if a is b:  # a square of a reduced fraction is reduced
            return Rational._reduced(a.num * a.num, a.den * a.den)
        return _mul(a.num, a.den, b.num, b.den)

    def _neg(self, a):
        return Rational._reduced(-a.num, a.den)

    def _inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero in Q")
        # the parts of a reduced fraction stay coprime when swapped: no gcd
        if a.num < 0:
            return Rational._reduced(-a.den, -a.num)
        return Rational._reduced(a.den, a.num)

    def _sort_key(self, a):
        return (a.num, a.den)

    def parse(self, text):
        """The element that text, 'n' or 'n/d', spells (Rational.parse)."""
        return FieldElement(self, Rational.parse(text))

    def __repr__(self):
        return "Q"


QQ = RationalField()
