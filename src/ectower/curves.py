"""Elliptic curves in short Weierstrass form, and finite products of them.

A curve y^2 = x^3 + a*x + b over an exact field of characteristic not 2 or 3
carries the chord-tangent group law in affine coordinates with exact
inversion.  Products act componentwise and realize higher-dimensional group
varieties: the n-torsion of a g-fold product is (Z/n)^(2g) over a field
containing it all.

A curve is the one-factor case of a product: both expose factors, split,
assemble, from_factors and group_from_parts, so only this module tells them
apart.  The public group law checks membership; _unchecked methods do not.
"""

import itertools
import math

from .config import DEFAULT_CAPS
from .errors import BoundExceeded, MixedFields, PointNotOnCurve, UnsupportedField
from .fields import FieldElement
from .groups import FiniteAbelianGroup, combine_structures, scale, structure_rank2


class Point:
    """Affine point (x, y) or the point at infinity (x is None)."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("Point is immutable")

    @classmethod
    def infinity(cls):
        return _INFINITY

    @property
    def is_infinity(self):
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def sort_key(self):
        if self.is_infinity:
            return (0,)
        return (1, self.x.sort_key(), self.y.sort_key())

    def __repr__(self):
        if self.is_infinity:
            return "O"
        return "(%s, %s)" % (self.x.value, self.y.value)


_INFINITY = Point(None, None)


class ProductPoint:
    """Tuple of points, one per factor of a product variety."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(coords))

    def __setattr__(self, name, value):
        raise AttributeError("ProductPoint is immutable")

    @property
    def is_infinity(self):
        return all(c.is_infinity for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProductPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def __repr__(self):
        return "(%s)" % ", ".join(repr(c) for c in self.coords)


class EllipticCurve:
    """y^2 = x^3 + a*x + b over an exact field, char not in {2, 3}, nonsingular."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        if field.characteristic in (2, 3):
            raise UnsupportedField("short Weierstrass form needs char not in {2, 3}")
        a = a if isinstance(a, FieldElement) and a.field == field else field.element(a)
        b = b if isinstance(b, FieldElement) and b.field == field else field.element(b)
        disc = -16 * (4 * a * a * a + 27 * b * b)
        if not disc:
            raise ValueError("singular curve: discriminant is zero")
        self.field = field
        self.a = a
        self.b = b

    @property
    def dimension(self):
        return 1

    @property
    def factors(self):
        """A curve is the one-factor case of a product: its only factor is itself."""
        return (self,)

    def split(self, P):
        """The per-factor coordinates of a point of this variety's shape: (P,)."""
        if not isinstance(P, Point):
            raise PointNotOnCurve("%r is not on %r" % (P, self))
        return (P,)

    def assemble(self, coords):
        """The point with the given per-factor coordinates; inverse of split."""
        (P,) = coords
        return P

    def from_factors(self, curves):
        """The variety of this shape over the given curves."""
        (curve,) = curves
        return curve

    def group_from_parts(self, parts):
        """The group structure of this variety from its per-factor structures."""
        (part,) = parts
        return part

    def identity(self):
        return Point.infinity()

    def point(self, x, y):
        P = Point(self.field.element(x), self.field.element(y))
        self.require_on_curve(P)
        return P

    def contains(self, P):
        if not isinstance(P, Point):
            return False
        if P.is_infinity:
            return True
        if P.x.field != self.field or P.y.field != self.field:
            return False
        return P.y * P.y == P.x * P.x * P.x + self.a * P.x + self.b

    def require_on_curve(self, P):
        if not self.contains(P):
            raise PointNotOnCurve("%r is not on %r" % (P, self))

    def add(self, P, Q):
        self.require_on_curve(P)
        self.require_on_curve(Q)
        return self._add_unchecked(P, Q)

    def _add_unchecked(self, P, Q):
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        if P.x == Q.x:
            if P.y != Q.y or not P.y:
                return Point.infinity()
            lam = (3 * P.x * P.x + self.a) / (2 * P.y)
        else:
            lam = (Q.y - P.y) / (Q.x - P.x)
        x3 = lam * lam - P.x - Q.x
        y3 = lam * (P.x - x3) - P.y
        return Point(x3, y3)

    def negate(self, P):
        self.require_on_curve(P)
        return self._negate_unchecked(P)

    def sub(self, P, Q):
        self.require_on_curve(Q)
        self.require_on_curve(P)
        return self._add_unchecked(P, self._negate_unchecked(Q))

    def scalar_mul(self, n, P):
        self.require_on_curve(P)
        return self._scalar_mul_unchecked(n, P)

    def _scalar_mul_unchecked(self, n, P):
        return scale(n, P, self._add_unchecked, self._negate_unchecked, Point.infinity())

    def _negate_unchecked(self, P):
        if P.is_infinity:
            return P
        return Point(P.x, -P.y)

    def enumerate_points(self, caps=DEFAULT_CAPS):
        """All points over a finite field, by x-sweep with a square-root table."""
        if not self.field.is_finite:
            raise UnsupportedField("point enumeration needs a finite field")
        if self.field.size > caps.field_size:
            raise BoundExceeded("field size %d exceeds cap" % self.field.size)
        roots = {}
        for z in self.field.elements():
            roots.setdefault((z * z).value, []).append(z)
        points = [Point.infinity()]
        for x in self.field.elements():
            rhs = x * x * x + self.a * x + self.b
            for y in roots.get(rhs.value, []):
                points.append(Point(x, y))
        points.sort(key=Point.sort_key)
        return points

    def group_structure(self, caps=DEFAULT_CAPS):
        points = self.enumerate_points(caps)
        return structure_rank2(
            points, self._add_unchecked, self._negate_unchecked, Point.infinity()
        )

    def __eq__(self, other):
        if not isinstance(other, EllipticCurve):
            return NotImplemented
        return self.field == other.field and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.field, self.a, self.b))

    def __repr__(self):
        return "EllipticCurve(%r, a=%s, b=%s)" % (self.field, self.a.value, self.b.value)


class ProductVariety:
    """Nonempty ordered product of elliptic curves over one common field."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("product needs at least one factor")
        for c in factors:
            if c.field != factors[0].field:
                raise MixedFields("product factors must share one field")
        self.factors = factors

    @property
    def field(self):
        return self.factors[0].field

    @property
    def dimension(self):
        return len(self.factors)

    def identity(self):
        return ProductPoint([Point.infinity()] * len(self.factors))

    def contains(self, P):
        if not isinstance(P, ProductPoint) or len(P.coords) != len(self.factors):
            return False
        return all(c.contains(q) for c, q in zip(self.factors, P.coords))

    def require_on_curve(self, P):
        if not self.contains(P):
            raise PointNotOnCurve("%r is not on %r" % (P, self))

    def add(self, P, Q):
        self.require_on_curve(P)
        self.require_on_curve(Q)
        return self._add_unchecked(P, Q)

    def _add_unchecked(self, P, Q):
        return ProductPoint(
            [c._add_unchecked(p, q) for c, p, q in zip(self.factors, P.coords, Q.coords)]
        )

    def negate(self, P):
        self.require_on_curve(P)
        return self._negate_unchecked(P)

    def _negate_unchecked(self, P):
        return ProductPoint(
            [c._negate_unchecked(q) for c, q in zip(self.factors, P.coords)]
        )

    def sub(self, P, Q):
        self.require_on_curve(Q)
        self.require_on_curve(P)
        return self._add_unchecked(P, self._negate_unchecked(Q))

    def scalar_mul(self, n, P):
        self.require_on_curve(P)
        return self._scalar_mul_unchecked(n, P)

    def _scalar_mul_unchecked(self, n, P):
        return ProductPoint(
            [c._scalar_mul_unchecked(n, q) for c, q in zip(self.factors, P.coords)]
        )

    def split(self, P):
        """The per-factor coordinates of a point of this variety's shape."""
        if not isinstance(P, ProductPoint) or len(P.coords) != len(self.factors):
            raise PointNotOnCurve("%r is not on %r" % (P, self))
        return P.coords

    def assemble(self, coords):
        """The point with the given per-factor coordinates; inverse of split."""
        return ProductPoint(coords)

    def from_factors(self, curves):
        """The variety of this shape over the given curves."""
        return ProductVariety(curves)

    def embed(self, index, point):
        """Place a factor point at the given index, identity elsewhere."""
        coords = [Point.infinity()] * len(self.factors)
        coords[index] = point
        return ProductPoint(coords)

    def enumerate_points(self, caps=DEFAULT_CAPS):
        per_factor = [c.enumerate_points(caps) for c in self.factors]
        total = math.prod(len(pts) for pts in per_factor)
        if total > caps.field_size:
            raise BoundExceeded("product has %d points, over the cap" % total)
        return [ProductPoint(t) for t in itertools.product(*per_factor)]

    def group_structure(self, caps=DEFAULT_CAPS):
        return self.group_from_parts([c.group_structure(caps) for c in self.factors])

    def group_from_parts(self, parts):
        """The group structure of the product from one structure per factor."""
        embedded = []
        for j, s in enumerate(parts):
            gens = tuple(self.embed(j, g) for g in (s.generators or ()))
            embedded.append(FiniteAbelianGroup(s.invariant_factors, gens))
        return combine_structures(
            embedded, self._add_unchecked, self._negate_unchecked, self.identity()
        )

    def __eq__(self, other):
        if not isinstance(other, ProductVariety):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return "ProductVariety(%r)" % (self.factors,)
