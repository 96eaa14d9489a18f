"""Elliptic curves in short Weierstrass form, and finite products of them.

A curve y^2 = x^3 + a*x + b over an exact field of characteristic not 2 or 3
carries the chord-tangent group law in affine coordinates with exact
inversion.  Products act componentwise and realize higher-dimensional group
varieties: the n-torsion of a g-fold product is (Z/n)^(2g) over a field
containing it all.

A curve is the one-factor case of a product: both expose factors, split,
assemble, from_factors and group_from_parts, so only this module tells them
apart.  The public group law checks membership; _unchecked methods do not.
Points, curves and products are immutable config.Records that copy and pickle.
"""

import itertools
import math

from .config import DEFAULT_CAPS, Record
from .errors import BoundExceeded, MixedFields, PointNotOnCurve, UnsupportedField
from .fields import FieldElement, per_field
from .groups import (
    FiniteAbelianGroup,
    combine_structures,
    element_orders,
    scale,
    structure_rank2,
)


class Point(Record):
    """Affine point (x, y) or the point at infinity (x is None)."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        _set_x(self, x)
        _set_y(self, y)

    @classmethod
    def infinity(cls):
        return _INFINITY

    @property
    def is_infinity(self):
        return self.x is None

    def sort_key(self):
        if self.is_infinity:
            return (0,)
        return (1, self.x.sort_key(), self.y.sort_key())

    def _raw(self):
        """The point as the raw group law takes it: (x value, y value), None for O."""
        if self.x is None:
            return None
        return (self.x.value, self.y.value)

    def __repr__(self):
        if self.is_infinity:
            return "O"
        return "(%s, %s)" % (self.x.value, self.y.value)


class ProductPoint(Record):
    """Tuple of points, one per factor of a product variety."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        _set_coords(self, tuple(coords))

    @property
    def is_infinity(self):
        return all(c.is_infinity for c in self.coords)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def __repr__(self):
        return "(%s)" % ", ".join(repr(c) for c in self.coords)


_set_x, _set_y = Point._setters
(_set_coords,) = ProductPoint._setters
_INFINITY = Point(None, None)


def _enumeration_tables(K):
    """(each value's FieldElement in _values order, {square: its roots in that order})."""
    elements = [FieldElement(K, z) for z in K._values()]
    roots = {}
    for e, square in zip(elements, K._square_values()):
        roots.setdefault(square, []).append(e)
    return elements, roots


class EllipticCurve(Record):
    """y^2 = x^3 + a*x + b over an exact field, char not in {2, 3}, nonsingular."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        if field.characteristic in (2, 3):
            raise UnsupportedField("short Weierstrass form needs char not in {2, 3}")
        a, b = field.element(a), field.element(b)
        K, u, v = field, a.value, b.value
        # the discriminant -16 (4 a^3 + 27 b^2) is zero exactly when 4 a^3 + 27 b^2 is
        d = K._add(K._mul(K._coerce(4), K._mul(K._mul(u, u), u)),
                   K._mul(K._coerce(27), K._mul(v, v)))
        if d == K._coerce(0):
            raise ValueError("singular curve: discriminant is zero")
        Record.__init__(self, field, a, b)

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
        K = self.field
        if P.x.field != K or P.y.field != K:
            return False
        x, y = P.x.value, P.y.value
        rhs = K._add(K._mul(K._add(K._mul(x, x), self.a.value), x), self.b.value)
        return K._mul(y, y) == rhs

    def require_on_curve(self, P):
        if not self.contains(P):
            raise PointNotOnCurve("%r is not on %r" % (P, self))

    def add(self, P, Q):
        self.require_on_curve(P)
        self.require_on_curve(Q)
        return self._add_unchecked(P, Q)

    def _add_unchecked(self, P, Q):
        return self._box(self._add_raw(P._raw(), Q._raw()))

    def _add_raw(self, P, Q):
        """P + Q on raw (x, y) value pairs, None for O: the curve's one group law.

        O is handled here; two affine points go to the field's chord-tangent
        law, which F_p and F_{p^2} run on plain ints.
        """
        if P is None:
            return Q
        if Q is None:
            return P
        return self.field._chord_tangent(self.a.value, P, Q)

    def _neg_raw(self, P):
        if P is None:
            return None
        return (P[0], self.field._neg(P[1]))

    def _scalar_mul_raw(self, n, P):
        return scale(n, P, self._add_raw, self._neg_raw, None)

    def _box(self, P):
        """The Point of a raw value pair; values are trusted to be reduced."""
        if P is None:
            return Point.infinity()
        return Point(FieldElement(self.field, P[0]), FieldElement(self.field, P[1]))

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
        return self._box(self._scalar_mul_raw(n, P._raw()))

    def _negate_unchecked(self, P):
        if P.is_infinity:
            return P
        return Point(P.x, -P.y)

    def enumerate_points(self, caps=DEFAULT_CAPS):
        """All points over a finite field, sorted, by x-sweep against the field's tables.

        _enumeration_tables, built on the field's first enumeration and kept
        with it, box every value and list each square's roots, from the
        field's kernel K._square_values; the sweep looks up each raw
        x^3 + a*x + b from its kernel K._cubic_values, and each Point reuses
        the tables' elements.  Field values come in ascending sort key, so
        each x's roots ascend and the points come out sorted, O first.
        """
        self._require_field_within(caps)
        K = self.field
        elements, roots = per_field(K, "enumeration_tables", lambda: _enumeration_tables(K))
        points = [Point.infinity()]
        rhs = K._cubic_values(self.a.value, self.b.value)
        for x, ys in zip(elements, map(roots.get, rhs)):
            if ys:
                points.extend([Point(x, y) for y in ys])
        return points

    def _require_field_within(self, caps):
        """Refuse an infinite field, or a finite one above the field-size cap."""
        K = self.field
        if not K.is_finite:
            raise UnsupportedField("point enumeration needs a finite field")
        if K.size > caps.field_size:
            raise BoundExceeded("field size %d exceeds cap" % K.size)

    def _point_orders(self, points):
        """The order of each point of the complete list of a finite group, in order.

        One element_orders walk on the raw values.
        """
        raw = [P._raw() for P in points]
        orders = element_orders(raw, self._add_raw, None)
        return [orders[r] for r in raw]

    def group_structure(self, caps=DEFAULT_CAPS):
        points = self.enumerate_points(caps)
        orders = dict(zip(points, self._point_orders(points)))
        return structure_rank2(orders, self._add_unchecked, Point.infinity())

    def __repr__(self):
        return "EllipticCurve(%r, a=%s, b=%s)" % (self.field, self.a.value, self.b.value)


class ProductVariety(Record):
    """Nonempty ordered product of elliptic curves over one common field."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("product needs at least one factor")
        for c in factors:
            if c.field != factors[0].field:
                raise MixedFields("product factors must share one field")
        Record.__init__(self, factors)

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
        """Every point, sorted, refused when the product has more than the cap."""
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
        return combine_structures(embedded, self._add_unchecked, self.identity())

    def __repr__(self):
        return "ProductVariety(%r)" % (self.factors,)
