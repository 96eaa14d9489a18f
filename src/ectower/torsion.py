"""Certified torsion and non-torsion decisions for points.

Over Q the decision is total: a point of finite order has order in
{1..10, 12} (Mazur), so twelve exact multiplications either exhibit the
order or certify non-torsion.  The full rational torsion subgroup comes
from the Nagell-Lutz bound on an integral model: torsion points have
integer coordinates with y = 0 or y^2 dividing 16*(4a^3 + 27b^2).

Certificates carry the evidence needed to replay the arithmetic and are
re-verified from their own data, never trusted.
"""

import itertools
import math
from dataclasses import dataclass

from .config import DEFAULT_CAPS
from .errors import BoundExceeded, NonIntegralModel, PointNotOnCurve, UnsupportedField
from .fields import QQ, Rational
from .groups import FiniteAbelianGroup, divisors, factorize, structure_rank2
from .curves import EllipticCurve, Point

MAZUR_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)


@dataclass(frozen=True)
class TorsionCertificate:
    """A point together with its exact finite order."""

    variety: object
    point: object
    order: int

    def verify(self):
        V = self.variety
        if not _admissible(V, self.order):
            return False
        try:
            if not V.scalar_mul(self.order, self.point).is_infinity:
                return False
        except PointNotOnCurve:
            return False
        for q in factorize(self.order):
            if V._scalar_mul_unchecked(self.order // q, self.point).is_infinity:
                return False
        return True


def _admissible(V, order):
    """Whether a point of V can have this order, decided before any arithmetic.

    Over Q a point's order is the lcm of one Mazur order per factor; larger
    orders are refused up front, since multiplying a non-torsion point by
    them grows heights without bound.  Over F_q each factor has at most
    q + 1 + 2*sqrt(q) points (Hasse), so no prime above that bound divides
    a point order, and trial division stops there.
    """
    if order < 1:
        return False
    if V.field == QQ:
        orders = {1}
        for _ in V.factors:
            orders = {math.lcm(d, e) for d in orders for e in MAZUR_ORDERS}
        return order in orders
    hasse = _hasse_bound(V.field.size)
    return max(factorize(order, hasse), default=1) <= hasse


def _hasse_bound(q):
    """The most points a curve over F_q can have: q + 1 + floor(2*sqrt(q))."""
    return q + 1 + math.isqrt(4 * q)


@dataclass(frozen=True)
class NonTorsionCertificate:
    """Evidence that no Mazur-admissible multiple of the point vanishes.

    The evidence tracks a single non-torsion coordinate, recorded by factor
    index (0 on a single curve); one coordinate of infinite order makes the
    whole point non-torsion.  With no index the evidence tracks the whole
    point.
    """

    variety: object
    point: object
    evidence: tuple  # ((m, m*P) for m in MAZUR_ORDERS), on the tracked factor
    factor: int = None

    def _tracked(self):
        if self.factor is None:
            return self.variety, self.point
        V = self.variety
        return V.factors[self.factor], V.split(self.point)[self.factor]

    def verify(self):
        if not self.variety.contains(self.point):
            return False
        if self.variety.field != QQ:
            return False
        curve, point = self._tracked()
        if tuple(m for m, _ in self.evidence) != MAZUR_ORDERS:
            return False
        for m, multiple in self.evidence:
            if multiple.is_infinity:
                return False
            if curve._scalar_mul_unchecked(m, point) != multiple:
                return False
        return True


def torsion_test_Q(V, P):
    """Decide torsion over Q: TorsionCertificate or NonTorsionCertificate.

    Each factor's coordinate is added to itself up to twelve times; the
    first coordinate with no vanishing Mazur multiple is the evidence.
    """
    if V.field != QQ:
        raise UnsupportedField("torsion decision by admissible orders needs Q")
    V.require_on_curve(P)
    orders = []
    for j, (curve, coord) in enumerate(zip(V.factors, V.split(P))):
        evidence = []
        acc = Point.infinity()
        for m in range(1, 13):
            acc = curve._add_unchecked(acc, coord)
            if m == 11:
                continue
            if acc.is_infinity:
                orders.append(m)
                break
            evidence.append((m, acc))
        else:
            return NonTorsionCertificate(V, P, tuple(evidence), factor=j)
    return TorsionCertificate(V, P, math.lcm(*orders))


def order_ff(curve, P):
    """Exact order over a finite field, by iterated addition.

    The iteration is bounded by the Hasse window bound on the group size.
    """
    if not curve.field.is_finite:
        raise UnsupportedField("order_ff needs a finite field")
    curve.require_on_curve(P)
    bound = _hasse_bound(curve.field.size) ** curve.dimension
    acc = P
    for n in range(1, bound + 1):
        if acc.is_infinity:
            return n
        acc = curve._add_unchecked(acc, P)
    raise BoundExceeded("no multiple vanished within the group-size bound")


@dataclass(frozen=True)
class TorsionSubgroup:
    """The full rational torsion subgroup with per-point certificates."""

    curve: object
    points: tuple  # sorted Points
    certificates: tuple  # parallel TorsionCertificates
    group: FiniteAbelianGroup


def torsion_subgroup_Q(curve, caps=DEFAULT_CAPS):
    """Exhaustive Nagell-Lutz search for the torsion subgroup over Q."""
    if curve.field != QQ:
        raise UnsupportedField("Nagell-Lutz search needs Q")
    a_int, b_int, u = _integral_model(curve, caps)
    model = EllipticCurve(QQ, a_int, b_int)
    found = {Point.infinity()}
    for x, y in _nagell_lutz_candidates(a_int, b_int, caps):
        cand = Point(QQ.element(x), QQ.element(y))
        if isinstance(torsion_test_Q(model, cand), TorsionCertificate):
            found.add(cand)
    # map back through (x, y) -> (x/u^2, y/u^3) to the original curve
    uu = Rational(1, u)
    points = []
    for P in found:
        if P.is_infinity:
            points.append(P)
        else:
            points.append(
                Point(P.x * QQ.element(uu * uu), P.y * QQ.element(uu * uu * uu))
            )
    points.sort(key=Point.sort_key)
    certs = []
    for P in points:
        cert = torsion_test_Q(curve, P)
        if not isinstance(cert, TorsionCertificate):
            raise ArithmeticError("rescaled candidate lost its torsion order")
        certs.append(cert)
    group = structure_rank2(
        points, curve._add_unchecked, curve._negate_unchecked, Point.infinity()
    )
    return TorsionSubgroup(curve, tuple(points), tuple(certs), group)


def _integral_model(curve, caps):
    """Minimal u with (u^4*a, u^6*b) integral, by prime valuations of the denominators."""
    a, b = curve.a.value, curve.b.value
    need = {}
    for value, weight in ((a, 4), (b, 6)):
        den = value.den
        if den > caps.integral_model:
            raise NonIntegralModel("denominator exceeds the integral-model cap")
        for p, e in factorize(den).items():
            need[p] = max(need.get(p, 0), -(-e // weight))  # ceil division
    u = 1
    for p, e in need.items():
        u *= p**e
    a_new = a * Rational(u**4)
    b_new = b * Rational(u**6)
    if abs(a_new.num) > caps.integral_model or abs(b_new.num) > caps.integral_model:
        raise NonIntegralModel("rescaled coefficients exceed the integral-model cap")
    return a_new.num, b_new.num, u


def _nagell_lutz_candidates(a, b, caps):
    """Integer candidate points: y = 0 or y^2 | 16*(4a^3 + 27b^2)."""
    bound = 16 * abs(4 * a**3 + 27 * b**2)
    if bound > caps.integral_model:
        raise NonIntegralModel("discriminant exceeds the integral-model cap")
    ys = [0]
    y = 1
    while y * y <= bound:
        if bound % (y * y) == 0:
            ys.append(y)
        y += 1
    out = []
    for y in ys:
        for x in _integer_cubic_roots(a, b - y * y):
            out.append((x, y))
            if y:
                out.append((x, -y))
    return out


def _integer_cubic_roots(a, c):
    """Integer roots of x^3 + a*x + c."""
    if c == 0:
        roots = {0}
        if a <= 0:
            r = math.isqrt(-a)
            if r * r == -a:
                roots.update((r, -r))
        return sorted(roots)
    roots = set()
    for d in divisors(abs(c)):
        for x in (d, -d):
            if x**3 + a * x + c == 0:
                roots.add(x)
    return sorted(roots)


def rational_torsion_points(V, caps=DEFAULT_CAPS):
    """Sorted rational torsion points of a curve or a product of curves."""
    per_factor = [torsion_subgroup_Q(c, caps).points for c in V.factors]
    pts = [V.assemble(t) for t in itertools.product(*per_factor)]
    pts.sort(key=lambda P: P.sort_key())
    return pts
