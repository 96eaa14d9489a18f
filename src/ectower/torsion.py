"""Certified torsion and non-torsion decisions for points.

Over Q the decision is total: a point of finite order has order in
{1..10, 12} (Mazur), so its first twelve multiples either exhibit the order
or certify non-torsion.  On an integral model they come from the division
polynomials psi_m evaluated at the point in integer arithmetic, one gcd per
multiple; anywhere else (O, y = 0, products, non-integral curves, points
off the curve) the point is added to itself.  The full rational torsion
subgroup comes from the Nagell-Lutz bound on an integral model: torsion
points have integer coordinates with y = 0 or y^2 dividing 16*(4a^3 + 27b^2).

Certificates carry the evidence needed to replay the arithmetic and are
re-verified from their own data, never trusted.
"""

import itertools
import math

from .config import DEFAULT_CAPS, Record
from .errors import BoundExceeded, NonIntegralModel, UnsupportedField
from .rationals import QQ, Rational
from .groups import divisors, factorize, structure_rank2
from .curves import Point

MAZUR_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)


class TorsionCertificate(Record):
    """A point together with its exact finite order."""

    __slots__ = ("variety", "point", "order")

    def verify(self):
        """Over Q the walk in _admissible fixes the exact order; over F_q it is replayed."""
        V = self.variety
        if not V.contains(self.point) or not _admissible(V, self.point, self.order):
            return False
        if not V.field.is_finite:
            return True
        if not V.scalar_mul(self.order, self.point).is_infinity:
            return False
        for q in factorize(self.order):
            if V._scalar_mul_unchecked(self.order // q, self.point).is_infinity:
                return False
        return True


def _admissible(V, P, order):
    """Whether P can have this order, decided with bounded work before the replay.

    Over Q each coordinate shows its order within twelve multiples (Mazur)
    and P's order is their lcm, so only that order is admitted; a coordinate
    of infinite order is refused here, before multiplying it by the claimed
    order grows heights without bound.  Over F_q each factor has at most
    q + 1 + 2*sqrt(q) points (Hasse), so no point order exceeds that bound
    to the power of the factor count, no prime above it divides a point
    order, and trial division stops there.
    """
    if order < 1:
        return False
    if not V.field.is_finite:
        orders = [_mazur_walk(c, q)[0] for c, q in zip(V.factors, V.split(P))]
        return None not in orders and math.lcm(*orders) == order
    hasse = _hasse_bound(V.field.size)
    if order > hasse**V.dimension:
        return False
    return max(factorize(order, hasse), default=1) <= hasse


def _hasse_bound(q):
    """The most points a curve over F_q can have: q + 1 + floor(2*sqrt(q))."""
    return q + 1 + math.isqrt(4 * q)


class NonTorsionCertificate(Record):
    """Evidence that no Mazur-admissible multiple of the point vanishes.

    The evidence tracks a single non-torsion coordinate, recorded by factor
    index (0 on a single curve); one coordinate of infinite order makes the
    whole point non-torsion.  With no index the evidence tracks the whole
    point.
    """

    # evidence: ((m, m*P) for m in MAZUR_ORDERS), on the tracked factor
    __slots__ = ("variety", "point", "evidence", "factor")
    _defaults = {"factor": None}

    def _tracked(self):
        if self.factor is None:
            return self.variety, self.point
        V = self.variety
        return V.factors[self.factor], V.split(self.point)[self.factor]

    def verify(self):
        """Replay by one walk of the tracked point through its twelve multiples.

        The walk's evidence must equal the certificate's, so the claimed
        m are exactly the Mazur orders, every m*P matches, and none is O.
        A whole product point can pass that and still be torsion (order
        15 = lcm(3, 5)), so some coordinate must have no vanishing multiple.
        """
        if not self.variety.contains(self.point):
            return False
        if self.variety.field.is_finite:
            return False
        curve, point = self._tracked()
        order, evidence = _mazur_walk(curve, point)
        if order is not None or [(m, mp) for m, mp in self.evidence] != evidence:
            return False
        columns = zip(*(curve.split(mp) for _, mp in evidence))
        return any(not any(q.is_infinity for q in column) for column in columns)


def torsion_test_Q(V, P):
    """Decide torsion over Q: TorsionCertificate or NonTorsionCertificate.

    Each factor's coordinate is walked through its first twelve multiples
    (_mazur_walk); the first coordinate with no vanishing Mazur multiple is
    the evidence.
    """
    if V.field.is_finite:
        raise UnsupportedField("torsion decision by admissible orders needs Q")
    V.require_on_curve(P)
    orders = []
    for j, (curve, coord) in enumerate(zip(V.factors, V.split(P))):
        order, evidence = _mazur_walk(curve, coord)
        if order is None:
            return NonTorsionCertificate(V, P, tuple(evidence), j)
        orders.append(order)
    return TorsionCertificate(V, P, math.lcm(*orders))


def _mazur_walk(curve, P):
    """(order, evidence) for a point of a curve over Q, from division values.

    The order is the first m <= 12 with m*P = O, or None when no Mazur order
    vanishes; evidence lists (m, m*P) for the Mazur orders m passed before.
    With P = (a/e^2, b/e^3) and W_m from _division_values (Washington,
    Elliptic Curves, Thm 3.6):

        x(m*P) = (a*W_m^2 - W_{m-1}*W_{m+1}) / (e^2 * W_m^2)
        y(m*P) = (W_{m+2}*W_{m-1}^2 - W_{m-2}*W_{m+1}^2) / (4*b * W_m^3 * e^3)

    with one gcd per multiple, of x's parts.  A rational point of an integral
    short Weierstrass model is (n/E^2, k/E^3) in lowest terms (Silverman-Tate,
    Rational Points on Elliptic Curves, III.2; Washington, 8.1), so when x's
    gcd is g = s^2, y's reduced denominator is E^3 = (e*|W_m|/s)^3 and its
    numerator comes from one exact division by 4*b*s^3.  A g that is no
    square, or a remainder, raises ArithmeticError; neither can happen on
    the curve.  Where there are no division values the walk adds P to itself
    instead (_walk_by_addition), with the same result.
    """
    W = _division_values(curve, P)
    if W is None:
        return _walk_by_addition(curve, P)
    a, e2, b = P.x.value.num, P.x.value.den, P.y.value.num
    e = math.isqrt(e2)
    evidence = []
    for m in MAZUR_ORDERS:
        w = W[m]
        if not w:
            return m, evidence
        w2 = w * w
        nx, dx = a * w2 - W[m - 1] * W[m + 1], e2 * w2
        g = math.gcd(nx, dx)
        s = math.isqrt(g)
        ny, r = divmod(W[m + 2] * W[m - 1] ** 2 - W[m - 2] * W[m + 1] ** 2, 4 * b * s**3)
        if s * s != g or r:
            raise ArithmeticError("%d*P breaks the E^2, E^3 denominator identity" % m)
        mx = Rational._reduced(nx // g, dx // g)
        my = Rational._reduced(ny if w > 0 else -ny, (e * abs(w) // s) ** 3)
        evidence.append((m, curve._box((mx, my))))
    return None, evidence


def _division_values(curve, P):
    """{m: W_m} for m = -1..14, W_m = e^(m^2 - 1) * psi_m(P), or None.

    For y^2 = x^3 + A*x + B with integral A, B and P = (a/e^2, b/e^3), psi_m
    is the m-th division polynomial (Washington, Elliptic Curves, 3.2).  It
    is weighted homogeneous of weight m^2 - 1 when x, y, A, B weigh 2, 3, 4,
    6, so the W_m are integers in a, b, A*e^4, B*e^6 with psi_m's recursion,
    and m*P = O exactly when W_m = 0.  None, for the walk by addition, when
    P is O or a product point or has y = 0, when the curve has non-integral
    coefficients, when P's denominators are not e^2 and e^3 or P is off the
    curve, or when a division by 2b leaves a remainder.
    """
    if not isinstance(P, Point) or P.is_infinity:
        return None
    A, B = curve.a.value, curve.b.value
    x, y = P.x.value, P.y.value
    e = math.isqrt(x.den)
    if A.den != 1 or B.den != 1 or e * e != x.den or y.den != e**3 or not y:
        return None
    a, b = x.num, y.num
    A, B = A.num * e**4, B.num * e**6
    if b * b != a**3 + A * a + B:
        return None
    W = {-1: -1, 0: 0, 1: 1, 2: 2 * b}
    W[3] = 3 * a**4 + 6 * A * a**2 + 12 * B * a - A**2
    W[4] = (
        4 * b
        * (a**6 + 5 * A * a**4 + 20 * B * a**3 - 5 * A**2 * a**2 - 4 * A * B * a - 8 * B**2 - A**3)
    )
    for n in range(5, 15):
        k = n // 2
        if n % 2:
            W[n] = W[k + 2] * W[k] ** 3 - W[k - 1] * W[k + 1] ** 3
        else:
            W[n], r = divmod(W[k] * (W[k + 2] * W[k - 1] ** 2 - W[k - 2] * W[k + 1] ** 2), 2 * b)
            if r:
                return None
    return W


def _walk_by_addition(curve, P):
    """_mazur_walk's result by adding P to itself up to twelve times.

    It takes any variety, also a product, whose identity is not
    Point.infinity(), and any point, also one off the curve.
    """
    evidence = []
    acc = curve.identity()
    for m in range(1, 13):
        acc = curve._add_unchecked(acc, P)
        if m == 11:
            continue
        if acc.is_infinity:
            return m, evidence
        evidence.append((m, acc))
    return None, evidence


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


class TorsionSubgroup(Record):
    """The full rational torsion subgroup with per-point certificates."""

    # points: sorted Points; certificates: their TorsionCertificates; group: FiniteAbelianGroup
    __slots__ = ("curve", "points", "certificates", "group")


def torsion_subgroup_Q(curve, caps=DEFAULT_CAPS):
    """Exhaustive Nagell-Lutz search for the torsion subgroup over Q.

    Each candidate of the integral model is mapped back through
    (x, y) -> (x/u^2, y/u^3) and decided once, on the curve itself.
    """
    if curve.field.is_finite:
        raise UnsupportedField("Nagell-Lutz search needs Q")
    a_int, b_int, u = _integral_model(curve, caps)
    sx, sy = QQ.element(Rational(1, u**2)), QQ.element(Rational(1, u**3))
    candidates = [Point.infinity()] + [
        Point(QQ.element(x) * sx, QQ.element(y) * sy)
        for x, y in _nagell_lutz_candidates(a_int, b_int, caps)
    ]
    decided = [torsion_test_Q(curve, P) for P in candidates]
    certs = sorted(
        (c for c in decided if isinstance(c, TorsionCertificate)),
        key=lambda c: c.point.sort_key(),
    )
    orders = {c.point: c.order for c in certs}
    group = structure_rank2(orders, curve._add_unchecked, Point.infinity())
    return TorsionSubgroup(curve, tuple(c.point for c in certs), tuple(certs), group)


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
    # each denominator divides its u^4 or u^6, so the scaled values are integers
    a_new = a.num * (u**4 // a.den)
    b_new = b.num * (u**6 // b.den)
    if abs(a_new) > caps.integral_model or abs(b_new) > caps.integral_model:
        raise NonIntegralModel("rescaled coefficients exceed the integral-model cap")
    return a_new, b_new, u


def _nagell_lutz_candidates(a, b, caps):
    """Integer candidate points: y = 0 or y^2 | 16*(4a^3 + 27b^2)."""
    bound = 16 * abs(4 * a**3 + 27 * b**2)
    if bound > caps.integral_model:
        raise NonIntegralModel("discriminant exceeds the integral-model cap")
    # the y-loop takes isqrt(bound) steps and each root search trial-divides
    # |b - y^2| up to its square root: all of it is charged against the cap
    limit = math.isqrt(bound)
    work, ys = limit, []
    for y in range(limit + 1):
        if y == 0 or bound % (y * y) == 0:
            work += math.isqrt(abs(b - y * y))
            if work > caps.field_size:
                raise BoundExceeded(
                    "Nagell-Lutz search work exceeds the field-size cap %d" % caps.field_size
                )
            ys.append(y)
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
