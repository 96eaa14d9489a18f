"""Truncated towers of twisted-multiplication covers and their deck groups.

A twisted multiplication with multiplier n and center e sends e + x to
e + n*x, which in group-law terms is y -> n*y - (n-1)*e.  A tower is a base
variety with a sequence of base-field points e_0 = o, e_1, ..., e_N; the
level-i covering map is the twist by e_i with multiplier i, and composing
the maps down to the base gives y -> i!*y + c for an accumulated constant c.

Deck transformations of a degree-m map are the translations by m-torsion,
so deck groups are computed over an explicitly constructed finite-field
realization containing the full m-torsion, never over Q.  Fibers over Q can
only be sampled through a known rational preimage and are flagged as such.
"""

from dataclasses import dataclass

from .config import DEFAULT_CAPS
from .errors import (
    BoundExceeded,
    IncompleteTorsion,
    LevelOutOfRange,
    RamifiedCharacteristic,
    UnsupportedField,
)
from .fields import ExtField, PrimeField, QQ, find_irreducible
from .groups import (
    FiniteAbelianGroup,
    combine_structures,
    element_orders,
    structure_rank2,
)
from .curves import EllipticCurve, Point, ProductPoint, ProductVariety
from .torsion import rational_torsion_points


class TwistedMulMap:
    """The cover y -> n*y - (n-1)*e of a variety by itself, n >= 1."""

    __slots__ = ("n", "center", "variety")

    def __init__(self, n, center, variety):
        if n < 1:
            raise ValueError("multiplier must be >= 1")
        variety.require_on_curve(center)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "variety", variety)

    def __setattr__(self, name, value):
        raise AttributeError("TwistedMulMap is immutable")

    @property
    def multiplier(self):
        return self.n

    @property
    def shift(self):
        return self.variety.scalar_mul(-(self.n - 1), self.center)

    def __call__(self, y):
        self.variety.require_on_curve(y)
        V = self.variety
        return V.add(V.scalar_mul(self.n, y), V.scalar_mul(-(self.n - 1), self.center))

    def __eq__(self, other):
        if not isinstance(other, TwistedMulMap):
            return NotImplemented
        return (
            self.n == other.n
            and self.center == other.center
            and self.variety == other.variety
        )

    def __repr__(self):
        return "[%d]_%r" % (self.n, self.center)


def twisted_eval(f, y):
    return f(y)


@dataclass(frozen=True)
class CompositeMap:
    """y -> m*y + c, the symbolic composition of twisted multiplications."""

    m: int
    c: object
    variety: object

    @property
    def multiplier(self):
        return self.m

    @property
    def shift(self):
        return self.c

    def __call__(self, y):
        V = self.variety
        V.require_on_curve(y)
        return V.add(V.scalar_mul(self.m, y), self.c)


class Tower:
    """A base variety with points e_0 = o, ..., e_N and level maps twist(i, e_i)."""

    __slots__ = ("variety", "o", "points")

    def __init__(self, variety, o, points):
        points = tuple(points)
        if not points or points[0] != o:
            raise ValueError("the point sequence must begin with the base point o")
        variety.require_on_curve(o)
        for P in points:
            variety.require_on_curve(P)
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "o", o)
        object.__setattr__(self, "points", points)

    def __setattr__(self, name, value):
        raise AttributeError("Tower is immutable")

    @property
    def N(self):
        return len(self.points) - 1

    def level_map(self, i):
        if not 1 <= i <= self.N:
            raise LevelOutOfRange("level %d outside 1..%d" % (i, self.N))
        return TwistedMulMap(i, self.points[i], self.variety)

    def maps(self):
        return [self.level_map(i) for i in range(1, self.N + 1)]

    def compose_to_base(self, i):
        """The composition of the level maps 1..i as a single y -> i!*y + c.

        Folding uses: (y -> m1*y + c1) after (y -> m2*y + c2) equals
        y -> m1*m2*y + (m1*c2 + c1).  The result is verified pointwise
        against step-by-step evaluation on the tower's own points.
        """
        if not 1 <= i <= self.N:
            raise LevelOutOfRange("level %d outside 1..%d" % (i, self.N))
        V = self.variety
        m = 1
        c = V.identity()
        for level in range(1, i + 1):
            # compose the accumulated map after twist(level, e_level)
            step_shift = V.scalar_mul(-(level - 1), self.points[level])
            c = V.add(V.scalar_mul(m, step_shift), c)
            m *= level
        composite = CompositeMap(m, c, V)
        for sample in self._sample_points(i):
            stepwise = sample
            for level in range(i, 0, -1):
                stepwise = self.level_map(level)(stepwise)
            if composite(sample) != stepwise:
                raise ArithmeticError("composite map disagrees with stepwise evaluation")
        return composite

    def _sample_points(self, i):
        seen = []
        for P in (self.o, *self.points[1 : i + 1]):
            if P not in seen:
                seen.append(P)
        return seen

    def truncate(self, n):
        if not 0 <= n <= self.N:
            raise LevelOutOfRange("cannot truncate to level %d" % n)
        return Tower(self.variety, self.o, self.points[: n + 1])

    def __eq__(self, other):
        if not isinstance(other, Tower):
            return NotImplemented
        return (
            self.variety == other.variety
            and self.o == other.o
            and self.points == other.points
        )

    def __repr__(self):
        return "Tower(%r, N=%d)" % (self.variety, self.N)


# ---------------------------------------------------------------------------
# finite-field realizations


def extension_field(prime_field, degree, caps=DEFAULT_CAPS):
    """The canonical degree-k extension, with the deterministic modulus choice."""
    if degree == 1:
        return prime_field
    return ExtField(
        prime_field, degree, find_irreducible(prime_field.p, degree, caps), caps=caps
    )


def _embed_element(x, K):
    if x.field == K:
        return x
    if isinstance(K, ExtField) and x.field == K.base:
        return K.embed(x)
    raise UnsupportedField("cannot embed %r into %r" % (x.field, K))


def _embed_point(P, K):
    if isinstance(P, ProductPoint):
        return ProductPoint([_embed_point(q, K) for q in P.coords])
    if P.is_infinity:
        return P
    return Point(_embed_element(P.x, K), _embed_element(P.y, K))


def realize_variety(V, K):
    """The same curve(s) with coefficients embedded into the realization field K."""
    if isinstance(V, ProductVariety):
        return ProductVariety([realize_variety(c, K) for c in V.factors])
    return EllipticCurve(K, _embed_element(V.a, K), _embed_element(V.b, K))


def realize_map(f, K):
    if isinstance(f, TwistedMulMap):
        V = realize_variety(f.variety, K)
        return TwistedMulMap(f.n, _embed_point(f.center, K), V)
    V = realize_variety(f.variety, K)
    return CompositeMap(f.m, _embed_point(f.c, K), V)


def _require_finite_prime_base(V):
    field = V.field
    if field == QQ:
        raise UnsupportedField("finite-field realization required, not Q")
    if isinstance(field, ExtField):
        return field.base
    return field


def full_torsion_field(V, n, caps=DEFAULT_CAPS):
    """Smallest-degree extension of the prime field carrying all of V[n].

    Searches degrees 1, 2, ... up to the configured caps.  A degree k is
    skipped unless n | p^k - 1 and n^2 | #E(F_{p^k}) on every curve factor,
    two necessary conditions (Weil pairing; Silverman, AEC III.8) read off
    the point counts without building the field.  A degree that passes is
    confirmed by counting the kernel of multiplication by n over it; the
    kernel is full once it has n^2 points on every curve factor.
    """
    base = _require_finite_prime_base(V)
    if not isinstance(V.field, PrimeField):
        raise UnsupportedField("torsion-field search starts from a prime-field model")
    p = base.p
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % p == 0:
        raise RamifiedCharacteristic("characteristic %d divides n = %d" % (p, n))
    factors = V.factors if isinstance(V, ProductVariety) else (V,)
    counts = [_point_counts(curve, caps.extension_degree) for curve in factors]
    for k in range(1, caps.extension_degree + 1):
        if p**k > caps.field_size:
            break
        if (p**k - 1) % n or any(c[k - 1] % (n * n) for c in counts):
            continue
        K = extension_field(base, k, caps)
        if all(len(_kernel(realize_variety(c, K), n, caps)) == n * n for c in factors):
            return K
    raise BoundExceeded("no full %d-torsion field within the configured caps" % n)


def _point_counts(curve, degrees):
    """[#E(F_{p^1}), ..., #E(F_{p^degrees})] for a curve over F_p.

    a_p = -(sum over x in F_p of the Legendre symbol of x^3 + a*x + b), by
    Euler's criterion on plain ints; then #E(F_{p^k}) = p^k + 1 - s_k with
    s_0 = 2, s_1 = a_p, s_k = a_p*s_{k-1} - p*s_{k-2} (Washington,
    Elliptic Curves, Thm 4.12).
    """
    p, a, b = curve.field.p, curve.a.value, curve.b.value
    half = (p - 1) // 2
    a_p = 0
    for x in range(p):
        symbol = pow((x * x * x + a * x + b) % p, half, p)
        a_p -= 1 if symbol == 1 else -1 if symbol == p - 1 else 0
    s_prev, s = 2, a_p
    counts = []
    for k in range(1, degrees + 1):
        counts.append(p**k + 1 - s)
        s_prev, s = s, a_p * s - p * s_prev
    return counts


def _kernel(curve, n, caps):
    """The points of E[n] over the curve's own field, in enumeration order.

    Enumerates once, checks every point's membership, and keeps P when
    ord(P) divides n.
    """
    points = curve.enumerate_points(caps)
    for P in points:
        curve.require_on_curve(P)
    orders = element_orders(points, curve._add_unchecked, Point.infinity())
    return [P for P in points if n % orders[P] == 0]


def fiber(f, z, field=None, caps=DEFAULT_CAPS):
    """All preimages of z under f over a finite-field realization, sorted.

    Exhaustive: enumerates the realized variety and keeps the points that
    map to z.  A nonempty fiber of a degree-m map over a full-m-torsion
    field is a coset of the m-torsion and has exactly m^(2g) elements.
    """
    m = f.multiplier
    base = _require_finite_prime_base(f.variety)
    K = field if field is not None else f.variety.field
    if m % K.characteristic == 0:
        raise RamifiedCharacteristic(
            "characteristic %d divides the degree %d" % (K.characteristic, m)
        )
    realized = realize_map(f, K)
    z = _embed_point(z, K) if _needs_embedding(z, K) else z
    realized.variety.require_on_curve(z)
    hits = [
        y for y in realized.variety.enumerate_points(caps) if realized(y) == z
    ]
    hits.sort(key=lambda P: P.sort_key())
    return hits


def _needs_embedding(z, K):
    if isinstance(z, ProductPoint):
        return any(_needs_embedding(c, K) for c in z.coords)
    return not z.is_infinity and z.x.field != K


@dataclass(frozen=True)
class RationalFiber:
    """Rational preimages through one known preimage; incomplete by nature.

    Over Q only the k-rational part of a fiber is visible: the full fiber
    lives over the algebraic closure.  The flag stays False even when the
    rational part happens to be everything.
    """

    points: tuple
    complete: bool
    multiplier: int


def rational_fiber(f, through, caps=DEFAULT_CAPS):
    """The rational m-torsion translates of a known rational preimage."""
    V = f.variety
    if V.field != QQ:
        raise UnsupportedField("rational fibers are only reported over Q")
    V.require_on_curve(through)
    pts = [V.add(through, t) for t in rational_torsion_if_order_divides(V, f.multiplier, caps)]
    pts.sort(key=lambda P: P.sort_key())
    return RationalFiber(tuple(pts), False, f.multiplier)


def rational_torsion_if_order_divides(V, m, caps):
    return [
        t
        for t in rational_torsion_points(V, caps)
        if V.scalar_mul(m, t).is_infinity
    ]


def deck_group(f, field=None, caps=DEFAULT_CAPS):
    """Translations t with f(y + t) = f(y) for all y: the full m-torsion.

    Returns the invariant factors (m, ..., m), 2g of them, with generator
    witnesses found by exhaustive kernel enumeration over the realization.
    Raises IncompleteTorsion when the field does not carry all of V[m],
    reporting the defect per curve factor.
    """
    m = f.multiplier
    _require_finite_prime_base(f.variety)
    K = field if field is not None else f.variety.field
    if m % K.characteristic == 0:
        raise IncompleteTorsion(
            "characteristic %d divides the degree %d; the full kernel is never rational"
            % (K.characteristic, m)
        )
    realized = realize_map(f, K)
    V = realized.variety
    factors = V.factors if isinstance(V, ProductVariety) else (V,)
    parts = []
    for j, curve in enumerate(factors):
        kernel = _kernel(curve, m, caps)
        if len(kernel) != m * m:
            raise IncompleteTorsion(
                "factor %d has %d of %d torsion points over %r"
                % (j, len(kernel), m * m, K)
            )
        part = structure_rank2(
            kernel, curve._add_unchecked, curve._negate_unchecked, Point.infinity()
        )
        if isinstance(V, ProductVariety):
            gens = tuple(V.embed(j, g) for g in (part.generators or ()))
            part = FiniteAbelianGroup(part.invariant_factors, gens)
        parts.append(part)
    if isinstance(V, ProductVariety):
        return combine_structures(
            parts, V._add_unchecked, V._negate_unchecked, V.identity()
        )
    return parts[0]
