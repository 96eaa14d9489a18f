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

import itertools
import math

from .config import DEFAULT_CAPS, Record
from .errors import (
    BoundExceeded,
    IncompleteTorsion,
    LevelOutOfRange,
    RamifiedCharacteristic,
    UnsupportedField,
)
from .fields import ExtField, PrimeField, per_field, require_within_cap
from .groups import FiniteAbelianGroup, structure_rank2
from .curves import EllipticCurve, Point


def _affine(V, m, y, c):
    """m*y + c on V, for points already known to lie on V."""
    return V._add_unchecked(V._scalar_mul_unchecked(m, y), c)


class TwistedMulMap(Record):
    """The cover y -> n*y - (n-1)*e of a variety by itself, n >= 1.

    The constant c = -(n-1)*e is computed once, so the map is y -> n*y + c;
    two maps compare by n, center and variety.
    """

    __slots__ = ("n", "center", "variety", "c")
    _compared = ("n", "center", "variety")

    def __init__(self, n, center, variety):
        if n < 1:
            raise ValueError("multiplier must be >= 1")
        variety.require_on_curve(center)
        Record.__init__(self, n, center, variety, variety._scalar_mul_unchecked(1 - n, center))

    @property
    def multiplier(self):
        return self.n

    def __call__(self, y):
        self.variety.require_on_curve(y)
        return _affine(self.variety, self.n, y, self.c)

    def __repr__(self):
        return "[%d]_%r" % (self.n, self.center)


class CompositeMap(Record):
    """y -> m*y + c, the symbolic composition of twisted multiplications."""

    __slots__ = ("m", "c", "variety")

    def __init__(self, m, c, variety):
        variety.require_on_curve(c)
        Record.__init__(self, m, c, variety)

    @property
    def multiplier(self):
        return self.m

    def __call__(self, y):
        self.variety.require_on_curve(y)
        return _affine(self.variety, self.m, y, self.c)


class Tower(Record):
    """A base variety with points e_0 = o, ..., e_N and level maps twist(i, e_i)."""

    __slots__ = ("variety", "o", "points")

    def __init__(self, variety, o, points):
        points = tuple(points)
        if not points or points[0] != o:
            raise ValueError("the point sequence must begin with the base point o")
        for P in dict.fromkeys(points):  # each distinct point once: e_i often repeat
            variety.require_on_curve(P)
        Record.__init__(self, variety, o, points)

    @property
    def N(self):
        return len(self.points) - 1

    def level_map(self, i):
        if not 1 <= i <= self.N:
            raise LevelOutOfRange("level %d outside 1..%d" % (i, self.N))
        return TwistedMulMap(i, self.points[i], self.variety)

    def compose_to_base(self, i):
        """The composition of the level maps 1..i as a single y -> i!*y + c.

        Folding uses: (y -> m1*y + c1) after (y -> m2*y + c2) equals
        y -> m1*m2*y + (m1*c2 + c1).  The result is verified pointwise
        against step-by-step evaluation on the tower's own points.
        """
        if not 1 <= i <= self.N:
            raise LevelOutOfRange("level %d outside 1..%d" % (i, self.N))
        V = self.variety
        steps = [self.level_map(level) for level in range(1, i + 1)]
        m = 1
        c = V.identity()
        for f in steps:
            # compose the accumulated map after twist(level, e_level)
            c = V._add_unchecked(V._scalar_mul_unchecked(m, f.c), c)
            m *= f.n
        composite = CompositeMap(m, c, V)
        for sample in dict.fromkeys((self.o, *self.points[1 : i + 1])):
            stepwise = sample
            for f in reversed(steps):
                stepwise = _affine(V, f.n, stepwise, f.c)
            if _affine(V, m, sample, c) != stepwise:
                raise ArithmeticError("composite map disagrees with stepwise evaluation")
        return composite

    def truncate(self, n):
        if not 0 <= n <= self.N:
            raise LevelOutOfRange("cannot truncate to level %d" % n)
        return Tower(self.variety, self.o, self.points[: n + 1])

    def __repr__(self):
        return "Tower(%r, N=%d)" % (self.variety, self.N)


# ---------------------------------------------------------------------------
# finite-field realizations


def extension_field(prime_field, degree, caps=DEFAULT_CAPS):
    """The canonical degree-k extension, with the deterministic modulus choice.

    One ExtField per degree is kept with the prime-field object
    (per_field), so its modulus search runs once and what it keeps serves
    every later call.  The cap is checked first: whether a call refuses
    does not depend on what the field already keeps.
    """
    if degree == 1:
        return prime_field
    require_within_cap(prime_field.p, degree, caps)
    return per_field(
        prime_field, ("extension", degree), lambda: ExtField(prime_field, degree, caps=caps)
    )


def _embed_point(V, P, K):
    """A point of V's shape with every coordinate taken into K."""
    return V.assemble(
        [q if q.is_infinity else Point(K.element(q.x), K.element(q.y)) for q in V.split(P)]
    )


def realize_variety(V, K):
    """The same curve(s) over K; K keeps one immutable curve per (a, b) (per_field)."""
    return V.from_factors([
        per_field(K, ("curve", c.a.value, c.b.value), lambda: EllipticCurve(K, c.a, c.b))
        for c in V.factors
    ])


def realize_map(f, K):
    """f over K as y -> m*y + c; embedding is a homomorphism, so c is f's own c in K."""
    return CompositeMap(
        f.multiplier, _embed_point(f.variety, f.c, K), realize_variety(f.variety, K)
    )


def _realization_field(f, field):
    """field, or f's own when None; refuses Q and fields that do not extend f's own."""
    own = f.variety.field
    if not own.is_finite:
        raise UnsupportedField("finite-field realization required, not Q")
    if field is None:
        return own
    if field != own and field.base != own:
        raise UnsupportedField("cannot embed %r into %r" % (own, field))
    return field


def full_torsion_field(V, n, caps=DEFAULT_CAPS):
    """Smallest-degree extension of the prime field carrying all of V[n].

    Searches degrees 1, 2, ... while p^k is within the field-size cap.  A degree k is
    skipped unless n | p^k - 1 and n^2 | #E(F_{p^k}) on every curve factor,
    two necessary conditions (Weil pairing; Silverman, AEC III.8) read off
    the point counts without building the field.  A degree that passes is
    decided on every curve factor by E(K)'s structure, found once per field
    and curve (_basis), which gives a basis of E[n] or proves E[n] is not
    in E(K), or, where it is unknown, by counting the kernel of
    multiplication by n; E[1] = {O} needs none of these.

    Each degree's field is kept with the prime field (extension_field), and
    each structure and basis with the field it lies over (_basis):
    deck_group over the returned field reuses the basis that confirmed it,
    and every other n the same structure.  The point counts
    come from a_p, kept with the prime field per curve (_point_counts).
    Nothing kept depends on the caps.
    """
    base = V.field
    if not base.is_finite:
        raise UnsupportedField("finite-field realization required, not Q")
    if not isinstance(base, PrimeField):
        raise UnsupportedField("torsion-field search starts from a prime-field model")
    p = base.p
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % p == 0:
        raise RamifiedCharacteristic("characteristic %d divides n = %d" % (p, n))
    degrees = 0
    while p ** (degrees + 1) <= caps.field_size:
        degrees += 1
    counts = [_point_counts(curve, degrees) for curve in V.factors]
    for k in range(1, degrees + 1):
        if (p**k - 1) % n or any(c[k - 1] % (n * n) for c in counts):
            continue
        K = extension_field(base, k, caps)
        if all(_has_full_torsion(realize_variety(c, K), n, caps) for c in V.factors):
            return K
    raise BoundExceeded("no full %d-torsion field within the configured caps" % n)


def _point_counts(curve, degrees):
    """[#E(F_{p^1}), ..., #E(F_{p^degrees})] for a curve over F_p.

    a_p (_trace, kept with F_p per (a, b)) gives #E(F_{p^k}) = p^k + 1 - s_k
    with s_0 = 2, s_1 = a_p, s_k = a_p*s_{k-1} - p*s_{k-2} (Washington,
    Elliptic Curves, Thm 4.12).
    """
    F, a, b = curve.field, curve.a.value, curve.b.value
    p = F.p
    a_p = per_field(F, ("a_p", a, b), lambda: _trace(p, a, b))
    s_prev, s = 2, a_p
    counts = []
    for k in range(1, degrees + 1):
        counts.append(p**k + 1 - s)
        s_prev, s = s, a_p * s - p * s_prev
    return counts


def _trace(p, a, b):
    """a_p = -(sum over x in F_p of the Legendre symbol of x^3 + a*x + b).

    Euler's criterion on plain ints.
    """
    half = (p - 1) // 2
    a_p = 0
    for x in range(p):
        symbol = pow((x * x * x + a * x + b) % p, half, p)
        a_p -= 1 if symbol == 1 else -1 if symbol == p - 1 else 0
    return a_p


def _has_full_torsion(curve, n, caps):
    """E[n] lies in E(K): always for n = 1, else as _basis decides, or by the kernel's count."""
    basis = n == 1 or _basis(curve, n)
    return bool(basis) if basis is not None else len(_kernel(curve, n, caps)) == n * n


def _structure(curve):
    """sylow.torsion_structure's (d1, P, Q) for E(K), kept with the curve's field per (a, b).

    None, for _kernel to decide, when #E(K) is unknown (_curve_order) or the
    draws leave it undecided.
    """

    def find():
        from . import sylow

        order = _curve_order(curve)
        return None if order is None else sylow.torsion_structure(curve, order)

    return per_field(curve.field, ("structure", curve.a.value, curve.b.value), find)


def _basis(curve, m):
    """Raw points (P, Q) spanning E[m] over the curve's own field K, False or None without.

    Kept with the field per (a, b, m), None and False too.  Enumerates
    nothing.  False is the proof that E[m] is not in E(K): m does not divide
    #K - 1 (Weil pairing; Silverman, AEC III.8) or m^2 does not divide
    #E(K), both read off the counts, or m does not divide d1 of
    E(K) = Z/d1 x Z/d2 (_structure).  Otherwise ((d1/m)P, (d1/m)Q) for the
    structure's basis of E[d1].  None, for _kernel to decide, at m = 1,
    whose kernel {O} has no prime to certify and is one point, and where
    the structure is unknown.  False is falsy like None and unpacks to no
    pair, so no caller takes it for a basis.
    """

    def find():
        if m == 1:
            return None
        order = _curve_order(curve)
        if order is not None and ((curve.field.size - 1) % m or order % (m * m)):
            return False
        structure = _structure(curve)
        if structure is None:
            return None
        d1, P, Q = structure
        if d1 % m:
            return False
        mul = curve._scalar_mul_raw
        return mul(d1 // m, P), mul(d1 // m, Q)

    return per_field(curve.field, ("basis", curve.a.value, curve.b.value, m), find)


def _torsion_count(curve, m):
    """|E(K)[m]| = gcd(m, d1) gcd(m, d2) for E(K) = Z/d1 x Z/d2 (_structure); None unknown."""
    structure = _structure(curve)
    if structure is None:
        return None
    d1 = structure[0]
    return math.gcd(m, d1) * math.gcd(m, _curve_order(curve) // d1)


def _curve_order(curve):
    """#E(K) for a curve over K = F_{p^k} with coefficients in F_p; None otherwise."""
    K = curve.field
    if K.base is None:
        return _point_counts(curve, 1)[0]
    a, b = curve.a.value, curve.b.value
    if any(a[1:]) or any(b[1:]):
        return None
    return _point_counts(EllipticCurve(K.base, a[0], b[0]), K.degree)[-1]


def _kernel(curve, n, caps):
    """E[n] over the curve's own field as {point: order}, in enumeration order.

    Enumerates once, walks the orders once on raw values, and keeps P when
    ord(P) divides n.
    """
    points = curve.enumerate_points(caps)
    return {P: d for P, d in zip(points, curve._point_orders(points)) if n % d == 0}


def fiber(f, z, field=None, caps=DEFAULT_CAPS):
    """All preimages of z under f over a finite-field realization, sorted.

    A nonempty fiber of y -> m*y + c is a coset of the m-torsion, which is
    the product of the factors' m-torsion, so the fiber is the product of
    the per-factor fibers of y_j -> m*y_j + c_j over z_j, each the solutions
    of m*y_j = w_j with w_j = z_j - c_j.  Each factor is enumerated once,
    against the tables K keeps for every curve over it (curves.per_field),
    and walked by _factor_fiber: sum |E_j(K)| candidates at most, not
    prod |E_j(K)|.  Where the factor's E[m] lies in E(K), certified by a
    basis (_basis), the walk stops at the first preimage y and the factor's
    fiber is y + E[m] (_coset), m^2 points; elsewhere the walk runs to the
    end and keeps every hit.  Each enumeration refuses a field over the cap,
    and the fiber is refused, before any coset is built, when it would have
    more points than the cap.  Each factor's fiber is sorted and a product
    point sorts by its factor keys in order, so the product comes out sorted.
    """
    m = f.multiplier
    K = _realization_field(f, field)
    if m % K.characteristic == 0:
        raise RamifiedCharacteristic(
            "characteristic %d divides the degree %d" % (K.characteristic, m)
        )
    realized = realize_map(f, K)
    V = realized.variety
    z = _embed_point(f.variety, z, K)
    V.require_on_curve(z)
    parts = []
    for curve, cj, zj in zip(V.factors, V.split(realized.c), V.split(z)):
        w = curve._add_raw(zj._raw(), curve._neg_raw(cj._raw()))
        walk = _factor_fiber(curve, curve.enumerate_points(caps), m, w)
        coset = bool(_basis(curve, m))
        parts.append((curve, coset, list(itertools.islice(walk, 1 if coset else None))))
    total = math.prod(len(hits) * (m * m if coset else 1) for _, coset, hits in parts)
    if total > caps.field_size:
        raise BoundExceeded("product has %d points, over the cap" % total)
    fibers = [_coset(curve, m, hits[0]) if coset and hits else hits for curve, coset, hits in parts]
    return [V.assemble(t) for t in itertools.product(*fibers)]


def _factor_fiber(curve, points, m, w):
    """The points y of a curve's sorted enumeration with m*y = w, w raw, as they are found.

    A generator, so a caller that needs only the first preimage stops the
    walk there.  m*O = O, so O is in it exactly when w = O.  The enumeration
    lists the points of one x together, and a second root is the negation
    of the first, with the negated image: one scalar multiple per
    x-coordinate.  Enumerated points lie on the curve by construction; none
    is checked.
    """
    if w is None:
        yield points[0]
    mul, neg = curve._scalar_mul_raw, curve._neg_raw
    x = image = None
    for y in points[1:]:
        raw = y._raw()
        image = neg(image) if raw[0] == x else mul(m, raw)
        x = raw[0]
        if image == w:
            yield y


def _torsion(curve, m):
    """E[m] as raw points, kept with the field per (a, b, m).

    The basis (P, Q) has P, Q of order m with <P> and <Q> meeting in O, so
    the m^2 sums of a multiple of P and one of Q are E[m], each once.
    """

    def span():
        from .sylow import multiples

        P, Q = _basis(curve, m)
        column = multiples(curve, Q, m)
        return [curve._add_raw(R, S) for R in multiples(curve, P, m) for S in column]

    return per_field(curve.field, ("torsion", curve.a.value, curve.b.value, m), span)


def _coset(curve, m, y):
    """y + E[m] for a Point y, boxed and sorted by Point.sort_key.

    Raw pairs compare as sort_key orders affine points; O, present when y
    lies in E[m], sorts first.
    """
    add, raw = curve._add_raw, y._raw()
    points = sorted((add(raw, t) for t in _torsion(curve, m)), key=lambda P: (P is not None, P))
    return [curve._box(P) for P in points]


class RationalFiber(Record):
    """Rational preimages through one known preimage; incomplete by nature.

    Over Q only the k-rational part of a fiber is visible: the full fiber
    lives over the algebraic closure.  The flag stays False even when the
    rational part happens to be everything.
    """

    __slots__ = ("points", "complete", "multiplier")


def rational_fiber(f, through, caps=DEFAULT_CAPS):
    """The rational m-torsion translates of a known rational preimage."""
    from .torsion import rational_torsion_points  # Q only: F_q towers never load torsion
    V = f.variety
    if V.field.is_finite:
        raise UnsupportedField("rational fibers are only reported over Q")
    V.require_on_curve(through)
    pts = [
        V._add_unchecked(through, t)
        for t in rational_torsion_points(V, caps)
        if V._scalar_mul_unchecked(f.multiplier, t).is_infinity
    ]
    pts.sort(key=lambda P: P.sort_key())
    return RationalFiber(tuple(pts), False, f.multiplier)


def deck_group(f, field=None, caps=DEFAULT_CAPS):
    """Translations t with f(y + t) = f(y) for all y: the full m-torsion.

    Returns the invariant factors (m, ..., m), 2g of them, with the
    generator witnesses structure_rank2 would pick from the enumerated
    kernel.  Each curve factor's are read off the grid of a basis of E[m]
    (sylow.torsion_generators, about m^2/2 additions), or, once
    m^4 > 128 #E(K), found by the sorted scan of E(K)
    (sylow.scanned_generators), whose walks grow with the index
    #E(K)/m^2; measured, the scan wins from about there on.  A factor with
    no basis is enumerated instead.  Raises IncompleteTorsion
    when the field does not carry all of V[m], reporting the defect per
    curve factor.
    """
    m = f.multiplier
    V, found = _full_torsion(f, field, caps)
    parts = []
    for curve, basis, kernel in found:
        if not basis:
            parts.append(structure_rank2(kernel, curve._add_unchecked, Point.infinity()))
            continue
        from . import sylow

        if m**4 > 128 * _curve_order(curve):
            parts.append(FiniteAbelianGroup((m, m), sylow.scanned_generators(curve, m)))
        else:
            parts.append(FiniteAbelianGroup((m, m), sylow.torsion_generators(curve, m, *basis)))
    return V.group_from_parts(parts)


def deck_invariant_factors(f, field=None, caps=DEFAULT_CAPS):
    """deck_group(f, field, caps).invariant_factors, with no generators.

    Once every factor's E[m] is shown to lie in E(K), by a basis or by its
    kernel, the deck group is (Z/m)^(2g), so no grid is walked.  Refuses
    exactly as deck_group does.
    """
    V, _ = _full_torsion(f, field, caps)
    return FiniteAbelianGroup([f.multiplier] * (2 * V.dimension)).invariant_factors


def _full_torsion(f, field, caps):
    """f's variety over the realization field K, and (curve, basis, kernel) per factor.

    basis is _basis's pair, or None when the factor was enumerated and
    kernel is its {point: order} table.  Raises IncompleteTorsion when K's
    characteristic divides m or a factor's E[m] is not all in E(K), with the
    count of E(K)[m] read off the structure where _basis proved the absence
    (_torsion_count), and off the enumerated kernel elsewhere.
    """
    m = f.multiplier
    K = _realization_field(f, field)
    if m % K.characteristic == 0:
        raise IncompleteTorsion(
            "characteristic %d divides the degree %d; the full kernel is never rational"
            % (K.characteristic, m)
        )
    V = realize_variety(f.variety, K)
    found = []
    for j, curve in enumerate(V.factors):
        curve._require_field_within(caps)
        basis = _basis(curve, m)
        kernel = None
        if not basis:
            count = _torsion_count(curve, m) if basis is False else None
            if count is None:
                kernel = _kernel(curve, m, caps)
                count = len(kernel)
            if count != m * m:
                raise IncompleteTorsion(
                    "factor %d has %d of %d torsion points over %r" % (j, count, m * m, K)
                )
        found.append((curve, basis, kernel))
    return V, found
