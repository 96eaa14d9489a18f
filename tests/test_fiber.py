"""Fibers factor by factor, cross-checked against a whole-variety scan.

towers.fiber walks each curve factor's points once, to the first preimage
plus E[m] where a basis of E[m] is kept and to the end elsewhere, and takes
the product of the per-factor fibers; oracles.exhaustive_fiber scans every
point of the realized variety.  Both must return the same points in the same
order, on complete fibers (over the full-torsion field) and incomplete ones
(over F_5).
"""

import itertools

import pytest

from ectower.config import Caps
from ectower.curves import EllipticCurve, Point, ProductVariety
from ectower.errors import BoundExceeded, UnsupportedField
from ectower.fields import QQ, PrimeField
from ectower import towers
from ectower.towers import (
    CompositeMap,
    Tower,
    TwistedMulMap,
    deck_group,
    extension_field,
    fiber,
    full_torsion_field,
    realize_map,
    realize_variety,
)

from oracles import exhaustive_fiber

F5 = PrimeField(5)
E5 = EllipticCurve(F5, 0, 1)
E5B = EllipticCurve(F5, 0, 2)
X = ProductVariety([E5, E5B])


def _targets(f, K, count):
    """z = f(y) for a spread of y (nonempty fibers) and a spread of plain z."""
    points = realize_variety(f.variety, K).enumerate_points()
    realized = realize_map(f, K)
    step = max(1, len(points) // count)
    return [realized(y) for y in points[1::step][:count]] + points[::step][:count]


def _agree(f, K, count):
    sizes = set()
    for z in _targets(f, K, count):
        points = fiber(f, z, field=K)
        assert points == exhaustive_fiber(f, z, K)
        sizes.add(len(points))
    return sizes


@pytest.mark.parametrize("n", [2, 3])
def test_curve_fiber_matches_scan_for_every_centre(n):
    for centre in E5.enumerate_points():
        f = TwistedMulMap(n, centre, E5)
        # over F_5 fibers are incomplete; some are empty
        assert 0 in _agree(f, F5, 6)
        assert _agree(f, full_torsion_field(E5, n), 4) == {0, n * n}


@pytest.mark.parametrize("n", [2, 3])
def test_product_fiber_matches_scan_over_f5_for_every_centre(n):
    sizes = set()
    for centre in X.enumerate_points():
        sizes |= _agree(TwistedMulMap(n, centre, X), F5, 3)
    assert 0 in sizes and len(sizes) > 1


@pytest.mark.parametrize("n", [2, 3])
def test_product_fiber_matches_scan_over_full_torsion_field(n):
    K = full_torsion_field(X, n)
    centres = X.enumerate_points()
    for centre in (centres[0], centres[len(centres) // 2 + 1]):
        sizes = _agree(TwistedMulMap(n, centre, X), K, 1)
        assert n**4 in sizes and sizes <= {0, n**4}


def test_three_factor_and_one_factor_products_match_scan():
    triple = ProductVariety([E5, E5B, E5])
    centre = triple.enumerate_points()[100]
    assert len(_agree(TwistedMulMap(2, centre, triple), F5, 4)) > 1
    single = ProductVariety([E5B])
    K = full_torsion_field(single, 3)
    for centre in single.enumerate_points():
        assert _agree(TwistedMulMap(3, centre, single), K, 2) == {0, 9}


def test_product_fiber_evaluates_each_factor_point_once(monkeypatch):
    K = full_torsion_field(X, 3)
    f = TwistedMulMap(3, X.enumerate_points()[9], X)
    z = realize_map(f, K)(realize_variety(X, K).enumerate_points()[500])
    factors = realize_variety(X, K).factors
    xs = sum(len({P.x for P in c.enumerate_points() if not P.is_infinity}) for c in factors)
    calls = []
    original = EllipticCurve._scalar_mul_raw

    def counted(self, n, P):
        calls.append(n)
        return original(self, n, P)

    monkeypatch.setattr(EllipticCurve, "_scalar_mul_raw", counted)
    assert len(fiber(f, z, field=K)) == 81
    # at most one multiplication per distinct x per factor, each by m: the
    # second root's image is the negation of the first's, and O needs none;
    # a scan of the product would make 36 * 36 of them
    assert calls and len(calls) <= xs and set(calls) == {3}


F11 = PrimeField(11)
E11 = EllipticCurve(F11, 0, 1)  # supersingular: (Z/12)^2 over F_121
E11B = EllipticCurve(F11, 0, 2)


def _two_torsion(V):
    return [P for P in V.enumerate_points() if all(q.is_infinity or not q.y for q in V.split(P))]


@pytest.mark.parametrize(
    "V, K",
    [(E11, F11), (E11, extension_field(F11, 2)), (ProductVariety([E11, E11B]), F11)],
    ids=["g1-F11", "g1-F121", "g2-F11"],
)
def test_fiber_matches_scan_for_m_1_to_6(V, K):
    # targets z = c + w: w = O, every 2-torsion w, and a spread of other points
    VK = realize_variety(V, K)
    points = VK.enumerate_points()
    halves = _two_torsion(VK)
    assert len(halves) > 1
    empty = nonempty = 0
    for m in range(1, 7):
        f = TwistedMulMap(m, V.enumerate_points()[5], V)
        c = realize_map(f, K).c
        for w in halves + points[:: max(1, len(points) // 12)]:
            z = VK._add_unchecked(c, w)
            got = fiber(f, z, field=K)
            assert got == exhaustive_fiber(f, z, K)
            empty += not got
            nonempty += bool(got)
            if m == 1:
                assert len(got) == 1
    # some w lie outside m*V(K), so their fibers are empty
    assert empty and nonempty


def test_product_over_the_cap_is_refused_with_the_same_message(monkeypatch):
    caps = Caps(field_size=30)
    with pytest.raises(BoundExceeded, match="^product has 36 points, over the cap$"):
        X.enumerate_points(caps)
    # fiber bounds what it returns: E[3] x E[3] has 81 points over F_25,
    # known from the walks before any coset is built
    cosets = []
    built = towers._coset
    monkeypatch.setattr(towers, "_coset", lambda *args: cosets.append(args) or built(*args))
    f = TwistedMulMap(3, X.identity(), X)
    K = extension_field(F5, 2)
    with pytest.raises(BoundExceeded, match="^product has 81 points, over the cap$"):
        fiber(f, X.identity(), field=K, caps=caps)
    assert not cosets
    assert len(fiber(f, X.identity(), field=K, caps=Caps(field_size=81))) == 81
    assert len(cosets) == 2
    # E[2] x E[2] over F_5 has 4 points, though X has 36
    assert len(fiber(TwistedMulMap(2, X.identity(), X), X.identity(), caps=caps)) == 4
    assert len(fiber(TwistedMulMap(2, Point.infinity(), E5), Point.infinity(), caps=caps)) == 2


def test_fiber_is_sorted_product_of_factor_fibers():
    K = full_torsion_field(X, 2)
    f = TwistedMulMap(2, X.enumerate_points()[13], X)
    z = realize_map(f, K)(realize_variety(X, K).enumerate_points()[77])
    points = fiber(f, z, field=K)
    assert points == sorted(points, key=lambda P: P.sort_key())
    per_factor = [sorted({P.coords[j] for P in points}, key=Point.sort_key) for j in (0, 1)]
    assert [P.coords for P in points] == list(itertools.product(*per_factor))


def test_composite_map_fiber_matches_scan_over_full_torsion_field():
    O = Point.infinity()
    points = E5.enumerate_points()
    tower = Tower(E5, O, [O, points[1], points[2]])
    f = tower.compose_to_base(2)
    assert isinstance(f, CompositeMap) and f.m == 2 and not f.c.is_infinity
    assert _agree(f, full_torsion_field(E5, 2), 4) == {0, 4}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F_7"])
def test_realization_refuses_a_field_that_does_not_extend_the_map_field(field):
    f = TwistedMulMap(2, E5.identity(), E5)
    message = "cannot embed F_5 into %r" % field
    with pytest.raises(UnsupportedField, match=message):
        fiber(f, E5.identity(), field=field)
    with pytest.raises(UnsupportedField, match=message):
        deck_group(f, field=field)


@pytest.mark.parametrize("n", [2, 3])
def test_realized_map_is_the_twist_by_the_realized_centre(n):
    K = extension_field(F5, 2)
    VK = realize_variety(E5, K)
    for centre in E5.enumerate_points():
        realized = realize_map(TwistedMulMap(n, centre, E5), K)
        point = centre if centre.is_infinity else Point(K.element(centre.x), K.element(centre.y))
        twist = TwistedMulMap(n, point, VK)
        assert realized.variety == VK
        assert all(realized(y) == twist(y) for y in VK.enumerate_points())


K625 = extension_field(F5, 4)
E625 = EllipticCurve(K625, 0, 1)  # y^2 = x^3 + 1: E(F_625) = (Z/24)^2


def _walk_targets(V, f, K, count):
    """z = c + w for w = O and a spread of w, then f(y) for a spread of y.

    A w outside m*V(K) gives an empty fiber; each f(y) a nonempty one.
    """
    VK = realize_variety(V, K)
    realized = realize_map(f, K)
    points = VK.enumerate_points()
    spread = points[:: len(points) // count]
    return [VK._add_unchecked(realized.c, w) for w in spread] + [
        realized(y) for y in spread[1:]
    ]


def _count_scalar_muls(monkeypatch):
    calls = []
    original = EllipticCurve._scalar_mul_raw

    def counted(self, n, P):
        calls.append(n)
        return original(self, n, P)

    monkeypatch.setattr(EllipticCurve, "_scalar_mul_raw", counted)
    return calls


@pytest.mark.parametrize(
    "V, K, ms",
    [(E11, extension_field(F11, 2), [5]), (E11, F11, range(1, 7)),
     (ProductVariety([E11, E11B]), F11, [2, 3])],
    ids=["m5-F121", "F11", "g2-F11"],
)
def test_fiber_walks_every_x_where_no_basis_is_kept(monkeypatch, V, K, ms):
    calls = _count_scalar_muls(monkeypatch)
    cosets = []
    monkeypatch.setattr(towers, "_coset", lambda *args: cosets.append(args))
    xs = sum(
        len({P.x for P in c.enumerate_points() if not P.is_infinity})
        for c in realize_variety(V, K).factors
    )
    for m in ms:
        # None, or False where the basis search proved E[m] is not in E(K)
        assert all(not towers._basis(c, m) for c in realize_variety(V, K).factors)
        f = TwistedMulMap(m, V.enumerate_points()[2], V)
        for z in _walk_targets(V, f, K, 3):
            del calls[:]
            got = fiber(f, z, field=K)
            # one multiple per distinct x of every factor: the walk ran to the end
            assert calls == [m] * xs
            assert got == exhaustive_fiber(f, z, K)
    assert not cosets


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 12])
def test_coset_fiber_matches_scan_and_stops_at_the_first_preimage(monkeypatch, m):
    points = E625.enumerate_points()
    assert len(points) == 24 * 24
    assert towers._basis(E625, m)
    towers._torsion(E625, m)  # the span is kept with the field before counting
    xs = len({P.x for P in points[1:]})
    f = TwistedMulMap(m, E5.enumerate_points()[3], E5)
    calls = _count_scalar_muls(monkeypatch)
    sizes = []
    for z in _walk_targets(E5, f, K625, 7):
        del calls[:]
        got = fiber(f, z, field=K625)
        if got:
            # y + E[m] holds every preimage, and the walk reaches the first
            # one after at most one multiple per point before it
            first = min(points.index(P) for P in got)
            assert len(calls) <= first and set(calls) <= {m}
        else:
            assert calls == [m] * xs
        assert got == exhaustive_fiber(f, z, K625)
        sizes.append(len(got))
    # the first target has w = O, so its fiber is E[m] itself
    assert sizes[0] == m * m and set(sizes) == {0, m * m}
