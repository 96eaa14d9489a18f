import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ectower.curves import EllipticCurve, Point, ProductVariety
from ectower.errors import (
    BoundExceeded,
    IncompleteTorsion,
    LevelOutOfRange,
    RamifiedCharacteristic,
    UnsupportedField,
)
from ectower.fields import QQ, ExtField, PrimeField
from ectower import towers
from ectower.towers import (
    Tower,
    _point_counts,
    TwistedMulMap,
    deck_group,
    extension_field,
    fiber,
    full_torsion_field,
    rational_fiber,
    realize_variety,
)

from oracles import fp_point_count

F5 = PrimeField(5)
E_Q = EllipticCurve(QQ, 0, 1)
E17 = EllipticCurve(QQ, 0, 17)
E5 = EllipticCurve(F5, 0, 1)
E5_MX = EllipticCurve(F5, -1, 0)
O = Point.infinity()


def qpt(x, y):
    return Point(QQ.element(x), QQ.element(y))


def f5pt(x, y):
    return Point(F5.element(x), F5.element(y))


def test_twist_fixed_point_and_identity():
    e = qpt(0, 1)
    f = TwistedMulMap(3, e, E_Q)
    assert f(e) == e
    g = TwistedMulMap(1, e, E_Q)
    assert g(qpt(2, 3)) == qpt(2, 3)


def test_twist_frozen_example():
    # [2]_{(0,1)} at (2,3): 2*(2,3) - (0,1) = (0,1) - (0,1) = O
    f = TwistedMulMap(2, qpt(0, 1), E_Q)
    y = qpt(2, 3)
    assert f(y).is_infinity
    # the same value through e + 2*(y - e)
    alt = E_Q.add(qpt(0, 1), E_Q.scalar_mul(2, E_Q.sub(y, qpt(0, 1))))
    assert alt.is_infinity


@settings(max_examples=40)
@given(st.integers(-6, 6), st.integers(1, 6))
def test_twist_formula_identity_over_Q(k, n):
    P = E17.scalar_mul(k, qpt(-2, 3))
    e = qpt(-2, 3)
    f = TwistedMulMap(n, e, E17)
    direct = f(P)
    assert direct == E17.sub(E17.scalar_mul(n, P), E17.scalar_mul(n - 1, e))
    assert direct == E17.add(e, E17.scalar_mul(n, E17.sub(P, e)))


@given(st.data())
def test_twist_semigroup_fixed_center(data):
    pts = E5_MX.enumerate_points()
    e = data.draw(st.sampled_from(pts))
    y = data.draw(st.sampled_from(pts))
    m = data.draw(st.integers(1, 10))
    n = data.draw(st.integers(1, 10))
    fm = TwistedMulMap(m, e, E5_MX)
    fn = TwistedMulMap(n, e, E5_MX)
    fmn = TwistedMulMap(m * n, e, E5_MX)
    assert fm(fn(y)) == fmn(y)


def test_tower_validation():
    with pytest.raises(ValueError):
        Tower(E_Q, O, [qpt(2, 3), O])  # e_0 != o
    with pytest.raises(ValueError):
        Tower(E_Q, O, [])
    t = Tower(E_Q, O, [O, qpt(2, 3), qpt(0, 1)])
    assert t.N == 2
    assert t.level_map(2).n == 2
    with pytest.raises(LevelOutOfRange):
        t.level_map(3)
    with pytest.raises(LevelOutOfRange):
        t.compose_to_base(0)
    assert t.truncate(1).N == 1


def test_compose_identity_level():
    t = Tower(E_Q, O, [O, O])
    comp = t.compose_to_base(1)
    assert comp.m == 1
    assert comp.c.is_infinity


def test_compose_untwisted():
    t = Tower(E_Q, O, [O, O, O, O])
    comp = t.compose_to_base(3)
    assert comp.m == 6
    assert comp.c.is_infinity
    assert comp(qpt(2, 3)) == E_Q.scalar_mul(6, qpt(2, 3))


def test_compose_generic_matches_stepwise():
    P = qpt(-2, 3)
    e = [O] + [E17.scalar_mul(k, P) for k in (1, 2, 3)]
    t = Tower(E17, O, e)
    comp = t.compose_to_base(3)
    assert comp.m == 6
    for k in range(-2, 3):
        y = E17.scalar_mul(k, P)
        stepwise = t.level_map(1)(t.level_map(2)(t.level_map(3)(y)))
        assert comp(y) == stepwise
        # the shift is exactly the stepwise image minus 6*y
        assert E17.sub(stepwise, E17.scalar_mul(6, y)) == comp.c


def test_full_torsion_field_degrees():
    assert full_torsion_field(E5, 1) == F5
    assert full_torsion_field(E5_MX, 2) == F5  # x^3 - x splits already
    K = full_torsion_field(E5, 2)
    assert isinstance(K, ExtField) and K.degree == 2
    assert full_torsion_field(E5, 3).degree == 2
    K4 = full_torsion_field(E5, 4)
    assert K4.degree == 4


# (p, (a, b) curves, largest degree k): several curves per prime; over
# F_{11^4} and F_{13^4} one curve each keeps the enumeration short
POINT_COUNT_CASES = [
    (5, [(0, 1), (1, 1), (3, 2), (-1, 0)], 4),
    (7, [(0, 1), (1, 1), (3, 2), (-1, 0)], 4),
    (11, [(0, 1), (1, 1), (3, 2)], 3),
    (13, [(0, 1), (1, 1), (3, 2)], 3),
    (11, [(1, 1)], 4),
    (13, [(0, 1)], 4),
]


@pytest.mark.parametrize("p, curves, degrees", POINT_COUNT_CASES)
def test_point_counts_match_enumeration(p, curves, degrees):
    F = PrimeField(p)
    fields = [extension_field(F, k) for k in range(2, degrees + 1)]
    for a, b in curves:
        E = EllipticCurve(F, a, b)
        counts = _point_counts(E, degrees)
        assert counts[0] == fp_point_count(p, a, b)
        for k, K in enumerate(fields, 2):
            assert counts[k - 1] == len(realize_variety(E, K).enumerate_points())


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_full_torsion_field_filter_refuses_without_enumerating(monkeypatch):
    # 24 | 7^k - 1 and 576 | #E(F_{7^k}) hold for no k <= 8, and 7^9 is over the cap
    enumerated = _count_calls(monkeypatch, EllipticCurve, "enumerate_points")
    with pytest.raises(BoundExceeded) as info:
        full_torsion_field(EllipticCurve(PrimeField(7), 0, 1), 24)
    assert str(info.value) == "no full 24-torsion field within the configured caps"
    assert enumerated == []


def test_full_torsion_field_builds_only_passing_degree(monkeypatch):
    built = _count_calls(monkeypatch, towers, "extension_field")
    K = full_torsion_field(E5, 4)
    assert [args[1] for args in built] == [4]
    assert K.degree == 4 and K.modulus == (2, 0, 0, 0, 1)


def test_full_torsion_field_ramified():
    with pytest.raises(RamifiedCharacteristic):
        full_torsion_field(E5, 5)


def test_full_torsion_field_cap():
    from ectower.config import Caps

    with pytest.raises(BoundExceeded):
        full_torsion_field(E5, 4, caps=Caps(field_size=100, extension_degree=3))


def test_fiber_full_two_torsion():
    K = full_torsion_field(E5, 2)
    f = TwistedMulMap(2, O, E5)
    pts = fiber(f, O, field=K)
    assert len(pts) == 4
    realized = realize_variety(E5, K)
    for P in pts:
        assert realized.scalar_mul(2, P).is_infinity


def test_fiber_incomplete_over_prime_field():
    f = TwistedMulMap(2, O, E5)
    pts = fiber(f, O)
    assert len(pts) == 2
    keys = {None if P.is_infinity else (P.x.value, P.y.value) for P in pts}
    assert keys == {None, (4, 0)}


def test_fiber_of_identity_map():
    f = TwistedMulMap(1, f5pt(0, 1), E5)
    z = f5pt(2, 2)
    assert fiber(f, z) == [z]


def test_fiber_ramified():
    with pytest.raises(RamifiedCharacteristic):
        fiber(TwistedMulMap(5, O, E5), O)


def test_fiber_needs_finite_field():
    with pytest.raises(UnsupportedField):
        fiber(TwistedMulMap(2, O, E_Q), O)


def test_fiber_cardinality_property():
    # over a full-torsion field every nonempty fiber has m^(2g) points
    K = full_torsion_field(E5, 2)
    f = TwistedMulMap(2, f5pt(0, 1), E5)
    realized = realize_variety(E5, K)
    pts = realized.enumerate_points()
    for y in pts[::7]:
        from ectower.towers import realize_map

        z = realize_map(f, K)(y)
        assert len(fiber(f, z, field=K)) == 4


def test_rational_fiber_flagged_incomplete():
    f = TwistedMulMap(2, O, EllipticCurve(QQ, -1, 0))
    through = qpt(0, 0)
    rf = rational_fiber(f, through)
    assert not rf.complete
    assert len(rf.points) == 4  # all of E[2] happens to be rational here
    for P in rf.points:
        assert f(P) == f(through)


def test_deck_group_two_torsion():
    K = full_torsion_field(E5, 2)
    f = TwistedMulMap(2, f5pt(0, 1), E5)
    g = deck_group(f, field=K)
    assert g.invariant_factors == (2, 2)
    realized = realize_variety(E5, K)
    for t in g.generators:
        assert realized.scalar_mul(2, t).is_infinity
        assert not t.is_infinity


def test_deck_group_trivial_for_identity():
    f = TwistedMulMap(1, f5pt(0, 1), E5)
    assert deck_group(f).is_trivial


def test_deck_group_incomplete_torsion_error():
    f = TwistedMulMap(2, O, E5)
    with pytest.raises(IncompleteTorsion):
        deck_group(f)  # F_5 has only half of E[2]


def test_deck_group_product_two_torsion():
    E5b = EllipticCurve(F5, 0, 2)
    X = ProductVariety([E5, E5b])
    K = extension_field(F5, 2)
    f = TwistedMulMap(2, X.identity(), X)
    g = deck_group(f, field=K)
    assert g.invariant_factors == (2, 2, 2, 2)
    realized = realize_variety(X, K)
    for t in g.generators:
        assert realized.scalar_mul(2, t).is_infinity


def test_deck_invariance_property():
    K = full_torsion_field(E5, 3)
    f = TwistedMulMap(3, f5pt(0, 1), E5)
    g = deck_group(f, field=K)
    assert g.invariant_factors == (3, 3)
    from ectower.towers import realize_map

    rf = realize_map(f, K)
    pts = rf.variety.enumerate_points()
    for t in g.generators:
        for y in pts[::5]:
            assert rf(rf.variety.add(y, t)) == rf(y)


def test_deck_group_of_composite():
    t = Tower(E5, O, [O, f5pt(0, 1), f5pt(0, 4)])
    comp = t.compose_to_base(2)
    K = full_torsion_field(E5, 2)
    assert deck_group(comp, field=K).invariant_factors == (2, 2)


def test_deck_group_never_over_Q():
    with pytest.raises(UnsupportedField):
        deck_group(TwistedMulMap(2, O, E_Q))
