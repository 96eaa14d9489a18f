import itertools
import json
from pathlib import Path

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
from ectower.config import DEFAULT_CAPS, Caps
from ectower.fields import QQ, ExtField, FieldElement, PrimeField
from ectower import curves, groups, towers
from ectower.chain import match_deck
from ectower.cli import main
from ectower.groups import divisors, element_orders, structure_rank2
from ectower.serialize import group_to_json
from ectower.towers import (
    Tower,
    _kernel,
    _point_counts,
    _torsion_basis,
    TwistedMulMap,
    deck_group,
    deck_invariant_factors,
    extension_field,
    fiber,
    full_torsion_field,
    rational_fiber,
    realize_variety,
)

from oracles import fp_point_count, fq_add, fq_mul, fq_point_add

GOLDEN = Path(__file__).resolve().parent / "golden"
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


def test_extension_modulus_is_certified_once(monkeypatch):
    from ectower import fields

    searched = _count_calls(monkeypatch, fields, "find_irreducible")
    certified = _count_calls(monkeypatch, fields, "is_irreducible")
    K = extension_field(PrimeField(7), 3)
    assert [args[:2] for args in searched] == [(7, 3)]
    # the search certifies each candidate it tries, the chosen one included
    assert [args[0] for args in certified].count(K.modulus) == 1


def test_full_torsion_field_ramified():
    with pytest.raises(RamifiedCharacteristic):
        full_torsion_field(E5, 5)


def test_full_torsion_field_cap():
    from ectower.config import Caps

    with pytest.raises(BoundExceeded):
        full_torsion_field(E5, 4, caps=Caps(field_size=100))


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


def _count_order_walks(monkeypatch):
    calls = []
    original = groups.element_orders

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    for module in (groups, curves):
        monkeypatch.setattr(module, "element_orders", counted)
    return calls


def test_deck_group_at_24_enumerates_nothing(monkeypatch):
    # a basis of E[24], then a scan of a few points from each end of the
    # 576 points of E(F_{5^4}): no enumeration, no order walk
    K = full_torsion_field(E5, 24)
    walks = _count_order_walks(monkeypatch)
    enumerated = _count_calls(monkeypatch, EllipticCurve, "enumerate_points")
    added = _count_calls(monkeypatch, EllipticCurve, "_add_raw")
    g = deck_group(TwistedMulMap(24, O, E5), field=K)
    assert g.invariant_factors == (24, 24)
    assert walks == [] and enumerated == []
    assert len(added) <= 13 * 24 + 100


def test_deck_group_scans_only_where_e_m_is_most_of_e_k(monkeypatch):
    # E(F_{5^4}) = (Z/24)^2.  At m = 24, m^4 > 128 * 576: the scan meets g1
    # and g2 a few points from each end, well under the grid's 13 * 24
    # additions.  At m = 4, E[4] is 16 of the 576 points and the grid stays
    K = full_torsion_field(E5, 24)
    for m in (24, 4):
        deck_invariant_factors(TwistedMulMap(m, O, E5), field=K)  # the basis, kept with K
    grids = _count_calls(monkeypatch, towers, "_torsion_generators")
    scans = _count_calls(monkeypatch, towers, "_scanned_generators")
    added = _count_calls(monkeypatch, EllipticCurve, "_add_raw")
    assert deck_group(TwistedMulMap(24, O, E5), field=K).invariant_factors == (24, 24)
    assert grids == [] and len(scans) == 1
    assert len(added) < 13 * 24 // 2
    assert deck_group(TwistedMulMap(4, O, E5), field=K).invariant_factors == (4, 4)
    assert len(grids) == 1 and len(scans) == 1


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_scanned_generators_match_the_grid(p):
    # every curve over F_p, over every F_{p^k} with p^k <= 3000, and every
    # m <= 24 with a basis of E[m]: the scan finds the grid's generators, on
    # both sides of deck_group's choice between them
    sides = set()
    for k in range(1, 5):
        if p**k > 3000:
            break
        K = extension_field(PrimeField(p), k)
        for E in _curves(p):
            EK = realize_variety(E, K)
            for m in range(2, 25):
                basis = towers._basis(EK, m)
                if not basis:
                    continue
                want = towers._torsion_generators(EK, m, *basis)
                assert towers._scanned_generators(EK, m) == want, (E, K, m)
                sides.add(m**4 > 128 * towers._curve_order(EK))
    assert sides == {False, True}


def test_deck_group_boxes_few_field_elements(monkeypatch):
    # the walk runs on raw values: E(F_{5^4}) has 576 points, and the call
    # boxes fewer than four field elements per point
    K = full_torsion_field(E5, 24)
    f = TwistedMulMap(24, O, E5)
    built = []
    init = FieldElement.__init__

    def counted(self, field, value):
        built.append(field)
        init(self, field, value)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    g = deck_group(f, field=K)
    assert g.invariant_factors == (24, 24)
    assert len(built) < 4 * 576


def test_deck_group_walks_no_product_factor(monkeypatch):
    X = ProductVariety([E5, EllipticCurve(F5, 0, 2)])
    K = full_torsion_field(X, 6)
    walks = _count_order_walks(monkeypatch)
    g = deck_group(TwistedMulMap(6, X.identity(), X), field=K)
    assert g.invariant_factors == (6, 6, 6, 6)
    assert walks == []


def test_a_wrong_group_law_stops_the_q_chain(monkeypatch):
    # multiples that never reach O: each q-chain stops after v_q(#E(K))
    # steps (#E(F_{5^4}) = 2^6 * 3^2), long before memory runs out; a field
    # of its own, so no basis kept from an earlier call stands in
    K = extension_field(PrimeField(5), 4)
    calls = []

    def never_identity(self, n, P):
        calls.append(n)
        if len(calls) > 1000:
            raise RuntimeError("the q-chain has no bound")
        return P

    monkeypatch.setattr(EllipticCurve, "_scalar_mul_raw", never_identity)
    with pytest.raises(ArithmeticError, match="2\\^6 does not kill"):
        deck_group(TwistedMulMap(24, O, E5), field=K)
    assert len(calls) < 16


def test_deck_group_never_over_Q():
    with pytest.raises(UnsupportedField):
        deck_group(TwistedMulMap(2, O, E_Q))


# --- deck groups from a basis, against the enumerated kernel ----------------------


def _kernel_structure(curve, m):
    """The oracle: structure_rank2 over the enumerated kernel of [m], None if not full."""
    kernel = _kernel(curve, m, DEFAULT_CAPS)
    if len(kernel) != m * m:
        return None
    return structure_rank2(kernel, curve._add_unchecked, O)


def _full_kernel_sizes(curve):
    """The m with E[m] inside E(K): the divisors of E(K)'s first invariant factor."""
    factors = curve.group_structure().invariant_factors
    return divisors(factors[0] if len(factors) == 2 else 1)


def _full_kernel_degrees(E, degrees):
    """{m: the least k <= degrees with E[m] inside E(F_{p^k})}, by enumeration."""
    first = {}
    for k in range(1, degrees + 1):
        for m in _full_kernel_sizes(realize_variety(E, extension_field(E.field, k))):
            first.setdefault(m, k)
    return first


def _curves(p):
    out = []
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b**2) % p:
                out.append(EllipticCurve(PrimeField(p), a, b))
    return out


@pytest.mark.parametrize("p, degrees", [(5, 4), (7, 3)])
def test_deck_group_and_field_match_the_enumerated_kernel(p, degrees):
    # every curve over F_p, every m with a full kernel over some F_{p^k}:
    # the same field, invariant factors and generators as structure_rank2
    caps = Caps(field_size=p**degrees)
    F = PrimeField(p)
    fields = [extension_field(F, k) for k in range(1, degrees + 1)]
    for E in _curves(p):
        for m, k in _full_kernel_degrees(E, degrees).items():
            assert full_torsion_field(E, m, caps) == fields[k - 1], (E, m)
            for K in fields[k - 1 :]:
                want = _kernel_structure(realize_variety(E, K), m)
                if want is None:
                    continue
                got = deck_group(TwistedMulMap(m, O, E), field=K)
                assert got.invariant_factors == want.invariant_factors, (E, K, m)
                assert got.generators == want.generators, (E, K, m)


def test_product_deck_group_matches_the_enumerated_kernels():
    X = ProductVariety([E5, EllipticCurve(F5, 0, 2)])
    for k in (1, 2, 4):
        K = extension_field(F5, k)
        XK = realize_variety(X, K)
        full = set.intersection(*[set(_full_kernel_sizes(c)) for c in XK.factors])
        assert full == set(divisors({1: 1, 2: 6, 4: 24}[k]))
        for m in full:
            want = XK.group_from_parts([_kernel_structure(c, m) for c in XK.factors])
            got = deck_group(TwistedMulMap(m, X.identity(), X), field=K)
            assert got.invariant_factors == want.invariant_factors
            assert got.generators == want.generators


def test_unbalanced_primary_part_takes_the_enumeration():
    # y^2 = x^3 + 3x + 2 over F_{7^3} is Z/6 x Z/54: its 3-part Z/3 x Z/27 puts
    # every sampled 3-part, multiplied into E[3], on one line, so no basis of
    # E[3] turns up and the kernel is enumerated, with the same report bytes
    E = EllipticCurve(PrimeField(7), 3, 2)
    K = extension_field(PrimeField(7), 3)
    EK = realize_variety(E, K)
    assert EK.group_structure().invariant_factors == (6, 54)
    for m in (3, 6):
        assert _torsion_basis(EK, m) is None
        got = group_to_json(deck_group(TwistedMulMap(m, O, E), field=K), K, 2)
        assert got == group_to_json(_kernel_structure(EK, m), K, 2)
    assert _torsion_basis(EK, 2)


def _oracle_kernel_structure(curve, m):
    """structure_rank2 of E[m] over the curve's F_{p^k}, every addition an fq_point_add.

    The points come from a table of squares in the oracles' F_p[x]/(f)
    arithmetic, the kernel from double-and-add and the orders from walks,
    all through the oracle's affine formula on raw values, so no step runs
    the package's group law.  Points are boxed only to give structure_rank2
    the same elements, and so the same sort order, as deck_group.
    """
    K = curve.field
    f, p = K.modulus, K.characteristic
    a, b = curve.a.value, curve.b.value
    values = list(itertools.product(range(p), repeat=K.degree))
    roots = {}
    for y in values:
        roots.setdefault(fq_mul(y, y, f, p), []).append(y)
    rhs = [(x, fq_add(fq_mul(fq_add(fq_mul(x, x, f, p), a, p), x, f, p), b, p)) for x in values]
    points = [None] + [(x, y) for x, r in rhs for y in roots.get(r, ())]

    def multiple(n, P):
        acc = None
        while n:
            if n & 1:
                acc = fq_point_add(a, acc, P, f, p)
            P, n = fq_point_add(a, P, P, f, p), n >> 1
        return acc

    def box(P):
        return O if P is None else Point(FieldElement(K, P[0]), FieldElement(K, P[1]))

    def add(P, Q):
        return box(fq_point_add(a, P._raw(), Q._raw(), f, p))

    kernel = [box(P) for P in points if multiple(m, P) is None]
    assert len(kernel) == m * m
    return structure_rank2(element_orders(kernel, add, O), add, O)


@pytest.mark.parametrize("p, k, a, b, m", [
    (5, 4, 0, 1, 24),  # E(F_{5^4}) = (Z/24)^2
    (5, 4, 1, 0, 8),  # Z/8 x Z/80
    (7, 3, 0, 1, 6),  # (Z/18)^2
    (7, 3, 3, 2, 6),  # Z/6 x Z/54: no basis is found and the kernel is enumerated
])
def test_deck_group_matches_the_fq_oracle_kernel(p, k, a, b, m):
    # the group-law kernels of F_{p^3} and F_{p^4} against an oracle sharing none of their code
    E = EllipticCurve(PrimeField(p), a, b)
    K = extension_field(PrimeField(p), k)
    want = _oracle_kernel_structure(realize_variety(E, K), m)
    got = deck_group(TwistedMulMap(m, O, E), field=K)
    assert got.invariant_factors == want.invariant_factors == (m, m)
    assert got.generators == want.generators


def _deck_outcome(deck, f, K):
    """What deck(f, field=K) gives: its result, or the refusal's type and text."""
    try:
        return deck(f, field=K)
    except IncompleteTorsion as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p, degrees", [(5, 4), (7, 3)])
def test_deck_invariant_factors_agree_with_deck_group(monkeypatch, p, degrees):
    # every curve over F_p and every m <= 8 over every F_{p^k}: the same
    # invariant factors, or the same refusal, and no generator grid
    fields = [extension_field(PrimeField(p), k) for k in range(1, degrees + 1)]
    grids = _count_calls(monkeypatch, towers, "_torsion_generators")
    want = {}
    for E in _curves(p):
        for m in range(1, 9):
            for K in fields:
                f = TwistedMulMap(m, O, E)
                want[E, m, K] = _deck_outcome(deck_group, f, K)
    assert grids and any(isinstance(w, tuple) for w in want.values())
    del grids[:]
    for (E, m, K), w in want.items():
        got = _deck_outcome(deck_invariant_factors, TwistedMulMap(m, O, E), K)
        assert got == (w if isinstance(w, tuple) else w.invariant_factors), (E, m, K)
    assert grids == []


def test_match_deck_walks_no_generator_grid(monkeypatch):
    X = ProductVariety([E5, EllipticCurve(F5, 0, 2)])
    grids = _count_calls(monkeypatch, towers, "_torsion_generators")
    for V in (E5, X):
        tower = Tower(V, V.identity(), [V.identity()] * 5)
        assert [match_deck(tower, i) for i in (1, 2, 3)] == [True] * 3
        assert grids == []
    tower = Tower(E5, O, [O] * 5)
    with pytest.raises(IncompleteTorsion, match="factor 0 has 2 of 4 torsion points"):
        match_deck(tower, 2, field=F5)


def _count_bases(monkeypatch):
    """The (curve, m) of each _torsion_basis call, in order."""
    calls = []
    find = towers._torsion_basis

    def counted(curve, m):
        calls.append((curve, m))
        return find(curve, m)

    monkeypatch.setattr(towers, "_torsion_basis", counted)
    return calls


def _build_level5(tmp_path):
    job = str(GOLDEN / "tower-build-level5-deck.job.json")
    assert main(["tower-build", "--input", job, "--output", str(tmp_path / "r.json")]) == 0
    return (tmp_path / "r.json").read_bytes()


def test_tower_build_finds_each_basis_once(monkeypatch, tmp_path):
    # levels 1..5 over F_239: the basis that confirms each step and composite
    # field is the one its deck group's generators are read off
    bases = _count_bases(monkeypatch)
    report = _build_level5(tmp_path)
    assert len(bases) == len(set(bases))
    assert {m for _, m in bases} == {1, 2, 3, 4, 5, 6, 24, 120}
    assert report == (GOLDEN / "tower-build-level5-deck.report.json").read_bytes()


def test_no_basis_outlives_its_command(monkeypatch, tmp_path):
    bases = _count_bases(monkeypatch)
    first = _build_level5(tmp_path)
    once = list(bases)
    assert once and _build_level5(tmp_path) == first
    assert bases == once + once


LEVEL6_DECK_F719 = {
    "deck": True,
    "tower": {
        "N": 6,
        "o": {"inf": True},
        "base": {"curve": {"a": "0", "b": "1", "field": {"field": "Fp", "p": "719"}}},
        "e": [{"inf": True}] * 7,
    },
}


def test_tower_build_counts_points_once_per_curve(monkeypatch, tmp_path):
    # every level's degree search and every basis read the counts of
    # y^2 = x^3 + 1 over F_719, all rebuilt from one a_p sum, and each
    # command's fields, with what they keep, die with that command
    from ectower import fields

    searched = _count_calls(monkeypatch, fields, "find_irreducible")
    sums = _count_calls(monkeypatch, towers, "_trace")
    job = tmp_path / "level6.job.json"
    job.write_text(json.dumps(LEVEL6_DECK_F719))
    assert main(["tower-build", "--input", str(job), "--output", str(tmp_path / "r.json")]) == 0
    assert sums == [(719, 0, 1)] and [args[:2] for args in searched] == [(719, 2)]
    assert main(["tower-build", "--input", str(job)]) == 0
    assert sums == sums[:1] * 2 and [args[:2] for args in searched] == [(719, 2)] * 2


def test_match_deck_finds_its_basis_once(monkeypatch):
    # a fresh curve: bases kept with the module's F5 by earlier tests would hide the search
    E = EllipticCurve(PrimeField(5), 0, 1)
    tower = Tower(E, O, [O] * 5)
    bases = _count_bases(monkeypatch)
    assert match_deck(tower, 4)
    assert bases and len(bases) == len(set(bases))
    # a second bare call reads the basis kept with the field; an equal field finds its own
    found = list(bases)
    assert match_deck(tower, 4) and bases == found
    assert match_deck(Tower(EllipticCurve(PrimeField(5), 0, 1), O, [O] * 5), 4)
    assert bases == found * 2


def _tower_build_kernels(monkeypatch, tmp_path, base, o, e):
    """The m of every _kernel call of one tower-build with deck groups."""
    calls = _count_calls(monkeypatch, towers, "_kernel")
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"deck": True, "tower": {"base": base, "o": o, "e": [o] + e,
                                                        "N": len(e)}}))
    assert main(["tower-build", "--input", str(job), "--output", str(tmp_path / "r.json")]) == 0
    return [n for _, n, _ in calls]


F5_JSON = {"field": "Fp", "p": "5"}
E5_JSON = {"curve": {"a": "0", "b": "1", "field": F5_JSON}}
E5B_JSON = {"curve": {"a": "0", "b": "2", "field": F5_JSON}}
INF = {"inf": True}


@pytest.mark.parametrize("g, N, level1", [(1, 4, 2), (2, 3, 4)])
def test_level_one_is_enumerated_only_by_its_deck_groups(monkeypatch, tmp_path, g, N, level1):
    # E[1] = {O} lies in every E(K), so full_torsion_field(V, 1) enumerates
    # nothing; each level-1 deck group, for the step and the composite,
    # still walks its one-point kernel on every curve factor
    point = {"x": "2", "y": "3"}
    if g == 1:
        base, o, e = E5_JSON, INF, [point] * N
    else:
        base, o = {"product": [E5_JSON, E5B_JSON]}, {"coords": [INF, INF]}
        e = [{"coords": [point, {"x": "3", "y": "2"}]}] * N
    kernels = _tower_build_kernels(monkeypatch, tmp_path, base, o, e)
    assert kernels.count(1) == level1 == 2 * g


# each F_{p^k} is built once per command, and each field scans for its non-square once
GOLDEN_FIELD_JOBS = [
    e for e in json.loads((GOLDEN / "manifest.json").read_text())
    if e["command"] in ("tower-build", "chain-check") and e["name"].endswith(("deck", "tower"))
]


@pytest.mark.parametrize("entry", GOLDEN_FIELD_JOBS, ids=[e["name"] for e in GOLDEN_FIELD_JOBS])
def test_a_golden_command_builds_each_extension_field_once(monkeypatch, tmp_path, entry):
    from ectower import fields

    searched = _count_calls(monkeypatch, fields, "find_irreducible")
    out = tmp_path / "r.json"
    argv = [entry["command"], "--input", str(GOLDEN / entry["input"]), "--output", str(out)]
    assert main(argv + entry["flags"]) == entry["exit"]
    assert out.read_bytes() == (GOLDEN / (entry["name"] + ".report.json")).read_bytes()
    degrees = [args[:2] for args in searched]
    assert degrees and len(degrees) == len(set(degrees))


def test_extension_field_is_one_object_per_prime_field():
    F7 = PrimeField(7)
    assert extension_field(F7, 1) is F7
    K = extension_field(F7, 2)
    assert extension_field(F7, 2) is K
    assert extension_field(F7, 3) is not K
    L = extension_field(PrimeField(7), 2)
    assert L == K and L is not K


def test_realize_variety_keeps_one_curve_per_coefficients_with_the_field():
    F7 = PrimeField(7)
    E = EllipticCurve(F7, 0, 1)
    K = extension_field(F7, 2)
    EK = realize_variety(E, K)
    assert EK == EllipticCurve(K, 0, 1) and realize_variety(E, K) is EK
    V = ProductVariety([E, EllipticCurve(F7, 1, 1), E])
    VK = realize_variety(V, K)
    assert VK.factors[0] is EK and VK.factors[2] is EK
    L = ExtField(F7, 2, K.modulus)
    EL = realize_variety(E, L)
    assert EL == EK and EL is not EK and realize_variety(E, L) is EL


def test_extension_field_checks_the_cap_before_what_the_field_keeps():
    F7 = PrimeField(7)
    K = extension_field(F7, 3)
    small = Caps(field_size=100)
    with pytest.raises(BoundExceeded, match="^p\\^k = 7\\^3 exceeds cap 100$"):
        extension_field(F7, 3, caps=small)
    with pytest.raises(BoundExceeded, match="^p\\^k = 7\\^3 exceeds cap 100$"):
        extension_field(PrimeField(7), 3, caps=small)
    assert extension_field(F7, 3) is K


def _is_square(z, K):
    """Euler's criterion in tests/oracles.py's fq_* arithmetic: None for 0."""
    p, f = K.characteristic, getattr(K, "modulus", (0, 1))
    z = z if isinstance(z, tuple) else (z,)
    if not any(z):
        return None
    acc, n = (1,) + (0,) * (len(z) - 1), (K.size - 1) // 2
    while n:
        if n & 1:
            acc = fq_mul(acc, z, f, p)
        z, n = fq_mul(z, z, f, p), n >> 1
    assert acc[0] in (1, p - 1) and not any(acc[1:])
    return acc[0] == 1


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_kept_non_square_is_the_first_by_eulers_criterion(p, k):
    # _non_residue by K's norm test, against Euler's criterion in fq_* arithmetic;
    # Tonelli-Shanks keeps z^t for this z, q - 1 = 2^s * t with t odd
    K = extension_field(PrimeField(p), k)
    z = K._non_residue()
    for v in K._values():
        if v == z:
            break
        assert _is_square(v, K) is not False
    assert _is_square(z, K) is False
    s, t, c = K._tonelli_shanks()
    assert t % 2 == 1 and 2**s * t == K.size - 1 and c == K._pow(z, t)


def test_torsion_basis_scans_for_the_non_square_once_per_field(monkeypatch):
    from ectower import fields

    K = extension_field(PrimeField(5), 4)
    E = realize_variety(E5, K)
    scans = _count_calls(monkeypatch, fields.Field, "_non_residue")
    bases = [_torsion_basis(E, m) for m in (2, 3, 4, 6, 8, 12, 24)]
    assert all(bases)
    # and 625 more square roots on K
    assert None not in [K._sqrt(K._mul(x, x)) for x in K._values()]
    assert len(scans) == 1
    L = extension_field(PrimeField(5), 4)
    assert L == K and L is not K
    _torsion_basis(realize_variety(E5, L), 24)
    assert len(scans) == 2


@pytest.mark.parametrize("p, a, b, m", [(11, 0, 1, 2), (13, 1, 1, 3)])
def test_torsion_basis_stops_where_a_sylow_part_rules_e_m_out(monkeypatch, p, a, b, m):
    # the counts allow E[m] (m | p - 1, m^2 | #E(F_p)), but E(F_p) is cyclic,
    # Z/12 and Z/18: a draw whose q-part has order q^t, t > v_q(#E) - v_q(m),
    # shows E[m] is not there, long before the draws run out
    E = EllipticCurve(PrimeField(p), a, b)
    draws = _count_calls(monkeypatch, PrimeField, "_random")
    assert _torsion_basis(E, m) is False
    assert 0 < len(draws) < towers._BASIS_DRAWS
    assert len(_kernel(E, m, DEFAULT_CAPS)) < m * m


@pytest.mark.parametrize("p, degrees", [(7, 2), (11, 2), (13, 2)])
def test_full_torsion_field_enumerates_no_kernel_where_absence_is_proved(monkeypatch, p, degrees):
    # every curve over F_p and every m with E[m] inside some E(F_{p^k}), k <= degrees:
    # the enumeration's least field, found with _kernel called only where the
    # basis search left the question open (None), never where it proved E[m]
    # is not in E(K) (False)
    caps = Caps(field_size=p**degrees)
    want = [_full_kernel_degrees(E, degrees) for E in _curves(p)]
    kernels = _count_calls(monkeypatch, towers, "_kernel")
    proved = 0
    for E, least in zip(_curves(p), want):  # fresh fields: nothing kept from the oracle
        for m, k in least.items():
            del kernels[:]
            assert full_torsion_field(E, m, caps) == extension_field(E.field, k), (E, m)
            assert all(towers._basis(curve, n) is None for curve, n, _ in kernels), (E, m)
            for j in range(1, k):
                proved += towers._basis(realize_variety(E, extension_field(E.field, j)), m) is False
    assert proved


def test_level_2_over_f719_enumerates_nothing(monkeypatch):
    # y^2 = x^3 + 1 over F_719 has one point of order 2, so E[2] is not in
    # E(F_719) although 4 | #E(F_719) = 720: a draw proves it, and
    # E(F_{719^2}) = (Z/720)^2 holds a basis
    E = EllipticCurve(PrimeField(719), 0, 1)
    kernels = _count_calls(monkeypatch, towers, "_kernel")
    K = full_torsion_field(E, 2)
    assert deck_invariant_factors(TwistedMulMap(2, E.identity(), E), field=K) == (2, 2)
    assert K == extension_field(E.field, 2) and kernels == []
    assert towers._basis(E, 2) is False


# (p, k, a, b, m): E[m] lies in E(F_{p^k}), yet no basis turns up in the draws,
# so _has_full_torsion and deck_group take the enumeration.  Each has an
# unbalanced Sylow part at some q | m: Z/6 x Z/54 over F_{7^3} (Z/3 x Z/27),
# Z/4 x Z/32 over F_{11^2}, Z/2 x Z/96 over F_{13^2}, Z/3 x Z/702 over F_{13^3}
_UNBALANCED_FALLBACKS = {
    (7, 3, 3, 2, 3), (7, 3, 3, 2, 6), (7, 3, 5, 2, 3), (7, 3, 5, 2, 6),
    (11, 2, 6, 4, 4),
    (13, 2, 1, 2, 2), (13, 2, 2, 5, 2), (13, 2, 3, 11, 2), (13, 2, 7, 1, 2), (13, 2, 7, 12, 2),
    (13, 3, 5, 10, 3),
}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_basis_is_none_exactly_where_the_enumerated_kernel_is_short(p):
    # every curve over F_p, over every F_{p^k} with p^k <= 3000, and every
    # m <= 24 that the point counts allow (m | p^k - 1, m^2 | #E(K)): a basis
    # of E[m] exactly when the enumerated kernel has m^2 points, and the proof
    # of absence (False) only where it has fewer
    missed, proved = set(), set()
    for k in range(1, 5):
        if p**k > 3000:
            break
        K = extension_field(PrimeField(p), k)
        for E in _curves(p):
            EK = realize_variety(E, K)
            order = towers._curve_order(EK)
            ms = [m for m in range(2, 25) if (K.size - 1) % m == 0 and order % (m * m) == 0]
            full = set(_full_kernel_sizes(EK)) if ms else ()
            for m in ms:
                basis = towers._basis(EK, m)
                assert not basis or m in full, (E, K, m)
                if basis is False:
                    assert m not in full, (E, K, m)
                    proved.add((k, m))
                if m in full and not basis:
                    missed.add((p, k, E.a.value, E.b.value, m))
    assert missed == {case for case in _UNBALANCED_FALLBACKS if case[0] == p}
    assert proved  # the sweep meets the proof of absence at every p
