import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ectower import curves
from ectower.curves import EllipticCurve, Point, ProductPoint, ProductVariety
from ectower.errors import MixedFields, PointNotOnCurve, UnsupportedField
from ectower.fields import QQ, ExtField, PrimeField
from ectower.groups import scale

from oracles import boxed_add, fq_points, o_add, o_mul

F5 = PrimeField(5)
E_Q = EllipticCurve(QQ, 0, 1)  # y^2 = x^3 + 1
E17 = EllipticCurve(QQ, 0, 17)  # y^2 = x^3 + 17, rank >= 1
E5 = EllipticCurve(F5, 0, 1)
E5_MX = EllipticCurve(F5, -1, 0)  # y^2 = x^3 - x


def qpt(x, y):
    return Point(QQ.element(x), QQ.element(y))


def test_doubling_frozen_example():
    # chord-tangent by hand: lambda = 12/6 = 2, x3 = 4 - 4 = 0, y3 = 2*2 - 3 = 1
    P = qpt(2, 3)
    assert E_Q.add(P, P) == qpt(0, 1)
    assert E_Q.contains(E_Q.add(P, P))


def test_identity_and_inverse():
    P = qpt(2, 3)
    O = Point.infinity()
    assert E_Q.add(P, O) == P
    assert E_Q.add(P, E_Q.negate(P)) == O


def test_point_of_order_six():
    P = qpt(2, 3)
    assert E_Q.scalar_mul(2, P) == qpt(0, 1)
    assert E_Q.scalar_mul(3, P) == qpt(-1, 0)
    assert E_Q.scalar_mul(6, P).is_infinity
    assert not E_Q.scalar_mul(2, P).is_infinity
    assert not E_Q.scalar_mul(3, P).is_infinity


def test_scalar_trivials():
    P = qpt(2, 3)
    assert E_Q.scalar_mul(1, P) == P
    assert E_Q.scalar_mul(-1, P) == E_Q.negate(P)
    assert E_Q.scalar_mul(0, P).is_infinity


def test_off_curve_rejected():
    with pytest.raises(PointNotOnCurve):
        E_Q.add(qpt(1, 1), qpt(2, 3))
    with pytest.raises(PointNotOnCurve):
        E_Q.scalar_mul(3, qpt(5, 5))


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        EllipticCurve(QQ, 0, 0)
    with pytest.raises(UnsupportedField):
        EllipticCurve(PrimeField(3), 1, 1)


def test_enumerate_f5_frozen():
    # exhaustive sweep with square table {0:{0}, 1:{1,4}, 4:{2,3}}
    pts = E5.enumerate_points()
    assert len(pts) == 6
    affine = {(P.x.value, P.y.value) for P in pts if not P.is_infinity}
    assert affine == {(0, 1), (0, 4), (2, 2), (2, 3), (4, 0)}
    assert any(P.is_infinity for P in pts)


def test_enumerate_count_8():
    assert len(E5_MX.enumerate_points()) == 8


def test_group_structure_z6():
    g = E5.group_structure()
    assert g.invariant_factors == (6,)
    (gen,) = g.generators
    orders = {n for n in range(1, 7) if E5.scalar_mul(n, gen).is_infinity}
    assert orders == {6}


def test_group_structure_from_single_point():
    from ectower.groups import structure_rank2

    O = Point.infinity()
    assert structure_rank2({O: 1}, E5._add_unchecked, O).is_trivial


def test_product_componentwise():
    X = ProductVariety([E5, E5_MX])
    P = ProductPoint([Point(F5.element(0), F5.element(1)), Point(F5.element(0), F5.element(0))])
    Q = X.scalar_mul(2, P)
    assert Q.coords[0] == E5.scalar_mul(2, P.coords[0])
    assert Q.coords[1] == E5_MX.scalar_mul(2, P.coords[1])
    assert X.add(P, X.negate(P)).is_infinity


def test_product_needs_common_field():
    with pytest.raises(MixedFields):
        ProductVariety([E5, E_Q])


def test_product_enumeration_cap():
    from ectower.config import Caps
    from ectower.errors import BoundExceeded

    X = ProductVariety([E5, E5])
    with pytest.raises(BoundExceeded):
        X.enumerate_points(caps=Caps(field_size=30))


def test_product_enumeration_and_structure():
    X = ProductVariety([E5, E5])
    pts = X.enumerate_points()
    assert len(pts) == 36
    g = X.group_structure()
    assert g.invariant_factors == (6, 6)
    for gen in g.generators:
        assert X.scalar_mul(6, gen).is_infinity
        assert not X.scalar_mul(3, gen).is_infinity or not X.scalar_mul(2, gen).is_infinity


def test_mixed_product_structure_generates():
    # Z/6 x (Z/2 x Z/4) recombines to Z/2 x Z/2 x Z/12, and the generator
    # witnesses must span the whole 48-element group
    assert E5_MX.group_structure().invariant_factors == (2, 4)
    X = ProductVariety([E5, E5_MX])
    g = X.group_structure()
    assert g.invariant_factors == (2, 2, 12)
    spans = set()
    g1, g2, g3 = g.generators
    for a in range(2):
        for b in range(2):
            for c in range(12):
                P = X.add(
                    X.add(X.scalar_mul(a, g1), X.scalar_mul(b, g2)),
                    X.scalar_mul(c, g3),
                )
                spans.add(P)
    assert len(spans) == 48


@settings(max_examples=50)
@given(st.integers(-20, 20), st.integers(-20, 20))
def test_scalar_distributes_over_Q(m, n):
    P = qpt(-2, 3)  # on y^2 = x^3 + 17
    left = E17.scalar_mul(m + n, P)
    right = E17.add(E17.scalar_mul(m, P), E17.scalar_mul(n, P))
    assert left == right


@settings(max_examples=30)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7))
def test_associativity_over_Q(i, j, k):
    P = qpt(-2, 3)
    A, B, C = (E17.scalar_mul(t, P) for t in (i, j, k))
    assert E17.add(E17.add(A, B), C) == E17.add(A, E17.add(B, C))


def _points_of(curve):
    return curve.enumerate_points()


@given(st.data())
def test_associativity_over_f5(data):
    pts = _points_of(E5_MX)
    A = data.draw(st.sampled_from(pts))
    B = data.draw(st.sampled_from(pts))
    C = data.draw(st.sampled_from(pts))
    assert E5_MX.add(E5_MX.add(A, B), C) == E5_MX.add(A, E5_MX.add(B, C))
    assert E5_MX.add(A, B) == E5_MX.add(B, A)


def test_hasse_window():
    for curve in (E5, E5_MX, EllipticCurve(PrimeField(7), 2, 3)):
        q = curve.field.size
        n = len(curve.enumerate_points())
        assert (n - q - 1) ** 2 <= 4 * q


def test_hasse_window_extension_field():
    F25 = ExtField(F5, 2)
    E = EllipticCurve(F25, 0, 1)
    n = len(E.enumerate_points())
    assert (n - 26) ** 2 <= 100
    assert n == 36  # supersingular curve picks up full (Z/6)^2 over F_25


@settings(max_examples=40, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8))
def test_group_law_matches_fraction_oracle(m, n):
    a, b = Fraction(0), Fraction(17)
    P = (Fraction(-2), Fraction(3))
    expected = o_add(a, b, o_mul(a, b, m, P), o_mul(a, b, n, P))
    got = E17.add(E17.scalar_mul(m, qpt(-2, 3)), E17.scalar_mul(n, qpt(-2, 3)))
    if expected is None:
        assert got.is_infinity
    else:
        assert (Fraction(got.x.value.num, got.x.value.den),
                Fraction(got.y.value.num, got.y.value.den)) == expected


# the raw-value group law against the boxed affine formula in tests/oracles.py
F25_DEFAULT = ExtField(F5, 2)
F625 = ExtField(F5, 4)
F343 = ExtField(PrimeField(7), 3)
F239_2 = ExtField(PrimeField(239), 2)
E_MX = EllipticCurve(QQ, -1, 0)  # y^2 = x^3 - x: rank 0, torsion (Z/2)^2
RAW_LAW_CURVES = [
    EllipticCurve(K, a, b)
    for K in (F5, F25_DEFAULT, F625, PrimeField(7), F343)
    for a, b in ((0, 1), (-1, 0))
] + [EllipticCurve(F239_2, 0, 1), E17, E_MX]


@functools.lru_cache(maxsize=None)
def _raw_law_points(index):
    """Every point of a finite curve; small multiples and sums of points over Q."""
    curve = RAW_LAW_CURVES[index]
    if curve.field.is_finite:
        return curve.enumerate_points()
    if curve is E_MX:
        return [Point.infinity(), qpt(0, 0), qpt(1, 0), qpt(-1, 0)]
    P, Q = qpt(-2, 3), qpt(-1, 4)
    points = {
        boxed_add(curve, _oracle_scale(curve, m, P), _oracle_scale(curve, n, Q))
        for m in range(-2, 3)
        for n in range(-1, 2)
    }
    return sorted(points, key=Point.sort_key)


def _oracle_scale(curve, n, P):
    if n < 0 and not P.is_infinity:
        return _oracle_scale(curve, -n, Point(P.x, -P.y))
    acc = curve.identity()
    for _ in range(abs(n)):
        acc = boxed_add(curve, acc, P)
    return acc


@st.composite
def _raw_law_case(draw):
    index = draw(st.integers(0, len(RAW_LAW_CURVES) - 1))
    curve, points = RAW_LAW_CURVES[index], _raw_law_points(index)
    # indices, not sampled_from, which hashes the whole list on every draw
    P, Q = (points[draw(st.integers(0, len(points) - 1))] for _ in range(2))
    case = draw(st.sampled_from(["any", "double", "opposite", "O left", "O right", "2-torsion"]))
    if case == "double":
        Q = P
    elif case == "opposite":
        Q = curve._negate_unchecked(P)
    elif case == "O left":
        P = Point.infinity()
    elif case == "O right":
        Q = Point.infinity()
    elif case == "2-torsion":
        # y^2 = x^3 + 17 has no rational 2-torsion point
        P = draw(st.sampled_from(_halves(index) or [P]))
        Q = draw(st.sampled_from([P, Q]))
    return curve, P, Q, draw(st.integers(-7, 7))


@settings(max_examples=300, deadline=None)
@given(_raw_law_case())
def test_raw_group_law_agrees_with_the_boxed_formula(case):
    curve, P, Q, n = case
    expected = boxed_add(curve, P, Q)
    assert curve._box(curve._add_raw(P._raw(), Q._raw())) == expected
    assert curve._add_unchecked(P, Q) == expected
    multiple = _oracle_scale(curve, n, P)
    raw = scale(n, P._raw(), curve._add_raw, curve._neg_raw, None)
    assert curve._box(raw) == multiple
    assert curve._scalar_mul_unchecked(n, P) == multiple


@functools.lru_cache(maxsize=None)
def _halves(index):
    return [R for R in _raw_law_points(index) if not R.is_infinity and not R.y]


def test_raw_group_law_covers_every_case_on_every_field():
    # each case class the hypothesis test draws, on every curve it draws from
    for index, curve in enumerate(RAW_LAW_CURVES):
        points = _raw_law_points(index)
        P = next((R for R in points if not R.is_infinity and R.y), points[-1])
        cases = [(P, P), (P, curve._negate_unchecked(P)), (Point.infinity(), P),
                 (P, Point.infinity())]
        for T in _halves(index):
            assert curve._add_raw(T._raw(), T._raw()) is None
            cases += [(T, T), (T, P), (P, T)]
        assert len(cases) > 4 or curve is E17
        for left, right in cases:
            assert curve._add_unchecked(left, right) == boxed_add(curve, left, right)


@pytest.mark.parametrize("K", [PrimeField(7), F25_DEFAULT, F625, F343], ids=repr)
def test_enumeration_comes_out_sorted(K):
    for a, b in ((0, 1), (-1, 0), (1, 3)):
        points = EllipticCurve(K, a, b).enumerate_points()
        assert points == sorted(points, key=Point.sort_key)
        assert len(set(points)) == len(points)


# enumeration against tests/oracles.fq_points, on the tables each field keeps
ENUMERATION_FIELDS = [
    (5, None), (7, None), (11, None), (5, 2), (5, (2, 1, 1)), (5, 3),
]
ENUMERATION_CURVES = [(0, 1), (1, 1), (3, 2), (1, [1, 1])]


def _field(p, shape):
    """F_p, F_{p^k} with its default modulus for an int k, or with a given modulus."""
    if shape is None:
        return PrimeField(p)
    if isinstance(shape, int):
        return ExtField(PrimeField(p), shape)
    return ExtField(PrimeField(p), len(shape) - 1, modulus=shape)


def _coeffs(e):
    """An element as the oracle takes it: its coefficient tuple, (v,) over F_p."""
    return e.value if isinstance(e.value, tuple) else (e.value,)


def _as_tuples(points):
    """The oracle's form of enumerated points: None, or coefficient tuples."""
    return [None if P.is_infinity else (_coeffs(P.x), _coeffs(P.y)) for P in points]


def _oracle_points(curve):
    K = curve.field
    f = getattr(K, "modulus", (0, 1))
    return fq_points(_coeffs(curve.a), _coeffs(curve.b), f, K.characteristic)


def _count_kernels(monkeypatch, K):
    """The names of the sweep kernels called on K, one entry per call.

    A field is immutable, so the class is patched and only the calls on K
    are counted.
    """
    calls = []
    for name in ("_square_values", "_cubic_values"):
        kernel = getattr(type(K), name)

        def counted(field, *args, name=name, kernel=kernel):
            if field is K:
                calls.append(name)
            return kernel(field, *args)

        monkeypatch.setattr(type(K), name, counted)
    return calls


def _curves_over(K):
    out = []
    for a, b in ENUMERATION_CURVES:
        if isinstance(b, list) and K.base is None:
            continue
        out.append(EllipticCurve(K, a, b))
    return out


@pytest.mark.parametrize("p, shape", ENUMERATION_FIELDS)
def test_enumeration_agrees_with_the_square_table_oracle(monkeypatch, p, shape):
    K = _field(p, shape)
    first, second = _curves_over(K)[:2]
    kernels = _count_kernels(monkeypatch, K)
    # a fresh field: its tables are built, one square sweep, then one cubic sweep
    points = first.enumerate_points()
    assert kernels == ["_square_values", "_cubic_values"]
    assert _as_tuples(points) == _oracle_points(first)
    assert points == sorted(points, key=Point.sort_key)
    # the same object again: the same points, the same element objects, no square sweep
    del kernels[:]
    again = first.enumerate_points()
    assert again == points and kernels == ["_cubic_values"]
    assert all(P.x is Q.x and P.y is Q.y for P, Q in zip(points[1:], again[1:]))
    # every curve over the field object shares its tables
    for curve in _curves_over(K)[1:]:
        del kernels[:]
        got = curve.enumerate_points()
        assert kernels == ["_cubic_values"]
        assert _as_tuples(got) == _oracle_points(curve)
        assert got == sorted(got, key=Point.sort_key)
    # an equal but distinct field object builds its own, with the same points
    twin = _field(p, shape)
    assert twin == K and twin is not K
    twin_curve = EllipticCurve(twin, second.a.value, second.b.value)
    twin_kernels = _count_kernels(monkeypatch, twin)
    twin_points = twin_curve.enumerate_points()
    assert twin_kernels == ["_square_values", "_cubic_values"]
    assert twin_points == second.enumerate_points()
    assert all(P.x.field is twin for P in twin_points[1:])


def test_a_product_fiber_builds_the_tables_once(monkeypatch):
    from ectower.towers import Tower, extension_field, fiber

    built = []
    tables = curves._enumeration_tables

    def counted(K):
        built.append(K)
        return tables(K)

    monkeypatch.setattr(curves, "_enumeration_tables", counted)
    X = ProductVariety([E5, EllipticCurve(F5, 0, 2)])
    O = X.identity()
    K = extension_field(F5, 2)
    f = Tower(X, O, [O] * 3).level_map(2)
    assert len(fiber(f, O, field=K)) == 16
    assert len(fiber(f, O, field=K)) == 16
    assert built == [K] and built[0] is K
