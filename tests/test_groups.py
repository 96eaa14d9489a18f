import pytest

from ectower.curves import EllipticCurve, Point, ProductVariety
from ectower.fields import QQ, ExtField, PrimeField
from ectower.groups import FiniteAbelianGroup, element_orders, scale
from ectower.towers import extension_field, realize_variety

from oracles import divisor_scan_order

O = Point.infinity()


def _check_orders(points, add, identity):
    orders = element_orders(points, add, identity)
    assert set(orders) == set(points)
    for P in points:
        assert orders[P] == divisor_scan_order(P, add, identity, len(points))


@pytest.mark.parametrize("p, degrees", [(5, 4), (7, 3)])
def test_element_orders_match_divisor_scan(p, degrees):
    F = PrimeField(p)
    for k in range(1, degrees + 1):
        E = realize_variety(EllipticCurve(F, 0, 1), extension_field(F, k))
        _check_orders(E.enumerate_points(), E._add_unchecked, O)


def test_element_orders_match_divisor_scan_on_product_kernel():
    F5 = PrimeField(5)
    K = extension_field(F5, 2)
    V = ProductVariety(
        [realize_variety(EllipticCurve(F5, 0, b), K) for b in (1, 2)]
    )
    kernels = [[P for P in c.enumerate_points() if c.scalar_mul(3, P).is_infinity]
               for c in V.factors]
    points = [V.embed(0, P) for P in kernels[0]]
    points = [V._add_unchecked(A, V.embed(1, Q)) for A in points for Q in kernels[1]]
    assert len(points) == 81
    _check_orders(points, V._add_unchecked, V.identity())


def test_element_orders_rejects_non_group():
    F7 = PrimeField(7)
    E = EllipticCurve(F7, 0, 1)
    P = E.point(0, 1)  # order 3, listed as if it formed a group of order 2
    with pytest.raises(ArithmeticError):
        element_orders([O, P], E._add_unchecked, O)


def test_generators_must_be_parallel_to_factors():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((2, 4), ("a",))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4,), ("a", "b"))
    assert FiniteAbelianGroup((2, 4), ("a", "b")).generators == ("a", "b")
    # a unit factor drops out together with its generator
    assert FiniteAbelianGroup((1, 4), ("o", "b")).generators == ("b",)
    assert FiniteAbelianGroup((2, 4)).generators is None


def _scale_cases():
    E25 = EllipticCurve(ExtField(PrimeField(5), 2, modulus=(3, 0, 1)), 0, 1)
    orders = element_orders(E25.enumerate_points(), E25._add_unchecked, O)
    P25 = max(orders, key=lambda P: (orders[P], P.sort_key()))
    E17 = EllipticCurve(QQ, 0, 17)
    return [(E25, P25), (E17, E17.point(-2, 3))]


@pytest.mark.parametrize("curve, P", _scale_cases(), ids=["F25", "Q"])
def test_scale_matches_repeated_addition(curve, P):
    multiples = [O]
    for _ in range(64):
        multiples.append(curve._add_unchecked(multiples[-1], P))
    calls = 0

    def add(A, B):
        nonlocal calls
        calls += 1
        return curve._add_unchecked(A, B)

    for n in range(-20, 65):
        calls = 0
        got = scale(n, P, add, curve._negate_unchecked, O)
        want = multiples[abs(n)]
        assert got == (curve._negate_unchecked(want) if n < 0 else want), n
        if n >= 1:
            assert calls == bin(n).count("1") + n.bit_length() - 1, n
        if n == 0:
            assert calls == 0
