import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from ectower.curves import EllipticCurve, Point, ProductPoint, ProductVariety
from ectower.errors import UnsupportedField
from ectower.fields import QQ, PrimeField, Rational
from ectower.torsion import (
    MAZUR_ORDERS,
    NonTorsionCertificate,
    TorsionCertificate,
    order_ff,
    rational_torsion_points,
    torsion_subgroup_Q,
    torsion_test_Q,
)

from oracles import nagell_lutz_torsion

E1 = EllipticCurve(QQ, 0, 1)
EMX = EllipticCurve(QQ, -1, 0)
E17 = EllipticCurve(QQ, 0, 17)
E5 = EllipticCurve(PrimeField(5), 0, 1)


def qpt(x, y):
    return Point(QQ.element(x), QQ.element(y))


def test_order_six_certificate():
    cert = torsion_test_Q(E1, qpt(2, 3))
    assert isinstance(cert, TorsionCertificate)
    assert cert.order == 6
    assert cert.verify()


def test_two_torsion_certificate():
    cert = torsion_test_Q(EMX, qpt(0, 0))
    assert isinstance(cert, TorsionCertificate)
    assert cert.order == 2
    assert cert.verify()


def test_non_torsion_certificate():
    cert = torsion_test_Q(E17, qpt(-2, 3))
    assert isinstance(cert, NonTorsionCertificate)
    assert tuple(m for m, _ in cert.evidence) == MAZUR_ORDERS
    assert all(not mult.is_infinity for _, mult in cert.evidence)
    assert cert.verify()


def test_decision_is_total():
    for P in (qpt(2, 3), qpt(0, 1), qpt(-1, 0)):
        cert = torsion_test_Q(E1, P)
        assert isinstance(cert, (TorsionCertificate, NonTorsionCertificate))


def test_certificates_reject_tampering():
    cert = torsion_test_Q(E1, qpt(2, 3))
    assert not TorsionCertificate(E1, cert.point, 3).verify()
    assert not TorsionCertificate(E1, cert.point, 12).verify()  # multiple, not minimal
    bad_point = qpt(0, 1)
    assert not TorsionCertificate(E1, bad_point, 6).verify()
    nt = torsion_test_Q(E17, qpt(-2, 3))
    tampered = NonTorsionCertificate(
        E17, nt.point, ((1, qpt(-2, 3)),) + nt.evidence[1:]
    )
    assert tampered.verify()  # first entry is the true multiple
    tampered = NonTorsionCertificate(
        E17, nt.point, ((1, qpt(-1, 4)),) + nt.evidence[1:]
    )
    assert not tampered.verify()


def test_inadmissible_order_refused_before_any_multiplication(monkeypatch):
    calls = []

    def counted(original):
        def scalar_mul(self, n, P):
            calls.append(n)
            return original(self, n, P)

        return scalar_mul

    for cls in (EllipticCurve, ProductVariety):
        monkeypatch.setattr(cls, "scalar_mul", counted(cls.scalar_mul))
    # (-2, 3) has infinite order: repeated doubling would never finish
    assert not TorsionCertificate(E17, qpt(-2, 3), 1048576).verify()
    assert not TorsionCertificate(E1, qpt(2, 3), 11).verify()
    X = ProductVariety([E1, E17])
    # 5040 is outside the lcm-closure of the Mazur orders (the divisors of 2520)
    assert not TorsionCertificate(X, ProductPoint([qpt(2, 3), qpt(-2, 3)]), 5040).verify()
    assert calls == []
    # an order that is an lcm of Mazur orders but not one itself is admissible on a product
    X = ProductVariety([EMX, E1])
    assert TorsionCertificate(X, ProductPoint([qpt(0, 0), qpt(0, 1)]), 6).verify()
    assert not TorsionCertificate(EMX, qpt(0, 0), 6).verify()
    assert calls


def test_requires_q():
    with pytest.raises(UnsupportedField):
        torsion_test_Q(E5, Point(PrimeField(5).element(0), PrimeField(5).element(1)))


def _as_pairs(subgroup):
    out = set()
    for P in subgroup.points:
        if P.is_infinity:
            out.add(None)
        else:
            out.add((Fraction(P.x.value.num, P.x.value.den),
                     Fraction(P.y.value.num, P.y.value.den)))
    return out


def test_torsion_subgroup_klein_four():
    sub = torsion_subgroup_Q(EMX)
    assert _as_pairs(sub) == nagell_lutz_torsion(-1, 0)
    assert len(sub.points) == 4
    assert sub.group.invariant_factors == (2, 2)
    assert all(c.verify() for c in sub.certificates)


def test_torsion_subgroup_z6():
    sub = torsion_subgroup_Q(E1)
    assert _as_pairs(sub) == nagell_lutz_torsion(0, 1)
    assert len(sub.points) == 6
    assert sub.group.invariant_factors == (6,)
    gen = qpt(2, 3)
    assert gen in sub.points


def test_torsion_subgroup_trivial():
    sub = torsion_subgroup_Q(E17)
    assert _as_pairs(sub) == nagell_lutz_torsion(0, 17)
    assert len(sub.points) == 1
    assert sub.group.is_trivial


def test_torsion_subgroup_closure():
    sub = torsion_subgroup_Q(E1)
    pts = set(sub.points)
    for P in pts:
        assert E1.negate(P) in pts
        for Q in pts:
            assert E1.add(P, Q) in pts


def test_torsion_subgroup_non_integral_model():
    # y^2 = x^3 + x/4: clearing denominators with u = 2 gives y^2 = x^3 + 4x,
    # whose torsion is Z/4; mapping back scales (x, y) by (1/u^2, 1/u^3)
    curve = EllipticCurve(QQ, Rational(1, 4), 0)
    sub = torsion_subgroup_Q(curve)
    scaled_back = {
        None if P is None else (P[0] / 4, P[1] / 8)
        for P in nagell_lutz_torsion(4, 0)
    }
    assert _as_pairs(sub) == scaled_back
    assert sub.group.invariant_factors == (4,)
    assert qpt(0, 0) in sub.points
    assert qpt(Rational(1, 2), Rational(1, 2)) in sub.points


def test_order_ff_examples():
    F5 = PrimeField(5)
    assert order_ff(E5, Point(F5.element(4), F5.element(0))) == 2
    assert order_ff(E5, Point.infinity()) == 1
    assert order_ff(E5, Point(F5.element(0), F5.element(1))) == 3


def test_order_ff_divides_group_order():
    for P in E5.enumerate_points():
        assert 6 % order_ff(E5, P) == 0


def test_product_torsion_decision():
    X = ProductVariety([E1, E17])
    P = ProductPoint([qpt(2, 3), Point.infinity()])
    cert = torsion_test_Q(X, P)
    assert isinstance(cert, TorsionCertificate)
    assert cert.order == 6
    assert cert.verify()
    Q = ProductPoint([qpt(2, 3), qpt(-2, 3)])
    cert = torsion_test_Q(X, Q)
    assert isinstance(cert, NonTorsionCertificate)
    assert cert.factor == 1
    assert cert.verify()


def test_product_rational_torsion_points():
    X = ProductVariety([EMX, E1])
    pts = rational_torsion_points(X)
    assert len(pts) == 24  # 4 * 6
    for P in pts:
        assert isinstance(torsion_test_Q(X, P), TorsionCertificate)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12))
def test_torsion_points_of_e1_have_small_order(m):
    # every multiple of the order-6 generator is torsion with order dividing 6
    P = E1.scalar_mul(m, qpt(2, 3))
    cert = torsion_test_Q(E1, P)
    assert isinstance(cert, TorsionCertificate)
    assert 6 % cert.order == 0


def test_order_ff_reaches_the_hasse_bound():
    # y^2 = x^3 + 3 over F_7 has 7 + 1 + 5 = 13 points, the most Hasse allows
    E = EllipticCurve(PrimeField(7), 0, 3)
    points = E.enumerate_points()
    assert len(points) == 13
    assert {order_ff(E, P) for P in points} == {1, 13}


def test_product_order_beyond_lcms_of_its_factors_refused(monkeypatch):
    # 2520 needs four factors (8, 9, 5, 7); on two factors it is no point order,
    # and multiplying the non-torsion coordinate by it would not finish
    def refuse(self, n, P):
        raise AssertionError("multiplied by an inadmissible order")

    monkeypatch.setattr(ProductVariety, "scalar_mul", refuse)
    X = ProductVariety([E1, E17])
    assert not TorsionCertificate(X, ProductPoint([qpt(2, 3), qpt(-2, 3)]), 2520).verify()
    assert not TorsionCertificate(ProductVariety([E1]), ProductPoint([qpt(2, 3)]), 14).verify()
