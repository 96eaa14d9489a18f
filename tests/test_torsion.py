import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ectower import torsion
from ectower.config import DEFAULT_CAPS
from ectower.curves import EllipticCurve, Point, ProductPoint, ProductVariety
from ectower.errors import BoundExceeded, UnsupportedField
from ectower.fields import QQ, PrimeField, Rational
from ectower.serialize import find_certificates, parse_non_torsion_certificate
from ectower.torsion import (
    MAZUR_ORDERS,
    NonTorsionCertificate,
    TorsionCertificate,
    order_ff,
    rational_torsion_points,
    torsion_subgroup_Q,
    torsion_test_Q,
)

from oracles import mazur_walk, nagell_lutz_torsion, o_mul, o_order

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
    # the admissibility walk fixes the exact order over Q: no replay multiplies
    assert calls == []


def test_requires_q():
    with pytest.raises(UnsupportedField):
        torsion_test_Q(E5, Point(PrimeField(5).element(0), PrimeField(5).element(1)))


def _pair(P):
    if P.is_infinity:
        return None
    return (Fraction(P.x.value.num, P.x.value.den), Fraction(P.y.value.num, P.y.value.den))


def _as_pairs(subgroup):
    return {_pair(P) for P in subgroup.points}


def test_torsion_subgroup_klein_four():
    sub = torsion_subgroup_Q(EMX)
    assert _as_pairs(sub) == nagell_lutz_torsion(-1, 0)
    assert len(sub.points) == 4
    assert sub.group.invariant_factors == (2, 2)
    assert all(c.verify() for c in sub.certificates)


def test_torsion_subgroup_decides_each_candidate_once(monkeypatch):
    decided = []
    original = torsion.torsion_test_Q

    def counted(V, P):
        decided.append(P)
        return original(V, P)

    monkeypatch.setattr(torsion, "torsion_test_Q", counted)
    sub = torsion_subgroup_Q(EMX)
    candidates = torsion._nagell_lutz_candidates(-1, 0, DEFAULT_CAPS)
    assert len(decided) == 1 + len(candidates) == 4
    assert len(set(decided)) == len(decided)
    assert _as_pairs(sub) == nagell_lutz_torsion(-1, 0)
    assert [c.point for c in sub.certificates] == list(sub.points)
    for cert in sub.certificates:
        assert cert.order == o_order(-1, 0, _pair(cert.point))
        assert cert.verify()


def test_nagell_lutz_search_refused_beyond_field_cap():
    # y would run to isqrt(16*4*(10^12 + 7)^3), about 8*10^18
    with pytest.raises(BoundExceeded):
        torsion_subgroup_Q(EllipticCurve(QQ, 10**12 + 7, 0))
    # a near-miss of x^3 = y^2 (Elkies): 4a^3 + 27b^2 = 108*1641843 is small, but
    # the root search would trial-divide b, about 9*10^23, up to its square root
    x, y = 5853886516781223, 447884928428402042307918
    assert x**3 - y**2 == 1641843
    with pytest.raises(BoundExceeded):
        torsion_subgroup_Q(EllipticCurve(QQ, -3 * x, 2 * y))


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


def test_non_torsion_coordinate_refused_within_a_time_budget():
    # 630 = lcm(6, 2, ...) is admissible as an lcm of Mazur orders on three
    # factors, but (-2, 3) has infinite order; multiplying it by 630 took
    # seconds as heights grew, walking it twelve steps does not
    X = ProductVariety([E1, EMX, E17])
    P = ProductPoint([qpt(2, 3), qpt(0, 0), qpt(-2, 3)])
    start = time.perf_counter()
    assert not TorsionCertificate(X, P, 630).verify()
    assert time.perf_counter() - start < 5


def test_order_six_on_product_of_two_and_three_torsion_verifies():
    X = ProductVariety([EMX, E1])
    P = ProductPoint([qpt(0, 0), qpt(0, 1)])
    assert TorsionCertificate(X, P, 6).verify()
    assert not TorsionCertificate(X, P, 2).verify()
    assert not TorsionCertificate(X, P, 12).verify()


def test_replay_over_q_accepts_exactly_the_oracle_order():
    # the order of a product point is the lcm of its coordinates' orders,
    # each found by the oracle's plain repeated addition
    X = ProductVariety([EMX, E1])
    for P in rational_torsion_points(X):
        coords = [
            None if q.is_infinity else tuple(Fraction(c.value.num, c.value.den) for c in (q.x, q.y))
            for q in P.coords
        ]
        exact = math.lcm(o_order(-1, 0, coords[0]), o_order(0, 1, coords[1]))
        for order in range(1, 13):
            assert TorsionCertificate(X, P, order).verify() == (order == exact)


# --- non-torsion replay by one walk ---------------------------------------------

E5T = EllipticCurve(QQ, -432, 8208)  # 11a3 in short form; (-12, 108) has order 5


def _whole_point_certificate(V, P):
    """Evidence on the whole point, as a product certificate without a factor."""
    return NonTorsionCertificate(
        V, P, tuple((m, V._scalar_mul_unchecked(m, P)) for m in MAZUR_ORDERS)
    )


def _replay_cases():
    X = ProductVariety([E1, E17])
    P = ProductPoint([qpt(2, 3), qpt(-2, 3)])
    return [
        torsion_test_Q(E17, qpt(-2, 3)),
        torsion_test_Q(E17, E17.scalar_mul(-5, qpt(-2, 3))),
        torsion_test_Q(X, P),  # factor 1
        _whole_point_certificate(X, P),  # no factor: the walk tracks the whole point
    ]


def test_walk_evidence_matches_the_fraction_oracle():
    cert = torsion_test_Q(E17, qpt(-2, 3))
    for m, multiple in cert.evidence:
        x, y = (Fraction(c.value.num, c.value.den) for c in (multiple.x, multiple.y))
        assert o_mul(0, 17, m, (Fraction(-2), Fraction(3))) == (x, y)


@pytest.mark.parametrize("cert", _replay_cases(), ids=["curve", "curve-5P", "factor", "whole"])
def test_walk_replay_refuses_every_tampered_multiple(cert):
    assert cert.verify()
    curve, _ = cert._tracked()
    ev = list(cert.evidence)
    for k in range(len(ev)):
        m, multiple = ev[k]
        for fake in (curve._negate_unchecked(multiple), ev[(k + 1) % len(ev)][1],
                     curve.identity()):
            tampered = ev[:k] + [(m, fake)] + ev[k + 1:]
            assert not NonTorsionCertificate(
                cert.variety, cert.point, tuple(tampered), cert.factor).verify(), k


@pytest.mark.parametrize("cert", _replay_cases(), ids=["curve", "curve-5P", "factor", "whole"])
def test_walk_replay_refuses_reordered_or_missing_orders(cert):
    ev = list(cert.evidence)
    variants = [
        ev[1:],  # m = 1 missing
        ev[:-1],  # m = 12 missing
        [ev[1], ev[0]] + ev[2:],  # two entries swapped
        ev[::-1],
        ev + [ev[-1]],  # m = 12 twice
        [(11, ev[-1][1]) if m == 12 else (m, mp) for m, mp in ev],  # 11 for 12
    ]
    for variant in variants:
        assert not NonTorsionCertificate(
            cert.variety, cert.point, tuple(variant), cert.factor).verify()


def test_walk_replay_refuses_fake_evidence_for_torsion_points():
    # the true multiples of a torsion point include O at its order
    for V, P in ((E1, qpt(2, 3)), (EMX, qpt(0, 0)), (E1, Point.infinity())):
        assert not _whole_point_certificate(V, P).verify()
        # and evidence copied from a non-torsion point does not fit either
        other = torsion_test_Q(E17, qpt(-2, 3)).evidence
        assert not NonTorsionCertificate(V, P, other).verify()


def test_whole_point_replay_refuses_a_torsion_point_of_order_fifteen():
    # orders 3 and 5 on the two factors: no Mazur multiple of the whole point
    # vanishes, but the point has order 15
    X = ProductVariety([E1, E5T])  # (0, 1) has order 3 on E1
    P = ProductPoint([qpt(0, 1), qpt(-12, 108)])
    assert torsion_test_Q(X, P) == TorsionCertificate(X, P, 15)
    cert = _whole_point_certificate(X, P)
    assert not any(mp.is_infinity for _, mp in cert.evidence)
    assert not cert.verify()
    # with a non-torsion factor, whole-point evidence proves non-torsion
    X = ProductVariety([E1, E17])
    assert _whole_point_certificate(X, ProductPoint([qpt(0, 1), qpt(-2, 3)])).verify()


def test_every_golden_non_torsion_certificate_still_verifies():
    golden = Path(__file__).resolve().parent / "golden"
    files = sorted(golden.glob("*.report.json")) + [golden / "verify-handmade.job.json"]
    seen = {"factor": 0, "whole": 0, "curve": 0}
    for path in files:
        for _, obj in find_certificates(json.loads(path.read_text())):
            obj = obj.get("non_torsion", obj)
            if obj["certificate"] != "non_torsion":
                continue
            cert = parse_non_torsion_certificate(obj)
            assert cert.verify(), path.name
            if isinstance(cert.variety, ProductVariety):
                seen["whole" if cert.factor is None else "factor"] += 1
            else:
                seen["curve"] += 1
    assert all(seen.values()), seen


# --- the walk from division values, against the walk by addition ----------------

# a torsion point of each Mazur order on a short Weierstrass model over Q:
# (A, B, x, y, order); 8, 9, 10 and 12 come from Kubert's Tate normal forms at t = 2
MAZUR_EXAMPLES = [
    (0, 1, 0, 1, 3),
    (4, 0, 2, 4, 4),  # y^2 = x^3 + 4x
    (-432, 8208, -12, 108, 5),
    (0, 1, 2, 3, 6),
    (-43, 166, 3, 8, 7),
    (-44091, 3304854, -141, -2592, 8),
    (-219, 1654, -13, -48, 9),
    (-58347, 3954150, -213, -2592, 10),
    (-33339627, 73697852646, 3027, -22680, 12),
]
# points of infinite order on curves with A != 0
E_A = [
    (EllipticCurve(QQ, -2, 5), qpt(1, 2)),
    (EllipticCurve(QQ, -43, 166), qpt(3, 8)),  # order 7
    (EllipticCurve(QQ, 1, 1), qpt(0, 1)),
    (EllipticCurve(QQ, -7, 10), qpt(1, 2)),
]


def _division_path(monkeypatch):
    """The points that took the walk by addition during the test."""
    walked = []
    walk = torsion._walk_by_addition

    def counted(curve, P):
        walked.append(P)
        return walk(curve, P)

    monkeypatch.setattr(torsion, "_walk_by_addition", counted)
    return walked


def test_walk_matches_the_oracle_on_multiples_of_a_non_torsion_point(monkeypatch):
    walked = _division_path(monkeypatch)
    P = qpt(-2, 3)
    for d in range(1, 12):
        for Q in (E17.scalar_mul(d, P), E17.scalar_mul(-d, P)):
            assert torsion._mazur_walk(E17, Q) == mazur_walk(E17, Q), d
    assert walked == []


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(E_A), st.integers(-9, 9))
def test_walk_matches_the_oracle_on_curves_with_a_linear_term(curve_point, d):
    curve, P = curve_point
    Q = curve.scalar_mul(d, P)
    assert torsion._mazur_walk(curve, Q) == mazur_walk(curve, Q)


def test_walk_finds_every_mazur_order_from_division_values(monkeypatch):
    walked = _division_path(monkeypatch)
    for A, B, x, y, order in MAZUR_EXAMPLES:
        assert o_order(A, B, (Fraction(x), Fraction(y))) == order
        curve = EllipticCurve(QQ, A, B)
        for P in (qpt(x, y), qpt(x, -y)):
            walk = torsion._mazur_walk(curve, P)
            assert walk[0] == order
            assert walk == mazur_walk(curve, P)
    assert walked == []


def _fallbacks():
    # each point below that is off its curve would be on it if the walk
    # read only the numerators: (0, 1) on y^2 = x^3 + x + 1, (-2, 3) on E17
    X = ProductVariety([E1, E17])
    return [
        (E17, Point.infinity()),
        (EMX, qpt(0, 0)),  # y = 0
        (X, ProductPoint([qpt(2, 3), qpt(-2, 3)])),
        (X, X.identity()),
        (EllipticCurve(QQ, Rational(1, 2), 1), qpt(0, 1)),
        (E17, qpt(1, 1)),  # off the curve
        (E17, qpt(Rational(-2, 3), 3)),  # x's denominator is no square
        (E17, qpt(-2, Rational(3, 2))),  # y's is not e^3
    ]


@pytest.mark.parametrize(
    "curve, P", _fallbacks(),
    ids=["O", "y=0", "product", "product-O", "non-integral", "off-curve", "den-x", "den-y"],
)
def test_every_fallback_walks_by_addition_as_the_oracle(monkeypatch, curve, P):
    walked = _division_path(monkeypatch)
    assert torsion._mazur_walk(curve, P) == mazur_walk(curve, P)
    assert walked == [P]


def test_a_remainder_in_the_division_by_2b_walks_by_addition(monkeypatch):
    # on the curve the division is exact; a divmod that leaves a remainder
    # stands in for a point where it is not
    walked = _division_path(monkeypatch)
    P = E17.scalar_mul(3, qpt(-2, 3))
    monkeypatch.setattr(torsion, "divmod", lambda n, d: (n // d, 1), raising=False)
    assert torsion._mazur_walk(E17, P) == mazur_walk(E17, P)
    assert walked == [P]


# --- one gcd per multiple, against the walk that reduced x and y apart ------------

# non-torsion points on integral curves: y^2 = x^3 + 17, x^3 - 2, x^3 - 36x, x^3 - x + 1
ONE_GCD_CURVES = [
    (E17, qpt(-2, 3)),
    (EllipticCurve(QQ, 0, -2), qpt(3, 5)),
    (EllipticCurve(QQ, -36, 0), qpt(-3, 9)),
    (EllipticCurve(QQ, -1, 1), qpt(1, 1)),
] + [(EllipticCurve(QQ, A, B), qpt(x, y)) for A, B, x, y, _ in MAZUR_EXAMPLES]


def _two_gcd_walk(curve, P):
    """(walk, whether some x had a common factor): each coordinate reduced by its own gcd."""
    W = torsion._division_values(curve, P)
    x, y = P.x.value, P.y.value
    evidence, reduced = [], False
    for m in MAZUR_ORDERS:
        w = W[m]
        if not w:
            return (m, evidence), reduced
        w2 = w * w
        nx, dx = x.num * w2 - W[m - 1] * W[m + 1], x.den * w2
        reduced = reduced or math.gcd(nx, dx) > 1
        my = Rational(
            W[m + 2] * W[m - 1] ** 2 - W[m - 2] * W[m + 1] ** 2, 4 * y.num * w2 * w * y.den
        )
        evidence.append((m, curve._box((Rational(nx, dx), my))))
    return (None, evidence), reduced


def test_one_gcd_walk_matches_addition_and_the_two_gcd_walk(monkeypatch):
    by_addition = torsion._walk_by_addition
    walked = _division_path(monkeypatch)
    seen = {"g > 1": 0, "e > 1": 0}
    for curve, P in ONE_GCD_CURVES:
        for d in range(1, 13):
            for Q in (curve.scalar_mul(d, P), curve.scalar_mul(-d, P)):
                if torsion._division_values(curve, Q) is None:
                    continue  # O or y = 0, which the walk adds to itself
                walk = torsion._mazur_walk(curve, Q)
                old, reduced = _two_gcd_walk(curve, Q)
                assert walk == old == by_addition(curve, Q), (curve, d)
                seen["g > 1"] += reduced
                seen["e > 1"] += Q.x.value.den > 1
    assert walked == []
    assert all(seen.values()), seen


def test_the_walk_takes_one_gcd_per_mazur_multiple(monkeypatch):
    gcds = []
    gcd = math.gcd

    def counted(*args):
        gcds.append(args)
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", counted)
    walks = 0
    for curve, P in ONE_GCD_CURVES:
        for Q in (P, curve.scalar_mul(5, P)):
            if torsion._division_values(curve, Q) is None:
                continue  # 5P is O at order 5 and has y = 0 at order 10
            del gcds[:]
            order, evidence = torsion._mazur_walk(curve, Q)
            passed = [m for m in MAZUR_ORDERS if order is None or m < order]
            assert [m for m, _ in evidence] == passed
            assert len(gcds) == len(passed)
            walks += 1
    assert walks == 2 * len(ONE_GCD_CURVES) - 2
