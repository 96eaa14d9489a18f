"""The F_p and F_{p^k} (k = 2, 3, 4) group-law kernels, and membership, against tests/oracles.py.

EllipticCurve._add_raw hands two affine points to its field's _chord_tangent:
PrimeField and ExtField at k = 2, 3 and 4 run it on plain ints, every other
field (Q, F_{p^k} for k = 1 and k >= 5) runs the generic law through the
field's own operations.  Each kernel is checked against the affine formula
in the oracles' plain-int F_p[x]/(f) arithmetic (fq_point_add), which
inverts by the extended Euclidean algorithm rather than by the norm, and
against the boxed formula (boxed_add), on random pairs and on every special
case: doubling, P + (-P), a point with y = 0, and O on either side.  Each
extension is taken with its default modulus and with the first irreducible
x^2 + x + c0 (k = 2) or x^k + x^2 + x + c0 (k = 3, 4), so that the reduction
rows have nonzero x and x^2 terms; curve coefficients outside F_p are
covered too.
"""

import random
from fractions import Fraction

import pytest

from ectower.curves import EllipticCurve, Point, ProductPoint
from ectower.fields import QQ, ExtField, Field, PrimeField, Rational, is_irreducible

from oracles import boxed_add, fq_mul, fq_point_add, o_add, on_curve


def _ext(p, modulus=None, k=2):
    return ExtField(PrimeField(p), k, modulus)


def _first_modulus_with_low_terms(p, k=2):
    """The first irreducible x^2 + x + c0, or x^k + x^2 + x + c0 for k >= 3, over F_p."""
    tail = (1,) * min(k - 1, 2) + (0,) * (k - 3) + (1,)
    return next((c0,) + tail for c0 in range(p) if is_irreducible((c0,) + tail, p))


def _ext_pair(p, k):
    """F_{p^k} with its default modulus and with one with nonzero x and x^2 terms."""
    return [_ext(p, None, k), _ext(p, _first_modulus_with_low_terms(p, k), k)]


FIELDS = [PrimeField(p) for p in (5, 7, 239, 719)] + [
    _ext(5),
    _ext(5, (2, 1, 1)),
    _ext(7),
    _ext(239),
    _ext(719),
    _ext(719, _first_modulus_with_low_terms(719)),
] + [K for p, k in ((5, 3), (7, 3), (11, 3), (5, 4), (7, 4)) for K in _ext_pair(p, k)]


def _oracle_value(value):
    """A raw value as the oracles' coefficient tuple: an F_p int becomes a 1-tuple."""
    return value if isinstance(value, tuple) else (value,)


def _oracle_modulus(K):
    return K.modulus if isinstance(K, ExtField) else (0, 1)


def _oracle_point(P):
    if P is None:
        return None
    return tuple(_oracle_value(v) for v in P)


def _curves(K, rng):
    """(curve, roots of x^3 + a x + b) for y^2 = x^3 + 1, y^2 = x^3 - x and a random
    curve through a chosen (r, 0); the roots listed are those known, not all."""
    one = K._coerce(1)
    curves = [(EllipticCurve(K, 0, 1), [K._neg(one)]),
              (EllipticCurve(K, -1, 0), [K._coerce(0), one, K._neg(one)])]
    while len(curves) < 3:
        a, r = K._random(rng), K._random(rng)
        # b = -(r^3 + a r) puts (r, 0) on the curve
        b = K._neg(K._add(K._mul(K._mul(r, r), r), K._mul(a, r)))
        try:
            curves.append((EllipticCurve(K, K.element(a), K.element(b)), [r]))
        except ValueError:  # singular
            continue
    return curves


def _random_points(curve, rng, count):
    """Points with a random x, each checked on the curve in the oracle's arithmetic."""
    K = curve.field
    f, p = _oracle_modulus(K), K.characteristic
    a, b = curve.a.value, curve.b.value
    points = []
    while len(points) < count:
        x = K._random(rng)
        y = K._sqrt(K._add(K._mul(K._add(K._mul(x, x), a), x), b))
        if y is None:
            continue
        ox, oy, oa, ob = (_oracle_value(v) for v in (x, y, a, b))
        rhs = [(u + v + w) % p for u, v, w in
               zip(fq_mul(fq_mul(ox, ox, f, p), ox, f, p), fq_mul(oa, ox, f, p), ob)]
        assert list(fq_mul(oy, oy, f, p)) == rhs
        points.append((x, y))
    return points


def _cases(curve, roots, rng):
    points = _random_points(curve, rng, 24)
    neg = curve._neg_raw
    halves = [(x, curve.field._coerce(0)) for x in roots]
    cases = [(rng.choice(points), rng.choice(points)) for _ in range(60)]
    for P in points[:8]:
        cases += [(P, P), (P, neg(P)), (neg(P), P), (None, P), (P, None)]
    for T in halves:
        cases += [(T, T), (T, points[0]), (points[0], T), (None, T), (T, None)]
    return cases + [(None, None)]


@pytest.mark.parametrize("K", FIELDS, ids=lambda K: "%r/%r" % (K, getattr(K, "modulus", "")))
def test_kernels_agree_with_the_fq_oracle_and_the_boxed_formula(K):
    rng = random.Random(7)
    f, p = _oracle_modulus(K), K.characteristic
    for curve, roots in _curves(K, rng):
        a = _oracle_value(curve.a.value)
        for P, Q in _cases(curve, roots, rng):
            got = curve._add_raw(P, Q)
            assert _oracle_point(got) == fq_point_add(
                a, _oracle_point(P), _oracle_point(Q), f, p
            )
            assert curve._box(got) == boxed_add(curve, curve._box(P), curve._box(Q))


KERNEL_FIELDS = [PrimeField(7), _ext(5, (2, 1, 1)), _ext(719)] + [
    _ext(p, _first_modulus_with_low_terms(p, k), k) for p, k in ((5, 3), (7, 4))
]


@pytest.mark.parametrize("K", KERNEL_FIELDS, ids=repr)
def test_kernel_additions_make_no_field_method_call(K, monkeypatch):
    rng = random.Random(1)
    curve = _curves(K, rng)[2][0]
    P, Q = _random_points(curve, rng, 2)
    calls = []
    for name in ("_add", "_sub", "_mul", "_inv", "_neg", "_coerce", "_pow", "_frobenius"):
        original = getattr(type(K), name, None)
        if original is None:  # PrimeField has no _frobenius
            continue

        def counted(*args, original=original):
            calls.append(original)
            return original(*args)

        monkeypatch.setattr(type(K), name, counted)
    curve._add_raw(P, Q)
    curve._add_raw(P, P)
    assert calls == []
    assert type(K)._chord_tangent is not Field._chord_tangent


def test_higher_degrees_and_q_keep_the_generic_law(monkeypatch):
    calls = []
    generic = Field._chord_tangent

    def counted(*args):
        calls.append(args[0])
        return generic(*args)

    monkeypatch.setattr(Field, "_chord_tangent", counted)
    # F_{5^5}: k = 5 is past the kernels; F_{3^5} would do, but curves refuse char 3
    K = _ext(5, None, 5)
    rng = random.Random(5)
    for curve, roots in _curves(K, rng):
        a = curve.a.value
        for P, Q in _cases(curve, roots, rng)[::6]:
            calls.clear()
            got = curve._add_raw(P, Q)
            assert calls == ([K] if P is not None and Q is not None else [])
            assert got == fq_point_add(a, P, Q, K.modulus, 5)
    # over Q, against the Fraction formula of the oracles
    E = EllipticCurve(QQ, 0, 17)
    R, S = Point(QQ.element(-2), QQ.element(3)), Point(QQ.element(-1), QQ.element(4))
    calls.clear()
    for left, right in ((R, S), (R, R), (S, E._negate_unchecked(S))):
        got = E._add_unchecked(left, right)
        expected = o_add(Fraction(0), Fraction(17), _fraction_point(left), _fraction_point(right))
        assert _fraction_point(got) == expected
    assert calls == [QQ] * 3


def _fraction_point(P):
    if P.is_infinity:
        return None
    return tuple(Fraction(v.value.num, v.value.den) for v in (P.x, P.y))


# --- membership --------------------------------------------------------------


@pytest.mark.parametrize(
    "K", [PrimeField(5), PrimeField(7), _ext(5), _ext(5, (2, 1, 1))], ids=repr
)
def test_contains_agrees_with_the_oracle_on_every_pair(K):
    rng = random.Random(3)
    for curve, _ in _curves(K, rng):
        values = list(K.elements())
        for x in values:
            for y in values:
                P = Point(x, y)
                assert curve.contains(P) == on_curve(curve.a, curve.b, (x, y))
        assert curve.contains(Point.infinity())


def test_contains_agrees_with_the_oracle_over_q():
    on = 0
    for a, b in ((0, 1), (0, 17), (-1, 0), (-3, 5)):
        curve = EllipticCurve(QQ, a, b)
        for x in (Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 4)):
            for y in (Fraction(n, d) for n in range(-6, 7) for d in (1, 8)):
                P = Point(*(QQ.element(Rational(v.numerator, v.denominator)) for v in (x, y)))
                assert curve.contains(P) == on_curve(Fraction(a), Fraction(b), (x, y))
                on += curve.contains(P)
    assert on >= 10  # (2, +-3) and (-1, 0) on the first, (-2, +-3) on the second, ...


def test_contains_refuses_other_shapes_and_fields():
    F5, F7 = PrimeField(5), PrimeField(7)
    E5, F25 = EllipticCurve(F5, 0, 1), _ext(5)
    P = Point(F5.element(0), F5.element(1))
    assert E5.contains(P)
    for other in (None, (0, 1), ProductPoint([P]), ProductPoint([P, P])):
        assert not E5.contains(other)
    # the same values in another field, and F_5 values on the F_25 curve
    assert not E5.contains(Point(F7.element(0), F7.element(1)))
    assert not EllipticCurve(F25, 0, 1).contains(P)
    assert not E5.contains(Point(F5.element(0), F7.element(1)))


@pytest.mark.parametrize("K", [QQ, PrimeField(5), _ext(5, (2, 1, 1)), ExtField(PrimeField(5), 3)],
                         ids=repr)
def test_singular_curves_are_refused(K):
    # a = -3 t^2, b = 2 t^3 gives 4 a^3 + 27 b^2 = 0 for every t
    t = K.element([1, 1]) if isinstance(K, ExtField) else K.element(2)
    with pytest.raises(ValueError, match="^singular curve: discriminant is zero$"):
        EllipticCurve(K, -3 * t * t, 2 * t * t * t)
    with pytest.raises(ValueError, match="^singular curve"):
        EllipticCurve(K, 0, 0)
    if K == PrimeField(5):
        # 4 * 2^3 + 27 * 2^2 = 140 = 0 mod 5, though not over Z
        with pytest.raises(ValueError, match="^singular curve"):
            EllipticCurve(K, 2, 2)
