import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ectower.config import Caps
from ectower.errors import BoundExceeded, DivisionByZero, MixedFields
from ectower.fields import (
    QQ,
    ExtField,
    PrimeField,
    Rational,
    find_irreducible,
    is_irreducible,
    is_prime,
)

F5 = PrimeField(5)
F25 = ExtField(F5, 2, modulus=(3, 0, 1))  # x^2 - 2 over F_5


def test_rational_canonical_form():
    r = Rational(6, -4)
    assert (r.num, r.den) == (-3, 2)
    assert (Rational(0, 7).num, Rational(0, 7).den) == (0, 1)
    with pytest.raises(DivisionByZero):
        Rational(1, 0)


def test_rational_parse_and_str():
    assert str(Rational.parse("-6/4")) == "-3/2"
    assert str(Rational.parse("17")) == "17"
    assert Rational.parse("2/3") * Rational.parse("3/4") == Rational(1, 2)


def test_prime_field_basics():
    assert (F5.element(3) + F5.element(4)).value == 2
    assert not is_prime(1)
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(BoundExceeded):
        PrimeField(10_000_019, caps=Caps(field_size=10_000_000))


def test_q_multiplication_cancels():
    a = QQ.element(Rational(2, 3))
    b = QQ.element(Rational(3, 4))
    assert (a * b).value == Rational(1, 2)


def test_ext_field_square_of_generator():
    # modulus x^2 - 2: 2 is a quadratic non-residue mod 5, checked exhaustively
    assert all(pow(z, 2, 5) != 2 for z in range(5))
    x = F25.element([0, 1])
    assert (x * x) == F25.element([2, 0])


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        F5.element(1) + QQ.element(1)
    with pytest.raises(MixedFields):
        F25.element([1, 0]) * F5.element(1)


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        F5.element(0).inverse()
    with pytest.raises(DivisionByZero):
        QQ.element(0).inverse()
    with pytest.raises(DivisionByZero):
        F25.element(0).inverse()


def test_find_irreducible_frozen_values():
    # degree 1 is always irreducible, the counter starts at x
    assert find_irreducible(5, 1) == (0, 1)
    # x^2 is reducible, x^2+1 = (x+2)(x+3) mod 5, x^2+2 has no root
    assert find_irreducible(5, 2) == (2, 0, 1)
    # exhaustive scan of the eight monic cubics over F_2
    assert find_irreducible(2, 3) == (1, 1, 0, 1)


def test_find_irreducible_agrees_with_exhaustive_check():
    for p, k in ((2, 3), (3, 2), (5, 2), (7, 2)):
        f = find_irreducible(p, k)
        assert is_irreducible(f, p)
        # nothing smaller in counter order is irreducible
        for m in range(_encode(f, p)):
            tail = []
            v = m
            for _ in range(k):
                tail.append(v % p)
                v //= p
            assert not is_irreducible(tuple(tail) + (1,), p)


def _encode(f, p):
    val = 0
    for c in reversed(f[:-1]):
        val = val * p + c
    return val


def test_find_irreducible_cap():
    with pytest.raises(BoundExceeded):
        find_irreducible(5, 30)


rationals = st.builds(
    Rational, st.integers(-50, 50), st.integers(1, 50)
)


@given(rationals, rationals, rationals)
def test_q_field_axioms(a, b, c):
    x, y, z = QQ.element(a), QQ.element(b), QQ.element(c)
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    if a != Rational(0):
        assert x * x.inverse() == QQ.one


@given(rationals)
def test_q_canonicalization(a):
    import math

    x = (QQ.element(a) + QQ.element(Rational(1, 3))) * QQ.element(Rational(3, 7))
    assert math.gcd(abs(x.value.num), x.value.den) == 1
    assert x.value.den > 0


@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_f25_field_axioms(i, j, k):
    els = [F25.element([i % 5, i // 5]) for i in range(25)]
    x, y, z = els[i], els[j], els[k]
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if x:
        assert x * x.inverse() == F25.one
    assert -x + x == F25.zero


@settings(max_examples=20)
@given(st.integers(0, 7**3 - 1))
def test_frobenius_identity(n):
    F343 = ExtField(PrimeField(7), 3)
    digits = [n % 7, (n // 7) % 7, (n // 49) % 7]
    a = F343.element(digits)
    assert a ** (7**3) == a


def test_elements_enumeration_sizes():
    assert len(list(F5.elements())) == 5
    assert len(list(F25.elements())) == 25


def test_q_elements_hash_like_the_ints_they_equal():
    assert QQ.element(1) == 1
    assert len({QQ.element(1), 1}) == 1
    assert hash(QQ.element(Rational(1, 2))) == hash(Rational(1, 2))
    assert {QQ.element(-3): "x"}[-3] == "x"
