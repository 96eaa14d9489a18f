import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ectower.config import Caps
from ectower.errors import BoundExceeded, DivisionByZero, MixedFields
from ectower.fields import (
    QQ,
    ExtField,
    Field,
    PrimeField,
    Rational,
    find_irreducible,
    is_irreducible,
    is_prime,
)
from ectower.serialize import parse_field

from oracles import fq_add, fq_inv, fq_mul, fq_neg, fq_pow, fq_sub

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
    product = QQ.element(Rational.parse("2/3")) * QQ.element(Rational.parse("3/4"))
    assert product.value == Rational(1, 2)


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


def test_extension_takes_its_prime_field_elements_as_constants():
    assert F25.element(F5.element(3)) == F25.element([3, 0])
    assert F5.element(F5.element(3)) == F5.element(3)
    for field, x in ((F5, F25.element([1, 0])), (PrimeField(7), F5.element(1)),
                     (QQ, F5.element(1)), (F25, QQ.element(1))):
        with pytest.raises(MixedFields):
            field.element(x)


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
    with pytest.raises(BoundExceeded, match="^p\\^k = 5\\^30 exceeds cap 10000000$"):
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


# Q arithmetic against fractions.Fraction: zero, negatives and integers over 10^300
_ints = st.one_of(
    st.just(0),
    st.integers(-50, 50),
    st.integers(10**300, 10**310),
    st.integers(-(10**310), -(10**300)),
)
_dens = st.one_of(st.integers(1, 50), st.integers(10**300, 10**310))


def _normalized_like(r, f):
    assert math.gcd(abs(r.num), r.den) == 1
    assert r.den > 0
    if r.num == 0:
        assert r.den == 1
    assert (r.num, r.den) == (f.numerator, f.denominator)


@settings(max_examples=300)
@given(_ints, _dens, _ints, _dens, st.integers(-(10**301), 10**301))
def test_rational_agrees_with_fraction(an, ad, bn, bd, k):
    a, b = QQ.element(Rational(an, ad)), QQ.element(Rational(bn, bd))
    fa, fb = Fraction(an, ad), Fraction(bn, bd)
    _normalized_like(a.value, fa)
    _normalized_like(b.value, fb)
    _normalized_like((a + b).value, fa + fb)
    _normalized_like((a - b).value, fa - fb)
    _normalized_like((a * b).value, fa * fb)
    _normalized_like((a * a).value, fa * fa)
    _normalized_like((-a).value, -fa)
    _normalized_like((a + k).value, fa + k)
    _normalized_like((k - a).value, k - fa)
    _normalized_like((a * k).value, fa * k)
    if b:
        _normalized_like((a / b).value, fa / fb)
        _normalized_like((k / b).value, k / fb)
        _normalized_like(b.inverse().value, 1 / fb)
    else:
        with pytest.raises(DivisionByZero):
            a / b
        with pytest.raises(DivisionByZero):
            b.inverse()
    if k:
        _normalized_like((a / k).value, fa / k)


@pytest.mark.parametrize("p, k", [(5, 4), (7, 3)])
def test_every_nonzero_element_times_its_inverse_is_one(p, k):
    explicit = {(5, 4): (3, 1, 0, 1, 1), (7, 3): (1, 6, 2, 1)}[(p, k)]
    for K in (ExtField(PrimeField(p), k), ExtField(PrimeField(p), k, explicit)):
        one = K.one
        for x in K.elements():
            if x != K.zero:
                assert x * x.inverse() == one
                assert x.inverse().value == fq_inv(x.value, K.modulus, p)
        with pytest.raises(DivisionByZero):
            K.zero.inverse()


def test_inverse_on_a_seeded_sample_of_f_239_squared():
    K = ExtField(PrimeField(239), 2)
    rng = random.Random(0)
    for _ in range(2000):
        x = K.element([rng.randrange(239), rng.randrange(239)])
        if x == K.zero:
            continue
        assert x * x.inverse() == K.one
    with pytest.raises(DivisionByZero):
        K.zero.inverse()


def test_extension_coefficients_must_be_integers():
    with pytest.raises(TypeError):
        F25.element(["3", 1.9])
    with pytest.raises(TypeError):
        F25.element([1, 1.0])
    with pytest.raises(TypeError):
        F25.element([F5.element(1)])
    with pytest.raises(TypeError):
        F5.element("3")
    assert F25.element([8, -1]).value == (3, 4)


# the kernels against the plain-int polynomial oracle, default and explicit moduli
ORACLE_FIELDS = [
    ExtField(PrimeField(p), k, modulus)
    for p, k, modulus in (
        (5, 1, None), (5, 2, None), (5, 4, None), (7, 3, None), (239, 2, None),
        (5, 2, (2, 1, 1)), (5, 4, (3, 1, 0, 1, 1)), (7, 3, (1, 6, 2, 1)),
        (239, 2, (7, 5, 1)),
    )
] + [parse_field({"field": "Fpk", "p": "5", "k": 1, "modulus": [2, 1]})]


@st.composite
def _field_and_elements(draw):
    K = draw(st.sampled_from(ORACLE_FIELDS))
    coeffs = st.lists(st.integers(0, K.base.p - 1), min_size=K.degree, max_size=K.degree)
    return K, tuple(draw(coeffs)), tuple(draw(coeffs)), draw(st.integers(-40, 40))


@settings(max_examples=300)
@given(_field_and_elements())
def test_extension_kernels_agree_with_the_oracle(case):
    K, a, b, n = case
    p, f = K.base.p, K.modulus
    assert K._mul(a, b) == fq_mul(a, b, f, p)
    assert K._add(a, b) == fq_add(a, b, p)
    assert K._sub(a, b) == fq_sub(a, b, p)
    assert K._neg(a) == fq_neg(a, p)
    assert K._frobenius(a) == fq_pow(a, p, f, p)
    x = K.element(list(a))
    if any(a):
        assert K._inv(a) == fq_inv(a, f, p)
        assert (x**n).value == fq_pow(a, n, f, p)
    else:
        with pytest.raises(DivisionByZero):
            K._inv(a)
        if n >= 0:
            assert (x**n).value == fq_pow(a, n, f, p)


@pytest.mark.parametrize("K", ORACLE_FIELDS, ids=repr)
def test_every_kernel_branch_agrees_with_the_oracle(K):
    # each unrolled degree (k = 2, 3, 4) and the generic one, under default
    # and explicit moduli, on a seeded sample with the extreme coefficients
    p, f = K.base.p, K.modulus
    rng = random.Random(K.degree * 1000 + p)
    values = [(0,) * K.degree, (p - 1,) * K.degree] + [
        tuple(rng.randrange(p) for _ in range(K.degree)) for _ in range(60)
    ]
    for a, b in zip(values, values[1:] + values[:1]):
        assert K._mul(a, b) == fq_mul(a, b, f, p)
        assert K._add(a, b) == fq_add(a, b, p)
        assert K._sub(a, b) == fq_sub(a, b, p)
        assert K._neg(a) == fq_neg(a, p)


def test_field_values_ascend_like_the_elements():
    for K in ORACLE_FIELDS:
        values = list(K._values())
        assert values == sorted(values) and len(values) == K.size
        assert [x.value for x in K.elements()] == values


def test_explicit_modulus_entries_must_be_integers():
    for modulus in (("2", 0, 1.9), (2, 0, 1.0), (2, False, True), [2, 0, F5.element(1)]):
        with pytest.raises(TypeError):
            ExtField(F5, 2, modulus)
    assert ExtField(F5, 2, [7, 5, 6]).modulus == (2, 0, 1)


@pytest.mark.parametrize("p, k", [(5, 3), (5, 4), (7, 3)])
def test_unrolled_frobenius_on_every_element(p, k):
    K = ExtField(PrimeField(p), k)
    for a in K._values():
        matrix = tuple(sum(x * r for x, r in zip(a, row)) % p for row in K._frobenius_rows)
        assert K._frobenius(a) == matrix == (K.element(list(a)) ** p).value


@pytest.mark.parametrize(
    "p, k", [(p, k) for p in (5, 7, 11, 13) for k in range(1, 5) if p**k <= 3000]
)
def test_square_test_against_a_table_of_squares(p, k):
    # every value of every F_{p^k}, p^k <= 3000, against the squares of all
    # values in the oracle's fq_* arithmetic (F_p itself is f = (0, 1))
    K = PrimeField(p) if k == 1 else ExtField(PrimeField(p), k)
    f = getattr(K, "modulus", (0, 1))
    vectors = {v: v if k > 1 else (v,) for v in K._values()}
    squares = {fq_mul(x, x, f, p) for x in vectors.values()}
    for v, x in vectors.items():
        assert K._is_square(v) == (x in squares), v


def test_each_square_root_takes_one_power(monkeypatch):
    # z^t once per field object, then one power of a per root; 0 takes none
    K = ExtField(PrimeField(7), 3)
    powers, original = [], Field._pow

    def counted(self, a, n):
        powers.append(n)
        return original(self, a, n)

    monkeypatch.setattr(Field, "_pow", counted)
    squares = [K._mul(x, x) for x in K._values()]
    assert all(K._sqrt(a) is not None for a in squares)
    assert len(powers) == 1 + sum(1 for a in squares if any(a))


@pytest.mark.parametrize(
    "K", [F5, PrimeField(239), ExtField(F5, 4), ExtField(PrimeField(7), 3)], ids=repr
)
def test_tonelli_shanks_against_squaring_every_element(K):
    roots = {}
    for x in K._values():
        roots.setdefault(K._mul(x, x), set()).add(x)
    assert K._non_residue() not in roots
    for a in K._values():
        r = K._sqrt(a)
        if a in roots:
            assert r in roots[a]
        else:
            assert r is None


# the sweep kernels of enumeration against x^2 and x^3 + a*x + b in the oracle's
# fq_* arithmetic, on every value (F_p itself is f = (0, 1), with 1-tuples)
SWEEP_FIELDS = [
    PrimeField(5), PrimeField(7), PrimeField(11), PrimeField(13),
    ExtField(F5, 2), ExtField(F5, 2, modulus=(2, 1, 1)), ExtField(PrimeField(7), 2),
    ExtField(F5, 3), ExtField(F5, 4),
]


@pytest.mark.parametrize("K", SWEEP_FIELDS, ids=lambda K: "%r%s" % (K, getattr(K, "modulus", "")))
def test_sweep_kernels_agree_with_the_oracle(K):
    p = K.characteristic
    f = getattr(K, "modulus", (0, 1))
    k = len(f) - 1
    vec = (lambda v: v) if k > 1 else (lambda v: (v,))
    rng = random.Random(p * 10 + k)
    # a and b with every extension coefficient nonzero, with none, and seeded ones
    pairs = [((0,) * k, (0,) * k), ((1,) * k, (p - 1,) * k), ((p - 1,) * k, (1,) + (0,) * (k - 1))]
    pairs += [tuple(tuple(rng.randrange(p) for _ in range(k)) for _ in "ab") for _ in range(3)]
    values = [vec(v) for v in K._values()]
    squares = [fq_mul(x, x, f, p) for x in values]
    for kernel in (K._square_values(), Field._square_values(K)):
        assert iter(kernel) is kernel  # a stream, not a list
        assert [vec(v) for v in kernel] == squares
    for a, b in pairs:
        raw_a, raw_b = (a, b) if k > 1 else (a[0], b[0])
        cubics = [fq_add(fq_mul(fq_add(fq_mul(x, x, f, p), a, p), x, f, p), b, p) for x in values]
        for kernel in (K._cubic_values(raw_a, raw_b), Field._cubic_values(K, raw_a, raw_b)):
            assert iter(kernel) is kernel
            assert [vec(v) for v in kernel] == cubics


@pytest.mark.parametrize("k", [2, 4])
def test_non_residue_agrees_with_the_plain_scan(k):
    # for even k one norm test decides the first block of p values; both of its
    # outcomes occur among these fields
    decided_by_u = set()
    for p in (p for p in range(3, 48) if is_prime(p)):
        K = ExtField(PrimeField(p), k)
        plain = next(z for z in K._values() if not K._is_square(z))
        assert K._non_residue() == plain, K
        decided_by_u.add(plain == (0,) * (k - 1) + (1,))
    assert decided_by_u == {True, False}


def test_non_residue_over_a_large_quadratic_field_takes_a_few_square_tests(monkeypatch):
    caps = Caps(field_size=10**11)
    K = ExtField(PrimeField(201599, caps), 2, caps=caps)
    tests, original = [], ExtField._is_square

    def counted(self, a):
        if self is K:
            tests.append(a)
        return original(self, a)

    monkeypatch.setattr(ExtField, "_is_square", counted)
    assert K._non_residue() == (1, 5)
    assert tests == [(0, 1)] + [(1, c) for c in range(6)]
