import contextlib
import io
import json
from pathlib import Path

import pytest

from ectower.cli import main
from ectower.curves import EllipticCurve, Point, ProductVariety
from ectower.errors import SchemaError
from ectower.fields import QQ, ExtField, PrimeField, Rational
from ectower.iso import necessity_test, witness_search
from ectower.serialize import (
    certificate_to_json,
    field_to_json,
    find_certificates,
    parse_element,
    parse_field,
    parse_non_iso_certificate,
    parse_point,
    parse_tower,
    parse_variety,
    point_to_json,
    tower_to_json,
    variety_to_json,
    verify_certificate,
)
from ectower.torsion import torsion_test_Q
from ectower.towers import Tower

import oracles

O = Point.infinity()


def qpt(x, y):
    return Point(QQ.element(x), QQ.element(y))


def test_field_roundtrip():
    for field in (QQ, PrimeField(7), ExtField(PrimeField(5), 2)):
        assert parse_field(field_to_json(field)) == field
    assert field_to_json(PrimeField(5)) == {"field": "Fp", "p": "5"}
    assert field_to_json(ExtField(PrimeField(5), 2)) == {
        "field": "Fpk",
        "p": "5",
        "k": 2,
        "modulus": [2, 0, 1],
    }


def test_field_schema_errors():
    with pytest.raises(SchemaError):
        parse_field({"field": "Fp", "p": "6"})  # not prime
    with pytest.raises(SchemaError):
        parse_field({"field": "Fp"})
    with pytest.raises(SchemaError):
        parse_field({"field": "Fp", "p": "5", "extra": 1})
    with pytest.raises(SchemaError):
        parse_field({"field": "Fpk", "p": "5", "k": 2, "modulus": [1, 0, 1]})


@pytest.mark.parametrize("text", [" 5", "+5", "1_000", "\u0665"])
def test_decimal_strings_are_ascii_digits_only(text):
    # int() reads each of these as 5 or 1000; the wire format does not
    for field in ({"field": "Fp", "p": text}, {"field": "Fpk", "p": text, "k": 2}):
        with pytest.raises(SchemaError, match="is not an integer"):
            parse_field(field)
    with pytest.raises(SchemaError, match="is not an integer"):
        parse_element(PrimeField(7), text)
    for rational in (text, "1/" + text, text + "/2"):
        with pytest.raises(SchemaError, match="is not an integer"):
            parse_element(QQ, rational)
    assert parse_element(QQ, "-6/4") == QQ.element(Rational(-3, 2))


def test_variety_roundtrip():
    e1 = EllipticCurve(QQ, Rational(1, 4), 0)
    assert parse_variety(variety_to_json(e1)) == e1
    e5 = EllipticCurve(PrimeField(5), 0, 1)
    prod = ProductVariety([e5, EllipticCurve(PrimeField(5), 0, 2)])
    assert parse_variety(variety_to_json(prod)) == prod


def test_point_roundtrip():
    e1 = EllipticCurve(QQ, Rational(1, 4), 0)
    P = qpt(Rational(1, 2), Rational(1, 2))
    assert parse_point(e1, point_to_json(P)) == P
    assert parse_point(e1, {"inf": True}).is_infinity
    prod = ProductVariety([EllipticCurve(QQ, 0, 1), EllipticCurve(QQ, 0, 17)])
    PP = prod.identity()
    assert parse_point(prod, point_to_json(PP)) == PP
    with pytest.raises(SchemaError):
        parse_point(e1, {"x": "1"})
    with pytest.raises(SchemaError):
        parse_point(e1, {"x": "1", "y": "1", "z": "1"})


def test_tower_roundtrip():
    e17 = EllipticCurve(QQ, 0, 17)
    t = Tower(e17, O, [O, qpt(-2, 3), e17.scalar_mul(2, qpt(-2, 3))])
    js = tower_to_json(t)
    assert parse_tower(js) == t
    bad = dict(js, N=5)
    with pytest.raises(SchemaError):
        parse_tower(bad)


def test_certificate_roundtrip_and_verify():
    e17 = EllipticCurve(QQ, 0, 17)
    e1 = EllipticCurve(QQ, 0, 1)
    for cert in (
        torsion_test_Q(e1, qpt(2, 3)),
        torsion_test_Q(e17, qpt(-2, 3)),
    ):
        ok, kind, reason = verify_certificate(certificate_to_json(cert))
        assert ok, reason
    a = Tower(e17, O, [O, O])
    b = Tower(e17, O, [O, qpt(-2, 3)])
    cert = necessity_test(a, b)
    js = certificate_to_json(cert)
    assert parse_non_iso_certificate(js).verify()
    ok, kind, _ = verify_certificate(js)
    assert ok and kind == "non_iso"
    emx = EllipticCurve(QQ, -1, 0)
    t1 = Tower(emx, O, [O, qpt(0, 0), qpt(1, 0)])
    w = witness_search(t1, t1)
    ok, kind, reason = verify_certificate(certificate_to_json(w))
    assert ok and kind == "tower_iso"


def test_verify_rejects_nonsense():
    ok, kind, reason = verify_certificate({"certificate": "wat"})
    assert not ok
    ok, kind, reason = verify_certificate({"certificate": "torsion", "order": 1})
    assert not ok and "schema" in reason


GOLDEN = Path(__file__).resolve().parent / "golden"
INT_KEYS = ("order", "m", "factor", "level", "N")


def _ones_as_true(obj):
    """Copies of obj, each with one integer 1 under an INT_KEYS key turned into true."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key in INT_KEYS and value == 1 and not isinstance(value, bool):
                yield {**obj, key: True}
            for variant in _ones_as_true(value):
                yield {**obj, key: variant}
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            for variant in _ones_as_true(item):
                yield obj[:i] + [variant] + obj[i + 1 :]


def test_json_true_is_no_integer_in_any_certificate():
    # Python counts true as the integer 1; every certificate kind in the
    # golden reports must refuse it where it reads an integer
    kinds = set()
    for path in sorted(GOLDEN.glob("*.report.json")):
        for _, cert in find_certificates(json.loads(path.read_text())):
            if not verify_certificate(cert)[0]:
                continue
            for variant in _ones_as_true(cert):
                ok, kind, reason = verify_certificate(variant)
                assert not ok and reason.startswith("schema: "), (path.name, reason)
                kinds.add(kind)
    assert kinds == {"torsion", "non_torsion", "non_iso", "tower_iso"}


def _one_certificate_of_each_kind():
    out = {}
    for path in sorted(GOLDEN.glob("*.report.json")):
        for _, cert in find_certificates(json.loads(path.read_text())):
            if verify_certificate(cert)[0]:
                out.setdefault(cert["certificate"], cert)
    return out


_REPLAYS = {
    "torsion": "ectower.torsion.TorsionCertificate.verify",
    "non_torsion": "ectower.torsion.NonTorsionCertificate.verify",
    "non_iso": "ectower.iso.NonIsoCertificate.verify",
    "tower_iso": "ectower.iso.verify_witness",
}


@pytest.mark.parametrize("kind", sorted(_REPLAYS))
@pytest.mark.parametrize("error", [TypeError, IndexError, ArithmeticError, ZeroDivisionError])
def test_verify_certificate_fails_closed_when_a_replay_raises(monkeypatch, kind, error):
    cert = _one_certificate_of_each_kind()[kind]

    def boom(*args):
        raise error("boom")

    monkeypatch.setattr(_REPLAYS[kind], boom)
    assert verify_certificate(cert) == (False, kind, "%s: boom" % error.__name__)


@pytest.mark.parametrize("error", [TypeError, IndexError, ArithmeticError])
def test_verify_certificate_fails_closed_when_parsing_raises(monkeypatch, error):
    def boom(*args):
        raise error("boom")

    monkeypatch.setattr("ectower.serialize.parse_variety", boom)
    for kind, cert in _one_certificate_of_each_kind().items():
        assert verify_certificate(cert) == (False, kind, "%s: boom" % error.__name__)


# torsion of order 3 on y^2 = x^3 + 1 over F_{5^2}; int() would read each
# variant below as the recorded coefficients and let the certificate verify
F25_TORSION = json.loads((GOLDEN / "verify-handmade.job.json").read_text())["items"][0]


@pytest.mark.parametrize(
    "x, b", [([2.9, 1.9], [1.0, 0]), ([2, True], [True, 0]), (["2", 1], ["1", 0])],
    ids=["floats", "booleans", "strings"],
)
def test_extension_coefficients_are_json_integers(x, b):
    cert = F25_TORSION
    assert verify_certificate(cert) == (True, "torsion", None)
    bad_point = {**cert, "point": {**cert["point"], "x": x}}
    curve = cert["variety"]["curve"]
    bad_curve = {**cert, "variety": {"curve": {**curve, "b": b}}}
    for bad in (bad_point, bad_curve):
        ok, kind, reason = verify_certificate(bad)
        assert not ok and reason.startswith("schema: "), reason


def test_find_certificates_agrees_with_the_plain_recursion(tmp_path):
    # same (path, object) list in the same order, on the golden corpus and on
    # a count-11 corollary-demo report (111 certificates)
    sources = sorted(GOLDEN.glob("*.report.json")) + sorted(GOLDEN.glob("verify-*.job.json"))
    reports = [json.loads(path.read_text()) for path in sources]
    job = dict(json.loads((GOLDEN / "corollary-demo-4.job.json").read_text()), count=11)
    (tmp_path / "job.json").write_text(json.dumps(job))
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["corollary-demo", "--input", str(tmp_path / "job.json"),
                     "--output", str(out)]) == 0
    reports.append(json.loads(out.read_text()))
    assert len(find_certificates(reports[-1])) == 111
    for report in reports:
        found = find_certificates(report)
        assert found == oracles.find_certificates(report)
        assert all(a is b for (_, a), (_, b) in zip(found, oracles.find_certificates(report)))
    assert find_certificates("certificate") == [] == find_certificates([1, "x", None])
