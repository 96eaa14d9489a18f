"""verify_certificate is total on mutated certificates.

One golden certificate of each kind and wire shape (curve and product
varieties over Q, F_p and F_{p^k}) has each of its integers replaced in turn
by 0, -1, 2^64 and a 5,000-digit value: JSON integers such as k, order, m,
level, N and factor, modulus and coefficient-list entries, and decimal
strings such as p and coordinates.  Every variant must return a verdict, and
every refusal must say why.
"""

import copy
import json
import re
import time
from pathlib import Path

import pytest

from ectower.curves import EllipticCurve, ProductVariety
from ectower.serialize import find_certificates, verify_certificate

GOLDEN = Path(__file__).resolve().parent / "golden"
DECIMAL = re.compile(r"-?[0-9]+")

# int-to-str refuses more than 4,300 digits, so the long string is built directly
REPLACEMENTS = [(0, "0"), (-1, "-1"), (2**64, str(2**64)), (10**4999, "1" + "0" * 4999)]

# (report or job file, JSON path of the certificate): kind, variety, field
CERTIFICATES = [
    ("torsion-curve-subgroup-emx.report.json", "$.points[0].certificate"),  # torsion, curve, Q
    ("torsion-product1-torsion.report.json", "$.certificate"),  # torsion, product, Q
    ("verify-handmade.job.json", "$.items[0]"),  # torsion, curve, F_{5^2}
    ("verify-handmade.job.json", "$.items[1]"),  # torsion, curve, F_5
    ("verify-handmade.job.json", "$.items[2]"),  # torsion, product, F_5
    ("corollary-demo-4.report.json", "$.pairs[2].certificate.non_torsion"),  # curve, Q
    ("torsion-product1-non-torsion.report.json", "$.certificate"),  # product, Q
    ("corollary-demo-4.report.json", "$.pairs[2].certificate"),  # non_iso, curve, Q
    ("iso-product-non-iso.report.json", "$.certificate"),  # non_iso, product, Q
    ("iso-iso.report.json", "$.certificate"),  # tower_iso, curve, Q
    ("iso-product-iso.report.json", "$.certificate"),  # tower_iso, product, Q
]


def _certificate(name, path):
    found = dict(find_certificates(json.loads((GOLDEN / name).read_text())))
    return found[path]


def _mutations(obj, key=None):
    """(key, copy of obj with one integer or decimal-string integer replaced).

    key is the nearest object key above the replaced value.
    """
    if isinstance(obj, dict):
        for name, value in obj.items():
            for where, variant in _mutations(value, name):
                yield where, {**obj, name: variant}
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            for where, variant in _mutations(item, key):
                yield where, obj[:i] + [variant] + obj[i + 1 :]
    elif type(obj) is int:
        yield from ((key, n) for n, _ in REPLACEMENTS)
    elif isinstance(obj, str) and DECIMAL.fullmatch(obj):
        yield from ((key, s) for _, s in REPLACEMENTS)


def test_mutated_certificates_fail_closed_within_budget():
    start = time.perf_counter()
    kinds, shapes, mutated = set(), set(), set()
    for name, path in CERTIFICATES:
        cert = _certificate(name, path)
        assert verify_certificate(cert) == (True, cert["certificate"], None), (name, path)
        kinds.add(cert["certificate"])
        text = json.dumps(cert)
        shapes.update(re.findall(r'"field": "(\w+)"', text))
        shapes.update(key for key in ("curve", "product") if '"%s"' % key in text)
        for key, variant in _mutations(cert):
            ok, kind, reason = verify_certificate(variant)
            assert kind == cert["certificate"]
            assert ok or (isinstance(reason, str) and reason), (name, path, key, reason)
            mutated.add(key)
    assert kinds == {"torsion", "non_torsion", "non_iso", "tower_iso"}
    assert shapes == {"curve", "product", "Q", "Fp", "Fpk"}
    assert mutated >= {"x", "y", "a", "b", "p", "k", "modulus", "order", "m", "level", "N",
                       "factor"}
    assert time.perf_counter() - start < 20


def test_fq_order_past_the_group_bound_refused_before_any_multiplication(monkeypatch):
    calls = []

    def counted(original):
        def scalar_mul(self, n, P):
            calls.append(n.bit_length())
            return original(self, n, P)

        return scalar_mul

    for cls in (EllipticCurve, ProductVariety):
        for name in ("scalar_mul", "_scalar_mul_unchecked"):
            monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
    cert = _certificate("verify-handmade.job.json", "$.items[0]")  # order 3 over F_{5^2}
    # 10^4999 has only the prime factors 2 and 5, but exceeds #E(F_25) <= 36
    huge = {**cert, "order": 10**4999}
    assert verify_certificate(huge) == (False, "torsion", "torsion replay failed")
    assert calls == []
    assert verify_certificate(cert) == (True, "torsion", None)
    assert calls


def _replaced(cert, keys, value):
    """A copy of cert with the value under the key path replaced."""
    out = copy.deepcopy(cert)
    node = out
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return out


_P = ("variety", "curve", "field", "p")
_TAG = ("variety", "curve", "field", "field")
_A = ("variety", "curve", "a")


@pytest.mark.parametrize(
    "name, path, keys, short, message, long",
    [
        ("verify-handmade.job.json", "$.items[1]", _P, "x",
         "schema: field: 'x' is not an integer", "x" * 5000),
        ("verify-handmade.job.json", "$.items[1]", _TAG, "Z",
         "schema: unknown field tag 'Z'", "Z" * 5000),
        ("torsion-curve-subgroup-emx.report.json", "$.points[0].certificate", _A, "1/1/1",
         "schema: curve.a: not a rational: '1/1/1'", "1/" * 2500),
        ("torsion-curve-subgroup-emx.report.json", "$.points[0].certificate", _A, "x",
         "schema: curve.a: 'x' is not an integer", "x" * 5000),
        ("torsion-curve-subgroup-emx.report.json", "$.points[0].certificate", _A, "1/x",
         "schema: curve.a: 'x' is not an integer", "1/" + "x" * 5000),
    ],
    ids=["decimal", "field-tag", "rational", "rational-numerator", "rational-denominator"],
)
def test_refusals_quote_at_most_forty_characters_of_the_input(
    name, path, keys, short, message, long
):
    cert = _certificate(name, path)
    assert verify_certificate(_replaced(cert, keys, short)) == (False, "torsion", message)
    ok, _, reason = verify_certificate(_replaced(cert, keys, long))
    assert not ok and "(5000 characters)" in reason and len(reason) < 200, reason[:300]


@pytest.mark.parametrize("value", ["1/0", "-7/0"])
def test_zero_denominator_is_a_schema_refusal(value):
    cert = _certificate("torsion-curve-subgroup-emx.report.json", "$.points[0].certificate")
    ok, kind, reason = verify_certificate(_replaced(cert, _A, value))
    assert (ok, kind) == (False, "torsion")
    assert reason == "schema: curve.a: %r has a zero denominator" % value

