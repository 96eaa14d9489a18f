"""A curve as the one-factor case of a product, and membership checks at the boundary.

Every public entry point refuses a point off its variety with PointNotOnCurve,
on a single curve and on a product alike, while the arithmetic behind it
checks each point once.
"""

import json
from pathlib import Path

import pytest

from ectower.cli import main
from ectower.config import DEFAULT_CAPS
from ectower.curves import EllipticCurve, Point, ProductPoint, ProductVariety
from ectower.errors import PointNotOnCurve
from ectower.fields import QQ, PrimeField
from ectower.groups import FiniteAbelianGroup
from ectower.serialize import VerifyMemo, verify_certificate
from ectower.torsion import NonTorsionCertificate, TorsionCertificate, torsion_test_Q
from ectower.towers import (
    CompositeMap,
    Tower,
    TwistedMulMap,
    fiber,
    full_torsion_field,
    realize_map,
)

F5 = PrimeField(5)
E5 = EllipticCurve(F5, 0, 1)
E5B = EllipticCurve(F5, 0, 2)
X = ProductVariety([E5, E5B])
O = Point.infinity()
E1 = EllipticCurve(QQ, 0, 1)
E17 = EllipticCurve(QQ, 0, 17)
GOLDEN = Path(__file__).resolve().parent / "golden"


def f5pt(x, y):
    return Point(F5.element(x), F5.element(y))


def qpt(x, y):
    return Point(QQ.element(x), QQ.element(y))


# (variety, a point on it, a point off it) for g = 1 and g = 2, over F_5 and over Q
F5_CASES = [
    (E5, f5pt(0, 1), f5pt(1, 1)),
    (X, ProductPoint([f5pt(0, 1), f5pt(3, 2)]), ProductPoint([f5pt(0, 1), f5pt(1, 1)])),
]
Q_CASES = [
    (E17, qpt(-2, 3), qpt(1, 1)),
    (ProductVariety([E1, E17]), ProductPoint([qpt(2, 3), qpt(-2, 3)]),
     ProductPoint([qpt(2, 3), qpt(1, 1)])),
]


def test_curve_is_its_own_single_factor():
    P = f5pt(0, 1)
    assert E5.factors == (E5,)
    assert E5.split(P) == (P,)
    assert E5.assemble((P,)) == P
    assert E5.from_factors([E5B]) == E5B
    part = E5.group_structure()
    assert E5.group_from_parts([part]) is part
    PP = ProductPoint([P, f5pt(3, 2)])
    assert X.split(PP) == PP.coords
    assert X.assemble(PP.coords) == PP
    assert X.from_factors(X.factors) == X
    assert X.group_from_parts([E5.group_structure(), E5B.group_structure()]) == (
        X.group_structure()
    )
    assert X.group_structure() == FiniteAbelianGroup((6, 6))


@pytest.mark.parametrize("V, P", [(E5, ProductPoint([f5pt(0, 1)])), (X, f5pt(0, 1)),
                                  (X, ProductPoint([f5pt(0, 1)]))])
def test_split_refuses_a_point_of_another_shape(V, P):
    with pytest.raises(PointNotOnCurve):
        V.split(P)


@pytest.mark.parametrize("V, good, bad", F5_CASES, ids=["g1", "g2"])
def test_every_entry_point_refuses_an_off_curve_point(V, good, bad):
    calls = [
        lambda: V.add(bad, good),
        lambda: V.add(good, bad),
        lambda: V.sub(bad, good),
        lambda: V.sub(good, bad),
        lambda: V.negate(bad),
        lambda: V.scalar_mul(2, bad),
        lambda: Tower(V, V.identity(), [V.identity(), good, bad]),
        lambda: TwistedMulMap(2, bad, V),
        lambda: TwistedMulMap(2, good, V)(bad),
        lambda: CompositeMap(2, bad, V),
        lambda: CompositeMap(2, V.identity(), V)(bad),
        lambda: fiber(TwistedMulMap(2, good, V), bad),
        lambda: fiber(TwistedMulMap(2, good, V), bad, field=full_torsion_field(V, 2)),
    ]
    for call in calls:
        with pytest.raises(PointNotOnCurve):
            call()
    assert not TorsionCertificate(V, bad, 2).verify()
    with pytest.raises(PointNotOnCurve):
        E5.point(1, 1)


def test_fiber_refuses_a_point_of_another_shape():
    with pytest.raises(PointNotOnCurve):
        fiber(TwistedMulMap(2, O, E5), X.identity())
    with pytest.raises(PointNotOnCurve):
        fiber(TwistedMulMap(2, X.identity(), X), f5pt(0, 1))


@pytest.mark.parametrize("V, good, bad", Q_CASES, ids=["g1", "g2"])
def test_torsion_entry_points_refuse_an_off_curve_point(V, good, bad):
    with pytest.raises(PointNotOnCurve):
        torsion_test_Q(V, bad)
    cert = torsion_test_Q(V, good)
    assert isinstance(cert, NonTorsionCertificate) and cert.verify()
    assert not NonTorsionCertificate(V, bad, cert.evidence, cert.factor).verify()
    assert not TorsionCertificate(V, bad, 6).verify()


def _count_contains(monkeypatch):
    calls = {EllipticCurve: 0, ProductVariety: 0}
    for cls in calls:
        original = cls.contains

        def counted(self, P, cls=cls, original=original):
            calls[cls] += 1
            return original(self, P)

        monkeypatch.setattr(cls, "contains", counted)
    return calls


def test_map_evaluation_checks_its_argument_once(monkeypatch):
    f = TwistedMulMap(3, ProductPoint([f5pt(0, 1), f5pt(3, 2)]), X)
    y = ProductPoint([f5pt(2, 3), f5pt(4, 1)])
    calls = _count_contains(monkeypatch)
    f(y)
    # the product's check visits each factor once
    assert calls == {ProductVariety: 1, EllipticCurve: 2}


def test_fiber_checks_a_bounded_number_of_points(monkeypatch):
    K = full_torsion_field(X, 2)
    f = TwistedMulMap(2, ProductPoint([f5pt(0, 1), f5pt(3, 2)]), X)
    z = realize_map(f, K)(X.identity())
    calls = _count_contains(monkeypatch)
    points = fiber(f, z, field=K)
    assert len(points) == 16
    # the map's centre and z, not each of the enumerated points
    assert calls[ProductVariety] == 2


def test_a_tower_checks_each_distinct_point_once(monkeypatch):
    calls = _count_contains(monkeypatch)
    Tower(E17, O, [O] + [qpt(-2, 3)] * 6)
    assert calls[EllipticCurve] == 2


def test_a_family_and_its_verify_check_tower_points_once(tmp_path, monkeypatch):
    # count 6 over y^2 = x^3 + 17 at N = 6: towers O, m*P, ..., m*P and 15
    # non_iso pairs, whose differences come from points the towers checked
    job = dict(json.loads((GOLDEN / "corollary-demo-4.job.json").read_text()), count=6)
    (tmp_path / "job.json").write_text(json.dumps(job))
    report = tmp_path / "demo.json"
    calls = _count_contains(monkeypatch)
    assert main(["corollary-demo", "--input", str(tmp_path / "job.json"),
                 "--output", str(report)]) == 0
    demo = calls[EllipticCurve]
    assert main(["verify", "--input", str(report), "--output", str(tmp_path / "v.json")]) == 0
    # checking all 7 points of every tower, and both operands of every
    # difference, would make 84 calls for the demo and 162 with its verify
    assert demo <= 24
    assert calls[EllipticCurve] <= 42


def test_an_iso_job_and_its_verify_check_each_point_once(tmp_path, monkeypatch):
    # witness search, back substitution and both replays of the witness run
    # on tower points and translations that were checked when they came in
    report = tmp_path / "iso.json"
    calls = _count_contains(monkeypatch)
    assert main(["iso", "--input", str(GOLDEN / "iso-iso.job.json"),
                 "--output", str(report)]) == 0
    iso = calls[EllipticCurve]
    assert main(["verify", "--input", str(report), "--output", str(tmp_path / "v.json")]) == 0
    monkeypatch.undo()
    assert json.loads((tmp_path / "v.json").read_text())["verified"] == 1
    # the checked group law would make 157 calls for the job and 286 with its verify
    assert iso <= 24
    assert calls[EllipticCurve] <= 40


@pytest.mark.parametrize("name, tower", [("iso-non-iso", 0), ("iso-non-iso", 1),
                                         ("iso-iso", 0), ("iso-iso", 1)])
def test_a_certificate_with_an_off_curve_tower_point_is_refused(name, tower):
    cert = json.loads((GOLDEN / (name + ".report.json")).read_text())["certificate"]
    kind = cert["certificate"]
    assert verify_certificate(cert) == (True, kind, None)
    cert["towers"][tower]["e"][1] = {"x": "1", "y": "1"}
    ok, seen, reason = verify_certificate(cert)
    assert (ok, seen) == (False, kind)
    assert reason.startswith("PointNotOnCurve: ")
    assert verify_certificate(cert, DEFAULT_CAPS, VerifyMemo()) == (ok, seen, reason)
