"""The package's value types: immutable __slots__ records on one base, config.Record.

Each keeps the fields, defaults and checks it had as a frozen dataclass:
construction by position or keyword, AttributeError on assignment, equality
with records of its own class only, hashing that follows equality, and a
repr that names the fields unless the class writes its own.
"""

import copy
import pickle

import pytest

from ectower.chain import ChainSubgroup, LatticeGroup, QuotientGroup
from ectower.config import DEFAULT_CAPS, Caps, Record
from ectower.curves import EllipticCurve, Point
from ectower.errors import PointNotOnCurve
from ectower.fields import PrimeField
from ectower.groups import FiniteAbelianGroup
from ectower.iso import (
    FamilyClassification,
    NonIsoCertificate,
    PairVerdict,
    TowerIsoWitness,
    WitnessReport,
)
from ectower.torsion import NonTorsionCertificate, TorsionCertificate, TorsionSubgroup
from ectower.towers import CompositeMap, RationalFiber, Tower, TwistedMulMap

E5 = EllipticCurve(PrimeField(5), 0, 1)
O = Point.infinity()
P = E5.enumerate_points()[1]
L2 = LatticeGroup(2)
GROUP = FiniteAbelianGroup((2,))
TOWER = Tower(E5, O, [O, P])

# class: its fields in order, and a value for each
RECORDS = {
    Caps: ("field_size integral_model chain_level", (10, 20, 3)),
    TwistedMulMap: ("n center variety", (2, P, E5)),
    CompositeMap: ("m c variety", (6, P, E5)),
    Tower: ("variety o points", (E5, O, (O, P))),
    RationalFiber: ("points complete multiplier", ((O,), False, 2)),
    TorsionCertificate: ("variety point order", (E5, P, 6)),
    NonTorsionCertificate: ("variety point evidence factor", (E5, P, ((1, P),), 0)),
    TorsionSubgroup: ("curve points certificates group", (E5, (O,), (), GROUP)),
    NonIsoCertificate: ("tower_a tower_b level difference non_torsion", (TOWER, TOWER, 1, P, None)),
    TowerIsoWitness: ("tower_a tower_b translations certificates", (TOWER, TOWER, (O, O), ())),
    WitnessReport: ("ok failures first_failing_level", (False, ("no",), 1)),
    PairVerdict: ("status certificate", ("iso", None)),
    FamilyClassification: ("verdicts classes", ({}, ())),
    LatticeGroup: ("rank", (4,)),
    ChainSubgroup: ("lattice level", (L2, 3)),
    QuotientGroup: ("lattice level group", (L2, 3, GROUP)),
}
IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_by_position_and_by_keyword(cls):
    names, values = RECORDS[cls]
    names = names.split()
    assert issubclass(cls, Record) and cls.__slots__[: len(names)] == tuple(names)
    by_position = cls(*values)
    by_keyword = cls(**dict(reversed(list(zip(names, values)))))
    assert [getattr(by_position, n) for n in names] == list(values)
    assert by_keyword == by_position
    if not isinstance(values[0], dict):
        assert hash(by_keyword) == hash(by_position)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(cls):
    names, values = RECORDS[cls]
    record = cls(*values)
    for name in names.split() + ["unknown"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, names.split()[0])


def test_defaults():
    assert Caps() == DEFAULT_CAPS == Caps(10_000_000, 10**40, 20)
    assert Caps(field_size=30) == Caps(30) != DEFAULT_CAPS
    assert NonTorsionCertificate(E5, P, ()).factor is None
    assert WitnessReport(True) == WitnessReport(True, (), None)
    assert PairVerdict("undetermined").certificate is None


def test_missing_unknown_or_repeated_fields_raise_type_error():
    for make in (lambda: WitnessReport(), lambda: Caps(1, 2, 3, 4), lambda: Caps(cap=1),
                 lambda: Caps(1, field_size=1), lambda: ChainSubgroup(L2),
                 lambda: Tower(E5, O), lambda: TorsionCertificate(E5, P)):
        with pytest.raises(TypeError):
            make()


def test_equality_is_by_class_and_fields():
    class Verdict(Record):
        __slots__ = ("status", "certificate")

    assert PairVerdict("iso") != Verdict("iso", None)
    assert PairVerdict("iso") == PairVerdict("iso", None) != PairVerdict("non_iso")
    assert len({LatticeGroup(2), LatticeGroup(2), LatticeGroup(4)}) == 2
    # a twisted map compares by n, center and variety; c follows from them
    assert TwistedMulMap(2, P, E5) == TwistedMulMap(2, P, E5)
    assert hash(TwistedMulMap(2, P, E5)) == hash(TwistedMulMap(2, P, E5))
    assert TwistedMulMap(2, P, E5) != TwistedMulMap(3, P, E5)
    assert TwistedMulMap(2, P, E5).c == E5.scalar_mul(-1, P)
    with pytest.raises(TypeError):
        hash(FamilyClassification({}, ()))  # holds a dict, as the dataclass did


def test_checks_and_reprs():
    with pytest.raises(ValueError):
        TwistedMulMap(0, P, E5)
    with pytest.raises(ValueError):
        Tower(E5, O, [P])
    with pytest.raises(ValueError):
        LatticeGroup(3)
    off = Point(E5.field.element(0), E5.field.element(0))
    for make in (lambda: TwistedMulMap(2, off, E5), lambda: CompositeMap(2, off, E5),
                 lambda: Tower(E5, O, [O, off])):
        with pytest.raises(PointNotOnCurve):
            make()
    assert Tower(E5, O, [O, P]).points == (O, P)
    assert repr(TwistedMulMap(2, P, E5)) == "[2]_%r" % (P,)
    assert repr(Tower(E5, O, [O, P])) == "Tower(%r, N=1)" % (E5,)
    assert repr(LatticeGroup(2)) == "LatticeGroup(rank=2)"
    assert repr(PairVerdict("iso")) == "PairVerdict(status='iso', certificate=None)"
    assert repr(CompositeMap(1, O, E5)) == "CompositeMap(m=1, c=%r, variety=%r)" % (O, E5)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_copy_and_pickle_rebuild_an_equal_record(cls):
    record = cls(*RECORDS[cls][1])
    clone = copy.copy(record)
    assert clone is not record and [getattr(clone, n) for n in cls.__slots__] == [
        getattr(record, n) for n in cls.__slots__]
    for plain in (Caps(30), LatticeGroup(4), PairVerdict("iso"), WitnessReport(False, ("no",), 2)):
        assert copy.deepcopy(plain) == plain == pickle.loads(pickle.dumps(plain))
