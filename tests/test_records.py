"""The package's value types: immutable __slots__ records on one base, config.Record.

The sixteen former dataclasses keep the fields, defaults and checks they
had: construction by position or keyword, AttributeError on assignment,
equality with records of its own class only, hashing that follows
equality, and a repr that names the fields unless the class writes its
own.  Points, curves, products, groups, fields, field elements and
rationals are Records too, with their own constructors, reprs and hashes;
every record copies and pickles to an equal one, and a field's copy leaves
behind what the field keeps.
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest

from ectower.chain import ChainSubgroup, LatticeGroup, QuotientGroup
from ectower.config import DEFAULT_CAPS, Caps, Record
from ectower.curves import EllipticCurve, Point, ProductPoint, ProductVariety
from ectower.errors import PointNotOnCurve
import ectower
from ectower.fields import QQ, ExtField, FieldElement, PrimeField, RationalField
from ectower.groups import FiniteAbelianGroup
from ectower.iso import (
    FamilyClassification,
    NonIsoCertificate,
    PairVerdict,
    TowerIsoWitness,
    WitnessReport,
    necessity_test,
)
from ectower.rationals import Rational
from ectower.torsion import NonTorsionCertificate, TorsionCertificate, TorsionSubgroup
from ectower.towers import (
    CompositeMap,
    RationalFiber,
    Tower,
    TwistedMulMap,
    deck_group,
    extension_field,
    fiber,
    full_torsion_field,
)

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

F5 = PrimeField(5)
E5B = EllipticCurve(F5, 1, 1)
X = ProductVariety([E5, E5B])
PP = ProductPoint([P, E5B.enumerate_points()[1]])
# value type: instances, each holding what its fields can hold
VALUES = {
    Point: (P, O),
    ProductPoint: (PP, X.identity()),
    EllipticCurve: (E5, E5B),
    ProductVariety: (X,),
    FiniteAbelianGroup: (GROUP, E5.group_structure(), FiniteAbelianGroup.trivial()),
    FieldElement: (F5.element(3), QQ.element(Rational(-2, 3))),
    Rational: (Rational(-2, 3), Rational(7)),
    PrimeField: (F5, PrimeField(7)),
    ExtField: (extension_field(F5, 2), ExtField(PrimeField(7), 3)),
    RationalField: (QQ,),
}
VALUE_IDS = [cls.__name__ for cls in VALUES]


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

    class Empty(Record):
        __slots__ = ()

    assert PairVerdict("iso") != Verdict("iso", None)
    assert Empty() == Empty() != Verdict("iso", None) and hash(Empty()) == hash(Empty)
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
    for rebuilt in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert rebuilt is not record and rebuilt == record


@pytest.mark.parametrize("cls", VALUES, ids=VALUE_IDS)
def test_value_types_are_immutable_records(cls):
    assert issubclass(cls, Record) and "__setattr__" not in vars(cls)
    for value in VALUES[cls]:
        for name in cls.__slots__ + ("unknown",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            if name != "unknown":
                with pytest.raises(AttributeError):
                    delattr(value, name)


@pytest.mark.parametrize("cls", VALUES, ids=VALUE_IDS)
def test_value_types_copy_and_pickle_to_an_equal_value(cls):
    for value in VALUES[cls]:
        for rebuilt in (copy.copy(value), copy.deepcopy(value),
                        pickle.loads(pickle.dumps(value))):
            assert rebuilt == value and hash(rebuilt) == hash(value)
            assert repr(rebuilt) == repr(value)


def test_value_equality_and_hashes_keep_their_meaning():
    with_o, with_p = FiniteAbelianGroup((2,), (O,)), FiniteAbelianGroup((2,), (P,))
    assert GROUP == with_o == with_p != FiniteAbelianGroup((4,), (P,))
    assert hash(GROUP) == hash(with_p) == hash((2,))
    assert F5.element(1) == 6 and QQ.element(Rational(2)) == 2
    assert Rational(2) == 2 and hash(Rational(2)) == hash(2) and Rational(4, 2) == Rational(2)
    assert Point(None, None) == O and ProductPoint([O]) != O and O != ProductPoint([O])
    assert hash(P) == hash((P.x, P.y)) and hash(O) == hash((None, None))
    assert hash(PP) == hash(PP.coords) and hash(X) == hash(X.factors)
    assert hash(E5) == hash((E5.field, E5.a, E5.b))
    assert E5 == EllipticCurve(PrimeField(5), 5, 6) != E5B and X != E5
    assert X == ProductVariety([E5, E5B]) != ProductVariety([E5B, E5])


def test_a_tower_and_a_certificate_over_q_copy_and_pickle():
    K = extension_field(PrimeField(7), 3)
    EK = EllipticCurve(K, 0, 1)
    tower = Tower(EK, O, [O, EK.enumerate_points()[5], O])
    E17 = EllipticCurve(QQ, 0, 17)
    R = Point(QQ.element(-2), QQ.element(3))
    a = Tower(E17, O, [O] * 4)
    b = Tower(E17, O, [O] + [E17.scalar_mul(i, R) for i in range(1, 4)])
    certificate = necessity_test(a, b)
    assert isinstance(certificate, NonIsoCertificate)
    for record in (tower, certificate):
        for rebuilt in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert rebuilt == record and rebuilt is not record
    assert pickle.loads(pickle.dumps(certificate)).verify()
    assert copy.deepcopy(certificate).verify()


def test_fields_are_immutable_values():
    F, K = PrimeField(5), ExtField(PrimeField(5), 2)
    for field, name, value in ((F, "p", 7), (K, "degree", 3), (QQ, "size", 5)):
        with pytest.raises(AttributeError):
            setattr(field, name, value)
        with pytest.raises(AttributeError):
            delattr(field, name)
    assert F.p == 5 and K.degree == 2 and QQ.size is None and not QQ.is_finite
    for field, twin in ((F, PrimeField(5)), (K, extension_field(PrimeField(5), 2)),
                        (QQ, RationalField())):
        assert field == twin and hash(field) == hash(twin) and field is not twin
    assert F != PrimeField(7) != QQ != F and K != ExtField(PrimeField(7), 2)
    assert K != ExtField(PrimeField(5), 2, (3, 0, 1)) and ExtField(PrimeField(5), 1) != F


def test_copies_and_pickles_leave_what_a_field_keeps_behind():
    E = EllipticCurve(PrimeField(239), 0, 1)
    tower = Tower(E, O, [O] * 3)
    K = full_torsion_field(E, 2)
    assert deck_group(tower.level_map(2), field=K).invariant_factors == (2, 2)
    point = fiber(tower.level_map(2), O, field=K)[1]
    assert "_kept" in vars(K) and "_kept" in vars(E.field)
    for value, field_of in ((point, lambda v: v.x.field), (E, lambda v: v.field),
                            (tower, lambda v: v.variety.field), (K, lambda v: v)):
        data = pickle.dumps(value)
        assert len(data) < 1024
        for rebuilt in (copy.deepcopy(value), pickle.loads(data)):
            assert rebuilt == value and hash(rebuilt) == hash(value)
            assert "_kept" not in vars(field_of(rebuilt))
    # a copy of the field builds its own store, as an equal field built again does
    twin = copy.deepcopy(K)
    assert fiber(tower.level_map(2), O, field=twin)[1] == point
    assert "_kept" in vars(twin) and vars(twin)["_kept"] is not vars(K)["_kept"]


def _class_members(path):
    """(class name, name) for every name a class body in path defines or assigns."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield node.name, item.name
                elif isinstance(item, ast.Assign):  # __delattr__ = __setattr__
                    for target in item.targets:
                        if isinstance(target, ast.Name):
                            yield node.name, target.id


def test_only_config_record_gives_value_semantics():
    # Record owns equality, hashing and immutability; FieldElement and Rational,
    # which also equal plain ints, keep their own == and hash, and nothing else does
    package = Path(ectower.__file__).parent
    found = [(path.name, cls, name) for path in sorted(package.glob("*.py"))
             if path.name != "config.py" for cls, name in _class_members(path)]
    assert found
    assert {(cls, name) for _, cls, name in found if name in ("__eq__", "__hash__")} == {
        ("FieldElement", "__eq__"), ("FieldElement", "__hash__"),
        ("Rational", "__eq__"), ("Rational", "__hash__")}
    assert [f for f in found if f[2] in ("__setattr__", "__delattr__")] == []
