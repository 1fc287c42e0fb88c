"""The record classes: equality, hashing and immutability.

The records are plain classes on the bases of `facelat._records`; these
tests pin what each one promises: value records compare and hash by their
fields, identity records by identity, frozen records refuse assignment and
deletion, and the check reports, which the suites fill in, are unhashable.
"""

import copy
import inspect
import pickle
from fractions import Fraction as F

import pytest

from facelat import bodyio
from facelat.checks import CheckReport, Verdict
from facelat.exactgeom import AffineSubspace, ConeTable, PolyCone, vec
from facelat.lattice import FiniteLattice, IsomorphismReport, LatticeMap
from facelat.planar import (Arc, CoatomReport, Cone2, ConeInventory, FaceDescriptor,
                            PlanarBody, QuadVal, RuleReport, Segment)
from facelat.polytope import (ConeElement, CylinderNormalReport, Facet, LiftReport,
                              PolyFace, Polytope, PosIsoReport, Projection)


def _cone():
    return PolyCone(2, ((1, 0),), ())


def _lattice():
    return FiniteLattice(("a", "b"), 0, 1, (0b01, 0b11), (0b11, 0b10))


# each entry builds a new record from equal arguments on every call
VALUE = {
    AffineSubspace: lambda: AffineSubspace(vec(0, 0), (vec(1, 0),)),
    PolyCone: _cone,
    FiniteLattice: _lattice,
    LatticeMap: lambda: LatticeMap(_lattice(), _lattice(), (0, 1), "isotone"),
    IsomorphismReport: lambda: IsomorphismReport(True, True, True, True, ()),
    QuadVal: lambda: QuadVal(F(1), F(1), F(2)),
    Cone2: lambda: Cone2("ray", (1, 0)),
    Segment: lambda: Segment(vec(0, 0), vec(1, 0)),
    Arc: lambda: Arc(vec(0, 0), F(1), vec(1, 0), vec(0, 1)),
    PlanarBody: lambda: bodyio.load_fixture("square_planar"),
    FaceDescriptor: lambda: FaceDescriptor("vertex", point=vec(1, 0)),
    ConeInventory: lambda: ConeInventory((Cone2.zero(),), (1,), (), ()),
    RuleReport: lambda: RuleReport(True, ("detail",)),
    CoatomReport: lambda: CoatomReport(True, (), True, "note"),
    Facet: lambda: Facet((1, 0), F(1), frozenset({0, 1})),
    PolyFace: lambda: PolyFace((0, 1), 1),
    ConeElement: lambda: ConeElement(_cone()),
    Polytope: lambda: Polytope((vec(0), vec(1))),
    PosIsoReport: lambda: PosIsoReport(True, True, True, 2, 2, ()),
    LiftReport: lambda: LiftReport(True, True, True, True, True, True, ()),
    CylinderNormalReport: lambda: CylinderNormalReport(_cone(), _cone()),
}
IDENTITY = {
    ConeTable: ConeTable,
    Projection: lambda: Projection(Polytope((vec(0), vec(1))), (vec(1),),
                                   (vec(0), vec(1)), {}, {}, {}),
}
MUTABLE = {
    Verdict: lambda: Verdict("suite.claim", "pass", "detail"),
    CheckReport: lambda: CheckReport("suite", "fixture", [Verdict("a", "pass", "")],
                                     {"n": 1}),
}
FROZEN = {**VALUE, Projection: IDENTITY[Projection]}


def _fields(cls) -> list[str]:
    """The fields of a record: the parameters of its constructor."""
    return list(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls", VALUE, ids=lambda c: c.__name__)
def test_value_records_compare_and_hash_by_their_fields(cls):
    a, b = VALUE[cls](), VALUE[cls]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object()


@pytest.mark.parametrize("cls", IDENTITY, ids=lambda c: c.__name__)
def test_identity_records_compare_by_identity(cls):
    a, b = IDENTITY[cls](), IDENTITY[cls]()
    assert a == a and a != b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_records_refuse_assignment_and_deletion(cls):
    record = FROZEN[cls]()
    for name in _fields(cls):
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("cls", VALUE, ids=lambda c: c.__name__)
def test_value_records_copy_and_pickle(cls):
    record = VALUE[cls]()
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert twin == record and hash(twin) == hash(record)
        with pytest.raises(AttributeError):
            setattr(twin, _fields(cls)[0], None)


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda c: c.__name__)
def test_check_reports_are_mutable_and_unhashable(cls):
    a, b = MUTABLE[cls](), MUTABLE[cls]()
    assert a == b
    with pytest.raises(TypeError):
        hash(a)
    name = _fields(cls)[0]
    setattr(b, name, "changed")
    assert a != b


def test_default_containers_are_fresh_per_record():
    a, b = CheckReport("s", "f"), CheckReport("s", "f")
    assert a.verdicts == [] and a.counts == {}
    assert a.verdicts is not b.verdicts and a.counts is not b.counts
    s, t = ConeTable(), ConeTable()
    assert s.cones == {} and s.conversions == {}
    assert repr(s) == "ConeTable(cones={}, conversions={})"
    assert s.cones is not t.cones and s.conversions is not t.conversions


def test_defaults_and_fields_outside_equality():
    assert QuadVal(F(2)) == QuadVal(F(2), F(0), F(0))
    assert Cone2("plane") == Cone2("plane", None, None)
    # the cone table that interned a cone takes no part in equality or repr
    table = ConeTable()
    assert PolyCone(2, (), (), table) == PolyCone(2, (), ())
    assert hash(PolyCone(2, (), (), table)) == hash(PolyCone(2, (), ()))
    assert repr(PolyCone(2, (), (), table)) == "PolyCone(dim=2, rays=(), lineality=())"


@pytest.mark.parametrize("cls", {**VALUE, **IDENTITY, **MUTABLE}, ids=lambda c: c.__name__)
def test_records_repr_their_fields(cls):
    record = {**VALUE, **IDENTITY, **MUTABLE}[cls]()
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    first = _fields(cls)[0]
    assert f"{first}={getattr(record, first)!r}" in text
