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
from facelat.lattice import FiniteLattice, LatticeMap, Report, verify_isomorphism
from facelat.planar import (Arc, CoatomReport, Cone2, ConeInventory, FaceDescriptor,
                            PlanarBody, QuadVal, Segment, check_2d_nonexposed_rule)
from facelat.polytope import (ConeElement, CylinderNormalReport, Facet, PolyFace,
                              Polytope, Projection, lifted_face_lattices, pos_iso_check)


def _cone():
    return PolyCone(2, ((1, 0),), ())


def _lattice():
    return FiniteLattice(("a", "b"), 0, 1, (0b01, 0b11), (0b11, 0b10))


def _square():
    return Polytope((vec(-1, -1), vec(1, -1), vec(1, 1), vec(-1, 1)))


# each entry builds a new record from equal arguments on every call
VALUE = {
    AffineSubspace: lambda: AffineSubspace(vec(0, 0), (vec(1, 0),)),
    PolyCone: _cone,
    FiniteLattice: _lattice,
    LatticeMap: lambda: LatticeMap(_lattice(), _lattice(), (0, 1), "isotone"),
    Report: lambda: Report(("a failure",)),
    QuadVal: lambda: QuadVal(F(1), F(1), F(2)),
    Cone2: lambda: Cone2("ray", (1, 0)),
    Segment: lambda: Segment(vec(0, 0), vec(1, 0)),
    Arc: lambda: Arc(vec(0, 0), F(1), vec(1, 0), vec(0, 1)),
    PlanarBody: lambda: bodyio.load_fixture("square_planar"),
    FaceDescriptor: lambda: FaceDescriptor("vertex", point=vec(1, 0)),
    ConeInventory: lambda: ConeInventory((Cone2.zero(),), (1,), (), ()),
    CoatomReport: lambda: CoatomReport(True, (), True, "note"),
    Facet: lambda: Facet((1, 0), F(1), frozenset({0, 1})),
    PolyFace: lambda: PolyFace((0, 1), 1),
    ConeElement: lambda: ConeElement(_cone()),
    Polytope: lambda: Polytope((vec(0), vec(1))),
    CylinderNormalReport: lambda: CylinderNormalReport(_cone(), _cone()),
}
IDENTITY = {
    ConeTable: ConeTable,
    Projection: lambda: Projection(Polytope((vec(0), vec(1))), (vec(1),),
                                   (vec(0), vec(1))),
}
MUTABLE = {
    Verdict: lambda: Verdict("suite.claim", "pass", "detail"),
    CheckReport: lambda: CheckReport("suite", "fixture", [Verdict("a", "pass", "")],
                                     {"n": 1}),
}
FROZEN = {**VALUE, Projection: IDENTITY[Projection]}
# the Report as each check returns it, one case per check, named after the
# check's report: the isomorphism, lift, positive-hull and planar rule checks
CHECKS = {
    "IsomorphismReport": lambda: verify_isomorphism(
        LatticeMap(_lattice(), _lattice(), (1, 0), "isotone")),
    "LiftReport": lambda: lifted_face_lattices(_square(), [vec(1, 0)])[2],
    "PosIsoReport": lambda: pos_iso_check(_square()),
    "RuleReport": lambda: check_2d_nonexposed_rule(bodyio.load_fixture("stadium")),
}


def _cases(*tables, checks=False):
    """The (class, factory) cases of record tables, each named by its class,
    and with `checks` the reports of the checks as well."""
    cases = [pytest.param(cls, make, id=cls.__name__)
             for table in tables for cls, make in table.items()]
    if checks:
        cases += [pytest.param(Report, make, id=name) for name, make in CHECKS.items()]
    return cases


def _fields(cls) -> list[str]:
    """The fields of a record: the parameters of its constructor."""
    return list(inspect.signature(cls).parameters)


@pytest.mark.parametrize(("cls", "make"), _cases(VALUE, checks=True))
def test_value_records_compare_and_hash_by_their_fields(cls, make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object()


@pytest.mark.parametrize(("cls", "make"), _cases(IDENTITY))
def test_identity_records_compare_by_identity(cls, make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize(("cls", "make"), _cases(FROZEN, checks=True))
def test_frozen_records_refuse_assignment_and_deletion(cls, make):
    record = make()
    for name in _fields(cls):
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize(("cls", "make"), _cases(VALUE, checks=True))
def test_value_records_copy_and_pickle(cls, make):
    record = make()
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert twin == record and hash(twin) == hash(record)
        with pytest.raises(AttributeError):
            setattr(twin, _fields(cls)[0], None)


@pytest.mark.parametrize(("cls", "make"), _cases(MUTABLE))
def test_check_reports_are_mutable_and_unhashable(cls, make):
    a, b = make(), make()
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


@pytest.mark.parametrize(("cls", "make"), _cases(VALUE, IDENTITY, MUTABLE, checks=True))
def test_records_repr_their_fields(cls, make):
    record = make()
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    first = _fields(cls)[0]
    assert f"{first}={getattr(record, first)!r}" in text
