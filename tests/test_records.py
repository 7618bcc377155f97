"""The record classes of the library are `typing.NamedTuple`s: immutable
values that construct by position or keyword, compare and hash by value,
and survive `pickle` and `copy`.  They are tuples, so they also iterate,
index and compare equal to a plain tuple of the same items."""

import copy
import pickle

import pytest

from etv.degeneracy import DegeneracyWitness, HDegeneracyCertificate, VectorFamily
from etv.dualfan import DualFanEtp
from etv.exterior import ComplexSplit, OddForm, Pushforward
from etv.framed import FramedCell, TestForm, ValidityReport
from etv.intersection import ShiftCertificate, StableSupportCell
from etv.monge import AffineFunc, LinearityCell, PLFunction
from etv.polyhedra import PolyhedralSet, VPolytope
from etv.scalars import CRat

RECORDS = [VectorFamily, DegeneracyWitness, HDegeneracyCertificate, DualFanEtp,
           ComplexSplit, Pushforward, OddForm, FramedCell, ValidityReport, TestForm,
           ShiftCertificate, StableSupportCell, AffineFunc, PLFunction, LinearityCell,
           VPolytope, PolyhedralSet]

_FAMILY = (2, (((CRat(1), CRat(0)),), ((CRat(0), CRat(0, 1)), (CRat(1), CRat(1)))))


def _items(cls):
    """Hashable, picklable field values; a valid family for `VectorFamily`."""
    if cls is VectorFamily:
        return _FAMILY
    return tuple((name, i) for i, name in enumerate(cls._fields))


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__name__)
def record(request):
    cls = request.param
    return cls, _items(cls)


def test_positional_and_keyword_construction_agree(record):
    cls, items = record
    a = cls(*items)
    b = cls(**dict(zip(cls._fields, items)))
    assert a == b and hash(a) == hash(b)
    assert tuple(a) == items and a == items
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(cls._fields, items)) + ")"


def test_fields_are_read_only_and_there_is_no_instance_dict(record):
    cls, items = record
    a = cls(*items)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        a.extra = None
    assert a == items


def test_pickle_and_copy_round_trip(record):
    cls, items = record
    a = cls(*items)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is cls and b == a and hash(b) == hash(a)


def test_validity_report_witness_defaults_to_none():
    assert ValidityReport(True) == ValidityReport(ok=True, witness=None)


@pytest.mark.parametrize("sets", [
    (((CRat(1), CRat(0)),), ()),
    (((CRat(1), CRat(0)),), ((CRat(0), CRat(0)),)),
], ids=["empty-set", "zero-vector"])
def test_vector_family_rejects_an_empty_set_and_a_zero_vector(sets):
    with pytest.raises(ValueError):
        VectorFamily(2, sets)
    with pytest.raises(ValueError):
        VectorFamily(n=2, sets=sets)
    bad = tuple.__new__(VectorFamily, (2, sets))  # made past the check
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(bad))
    with pytest.raises(ValueError):
        copy.copy(bad)
    with pytest.raises(ValueError):
        VectorFamily._make((2, sets))
    with pytest.raises(ValueError):
        VectorFamily(*_FAMILY)._replace(sets=sets)
