"""The record contract: construction, equality, hash and immutability.

The records were frozen dataclasses; these tests pin the behaviour that
callers relied on, so that no set or dict order and no comparison moved.
Every field of a record takes part in ``==`` and ``hash``.
"""

import re
from fractions import Fraction

import pytest

from oracles import lattice_point_by_setattr
from torcrep.divisors import ClassGroup, class_group
from torcrep.exceptional import (
    EmbeddingCertificate,
    StarFan,
    SurfaceType,
    certify_normal_embedding,
    classify_surface,
)
from torcrep.fans import Cone, Fan
from torcrep.groups import GroupData, ObstructionReport, crepant_obstructions
from torcrep.hilbert import hilbert_basis
from torcrep.lattice import LatticePoint, Record, ScaledLattice
from torcrep.resolve import ResolutionResult

# each record's fields in constructor order
FIELDS = {
    ScaledLattice: ("dim", "denom", "basis"),
    GroupData: ("n", "r", "elements", "generators", "lattice"),
    ObstructionReport: ("not_generated_by_juniors", "hilbert_basis_contains_seniors"),
    Fan: ("lattice", "maximal_cones"),
    ClassGroup: ("rank", "torsion", "ray_classes", "canonical_class"),
    StarFan: ("fan", "lifts", "complete"),
    SurfaceType: ("kind", "parameter", "self_intersections"),
    EmbeddingCertificate: ("junior", "star", "iso", "cone_bijection"),
    ResolutionResult: ("fan", "sequence", "discrepancies", "smooth", "crepant",
                       "terminal_flags", "euler"),
}


@pytest.fixture(scope="module")
def records(z5, z5_result):
    fan = z5_result.fan
    cert = certify_normal_embedding(fan, z5.juniors[0])
    return {
        ScaledLattice: z5.lattice,
        GroupData: z5,
        ObstructionReport: crepant_obstructions(z5, hilbert_basis(z5)),
        Fan: fan,
        ClassGroup: class_group(fan),
        StarFan: cert.star,
        SurfaceType: classify_surface(cert.star),
        EmbeddingCertificate: cert,
        ResolutionResult: z5_result,
    }


def _values(rec) -> dict:
    return {f: getattr(rec, f) for f in FIELDS[type(rec)]}


def test_every_record_is_covered(records):
    assert set(FIELDS) == set(Record.__subclasses__()) == set(records)


def test_hash_is_the_dataclass_hash_of_the_compared_fields(records):
    # every field is compared
    for rec in records.values():
        assert hash(rec) == hash(tuple(_values(rec).values()))
    coords, rays = (1, 2, 2), (LatticePoint((5, 0, 0), 5), LatticePoint((1, 2, 2), 5))
    assert hash(LatticePoint(coords, 5)) == hash((coords, 5))
    assert hash(Cone(rays)) == hash((rays,))


def test_equality_ignores_exactly_the_uncompared_fields(records):
    for cls, rec in records.items():
        values = _values(rec)
        assert cls(*values.values()) == rec
        assert cls(**values) == rec
        for f in values:  # no field is ignored: changing any one breaks equality
            assert cls(**{**values, f: object()}) != rec, f
        assert rec != tuple(values.values())  # another class never compares equal


def test_hand_written_records_compare_by_their_fields():
    p = LatticePoint((1, 2, 2), 5)
    assert p == LatticePoint([1, 2, 2], 5)
    assert p != LatticePoint((1, 2, 2), 10) and p != LatticePoint((2, 1, 2), 5)
    assert p != ((1, 2, 2), 5)
    q = LatticePoint((5, 0, 0), 5)
    assert Cone((q, p)) == Cone((q, p)) and Cone((q, p)) != Cone((p, q))
    assert Cone((q, p)) != ((q, p),)


def test_assigning_or_deleting_a_field_raises_attribute_error(records):
    targets = [(rec, f) for rec in records.values() for f in FIELDS[type(rec)]]
    p = LatticePoint((1, 2, 2), 5)
    targets += [(p, "coords"), (p, "denom"), (Cone((p,)), "rays")]
    for rec, f in targets:
        before = getattr(rec, f)
        with pytest.raises(AttributeError):
            setattr(rec, f, None)
        with pytest.raises(AttributeError):
            delattr(rec, f)
        assert getattr(rec, f) is before


def test_a_missing_or_extra_argument_raises_type_error(records):
    for cls, rec in records.items():
        values = _values(rec)
        args = list(values.values())
        first = next(iter(values))
        for bad in [lambda: cls(*args[:-1]), lambda: cls(*args, None),
                    lambda: cls(**values, extra=None), lambda: cls(args[0], **values),
                    lambda: cls(**{k: v for k, v in values.items() if k != first})]:
            with pytest.raises(TypeError):
                bad()
    for bad in [lambda: LatticePoint((1, 2)), lambda: LatticePoint((1, 2), 3, 4),
                lambda: LatticePoint((1, 2), 3, extra=None), lambda: Cone(),
                lambda: Cone((), ())]:
        with pytest.raises(TypeError):
            bad()


def test_lattice_point_checks_are_unchanged():
    assert LatticePoint([1, 2, 2], 5).coords == (1, 2, 2)
    assert LatticePoint(coords=(1, 2, 2), denom=5) == LatticePoint((1, 2, 2), 5)
    cases = [
        (((6.9, 0, 0), 6), TypeError, "coordinates must be integers, got (6.9, 0, 0)"),
        (((True, 0), 6), TypeError, "coordinates must be integers, got (True, 0)"),
        (((1, 2, 3), 6.0), TypeError, "denominator must be an integer, got 6.0"),
        (((1, 2, 3), "6"), TypeError, "denominator must be an integer, got '6'"),
        (((1, 2, 3), 0), ValueError, "denominator must be positive"),
        (((1, 2, 3), -6), ValueError, "denominator must be positive"),
        # the coordinates are checked before the denominator
        (((0.5,), 0), TypeError, "coordinates must be integers, got (0.5,)"),
    ]
    for args, exc, message in cases:
        with pytest.raises(exc, match=f"^{re.escape(message)}$"):
            LatticePoint(*args)


def _outcome(build, coords, denom):
    """What ``build(coords(), denom)`` gives: its exception's class and message,
    or the point's hash, repr, coordinates and age (or the age's error)."""
    try:
        p = build(coords(), denom)
    except Exception as exc:
        return type(exc), str(exc)
    try:
        age = p.age
    except Exception as exc:
        age = type(exc), str(exc)
    return hash(p), repr(p), p.coords, p.denom, age


@pytest.mark.parametrize("coords", [
    lambda: (1, 2, 3), lambda: [1, 2, 3], lambda: (c for c in (1, 2, 3)), lambda: (),
    lambda: (1, 2, 2), lambda: (0, -3, 9), lambda: (True, 2, 3), lambda: [1, False],
    lambda: (c for c in (1.0, 2, 3)), lambda: (1, 2.5), lambda: (Fraction(1), 2, 3),
    lambda: (Fraction(1, 2), 2), lambda: (2**70, 6 - 2**70),
], ids=["tuple", "list", "generator", "empty", "non-integral-age", "negative",
        "bool", "bool-list", "float-generator", "float", "fraction", "half", "big"])
@pytest.mark.parametrize("denom", [6, 1, True, False, 6.0, 0.5, 0, -6, Fraction(6)],
                         ids=["6", "1", "True", "False", "6.0", "0.5", "0", "-6", "fraction"])
def test_lattice_point_matches_the_setattr_constructor(coords, denom):
    # the one type test and the slot setters accept and reject exactly the
    # inputs the set test and object.__setattr__ did, with the same messages
    got = _outcome(LatticePoint, coords, denom)
    assert got == _outcome(lattice_point_by_setattr, coords, denom)
    if not isinstance(got[0], type):
        assert LatticePoint(coords(), denom) == lattice_point_by_setattr(coords(), denom)


def test_repr_is_the_dataclass_repr(records):
    p = LatticePoint((1, 2, 2), 5)
    assert repr(p) == "LatticePoint(coords=(1, 2, 2), denom=5)"
    # str joins the coordinates as the generator join did
    for q in (p, LatticePoint((), 1), LatticePoint((0, -3, 7), 1), LatticePoint((12,), 6)):
        body = ",".join(str(c) for c in q.coords)
        assert str(q) == (f"({body})" if q.denom == 1 else f"(1/{q.denom})({body})")
    assert str(p) == "(1/5)(1,2,2)"
    assert repr(Cone((p,))) == f"Cone(rays=({p!r},))"
    report = records[ObstructionReport]
    assert repr(report) == (
        "ObstructionReport(not_generated_by_juniors=False, "
        "hilbert_basis_contains_seniors=False)")
