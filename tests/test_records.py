"""The twelve record types behave as records: constructors with their
positional order, keyword names and defaults; field-wise equality; repr
as Name(field=value, ...); the frozen ones hashable and closed to
assignment, the others unhashable."""

import pytest

import fusionrings as fr
from fusionrings.automorph import AutomorphismGroup, RingAutomorphism
from fusionrings.central import (CentralityResult, CosetPartition, GroupDescriptor,
                                 GroupTable)
from fusionrings.errors import InternalInconsistency, MalformedRing
from fusionrings.ring import BasisElement, Subobject, ValidationReport, ValidationViolation
from fusionrings.subgroups import CentralSubgroupResult, NormalityResult

ONE = ((("e",),), {"e": 0}, ("e",), 0)
TWO = ((("e", "g"),), {"e": 0, "g": 0}, ("e", "g"), 1)
FLIP = RingAutomorphism((("a", "b"), ("b", "a")))


def _positive_dims_only():
    for dim in (0, -1, 1.0, True, "1"):
        with pytest.raises(MalformedRing):
            BasisElement("x", dim)


def _fresh_violation_lists():
    first, second = ValidationReport(), ValidationReport()
    first.add("unit-law", ("e",), "1 x e = 0")
    assert second.violations == [] and second.ok and not first.ok
    assert first.violations is not second.violations


def _invariants_multiply_to_the_order():
    with pytest.raises(InternalInconsistency):
        GroupDescriptor(3, True, [2], "exact")
    assert GroupDescriptor(None, True, [2], "stable_at_depth(4)").order is None


def _facts_are_kept_apart_from_the_fields():
    table = fr.cyclic_group(2)
    table.verify()
    assert ("verified", None) in table.answers
    twin = GroupTable(table.mult, table.identity, table.labels)
    assert twin == table and hash(twin) == hash(table)


def _truthy(cls, *rest):
    def check():
        assert cls(True, *rest) and not cls(False, *rest)
    return check


# type: (field names, number required, two argument lists differing in
# every field, frozen, a check of what the type alone does)
RECORDS = {
    BasisElement: (("label", "dim"), 2, ("x", 1), ("y", 2), True, _positive_dims_only),
    ValidationViolation: (("axiom", "witness", "detail"), 3, ("unit-law", ("e",), "a"),
                          ("duality", ("g", "g"), "b"), True, None),
    ValidationReport: (("violations", "checked_depth"), 0, ([], None),
                       ([ValidationViolation("unit", ("e",), "c")], 3), False,
                       _fresh_violation_lists),
    Subobject: (("members",), 1, (frozenset({"e"}),), (frozenset({"e", "g"}),), True, None),
    CosetPartition: (("blocks", "block_of", "explored", "identity_block"), 4, ONE, TWO, False,
                     None),
    GroupTable: (("mult", "identity", "labels"), 3, (((0,),), 0, ("e",)),
                 (((0, 1), (1, 0)), 1, ("a", "b")), True, _facts_are_kept_apart_from_the_fields),
    GroupDescriptor: (("order", "is_abelian", "abelian_invariants", "flag", "presentation",
                       "name"), 4, (2, True, [2], "exact", None, None),
                      (None, False, None, "stable_at_depth(3)", {"relations": []}, "Z"), False,
                      _invariants_multiply_to_the_order),
    CentralityResult: (("central", "partition", "table", "witness"), 2,
                       (True, CosetPartition(*ONE), fr.cyclic_group(2), None),
                       (False, CosetPartition(*TWO), fr.cyclic_group(3), ("e", "g")), False,
                       _truthy(CentralityResult, CosetPartition(*ONE))),
    NormalityResult: (("normal", "witness", "checked_depth"), 1, (True, None, None),
                      (False, ("V1", 1, 2), 6), False, _truthy(NormalityResult)),
    CentralSubgroupResult: (("central", "assignment", "witness", "checked_depth"), 1,
                            (True, {"e": "e"}, None, None), (False, None, ("V1", {}), 6), False,
                            _truthy(CentralSubgroupResult)),
    RingAutomorphism: (("mapping", "depth"), 1, ((("e", "e"),), None), (FLIP.mapping, 3), True,
                       None),
    AutomorphismGroup: (("order", "transversal_sizes", "generators", "depth"), 3,
                        (1, (), (), None), (2, (2,), (FLIP,), 3), True, None),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    fields, required, a, b, frozen, check = RECORDS[cls]
    record = cls(*a)
    assert record == cls(*a) == cls(**dict(zip(fields, a)))
    assert record != a and record != object()
    with pytest.raises(TypeError):
        cls(*a, None)
    assert [getattr(record, f) for f in fields] == list(a)
    assert repr(record) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, a))})"
    for i, field in enumerate(fields):
        assert cls(*a[:i], b[i], *a[i + 1:]) != record, field
    bare = cls(*a[:required])
    assert [getattr(bare, f) for f in fields[required:]] == [
        [] if f == "violations" else None for f in fields[required:]]
    if frozen:
        assert hash(record) == hash(cls(*a)) and len({record, cls(*a), cls(*b)}) == 2
        for i, field in enumerate(fields):
            with pytest.raises(AttributeError):
                setattr(record, field, b[i])
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert record == cls(*a)
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, fields[0], b[0])
        assert getattr(record, fields[0]) == b[0]
    if check is not None:
        check()
