"""Declared gradings: the center and the depth+1 check read off a grading
proved on the window, against the closure they replace.

The graded families (su2, so3, z, au) must answer as the closure does:
`center_subobject` as the unit block of `merge_closure` on
`elements(2 * depth)`, and `chain_group` as when it computes the group at
`depth`+1.  Rings with no grading, or whose grading fails its check, take
the closure path.
"""

import pytest

import fusionrings as fr
from fusionrings import central
from fusionrings.cli import resolve_catalog

from conftest import kept

GRADED = {
    "su2": fr.su2_ring,
    "so3": fr.so3_ring,
    "z": fr.z_group_ring,
    "au:2": lambda: fr.au_word_ring(2),
    "au:3": lambda: fr.au_word_ring(3),
}
CASES = [(name, d) for name in GRADED for d in range(8)]
CASES += [(name, d) for name in ("su2", "so3", "z") for d in (40, 60)]


def _closure_center(ring, depth):
    part = fr.merge_closure(ring, 2 * depth)
    return frozenset(part.blocks[part.identity_block])


def _closure_chain_group(make, depth):
    """`chain_group` with the grading taken away, so it computes the group
    at `depth`+1 for the flag."""
    ring = make()
    ring.grading = None
    table, desc = fr.chain_group(ring, depth)
    return (table.to_json() if isinstance(table, fr.GroupTable) else table), desc.to_json()


def _answers(make, depth):
    ring = make()
    center = fr.center_subobject(ring, depth).members
    table, desc = fr.chain_group(make(), depth)
    return center, (table.to_json() if isinstance(table, fr.GroupTable) else table), desc.to_json()


@pytest.mark.parametrize("name, depth", CASES, ids=[f"{n}:d{d}" for n, d in CASES])
def test_graded_answers_equal_the_closure(name, depth):
    make = GRADED[name]
    center, table, desc = _answers(make, depth)
    assert center == _closure_center(make(), depth)
    assert (table, desc) == _closure_chain_group(make, depth)
    # every window but depth 0's, where U_0 is a trivial presentation, proves the grading
    assert central._graded(make(), depth) == (depth > 0)


@pytest.mark.parametrize("name, depth", CASES, ids=[f"{n}:d{d}" for n, d in CASES])
def test_a_graded_center_lists_the_window_of_degree_e_unexplored(name, depth):
    """The center's members, sorted in the ring it was computed on, are the
    labels of `elements(2 * depth)` of degree e in window order, and the
    ring is explored no deeper than the chain window `elements(depth)`."""
    ring, window = GRADED[name](), GRADED[name]()
    members = fr.center_subobject(ring, depth).sorted_in(ring)
    assert len(ring._levels) == depth + 1
    n, deg, _ = window.grading
    assert members == [x for x in window.elements(2 * depth)
                       if central._reduced(deg(x), n) == 0]


def _su2_graded_by(n, deg):
    """su2's products, duals and dims under the declared grading (n, deg),
    whose kernel at level k is V_k when deg(V_k) is 0, else nothing."""
    su2 = fr.su2_ring()

    def kernel(k):
        return [f"V{k}"] if central._reduced(deg(f"V{k}"), n) == 0 else []

    return lambda: fr.FusionRing.generated("V0", ["V1"], su2.product, su2.dual, su2.dim,
                                           grading=(n, deg, kernel))


FALLBACK = {
    "su2 index mod 3": _su2_graded_by(3, lambda l: int(l[1:])),
    "su2 constant degree": _su2_graded_by(2, lambda l: 0),
    "su2 constant degree in Z": _su2_graded_by(0, lambda l: 0),
    "free:su2+zn:2": lambda: resolve_catalog("free:su2+zn:2"),
    "prod:su2+su2": lambda: resolve_catalog("prod:su2+su2"),
}
FALLBACK_CASES = [(name, d) for name in FALLBACK for d in (1, 2, 3)]
FALLBACK_CASES += [(name, d) for name in FALLBACK if name.startswith("su2") for d in (0, 10)]


@pytest.mark.parametrize("name, depth", FALLBACK_CASES, ids=[f"{n}:d{d}" for n, d in FALLBACK_CASES])
def test_rings_without_a_proved_grading_answer_as_the_closure(name, depth):
    make = FALLBACK[name]
    center, table, desc = _answers(make, depth)
    assert center == _closure_center(make(), depth)
    assert (table, desc) == _closure_chain_group(make, depth)
    ring = make()
    assert not central._graded(ring, depth)
    assert kept(ring, "graded") == ({} if ring.grading is None else {depth: False})


def test_su2_at_depth_0_is_not_proved():
    # U_0 is trivial, while su2's grading is onto Z/2: the check fails and
    # the flag comes from the group at depth 1
    ring = fr.su2_ring()
    assert fr.center_subobject(ring, 0).members == {"V0"}
    assert fr.chain_group(ring, 0)[1].flag == "unstable_at_depth(0)"
    assert kept(ring, "graded") == {0: False}


@pytest.fixture
def closure_depths(monkeypatch):
    """The depths `merge_closure` is run at, each time it runs."""
    depths = []
    closure = central.merge_closure

    def counted(ring, depth=6):
        depths.append(depth)
        return closure(ring, depth)

    monkeypatch.setattr(central, "merge_closure", counted)
    return depths


@pytest.mark.parametrize("name", sorted(GRADED))
@pytest.mark.parametrize("depth", [1, 4])
def test_a_graded_ring_closes_only_the_asked_window(name, depth, closure_depths):
    fr.center_subobject(GRADED[name](), depth)
    assert 2 * depth not in closure_depths
    del closure_depths[:]
    fr.chain_group(GRADED[name](), depth)
    assert closure_depths == [depth]


def test_the_grading_is_checked_once_per_window(monkeypatch):
    checks = []
    holds = central._grading_holds
    monkeypatch.setattr(central, "_grading_holds",
                        lambda ring, depth: checks.append(depth) or holds(ring, depth))
    ring = fr.au_word_ring(2)
    for _ in range(2):
        for depth in (3, 4):
            fr.chain_group(ring, depth)
            fr.center_subobject(ring, depth)
    assert checks == [3, 4] and kept(ring, "graded") == {3: True, 4: True}
    assert sorted(kept(ring, "center")) == [3, 4]
