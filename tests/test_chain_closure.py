"""The congruence-closure chain relation against the full-square closure.

`full_square_closure` merges the constituents of every product of two
window labels.  The chain group and center are rebuilt from it through
public calls (unit class -> `is_central_subobject` -> table or
presentation) and compared with `chain_group` and `center_subobject`.
"""

import pytest

import fusionrings as fr
from fusionrings.central import UnionFind

DEPTHS = range(2, 7)


def _z2():
    return fr.group_ring(fr.cyclic_group(2))


GENERATED = {
    "su2": fr.su2_ring,
    "so3": fr.so3_ring,
    "z": fr.z_group_ring,
    "au2": lambda: fr.au_word_ring(2),
    "su2*z2": lambda: fr.free_product(fr.su2_ring(), _z2()),
    "su2xsu2": lambda: fr.direct_product(fr.su2_ring(), fr.su2_ring()),
    "su2xso3": lambda: fr.direct_product(fr.su2_ring(), fr.so3_ring()),
}


def full_square_closure(ring, depth):
    """Union-find of "merge every constituent of a x b" over all window
    pairs; constituents beyond the window are merged under their labels."""
    explored = ring.elements(None if ring.is_explicit else depth)
    uf = UnionFind()
    for x in explored:
        uf.add(x)
    for a in explored:
        for b in explored:
            first, *rest = ring.product(a, b)
            for c in rest:
                uf.union(first, c)
    return uf, explored


def full_square_unit_class(ring, depth):
    """The unit's full-square class, with every label the closure reached."""
    uf, _ = full_square_closure(ring, depth)
    root = uf.find(ring.unit)
    return frozenset(x for x in list(uf.parent) if uf.find(x) == root)


def full_square_centrality(ring, depth):
    members = full_square_unit_class(ring, depth)
    sigma = fr.check_subobject(ring, members,
                               depth=None if ring.is_explicit else depth)
    res = fr.is_central_subobject(ring, sigma, depth)
    assert res.central
    return res


def _presentation(ring, res, depth):
    part = res.partition
    gens, covered = [], set()
    for g in ring.generators:
        cls = part.block_of[g]
        if cls != part.identity_block and cls not in covered:
            gens.append(cls)
            covered |= {cls, part.block_of.get(ring.dual(g), cls)}
    relations = []
    if len(gens) == 1:
        cur = gens[0]
        for k in range(2, depth + 2):
            cur = res.products.get((cur, gens[0]))
            if cur is None:
                break
            if cur == part.identity_block:
                relations.append(f"g^{k}")
                break
    return {"generators": [f"[{part.blocks[g][0]}]" for g in gens],
            "relations": relations}


def _signature(ring, res, depth):
    if res.table is not None:
        t = res.table
        inv = fr.abelian_invariants(t) if t.is_abelian() else None
        return ("finite", t.size, t.is_abelian(), tuple(inv or ()))
    pres = _presentation(ring, res, depth)
    return ("presentation", len(pres["generators"]), tuple(pres["relations"]))


def full_square_chain_descriptor(ring, depth):
    """The chain-group descriptor as JSON, from the full-square pipeline."""
    res = full_square_centrality(ring, depth)
    if ring.is_explicit:
        desc = fr.identify_group(res.table)
        desc.flag = "exact"
        return desc.to_json()
    res_next = full_square_centrality(ring, depth + 1)
    stable = _signature(ring, res, depth) == _signature(ring, res_next, depth + 1)
    flag = f"{'stable' if stable else 'unstable'}_at_depth({depth})"
    if res.table is not None:
        desc = fr.identify_group(res.table)
        desc.flag = flag
        return desc.to_json()
    pres = _presentation(ring, res, depth)
    doc = {"order": None, "abelian": None, "invariants": None, "flag": flag,
           "presentation": pres}
    if len(pres["generators"]) == 1:
        doc["abelian"] = True
        if not pres["relations"]:
            doc["name"] = "Z"
        else:
            k = int(pres["relations"][0].split("^")[1])
            doc.update(order=k, invariants=[k], name=f"Z/{k}Z")
    return doc


@pytest.fixture(params=sorted(GENERATED) + ["explicit"])
def cases(request, explicit_fixtures):
    """(name, ring, depth) triples: one generated ring at each depth in
    DEPTHS, or every explicit fixture once."""
    if request.param == "explicit":
        return [(name, ring, 6) for name, ring in explicit_fixtures.items()]
    ring = GENERATED[request.param]()
    return [(request.param, ring, depth) for depth in DEPTHS]


def test_merge_closure_matches_full_square_on_window(cases):
    for name, ring, depth in cases:
        uf, explored = full_square_closure(ring, depth)
        slow = fr.CosetPartition.from_unionfind(ring, uf, explored)
        assert fr.merge_closure(ring, depth).same_partition(slow), (name, depth)


def test_chain_group_matches_full_square_pipeline(cases):
    for name, ring, depth in cases:
        _, desc = fr.chain_group(ring, depth)
        assert desc.to_json() == full_square_chain_descriptor(ring, depth), (name, depth)


def test_center_contains_full_square_unit_class(cases):
    for name, ring, depth in cases:
        old = full_square_unit_class(ring, depth)
        new = fr.center_subobject(ring, depth).members
        if ring.is_explicit:
            assert new == old, name
            continue
        window = set(ring.elements(depth))
        assert new & window == old & window, (name, depth)
        assert old <= new, (name, depth)
        assert new <= set(ring.elements(2 * depth)), (name, depth)
