"""The congruence-closure chain relation against the full-square closure
and the label-keyed loop it replaced, the order of the partitions, and the
chain group of products against the theory.

`full_square_closure` merges the constituents of every product of two
window labels.  The partition, the finite chain groups and the center are
rebuilt from it through public calls (unit class -> `is_central_subobject`
-> table) and compared with `merge_closure`, `chain_group` and
`center_subobject`.  Presented chain groups are checked against
U(A * B) = U(A) * U(B) and U(A x B) = U(A) x U(B) on catalog products.
"""

import functools
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import fusionrings as fr
from fusionrings.central import _letter_key, _presented, _relator, _schreier, _smith_factors
from fusionrings.cli import resolve_catalog
from union_find import UnionFind

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


def sorted_partition(ring, class_of, explored):
    """`CosetPartition.from_classes` as it was before it relied on the
    order of `explored`: each block sorted by `ring.order_key`, then the
    blocks by their first members."""
    explored = tuple(explored)
    classes = {}
    for x in explored:
        classes.setdefault(class_of(x), []).append(x)
    raw = [sorted(members, key=ring.order_key) for members in classes.values()]
    raw.sort(key=lambda blk: ring.order_key(blk[0]))
    block_of = {l: i for i, blk in enumerate(raw) for l in blk}
    return fr.CosetPartition(tuple(tuple(b) for b in raw), block_of, explored,
                             block_of[ring.unit])


def reference_merge_closure(ring, depth):
    """The label-keyed closure that `merge_closure` replaced: merge the
    constituents of every x * g, then merge the images of labels that share
    a class, pass after pass, until a whole pass changes nothing.  The
    partition is built by `sorted_partition`."""
    explored = ring.elements(depth)
    uf = UnionFind()
    images = []
    for g in ring.generators:
        image = []
        for x in explored:
            first, *rest = ring.fusion[x, g]
            for c in rest:
                uf.union(first, c)
            image.append(first)
        images.append(image)
    changed = True
    while changed:
        changed = False
        for image in images:
            image_of_class: dict[str, str] = {}
            for x, y in zip(explored, image):
                other = image_of_class.setdefault(uf.find(x), y)
                changed |= uf.union(other, y)
    return sorted_partition(ring, uf.find, explored)


def full_square_unit_class(ring, depth):
    """The unit's full-square class, with every label the closure reached."""
    uf, _ = full_square_closure(ring, depth)
    root = uf.find(ring.unit)
    return frozenset(x for x in list(uf.parent) if uf.find(x) == root)


def full_square_centrality(ring, depth):
    """The quotient by the full-square unit class.  The chain classes are
    the fibres of a grading, so the product of two classes meets one class:
    a witness of two is a fault in the closure or the ring."""
    members = full_square_unit_class(ring, depth)
    sigma = fr.check_subobject(ring, members,
                               depth=None if ring.is_explicit else depth)
    res = fr.is_central_subobject(ring, sigma, depth)
    assert res.central
    return res


def full_square_table_descriptor(ring, depth):
    """identify_group's JSON for the full-square quotient table, or None
    when a block product leaves the window."""
    res = full_square_centrality(ring, depth)
    return None if res.table is None else fr.identify_group(res.table).to_json()


def full_square_chain_descriptor(ring, depth):
    """The chain-group descriptor as JSON when the full-square quotient is
    a finite table, flagged by comparing it with the one at depth + 1;
    None when the table is partial."""
    doc = full_square_table_descriptor(ring, depth)
    if doc is not None and not ring.is_explicit:
        stable = doc == full_square_table_descriptor(ring, depth + 1)
        doc["flag"] = f"{'stable' if stable else 'unstable'}_at_depth({depth})"
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
        slow = fr.CosetPartition.from_classes(ring, uf.find, explored)
        assert fr.merge_closure(ring, depth).same_partition(slow), (name, depth)


def test_merge_closure_equals_reference_loop(cases):
    """The same blocks in the same order, the same `block_of`, unit block
    and window: the records are equal, not only the partitions."""
    for name, ring, depth in cases:
        assert fr.merge_closure(ring, depth) == reference_merge_closure(ring, depth), (name, depth)


# on su2*Z/2 at depths 10 and 12 the reference loop takes 5 and 6 passes that
# merge something; products of window labels of z and Z/2 * Z/3 at depth 10
# leave the window
DEEP = [("su2*z2", 10), ("su2*z2", 12), ("au2", 10), ("z", 10), ("free:zn:2+zn:3", 10)]


@pytest.mark.parametrize("name, depth", DEEP, ids=[f"{n}:d{d}" for n, d in DEEP])
def test_merge_closure_equals_reference_loop_on_deep_windows(name, depth):
    ring = GENERATED[name]() if name in GENERATED else resolve_catalog(name)
    part = fr.merge_closure(ring, depth)
    assert part == reference_merge_closure(ring, depth)
    assert set(part.block_of) == set(ring.elements(depth))  # no label beyond the window


@st.composite
def random_tables(draw):
    """Labels x0 (the unit) to x{n-1} and a table giving each pair a
    nonempty list of distinct constituents: no fusion-ring axiom holds."""
    labels = [f"x{i}" for i in range(draw(st.integers(1, 6)))]
    constituents = st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True)
    return labels, {(a, b): {c: draw(st.integers(1, 2)) for c in draw(constituents)}
                    for a in labels for b in labels}


@settings(max_examples=150, deadline=None)
@given(random_tables(), st.data())
def test_merge_closure_equals_reference_loop_on_random_tables(drawn, data):
    """An explicit ring on the table, or a generated ring reading it with a
    proper subset of the labels as generators, so that a window's products
    reach constituents beyond it."""
    labels, table = drawn
    if len(labels) == 1 or data.draw(st.booleans()):
        ring = fr.FusionRing.explicit([fr.BasisElement(l, 1) for l in labels], "x0",
                                      {l: l for l in labels}, table)
    else:
        gens = data.draw(st.lists(st.sampled_from(labels), min_size=1,
                                  max_size=len(labels) - 1, unique=True))
        ring = fr.FusionRing("x0", gens, lambda a, b: table[a, b],
                             lambda a: a, lambda a: 1)
    for depth in range(5):
        assert fr.merge_closure(ring, depth) == reference_merge_closure(ring, depth), depth


def test_partitions_come_in_order_key_order(cases):
    """`from_classes` groups its labels in the order it is given them.  The
    callers give a window in discovery order, so the blocks are those of
    the construction that sorts them."""
    for name, ring, depth in cases:
        parts = [fr.merge_closure(ring, depth),
                 fr.sigma_cosets(ring, fr.center_subobject(ring, depth), depth)]
        if ring.is_explicit:
            parts.append(fr.chain_oracle(ring, max_len=6))
        for part in parts:
            assert part == sorted_partition(ring, part.block_of.__getitem__, part.explored), (
                name, depth)


def test_chain_group_matches_full_square_pipeline(cases):
    """A finite chain group is the full-square quotient table, whose check
    multiplies every member pair of every block pair; a partial one is a
    presented group."""
    for name, ring, depth in cases:
        found, desc = fr.chain_group(ring, depth)
        want = full_square_chain_descriptor(ring, depth)
        if want is None:
            assert desc.presentation is not None, (name, depth)
            continue
        assert desc.to_json() == want, (name, depth)
        assert found.mult == full_square_centrality(ring, depth).table.mult, (name, depth)


def test_center_contains_full_square_unit_class(cases):
    for name, ring, depth in cases:
        old = full_square_unit_class(ring, depth)
        new = fr.center_subobject(ring, depth).members
        fr.check_subobject(ring, new, depth=depth)  # the unit class is fusion-closed
        if ring.is_explicit:
            assert new == old, name
            continue
        window = set(ring.elements(depth))
        assert new & window == old & window, (name, depth)
        assert old <= new, (name, depth)
        assert new <= set(ring.elements(2 * depth)), (name, depth)


def reference_schreier_table(ring, depth):
    """The table fill that `_schreier` replaced, copied: the whole block
    action, a breadth-first tree of words, each entry i * j the action
    walked from i along j's word, and one relator per edge off the tree.
    Returns (mult, None) or (None, (names, relators)); KeyError when the
    action is total but the tree misses a block."""
    part = fr.merge_closure(ring, depth)
    blocks, block_of, fusion = part.blocks, part.block_of, ring.fusion
    act = [[next((block_of[c] for x in blk for c in fusion[x, g] if c in block_of), None)
            for g in ring.generators] for blk in blocks]
    queue, tree, off_tree = [part.identity_block], {part.identity_block: ()}, []
    for b in queue:
        for k, t in enumerate(act[b]):
            if t in tree:
                off_tree.append((b, k, t))
            elif t is not None:
                tree[t] = tree[b] + (k,)
                queue.append(t)
    if all(None not in row for row in act):
        n = len(blocks)
        return tuple(tuple(functools.reduce(lambda x, k: act[x][k], tree[j], i)
                           for j in range(n)) for i in range(n)), None
    sign, names = {part.identity_block: 0}, []
    for g in ring.generators:
        cls = block_of.get(g)
        if cls is not None and cls not in sign:
            names.append(f"[{blocks[cls][0]}]")
            sign[cls] = len(names)
            sign.setdefault(block_of.get(ring.dual(g), cls), -len(names))
    letter = [sign.get(block_of.get(g), 0) for g in ring.generators]
    path = {b: [letter[k] for k in word] for b, word in tree.items()}
    relators = {_relator(path[b] + [letter[k]] + [-l for l in reversed(path[t])])
                for b, k, t in off_tree
                if path[t] != path[b] + [letter[k]]
                and path[b] != path[t] + [-letter[k]]} - {()}
    return None, (names, sorted(relators, key=lambda r: (len(r), _letter_key(r))))


def schreier_table(ring, depth):
    """`_schreier`'s answer in `reference_schreier_table`'s form."""
    _, table, pres = _schreier(ring, depth)
    return (None if table is None else table.mult), pres


@settings(max_examples=200, deadline=None)
@given(random_tables(), st.booleans())
def test_schreier_table_equals_tree_word_walk_on_random_tables(drawn, unit_law):
    """No fusion-ring axiom holds on these tables, the unit law included
    unless it is forced, so a unit row may miss a class: the walk then
    fails on the missing word, and `_schreier` raises NotAGroup."""
    labels, table = drawn
    if unit_law:
        table.update({("x0", l): {l: 1} for l in labels})
    ring = fr.FusionRing.explicit([fr.BasisElement(l, 1) for l in labels], "x0",
                                  {l: l for l in labels}, table)
    try:
        want = reference_schreier_table(ring, 0)
    except KeyError:
        with pytest.raises(fr.NotAGroup):
            _schreier(ring, 0)
        return
    assert schreier_table(ring, 0) == want


def test_schreier_table_and_presentation_equal_tree_word_walk(cases):
    """Windows too: a partial action keeps its relators, a total one on a
    window its table."""
    rings = {id(ring): (name, ring) for name, ring, _ in cases}
    for name, ring in rings.values():
        for depth in range(5):
            assert schreier_table(ring, depth) == reference_schreier_table(ring, depth), (
                name, depth)


def test_unit_row_missing_a_chain_class_is_not_a_group():
    """x0 * x1 = x0: no word in the generators takes the unit's class to
    x1's, so the block action has no group table to read."""
    table = {("x0", "x0"): {"x0": 1}, ("x0", "x1"): {"x0": 1},
             ("x1", "x0"): {"x1": 1}, ("x1", "x1"): {"x1": 1}}
    for call in (fr.chain_group, fr.center_subobject, fr.enumerate_central_subobjects):
        ring = fr.FusionRing.explicit([fr.BasisElement("x0", 1), fr.BasisElement("x1", 1)],
                                      "x0", {"x0": "x0", "x1": "x1"}, table)
        with pytest.raises(fr.NotAGroup, match="reaches the class of 'x1'"):
            call(ring)


# ------------------------------------------------- products against theory

# The chain class of each label of a factor, as an element of Z/m (m = 0
# for Z): the factor's chain group is cyclic, generated by 1.
DEGREE = {
    "z": (0, lambda l: int(l[1:])),
    "zn:2": (2, lambda l: 0 if l == "e" else int(l[1:])),
    "zn:3": (3, lambda l: 0 if l == "e" else int(l[1:])),
    "su2": (2, lambda l: int(l[1:])),
    "so3": (1, lambda l: 0),
    "au": (0, lambda l: l.count("u") - l.count("v")),
}
PAIRS = list(itertools.combinations_with_replacement(sorted(DEGREE), 2))


def cyclic_name(m):
    return "trivial" if m == 1 else "Z" if m == 0 else f"Z/{m}Z"


def exponent_sums(relator, generators):
    """The exponent of each generator in a relator spelled as chain_group
    spells it: names in brackets, each with an optional ^power."""
    sums, pos = [0] * len(generators), 0
    while pos < len(relator):
        i = max((i for i, g in enumerate(generators) if relator.startswith(g, pos)),
                key=lambda i: len(generators[i]))
        power = re.match(r"(\^(-?\d+))?", relator[pos + len(generators[i]):])
        sums[i] += int(power.group(2) or 1)
        pos += len(generators[i]) + power.end()
    return sums


@pytest.mark.parametrize("a, b", PAIRS, ids=[f"{a}+{b}" for a, b in PAIRS])
def test_free_product_chain_group_is_free_product(a, b):
    """U(A * B) = U(A) * U(B): a free product of cyclic groups, with one
    power relator for each finite nontrivial factor."""
    factors = [DEGREE[a][0], DEGREE[b][0]]
    _, desc = fr.chain_group(resolve_catalog(f"free:{a}+{b}"), 4)
    assert desc.name == " * ".join(cyclic_name(m) for m in factors if m != 1) or "trivial"
    if desc.presentation is not None:
        assert len(desc.presentation["relations"]) == sum(m > 1 for m in factors)
    assert desc.flag == "stable_at_depth(4)"


@pytest.mark.parametrize("a, b", PAIRS, ids=[f"{a}+{b}" for a, b in PAIRS])
def test_direct_product_chain_group_is_direct_product(a, b):
    """U(A x B) = U(A) x U(B).  A finite one is the product table.  A
    presented one has relators that hold in U(A) x U(B), and among them the
    commutator of the two factors' letters and the order of a finite
    factor's letter, so it is U(A) x U(B) exactly, and named so."""
    (ma, da), (mb, db) = DEGREE[a], DEGREE[b]
    found, desc = fr.chain_group(resolve_catalog(f"prod:{a}+{b}"), 4)
    if ma and mb:
        mult = tuple(tuple(((i // mb + j // mb) % ma) * mb + (i + j) % mb
                           for j in range(ma * mb)) for i in range(ma * mb))
        reference = fr.GroupTable(mult, 0, tuple(map(str, range(ma * mb))))
        assert fr.tables_isomorphic(found, reference)
        return
    gens = desc.presentation["generators"]
    degrees = []  # each letter's class in U(A) x U(B)
    for g in gens:
        x, y = g[2:-2].split(",")
        degrees.append((da(x) % ma if ma else da(x), db(y) % mb if mb else db(y)))
    for relator in desc.presentation["relations"]:
        sums = exponent_sums(relator, gens)
        for k, m in enumerate((ma, mb)):
            total = sum(n * d[k] for n, d in zip(sums, degrees))
            assert (total % m if m else total) == 0, relator
    letters = {}  # factor -> its one letter, which generates U(factor)
    for g, degree in zip(gens, degrees):
        nonzero = [(k, d) for k, d in enumerate(degree) if d]
        assert len(nonzero) == 1, g
        (k, d), = nonzero
        assert k not in letters and math.gcd(d, (ma, mb)[k]) == 1, g
        letters[k] = g
    assert sorted(letters) == [k for k, m in enumerate((ma, mb)) if m != 1]
    relators = set(desc.presentation["relations"])
    if len(letters) == 2:
        assert f"{letters[0]}{letters[1]}{letters[0]}^-1{letters[1]}^-1" in relators
    for k, g in letters.items():
        if (ma, mb)[k]:
            assert f"{g}^{(ma, mb)[k]}" in relators
    # an infinite factor: U is abelian, named by the Smith normal form
    torsion = sorted(m for m in (ma, mb) if m > 1)
    assert desc.name == " x ".join([f"Z/{m}Z" for m in torsion] + ["Z"] * (ma, mb).count(0))
    assert desc.is_abelian is True


def test_chain_group_relators_of_catalog_products():
    def relations(name):
        _, desc = fr.chain_group(resolve_catalog(name), 6)
        return desc.presentation["relations"]

    assert relations("free:zn:2+zn:3") == ["[1:g1]^2", "[2:g1]^3"]
    assert relations("free:z+zn:2") == ["[2:g1]^2"]
    assert "[(z1,z0)][(z0,z1)][(z1,z0)]^-1[(z0,z1)]^-1" in relations("prod:z+z")
    _, desc = fr.chain_group(resolve_catalog("free:(free:zn:2+zn:3)+z"), 4)
    assert desc.name == "Z/2Z * Z/3Z * Z"


def test_chain_group_of_a_free_product_with_a_nonabelian_factor_is_unnamed():
    # U(S3 * Z/2) = S3 * Z/2 is infinite and not abelian; its relators are
    # neither all powers of one letter nor all commutators, so no name fits
    ring = fr.free_product(fr.group_ring(fr.s3_group()), fr.group_ring(fr.cyclic_group(2)))
    pres, desc = fr.chain_group(ring, 2)
    assert (desc.name, desc.order, desc.flag) == (None, None, "stable_at_depth(2)")
    assert desc.is_abelian is not True
    assert {"[1:r]^3", "[2:g1]^2"} <= set(pres["relations"])


@pytest.mark.parametrize("names, relators, want", [
    # a trivial letter beside one factor: gcd(4, 6) = 2 and b = 1
    ("ab", [(1,) * 4, (1,) * 6, (2,)], (2, True, [2], "Z/2Z")),
    ("a", [], (None, True, None, "Z")),
    ("", [], (1, True, [], "trivial")),
    ("ab", [(1, 1), (1, 2, -1, -2)], (None, True, None, "Z/2Z x Z")),
    ("ab", [(1, 1), (2, 2, 2)], (None, False, None, "Z/2Z * Z/3Z")),
    # a mixed relator without the commutator: neither rule applies
    ("ab", [(1, 1, 2, 2)], (None, None, None, None)),
])
def test_presented_names_groups_from_theory(names, relators, want):
    desc = _presented([f"[{x}]" for x in names], [_relator(r) for r in relators])
    assert (desc.order, desc.is_abelian, desc.abelian_invariants, desc.name) == want
    assert desc.flag == "exact"


def determinant_divisor_factors(rows, width):
    """Invariant factors d_k = D_k / D_(k-1), D_k the gcd of the k x k
    minors, up to the rank: the textbook oracle for `_smith_factors`."""
    def det(m):
        return m[0][0] if len(m) == 1 else sum(
            (-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]]) for j in range(len(m)))

    out, previous = [], 1
    for k in range(1, min(len(rows), width) + 1):
        d = 0
        for rs in itertools.combinations(rows, k):
            for cs in itertools.combinations(range(width), k):
                d = math.gcd(d, det([[r[c] for c in cs] for r in rs]))
        if d == 0:
            break
        out.append(d // previous)
        previous = d
    return out


def test_smith_factors_match_determinant_divisors():
    rng = random.Random(7)
    for _ in range(300):
        width = rng.randint(1, 4)
        rows = [[rng.choice([0, rng.randint(-12, 12)]) for _ in range(width)]
                for _ in range(rng.randint(0, 5))]
        assert _smith_factors(rows, width) == determinant_divisor_factors(rows, width), rows
