"""Discovery levels: the breadth-first search lists each generated
family's window in the order the family's definition gives, the grading's
kernel is each level's labels of degree e, and a cold `chain_group` or
graded `center_subobject` computes only the products of the window by the
generators.  Each definition is written here, apart from the library.
"""

import itertools

import pytest

import fusionrings as fr
from fusionrings.central import _reduced


def _words(k):
    """au's level k: the words of length k, lexicographic with u < v."""
    return ["".join(w) or "e" for w in itertools.product("uv", repeat=k)]


LEVELLED = {  # name -> (ring, deepest depth checked, level k by definition)
    "su2": (fr.su2_ring, 60, lambda k: [f"V{k}"]),
    "so3": (fr.so3_ring, 60, lambda k: [f"W{k}"]),
    "z": (fr.z_group_ring, 60, lambda k: [f"z{k}", f"z-{k}"] if k else ["z0"]),
    "au:2": (lambda: fr.au_word_ring(2), 10, _words),
    "au:3": (lambda: fr.au_word_ring(3), 10, _words),
}


def _counted(ring):
    """The ring, with a list that grows by one pair per product computed."""
    fill, calls = ring.fusion.fill, []
    ring.fusion.fill = lambda ab: calls.append(ab) or fill(ab)
    return calls


@pytest.mark.parametrize("name", LEVELLED)
def test_the_search_lists_each_family_by_its_definition(name):
    """`elements(depth)` is levels 0..depth of the definition, in order, and
    each label's `order_key` is its (level, position) in the definition."""
    make, deepest, level = LEVELLED[name]
    for depth in range(deepest + 1):
        ring = make()
        labels = ring.elements(depth)
        assert labels == tuple(l for k in range(depth + 1) for l in level(k)), depth
        assert ([ring.order_key(l) for l in labels]
                == [(0, k, i) for k in range(depth + 1) for i in range(len(level(k)))]), depth


@pytest.mark.parametrize("name", LEVELLED)
def test_the_declared_kernel_is_each_searched_level_of_degree_e(name):
    """The grading's `kernel(k)` is level k of the breadth-first search
    with its labels of nonzero degree left out, in the search's order."""
    make, deepest, _ = LEVELLED[name]
    ring = make()
    n, deg, kernel = ring.grading
    for k in range(deepest + 1):
        level = ring.elements(k)[len(ring.elements(k - 1)) if k else 0:]
        assert kernel(k) == [x for x in level if _reduced(deg(x), n) == 0], k


@pytest.mark.parametrize("name", LEVELLED)
def test_a_cold_listing_multiplies_only_the_levels_below_it(name):
    """Listing `elements(depth)` on a fresh ring computes each label of
    `elements(depth - 1)` times each generator once, and nothing else: the
    deepest level is found, not multiplied."""
    make, deepest, _ = LEVELLED[name]
    ring = make()
    calls = _counted(ring)
    ring.elements(deepest)
    below = {(x, g) for x in ring.elements(deepest - 1) for g in ring.generators}
    assert len(calls) == len(ring.fusion) == len(below)
    assert set(ring.fusion) == below


def test_a_cold_graded_center_multiplies_only_the_chain_window():
    """The center at depth 5 lists `kernel(0..10)` and explores only
    `elements(5)`, so it multiplies only the labels of `elements(5)` by the
    two generators: 126 products, where the breadth-first search of the 2d
    window took 2,046."""
    ring = fr.au_word_ring(2)
    calls = _counted(ring)
    fr.center_subobject(ring, 5)
    assert len(calls) == len(ring.fusion) == 126
    assert set(ring.fusion) == {(x, g) for x in ring.elements(5) for g in ring.generators}


@pytest.mark.parametrize("make, depth, entries", [
    (lambda: fr.au_word_ring(2), 6, 254),
    (fr.su2_ring, 40, 41),
], ids=["au:2 d6", "su2 d40"])
def test_a_cold_chain_group_computes_each_product_once(make, depth, entries):
    """The chain group fills the entries the breadth-first search and the
    chain window filled together: each label of `elements(depth)` times each
    generator, none computed twice and none dropped."""
    ring = make()
    calls = _counted(ring)
    fr.chain_group(ring, depth)
    assert len(calls) == len(ring.fusion) == entries
    assert set(ring.fusion) == {(x, g) for x in ring.elements(depth) for g in ring.generators}
