"""Declared discovery levels: a generated family that lists its levels must
list the window the breadth-first search finds, in the same order, and
multiply nothing to do it.

The breadth-first search is the reference: each ring is built twice, and
the second has its `levels` taken off before its first `elements` call.
"""

import pytest

import fusionrings as fr
from fusionrings.central import _reduced

LEVELLED = {
    "su2": (fr.su2_ring, 60),
    "so3": (fr.so3_ring, 60),
    "z": (fr.z_group_ring, 60),
    "au:2": (lambda: fr.au_word_ring(2), 10),
    "au:3": (lambda: fr.au_word_ring(3), 10),
}


def _counted(ring):
    """The ring, with a list that grows by one pair per product computed."""
    fill, calls = ring.fusion.fill, []
    ring.fusion.fill = lambda ab: calls.append(ab) or fill(ab)
    return calls


@pytest.mark.parametrize("name", LEVELLED)
def test_declared_levels_equal_the_breadth_first_search(name):
    make, deepest = LEVELLED[name]
    for depth in range(deepest + 1):
        declared, searched = make(), make()
        searched.levels = None
        labels = declared.elements(depth)
        assert labels == searched.elements(depth), depth
        assert ([declared.order_key(l) for l in labels]
                == [searched.order_key(l) for l in labels]), depth


@pytest.mark.parametrize("name", LEVELLED)
def test_the_declared_kernel_is_each_searched_level_of_degree_e(name):
    """The grading's `kernel(k)` is level k of the breadth-first search
    with its labels of nonzero degree left out, in the search's order."""
    make, deepest = LEVELLED[name]
    declared, searched = make(), make()
    searched.levels = None
    n, deg, kernel = declared.grading
    for k in range(deepest + 1):
        level = searched.elements(k)[len(searched.elements(k - 1)) if k else 0:]
        assert kernel(k) == [x for x in level if _reduced(deg(x), n) == 0], k


@pytest.mark.parametrize("name", LEVELLED)
def test_declared_levels_multiply_nothing(name):
    make, deepest = LEVELLED[name]
    ring = make()
    calls = _counted(ring)
    ring.elements(deepest)
    assert calls == [] and len(ring.fusion) == 0


def test_a_cold_graded_center_multiplies_only_the_chain_window():
    """The center at depth 5 lists `elements(10)` but multiplies only the
    labels of `elements(5)` by the two generators: 126 products, where the
    breadth-first search of the 2d window took 2,046."""
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
