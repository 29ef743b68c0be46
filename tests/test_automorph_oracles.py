"""The automorphism search against the two searches it replaced.

`label_backtracking` assigns an explicit ring's labels one by one, in
order of invariant and input position, and checks the fusion coefficients
among assigned labels after each step.  `generator_permutations` tries
every dimension-preserving permutation of a generated ring's generators
and extends each by recursing over the window pairs, rescanning all of
them at every node.  Both are copied unchanged; `automorphisms` must give
the same list, in the same order and with the same depth stamp.
"""

import sys
from collections import Counter
from itertools import permutations

import pytest

import fusionrings as fr
from test_acceptance import budget
from test_kernel_oracles import _rep_d4_on_rho, _steiner_ring, _zn
from fusionrings.automorph import (RingAutomorphism, _label_invariant,
                                   verify_automorphism)
from fusionrings.central import search_budget
from fusionrings.errors import SearchBudgetExceeded
from fusionrings.ring import FusionRing


def label_backtracking(ring: FusionRing) -> list[RingAutomorphism]:
    labels = list(ring.labels())
    sig = {a: _label_invariant(ring, a) for a in labels}
    order = sorted(labels, key=lambda a: (sig[a], ring.order_key(a)))
    budget = search_budget()
    nodes = 0
    results: list[dict[str, str]] = []

    def partial_ok(phi, a):
        # fusion coefficients among already-assigned labels must be preserved
        for b in phi:
            for (x, y) in ((a, b), (b, a)):
                supp = ring.product(x, y)
                image = ring.product(phi[x], phi[y])
                if sum(supp.values()) != sum(image.values()):
                    return False
                for c, n in supp.items():
                    if c in phi and image.get(phi[c], 0) != n:
                        return False
        return True

    def extend(k, phi, used):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded("automorphism search budget exhausted")
        if k == len(order):
            if verify_automorphism(ring, phi):
                results.append(dict(phi))
            return
        a = order[k]
        if a in phi:
            extend(k + 1, phi, used)
            return
        forced = ring.unit if a == ring.unit else None
        candidates = [forced] if forced else [v for v in labels
                                              if v not in used and sig[v] == sig[a]]
        for v in candidates:
            da, dv = ring.dual(a), ring.dual(v)
            if da in phi and phi[da] != dv:
                continue
            phi[a] = v
            used.add(v)
            extra = False
            if da not in phi and da != a:
                if dv in used:
                    del phi[a]
                    used.remove(v)
                    continue
                phi[da] = dv
                used.add(dv)
                extra = True
            if partial_ok(phi, a) and (not extra or partial_ok(phi, da)):
                extend(k + 1, phi, used)
            if extra:
                del phi[da]
                used.remove(dv)
            del phi[a]
            used.remove(v)

    extend(0, {}, set())
    out = sorted({RingAutomorphism(tuple(sorted(phi.items()))) for phi in results},
                 key=lambda auto: auto.mapping)
    return out


def generator_permutations(ring: FusionRing, depth: int) -> list[RingAutomorphism]:
    explored = list(ring.elements(depth))
    gens = list(dict.fromkeys(ring.generators))
    budget = search_budget()
    nodes = 0
    results: list[dict[str, str]] = []

    pairs = [(a, b) for a in explored for b in explored]

    def match_pair(phi, a, b):
        """Consistency of supp(a x b) against supp(phi a x phi b); returns a
        list of alternative assignment extensions (each a dict), or None."""
        supp = ring.product(a, b)
        image = ring.product(phi[a], phi[b])
        if sorted((n, ring.dim(c)) for c, n in supp.items()) != \
           sorted((n, ring.dim(c)) for c, n in image.items()):
            return None
        fixed = {}
        free_src: list[str] = []
        targets = dict(image)
        for c, n in supp.items():
            if c in phi:
                if targets.get(phi[c], 0) != n:
                    return None
                del targets[phi[c]]
            else:
                free_src.append(c)
        if not free_src:
            return [fixed]
        # group the unmatched constituents by (multiplicity, dim)
        groups: dict[tuple, list[str]] = {}
        for c in free_src:
            groups.setdefault((supp[c], ring.dim(c)), []).append(c)
        tgroups: dict[tuple, list[str]] = {}
        taken = set(phi.values())
        for t, n in targets.items():
            if t in taken:
                return None
            tgroups.setdefault((n, ring.dim(t)), []).append(t)
        if set(groups) != set(tgroups) or any(len(groups[k]) != len(tgroups[k])
                                              for k in groups):
            return None
        alternatives = [dict(fixed)]
        for key, srcs in sorted(groups.items()):
            tgts = tgroups[key]
            new_alts = []
            for alt in alternatives:
                for perm in permutations(tgts):
                    ext = dict(alt)
                    ok = True
                    for c, t in zip(srcs, perm):
                        if t in ext.values():
                            ok = False
                            break
                        ext[c] = t
                    if ok:
                        new_alts.append(ext)
            alternatives = new_alts
        return alternatives

    def search(phi, done):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded("automorphism search budget exhausted")
        idx = next((i for i, (a, b) in enumerate(pairs)
                    if i not in done and a in phi and b in phi), None)
        if idx is None:
            if len(done) != len(pairs):
                return  # some explored element never got an image
            image = [phi.get(l) for l in explored]
            if None in image or sorted(image) != sorted(explored):
                return
            if any(phi.get(ring.dual(a)) not in (None, ring.dual(phi[a]))
                   for a in explored):
                return
            results.append(dict(phi))
            return
        a, b = pairs[idx]
        alts = match_pair(phi, a, b)
        if alts is None:
            return
        for ext in alts:
            nxt = dict(phi)
            nxt.update(ext)
            search(nxt, done | {idx})

    for images in permutations(gens):
        if any(ring.dim(g) != ring.dim(v) for g, v in zip(gens, images)):
            continue
        phi0 = {ring.unit: ring.unit}
        ok = True
        for g, v in zip(gens, images):
            phi0[g] = v
        for g in gens:
            dg = ring.dual(g)
            if dg in phi0 and phi0[dg] != ring.dual(phi0[g]):
                ok = False
        if not ok:
            continue
        search(phi0, frozenset())

    # every survivor must preserve fusion on the whole explored square
    survivors = [phi for phi in results
                 if verify_automorphism(ring, phi, labels=explored)]
    mappings = {tuple(sorted((l, phi[l]) for l in explored)) for phi in survivors}
    return [RingAutomorphism(mapping, depth=depth) for mapping in sorted(mappings)]


def reference(ring, depth=6):
    if ring.is_explicit:
        return label_backtracking(ring)
    # the recursion is one frame per window pair
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4000))
    try:
        return generator_permutations(ring, depth)
    finally:
        sys.setrecursionlimit(limit)


EXPLICIT = {
    "Z/16": lambda: _zn(16),
    "Z/24": lambda: _zn(24),
    "Z/32": lambda: _zn(32),
    "reps3^3": lambda: fr.direct_product(
        fr.direct_product(fr.rep_s3_ring(), fr.rep_s3_ring()), fr.rep_s3_ring()),
    "klein x Z/2": lambda: fr.direct_product(fr.group_ring(fr.klein_group()), _zn(2)),
    "s3 x reps3": lambda: fr.direct_product(fr.group_ring(fr.s3_group()),
                                           fr.rep_s3_ring()),
}


def _redundant_z5():
    """Z/5 generated by g1 and g2.  Doubling is an automorphism of Z/5, and
    it sends g1 to g2, but it sends g2 to g4, which is not a generator: it
    is not a generator-level symmetry."""
    def index(label):
        return int(label[1:])

    return FusionRing(
        "g0", ["g1", "g2"],
        lambda a, b: {f"g{(index(a) + index(b)) % 5}": 1},
        lambda a: f"g{-index(a) % 5}", lambda a: 1, name="Z/5 on g1, g2")


def _reps3_cubed_reversed():
    """reps3^3 with the unit first and the other labels in reverse input
    order: its largest labels come first in the file."""
    ring = EXPLICIT["reps3^3"]()
    labels = [ring.unit] + [l for l in reversed(ring.labels()) if l != ring.unit]
    basis = {b.label: b for b in ring.basis}
    return FusionRing.explicit([basis[l] for l in labels], ring.unit,
                               {l: ring.dual(l) for l in labels},
                               {(a, b): ring.fusion[a, b] for a in labels for b in labels},
                               name="reps3^3 reversed")


def _loop_ring():
    """A loop of order 6 with the unit law and two-sided inverses (x3 and
    x5 are dual, every other label is self-dual) that is not associative."""
    t = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 5, 0, 4, 1, 3],
         [3, 4, 1, 5, 2, 0], [4, 3, 5, 1, 0, 2], [5, 2, 4, 0, 3, 1]]
    names = ["e"] + [f"x{i}" for i in range(1, 6)]
    dual = {a: a for a in names}
    dual["x3"], dual["x5"] = "x5", "x3"
    return FusionRing.explicit(
        [fr.BasisElement(a, 1) for a in names], "e", dual,
        {(names[i], names[j]): {names[t[i][j]]: 1} for i in range(6) for j in range(6)},
        name="loop of order 6")


GENERATED = {
    "au2": (lambda: fr.au_word_ring(2), range(0, 5)),
    "su2": (fr.su2_ring, range(0, 31)),
    "so3": (fr.so3_ring, range(0, 21)),
    "z": (fr.z_group_ring, range(0, 16)),
    "su2*Z/2": (lambda: fr.free_product(fr.su2_ring(), _zn(2)), range(0, 5)),
    "su2 x su2": (lambda: fr.direct_product(fr.su2_ring(), fr.su2_ring()), (3, 4)),
    "Z/5 on g1, g2": (_redundant_z5, range(0, 4)),
    "Rep(D4) on rho": (_rep_d4_on_rho, range(0, 4)),
}


def test_matches_backtracking_on_explicit_fixtures(explicit_fixtures):
    for name, ring in explicit_fixtures.items():
        assert fr.automorphisms(ring) == reference(ring), name


@pytest.mark.parametrize("name", sorted(EXPLICIT))
def test_matches_backtracking(name):
    ring = EXPLICIT[name]()
    assert fr.automorphisms(ring) == reference(ring)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_matches_generator_permutations(name):
    build, depths = GENERATED[name]
    ring = build()
    for depth in depths:
        assert fr.automorphisms(ring, depth) == reference(ring, depth), (name, depth)


def test_ambiguous_constituents_branch():
    # rho x rho = 1 + a + b + c, and a, b, c get their images only from
    # that product: every matching of the three is tried, and all six
    # survive (the fusion rules of Rep(D4) are symmetric in a, b, c)
    autos = fr.automorphisms(_rep_d4_on_rho(), 2)
    images = {tuple(a.to_json()[x] for x in "abc") for a in autos}
    assert images == set(permutations("abc"))


def test_non_associative_tables_keep_the_full_search():
    # Light's middle set proves a map an automorphism only on an
    # associative table: on the loop, matching the middle pairs alone
    # also accepts x1 -> x2 -> x4 -> x1, which is not an automorphism
    loop = _loop_ring()
    report = fr.validate_ring(loop)
    assert Counter(v.axiom for v in report.violations) == {
        "associativity": 44, "frobenius": 16, "conjugation": 8}
    autos = fr.automorphisms(loop)
    assert autos == label_backtracking(loop)
    assert [auto.is_identity for auto in autos] == [True]
    steiner = _steiner_ring()
    assert fr.automorphisms(steiner) == label_backtracking(steiner)


def test_middle_set_follows_the_branching_order():
    # grown in the file's order, the middle set holds 13 labels, the
    # largest first, against 6 in branching order, and the search on this ring
    # takes about ten times as long (0.5 s against 0.05 s on a 2-core
    # machine)
    ring = _reps3_cubed_reversed()
    with budget(0.25):
        autos = fr.automorphisms(ring)
    assert autos == label_backtracking(ring)
