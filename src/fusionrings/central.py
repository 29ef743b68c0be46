"""Chain group, sigma-cosets, central subobjects and center computation.

The chain classes are the fibres of the universal grading, so the chain
relation is computed as a congruence closure under right multiplication by
the generators, and the chain group is read off their action on the classes.
A grading a family declares, once proved on a window, gives the center and
the depth+1 check with no further closure.  A brute-force word-support
oracle validates the closure on finite rings.
"""

from __future__ import annotations

import math
import os
import warnings
from itertools import groupby
from typing import Iterable, Mapping

from .errors import (
    DepthExceeded,
    FusionRingError,
    InternalInconsistency,
    NotAGroup,
    SearchBudgetExceeded,
)
from .ring import FusionRing, Memo, Subobject, _Frozen, _kept, _Record, check_subobject

DEFAULT_BUDGET = 10 ** 6
_LATTICE = "central-subobject lattice too large"


def search_budget() -> int:
    """`FUSIONRING_SEARCH_BUDGET`, a non-negative decimal integer, or the
    default when it is unset."""
    text = os.environ.get("FUSIONRING_SEARCH_BUDGET")
    if text is None:
        return DEFAULT_BUDGET
    if not (text.isascii() and text.isdigit()):
        raise FusionRingError("FUSIONRING_SEARCH_BUDGET must be a non-negative decimal "
                              f"integer, got {text!r}")
    return int(text)


def _spent(count: int, budget: int, what: str) -> int:
    """`count`, a search's steps so far; raises SearchBudgetExceeded with
    the message `what` when it is over `budget`."""
    if count > budget:
        raise SearchBudgetExceeded(what, count, budget)
    return count


def _find(parent: list[int], i: int) -> int:
    """The root of i in the union-find `parent` over label positions,
    halving the path on the way."""
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]
    return i


class CosetPartition(_Record):
    """A partition of (an explored part of) the basis into cosets."""

    def __init__(self, blocks: tuple[tuple[str, ...], ...], block_of: dict[str, int],
                 explored: tuple[str, ...], identity_block: int):
        self.blocks, self.block_of = blocks, block_of
        self.explored, self.identity_block = explored, identity_block

    @classmethod
    def from_classes(cls, ring: FusionRing, class_of, explored: Iterable[str]):
        """The explored labels grouped by `class_of(label)`, any key
        function, such as a union-find's `find`; other labels are left out.
        `explored` must come in `ring.order_key` order, as `elements()` and
        `labels()` give it: then each block's members, and the blocks by
        their first members, are in that order too."""
        explored = tuple(explored)
        classes: dict = {}
        for x in explored:
            classes.setdefault(class_of(x), []).append(x)
        blocks = tuple(map(tuple, classes.values()))
        block_of = {l: i for i, blk in enumerate(blocks) for l in blk}
        return cls(blocks, block_of, explored, block_of[ring.unit])

    def same_partition(self, other: "CosetPartition") -> bool:
        """Equality as partitions."""
        return set(map(frozenset, self.blocks)) == set(map(frozenset, other.blocks))

    def to_json(self):
        return {
            "blocks": [list(blk) for blk in self.blocks],
            "identity_block": self.identity_block,
            "explored": list(self.explored),
        }


class GroupTable(_Frozen):
    """A finite group as an index matrix, the library's one group type.
    Immutable, so it keeps each fact once found in `answers`, as a ring does:
    "verified", "generators", "orders" and "normals" (see `ring._kept`)."""

    def __init__(self, mult: tuple[tuple[int, ...], ...], identity: int, labels: tuple[str, ...]):
        # one label per element; `answers` is a store, not a field
        self.__dict__.update(mult=mult, identity=identity, labels=labels, answers={})

    @property
    def size(self) -> int:
        return len(self.mult)

    def verify(self):
        """Raise NotAGroup unless the table is a group law with one distinct
        label per element; elements are named by their labels."""
        _kept(self, "verified", None, self._check)  # a NotAGroup keeps nothing, so it recurs

    def _check(self) -> None:
        n, name = self.size, self.labels
        if not 0 <= self.identity < n:  # so an empty table has no identity
            raise NotAGroup(f"identity {self.identity!r} not among {n} elements")
        if len(name) != n or len(set(name)) != n:
            raise NotAGroup(f"labels {name!r} are not one distinct label per element")
        if not all(len(row) == n for row in self.mult):
            raise NotAGroup("table not square")
        if any(not (0 <= v < n) for row in self.mult for v in row):
            raise NotAGroup("table entry out of range")
        e = self.identity
        for a in range(n):
            if self.mult[e][a] != a or self.mult[a][e] != a:
                raise NotAGroup(f"identity law fails at {name[a]!r}")
        for a in range(n):
            if not any(self.mult[a][b] == e for b in range(n)):
                raise NotAGroup(f"no inverse for {name[a]!r}")
        # Light's test: the middle elements b with (a b) c = a (b c) for all
        # a, c are closed under products and hold the identity, so checking
        # a generating set proves associativity.  A failure rescans every
        # middle, so the message names the first triple.
        gens, m = self.generators(), self.mult

        def failures(middles):
            return ((a, b, c) for a in range(n) for b in middles for c in range(n)
                    if m[m[a][b]][c] != m[a][m[b][c]])

        if next(failures(gens), None) is not None:
            a, b, c = next(failures(range(n)))
            raise NotAGroup(f"associativity fails at ({name[a]!r},{name[b]!r},{name[c]!r})")

    def element_order(self, a: int) -> int:
        cur, k = a, 1
        while cur != self.identity and k <= self.size:  # a non-group's powers may never reach it
            cur = self.mult[cur][a]
            k += 1
        return k

    def orders(self) -> tuple[int, ...]:
        return _kept(self, "orders", None, lambda: tuple(map(self.element_order, range(self.size))))

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise; a group law is assumed."""
        gens, m = self.generators(), self.mult
        return all(m[a][b] == m[b][a] for i, a in enumerate(gens) for b in gens[i + 1:])

    def generators(self) -> list[int]:
        """A generating set: each element, in index order, that is not in
        the subgroup generated by the ones before it."""
        def generate():
            gens, inside = [], self.subgroup([])
            for a in range(self.size):
                if a not in inside:
                    gens.append(a)
                    inside = self.subgroup(gens)
            return tuple(gens)

        return list(_kept(self, "generators", None, generate))

    def subgroup(self, gens: Iterable[int]) -> frozenset[int]:
        """The subgroup generated by `gens`: the identity closed under right
        multiplication by them (in a finite group, inverses are powers)."""
        gens = list(gens)
        out = {self.identity}
        work = [self.identity]
        while work:
            row = self.mult[work.pop()]
            new = {row[g] for g in gens} - out
            out |= new
            work.extend(new)
        return frozenset(out)

    def normal_subgroups(self) -> frozenset[frozenset[int]]:
        """The normal subgroups of a group law, kept once found: from the
        trivial one, each found is joined with the normal closure of every
        element not inside it.  `_spent` counts each one held, the trivial one
        first; a kept lattice over the budget raises as a fresh search would."""
        budget = search_budget()

        def search():
            _spent(1, budget, _LATTICE)
            m, e = self.mult, self.identity
            inverse = [row.index(e) for row in m]
            closures = {self.subgroup({m[m[g][a]][inverse[g]] for g in range(self.size)})
                        for a in range(self.size)}
            normals = {frozenset([e])}
            work = list(normals)
            while work:
                s = work.pop()
                for c in closures:
                    if not c <= s and (j := self.subgroup(s | c)) not in normals:
                        normals.add(j)
                        work.append(j)
                        _spent(len(normals), budget, _LATTICE)
            return frozenset(normals)

        normals = _kept(self, "normals", None, search)  # kept at a larger budget, it raises
        return normals if len(normals) <= budget else _spent(budget + 1, budget, _LATTICE)

    def quotient(self, normal: frozenset[int]) -> "GroupTable":
        """The table of the cosets of the normal subgroup `normal`, each
        named by its first element's label."""
        coset_of: dict[int, int] = {}
        reps = []
        for a in range(self.size):
            if a not in coset_of:
                for h in normal:
                    coset_of[self.mult[a][h]] = len(reps)
                reps.append(a)
        mult = tuple(tuple(coset_of[self.mult[a][b]] for b in reps) for a in reps)
        return GroupTable(mult, coset_of[self.identity], tuple(self.labels[a] for a in reps))

    def to_json(self):
        return {"mult": [list(r) for r in self.mult],
                "identity": self.identity,
                "labels": list(self.labels)}


class GroupDescriptor(_Record):
    """Structural identification of a chain/coset group."""

    def __init__(self, order: int | None, is_abelian: bool | None,
                 abelian_invariants: list[int] | None, flag: str,
                 presentation: dict | None = None, name: str | None = None):
        self.order = order  # None for infinite / not-closed-at-depth
        self.is_abelian, self.abelian_invariants = is_abelian, abelian_invariants
        self.flag = flag  # "exact" | "stable_at_depth(k)" | "unstable_at_depth(k)"
        self.presentation, self.name = presentation, name
        if abelian_invariants and order is not None and math.prod(abelian_invariants) != order:
            raise InternalInconsistency("invariants do not multiply to the order")

    def to_json(self):
        doc = {"order": self.order, "abelian": self.is_abelian,
               "invariants": self.abelian_invariants, "flag": self.flag}
        if self.presentation is not None:
            doc["presentation"] = self.presentation
        if self.name is not None:
            doc["name"] = self.name
        return doc


# ----------------------------------------------------------- chain relation


def merge_closure(ring: FusionRing, depth: int = 6) -> CosetPartition:
    """Chain classes on the window `elements(depth)`, as the congruence
    closure of right multiplication by the generators (every label is a
    generator of an explicit ring).

    Labels are union-find nodes numbered by position: by their index in the
    window, or by the next free number for a constituent beyond it, which
    takes part in the merging but not in the partition.  One pass records
    one constituent of each x * g as x's image under g and queues merging
    the others with it.  A class keeps one image per generator (none if it
    holds no window label); a merge hands the absorbed class's images to
    the survivor, or queues each pair where both have one (Downey, Sethi
    and Tarjan 1980).  An empty queue leaves a congruence, the least one,
    as every merge is forced.
    """
    explored = ring.elements(depth)
    index = {x: i for i, x in enumerate(explored)}
    fusion, generators = ring.fusion, ring.generators
    images, queue = [], []
    for g in generators:
        image = []
        for x in explored:
            constituents = iter(fusion[x, g])
            first = index.setdefault(next(constituents), len(index))
            image.append(first)
            for c in constituents:
                queue.append((first, index.setdefault(c, len(index))))
        images.append(image)
    # per-label tuples, made after the pass so as not to fragment the product memo
    images = list(zip(*images)) + [None] * (len(index) - len(explored))
    parent = list(range(len(index)))
    while queue:
        a, b = queue.pop()
        a, b = _find(parent, a), _find(parent, b)
        if a != b:
            parent[b] = a
            if images[a] is None:
                images[a] = images[b]
            elif images[b] is not None:
                queue.extend(zip(images[a], images[b]))
    return CosetPartition.from_classes(ring, lambda x: _find(parent, index[x]), explored)


def chain_oracle(ring: FusionRing, max_len: int = 6) -> CosetPartition:
    """Brute-force chain relation on a finite ring: X ~ Y iff some word of
    length <= max_len contains both in its support; transitive closure
    applied.

    Enumerates word supports exhaustively; since the support of w.z depends
    only on the support of w, states are deduplicated by support set.  Kept
    under "oracle" and `max_len`, apart from the chain group's "chain", so
    that it stays a computation independent of `merge_closure`'s.
    """
    def partition():
        labels = ring.labels()
        frontier = {frozenset([z]) for z in labels}
        supports = set(frontier)
        for _ in range(max_len - 1):
            nxt = set()
            for supp in frontier:
                for z in labels:
                    ext = set()
                    for x in supp:
                        ext.update(ring.fusion[x, z])
                    nxt.add(frozenset(ext))
            frontier = nxt - supports
            supports |= frontier
        index = {x: i for i, x in enumerate(labels)}
        parent = list(range(len(labels)))
        for supp in supports:
            first, *rest = (index[x] for x in supp)
            for other in rest:
                parent[_find(parent, other)] = _find(parent, first)
        return CosetPartition.from_classes(ring, lambda x: _find(parent, index[x]), labels)

    return _kept(ring, "oracle", max_len, partition)


# -------------------------------------------------------------- sigma-cosets


_MERGED_MORE = "sigma relation was not transitive; the closure merged more"


def sigma_cosets(ring: FusionRing, sigma: Subobject, depth: int = 6) -> CosetPartition:
    """Partition of the explored basis under a ~ b iff supp(a x dual(b))
    meets sigma, with transitive closure applied after the pairwise tests.
    Kept under "cosets" unless it raised, so that recurs; a partition whose
    closure merged more is kept with that flag and warns on every call."""
    def partition():
        members = check_subobject(ring, sigma.members, depth=depth).members
        explored = ring.elements(depth)
        fusion, duals = ring.fusion, [ring.dual(b) for b in explored]
        parent = list(range(len(explored)))
        related = 0
        for i, a in enumerate(explored):
            for j, db in enumerate(duals[i + 1:], i + 1):
                if not members.isdisjoint(fusion[a, db]):
                    parent[_find(parent, j)] = _find(parent, i)
                    related += 1
        roots = {x: _find(parent, i) for i, x in enumerate(explored)}
        part = CosetPartition.from_classes(ring, roots.get, explored)
        # on a complete table the pairwise relation is already transitive (every
        # block a clique); closure is a defense against bad fusion data, so warn
        # if it changed anything.  A window's relation may miss links beyond it.
        warned = (ring.checked_depth(depth) is None
                  and related != sum(len(blk) * (len(blk) - 1) // 2 for blk in part.blocks))
        unit_block = set(part.blocks[part.identity_block])
        if unit_block != members & set(explored):
            if warned:
                warnings.warn(_MERGED_MORE)
            raise InternalInconsistency(
                f"unit block {sorted(unit_block)} != sigma {sorted(members)} "
                "on the explored basis")
        return part, warned

    part, warned = _kept(ring, "cosets", (frozenset(sigma.members), ring.checked_depth(depth)), partition)
    if warned:
        warnings.warn(_MERGED_MORE)
    return part


class CentralityResult(_Record):
    def __init__(self, central: bool, partition: CosetPartition,
                 table: GroupTable | None = None, witness: tuple | None = None):
        self.central, self.partition, self.table, self.witness = central, partition, table, witness

    def __bool__(self):
        return self.central


def is_central_subobject(ring: FusionRing, sigma: Subobject,
                         depth: int = 6) -> CentralityResult:
    """Decide whether sigma's cosets form a group.

    Block i times block j is the one block met by the products of every
    member of block i with every member of block j; a pair whose products
    meet two blocks is returned as the witness of a non-central result.
    Constituents beyond the explored partition are outside the
    depth-qualified claim.  When every block product lands in the
    partition the verified group table is returned.  Kept under
    "centrality", also on a partition that warns; a NotAGroup is not.
    """
    part = sigma_cosets(ring, sigma, depth)
    return _kept(ring, "centrality", (frozenset(sigma.members), ring.checked_depth(depth)),
                 lambda: _centrality(ring, part))


def _centrality(ring: FusionRing, part: CosetPartition) -> CentralityResult:
    """`is_central_subobject` on the cosets `part`."""
    blocks, get, fusion = part.blocks, part.block_of.get, ring.fusion
    products: dict[tuple[int, int], int] = {}
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            seen: set[int] = set()
            for a in bi:
                for b in bj:
                    seen.update(map(get, fusion[a, b]))
                    seen.discard(None)
                    if len(seen) > 1:
                        return CentralityResult(
                            False, part, witness=(i, j, (a, b), sorted(seen)))
            if seen:
                products[(i, j)] = seen.pop()
    n = len(blocks)
    if len(products) < n * n:
        return CentralityResult(True, part)
    mult = tuple(tuple(products[(i, j)] for j in range(n)) for i in range(n))
    table = GroupTable(mult, part.identity_block, tuple(blk[0] for blk in blocks))
    table.verify()
    return CentralityResult(True, part, table=table)


def enumerate_central_subobjects(ring: FusionRing) -> list[Subobject]:
    """All central subobjects of a finite explicit ring.

    The chain classes are the components of the universal grading by the
    chain group U, so a subobject is central exactly when it is the union
    of the classes in a normal subgroup of U, one of
    `GroupTable.normal_subgroups` (which raises SearchBudgetExceeded).
    """
    ring.labels()  # a finite table is needed
    part, t, _ = _schreier(ring, 0)  # the depth does not limit a complete table
    t.verify()
    out = [Subobject(frozenset(l for i in n for l in part.blocks[i]))
           for n in t.normal_subgroups()]
    out.sort(key=lambda s: (len(s.members), tuple(sorted(s.members))))
    return out


def center_subobject(ring: FusionRing, depth: int = 6) -> Subobject:
    """The intersection of all central subobjects: the unit's chain class,
    which is also the adjoint subobject generated by the supports of every
    x * dual(x) (Gelaki-Nikshych).

    On a generated ring the class is taken on the window
    `elements(2 * depth)`: every label that a product of two
    `elements(depth)` labels can reach.  Where the ring's declared grading
    deg: Irr -> Gamma holds on `elements(depth)` (`_graded`), U is Gamma
    through deg, so the unit's chain class is deg^-1(e): the answer is the
    window's labels of degree e, which the family lists level by level
    (the grading's `kernel`), with no closure and no exploration of the
    window.  They are the closure's answer too.  deg is constant on a
    class, so its unit class has degree e.  And a label z of degree e in
    the window is in a x w, for some a in `elements(depth)` and a word w
    of at most `depth` generators; the closure puts all of a x w in one
    class, a's class times w.  The dual word of w (the generators are
    closed under duals) has a constituent y with the unit in y x w.  y is
    in `elements(depth)` with a's degree, so in a's class, as the blocks
    at `depth` are the degree fibres; so a x w and y x w share the unit's
    class.  Kept under "center" and the stamp `ring.checked_depth(depth)`.
    """
    def center():
        if _graded(ring, depth):
            kernel = ring.grading[2]
            return Subobject(frozenset(x for k in range(2 * depth + 1) for x in kernel(k)))
        part = _schreier(ring, 2 * depth)[0]
        return Subobject(frozenset(part.blocks[part.identity_block]))

    return _kept(ring, "center", ring.checked_depth(depth), center)


# --------------------------------------------------------------- chain group


def _schreier(ring: FusionRing, depth: int):
    """The chain classes on the window, and the chain group U read off
    their block action.

    Block b times generator k is the block of any in-window constituent of
    a member of b times that generator: the closure put them all in one
    block, and it has already computed the products.  A breadth-first tree
    from the unit block gives each block j a parent p and a letter k.  When
    the action is total on the window, U is finite and its table, not yet
    verified, is the action walked along the tree words, filled in tree
    order as i * j = (i * p) * k; NotAGroup if the tree misses a block.
    A complete table's action is total: each row is read when first needed
    from one member, and the tree stops once it spans.  Otherwise U is
    presented on the generator classes, taken up to duals, by one relator
    for every edge off the tree (Reidemeister-Schreier).  Returns
    (partition, table, None) or (partition, None, (names, relators)), a
    relator being a tuple of letters: i or -i for the i-th name or its
    inverse.  Kept under "chain" and the stamp `ring.checked_depth(depth)`.
    """
    def chain():
        part = merge_closure(ring, depth)
        blocks, block_of, fusion, gens = part.blocks, part.block_of, ring.fusion, ring.generators
        n, unit, complete = len(blocks), part.identity_block, ring.checked_depth(depth) is None
        act = (Memo(lambda b: [block_of[next(iter(fusion[blocks[b][0], g]))] for g in gens])
               if complete else [[next((block_of[c] for x in blk for c in fusion[x, g]
                                        if c in block_of), None) for g in gens] for blk in blocks])
        queue, tree, off_tree = [unit], {unit: None}, []
        for b in queue:
            if complete and len(tree) == n:
                break  # the edges left off the tree would feed only relators
            for k, t in enumerate(act[b]):
                if t in tree:
                    off_tree.append((b, k, t))
                elif t is not None:
                    tree[t] = (b, k)
                    queue.append(t)
        edges = list(tree.items())[1:]
        if complete or all(None not in row for row in act):
            if len(tree) < n:
                missed = blocks[min(set(range(n)) - tree.keys())][0]
                raise NotAGroup(f"no word in the generators reaches the class of {missed!r}")
            rows = [[i] * n for i in range(n)]
            for j, (p, k) in edges:
                for row in rows:
                    row[j] = act[row[p]][k]
            table = GroupTable(tuple(map(tuple, rows)), unit, tuple(blk[0] for blk in blocks))
            return part, table, None
        sign, names = {unit: 0}, []
        for g in gens:
            cls = block_of.get(g)
            if cls is not None and cls not in sign:
                names.append(f"[{blocks[cls][0]}]")
                sign[cls] = len(names)
                sign.setdefault(block_of.get(ring.dual(g), cls), -len(names))
        letter = [sign.get(block_of.get(g), 0) for g in gens]
        path = {unit: []}
        for j, (p, k) in edges:
            path[j] = path[p] + [letter[k]]
        relators = {_relator(path[b] + [letter[k]] + [-l for l in reversed(path[t])])
                    for b, k, t in off_tree  # a tree edge's relator is (): skip it, not reduce it
                    if path[t] != path[b] + [letter[k]]
                    and path[b] != path[t] + [-letter[k]]} - {()}
        relators = sorted(relators, key=lambda r: (len(r), _letter_key(r)))
        return part, None, (names, relators)

    return _kept(ring, "chain", ring.checked_depth(depth), chain)


def _reduced(k: int, n: int) -> int:
    """k as an element of Z/n, of Z when n = 0."""
    return k % n if n else k


def _graded(ring: FusionRing, depth: int) -> bool:
    """Whether the ring's declared grading (n, deg, kernel), deg: Irr -> Gamma =
    Z/n (Z when n = 0), is U's, proved on the window `elements(depth)`
    from `_schreier(ring, depth)` and the products it computed:
    - deg(c) = deg(x) + deg(g) for every constituent c of x * g, x in the
      window and g a generator.  Then every merge joins labels of one
      degree, so each block has one; no two blocks may share one;
    - the generators are closed under duals and their degrees generate
      Gamma;
    - U_d, the group read at `depth`, is a table of Gamma's order, or a
      presentation named Z when Gamma is Z.
    So deg maps U_d onto Gamma.  The family declares deg as a grading of
    the whole ring, so it maps U onto Gamma too.  U_d maps onto U_{d+1}
    and that onto U, so in U_d ->> U_{d+1} ->> U ->> Gamma every map is
    an isomorphism: for a finite Gamma by the orders, for Z as it is
    Hopfian.  A ring with no grading is never graded.  Kept under "graded"
    and the stamp `ring.checked_depth(depth)`."""
    return ring.grading is not None and _kept(
        ring, "graded", ring.checked_depth(depth), lambda: _grading_holds(ring, depth))


def _grading_holds(ring: FusionRing, depth: int) -> bool:
    """`_graded`'s three facts, checked on the window."""
    n, deg, _ = ring.grading
    part, table, pres = _schreier(ring, depth)
    fusion, gens = ring.fusion, ring.generators
    return (all(_reduced(deg(c), n) == _reduced(deg(x) + deg(g), n)
                for x in ring.elements(depth) for g in gens for c in fusion[x, g])
            and len({_reduced(deg(blk[0]), n) for blk in part.blocks}) == len(part.blocks)
            and set(map(ring.dual, gens)) <= set(gens) and math.gcd(n, *map(deg, gens)) == 1
            and (table.size == n if table is not None
                 else n == 0 and _presented(*pres).name == "Z"))


def _letter_key(word):
    return [(abs(l), l < 0) for l in word]


def _relator(word) -> tuple[int, ...]:
    """A word of letters (0 is no letter) reduced freely and cyclically, as
    the least rotation of it or of its inverse, by letter, then sign."""
    out = []
    for l in word:
        if out and out[-1] == -l:
            out.pop()
        elif l:
            out.append(l)
    while len(out) > 1 and out[0] == -out[-1]:
        out = out[1:-1]
    inverse = [-l for l in reversed(out)]
    return min((tuple(w[i:] + w[:i]) for w in (out, inverse) for i in range(len(w))),
               key=_letter_key, default=())


def _spelled(r: tuple[int, ...], names: list[str]) -> str:
    """A relator as text, a power per run of one letter: [a]^2, [a][b][a]^-1[b]^-1."""
    out = ""
    for l, run in groupby(r):
        power = len(list(run)) * (1 if l > 0 else -1)
        out += names[abs(l) - 1] + ("" if power == 1 else f"^{power}")
    return out


def _presented(names: list[str], relators: list[tuple[int, ...]]) -> GroupDescriptor:
    """The group <names | relators>, named as a free product of cyclic
    groups when every relator is a power of one letter and two or more
    factors are nontrivial.  Otherwise, when the relators are such powers
    or hold every commutator of two names, the group is its own
    abelianization, named from the Smith normal form of the exponent sums:
    torsion factors smallest first, then one Z per free rank.  Any other
    group is left unnamed.  The flag is left for the caller to set."""
    pres = {"generators": names, "relations": [_spelled(r, names) for r in relators]}
    k = len(names)
    if all(len(set(r)) == 1 for r in relators):
        orders = [0] * k  # 0: infinite cyclic
        for r in relators:
            orders[r[0] - 1] = math.gcd(orders[r[0] - 1], len(r))
        factors = [d for d in orders if d != 1]
        if len(factors) > 1:  # a free product of two nontrivial groups is not abelian
            return GroupDescriptor(None, False, None, "exact", presentation=pres,
                                   name=" * ".join(f"Z/{d}Z" if d else "Z" for d in factors))
    elif not {_relator((i, j, -i, -j))
              for i in range(1, k + 1) for j in range(i + 1, k + 1)} <= set(relators):
        return GroupDescriptor(None, None, None, "exact", presentation=pres)
    sums = [[sum((l > 0) - (l < 0) for l in r if abs(l) == i) for i in range(1, k + 1)]
            for r in relators]
    factors = _smith_factors(sums, k)
    torsion = [d for d in factors if d != 1]
    free = k - len(factors)
    order = None if free else math.prod(torsion)
    return GroupDescriptor(order, True, None if free else torsion, "exact", presentation=pres,
                           name=" x ".join([f"Z/{d}Z" for d in torsion] + ["Z"] * free) or "trivial")


def _smith_factors(rows: list[list[int]], width: int) -> list[int]:
    """The nonzero diagonal of the Smith normal form of an integer matrix
    with `width` columns, each entry dividing the next."""
    rows = [list(r) for r in rows if any(r)]
    cols = list(range(width))
    out = []
    while rows:
        # the pivot: an entry of least absolute value
        i, j = min(((i, j) for i, r in enumerate(rows) for j in cols if r[j]),
                   key=lambda ij: abs(rows[ij[0]][ij[1]]))
        pivot_row, p = rows[i], rows[i][j]
        done = True
        for r in rows:
            if r is not pivot_row and r[j]:
                q = r[j] // p
                r[:] = [x - q * y for x, y in zip(r, pivot_row)]
                done = done and not r[j]
        for c in cols:
            if c != j and pivot_row[c]:
                q = pivot_row[c] // p
                for r in rows:
                    r[c] -= q * r[j]
                done = done and not pivot_row[c]
        if not done:
            continue  # a remainder smaller than the pivot is left
        rest = [r for r in rows if r is not pivot_row]
        stray = next((r for r in rest if any(x % p for x in r)), None)
        if stray is not None:
            # the pivot must divide every entry left: bring one it does not divide into its row
            pivot_row[:] = [x + y for x, y in zip(pivot_row, stray)]
            continue
        out.append(abs(p))
        cols.remove(j)
        rows = [r for r in rest if any(r[c] for c in cols)]
    return out


def _depth_flag(ring: FusionRing, depth: int, same_at_next) -> str:
    """`exact` on a complete table; otherwise, with k the answer's stamp
    `ring.checked_depth(depth)`, `stable_at_depth(k)` when `same_at_next()`
    finds the answer at `depth`+1 the same, and `unstable_at_depth(k)` when
    it differs or leaves the window.  `same_at_next` may prove it with no
    window at `depth`+1: `chain_group`'s does where the ring's grading
    holds (`_graded`), which makes U_d and U_{d+1} both isomorphic to U."""
    if (stamp := ring.checked_depth(depth)) is None:
        return "exact"
    try:
        stable = same_at_next()
    except DepthExceeded:
        stable = False
    return f"{'stable' if stable else 'unstable'}_at_depth({stamp})"


def chain_group(ring: FusionRing, depth: int = 6,
                candidates: Mapping[str, GroupTable] | None = None):
    """The chain group read off the generators' block action (`_schreier`).

    Returns (GroupTable or presentation dict, GroupDescriptor).  Generated
    rings are computed at `depth` and `depth`+1; the same descriptor at
    both is reported as stable_at_depth(depth), never as exact.  Where the
    ring's grading holds on the window (`_graded`), U_d ->> U_{d+1} ->> U
    ->> Gamma are isomorphisms, so the group at `depth`+1 is the same and is
    not computed.

    A named group is compared without its presentation, whose relators may
    grow with the window (`prod:z+z` gains [a][b]^j[a]^-1[b]^-j at depth j).
    `_presented` names a group only when its relators fix it, and the group
    at `depth`+1 is a quotient of the one at `depth`; both named kinds are
    finitely generated and residually finite, hence Hopfian, so equal names
    make that quotient map an isomorphism.
    """
    def at(d):
        _, table, pres = _schreier(ring, d)
        if table is not None:
            return table, identify_group(table, candidates=candidates)
        desc = _presented(*pres)
        return desc.presentation, desc

    def signature(d):
        return d.order, d.is_abelian, d.abelian_invariants, d.name, None if d.name else d.presentation

    found, desc = at(depth)
    first = signature(desc)
    desc.flag = _depth_flag(ring, depth, lambda: _graded(ring, depth)
                            or signature(at(depth + 1)[1]) == first)
    return found, desc


# --------------------------------------------------------- identify_group


def abelian_invariants(table: GroupTable) -> list[int]:
    """Invariant factors of a finite abelian table, smallest first.

    A cyclic subgroup of largest order is a direct summand, so its order
    is the largest factor and the others are those of the quotient."""
    out = []
    while table.size > 1:
        out.append(max(table.orders()))
        a = table.orders().index(out[-1])
        table = table.quotient(table.subgroup([a]))
    return out[::-1]


def tables_isomorphic(t1: GroupTable, t2: GroupTable) -> bool:
    """Whether two group tables are isomorphic; NotAGroup unless both are
    group laws (`GroupTable.verify`, whose verdict each table keeps).

    An isomorphism is fixed by the images of t1's generators
    (`GroupTable.generators`), each tried on the elements of t2 of its
    order.  The images placed so far are closed under phi(x g) = phi(x) phi(g)
    and dropped when an element gets two images or two elements get one.
    Closed over every generator, phi is a bijection respecting products."""
    t1.verify()
    t2.verify()
    n = t1.size
    if n != t2.size:
        return False
    orders1, orders2 = t1.orders(), t2.orders()
    if sorted(orders1) != sorted(orders2):
        return False
    gens = t1.generators()

    def extend(images):
        phi, taken, work = {t1.identity: t2.identity}, {t2.identity}, [t1.identity]
        for x in work:
            for g, v in zip(gens, images):
                y, w = t1.mult[x][g], t2.mult[phi[x]][v]
                if y not in phi and w not in taken:
                    phi[y] = w
                    taken.add(w)
                    work.append(y)
                elif phi.get(y) != w:
                    return False
        return len(images) == len(gens) or any(
            extend(images + [v]) for v in range(n) if orders2[v] == orders1[gens[len(images)]])

    return extend([])


def identify_group(table: GroupTable,
                   candidates: Mapping[str, GroupTable] | None = None) -> GroupDescriptor:
    """Order and abelian invariants of a finite table; names it by the
    first caller-supplied candidate group table isomorphic to it."""
    table.verify()
    abelian = table.is_abelian()
    invariants = abelian_invariants(table) if abelian else None
    name = (" x ".join(f"Z/{d}Z" for d in invariants) or "trivial") if abelian else None
    name = next((c for c, t in (candidates or {}).items() if tables_isomorphic(table, t)), name)
    return GroupDescriptor(order=table.size, is_abelian=abelian,
                           abelian_invariants=invariants, flag="exact", name=name)
