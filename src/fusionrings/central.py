"""Chain group, sigma-cosets, central subobjects and center computation.

The chain classes are the fibres of the universal grading, so the chain
relation is computed as a congruence closure under right multiplication by
the generators, and the chain group is read off their action on the classes.
A brute-force word-support oracle validates the closure on finite rings.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from typing import Iterable, Mapping

from .errors import (
    DepthExceeded,
    InternalInconsistency,
    NotAGroup,
    SearchBudgetExceeded,
)
from .ring import FusionRing, Subobject, check_subobject, generated_subobject

log = logging.getLogger(__name__)

DEFAULT_BUDGET = 10 ** 6


def search_budget() -> int:
    return int(os.environ.get("FUSIONRING_SEARCH_BUDGET", DEFAULT_BUDGET))


class UnionFind:
    """Plain union-find with path compression; nodes are labels."""

    def __init__(self):
        self.parent: dict[str, str] = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> bool:
        """Merge the classes of x and y; True when they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True


@dataclass
class CosetPartition:
    """A partition of (an explored part of) the basis into cosets."""

    ring: FusionRing
    blocks: tuple[tuple[str, ...], ...]
    block_of: dict[str, int]
    explored: tuple[str, ...]
    identity_block: int

    @classmethod
    def from_unionfind(cls, ring: FusionRing, uf: UnionFind,
                       explored: Iterable[str]) -> "CosetPartition":
        """The union-find classes of the explored labels; labels the
        union-find holds beyond them are left out."""
        explored = tuple(explored)
        classes: dict[str, list[str]] = {}
        for x in explored:
            classes.setdefault(uf.find(x), []).append(x)
        raw = [ring.sort_labels(members) for members in classes.values()]
        raw.sort(key=lambda blk: ring.order_key(blk[0]))
        block_of = {l: i for i, blk in enumerate(raw) for l in blk}
        return cls(ring, tuple(tuple(b) for b in raw), block_of, explored,
                   block_of[ring.unit])

    def same_partition(self, other: "CosetPartition") -> bool:
        """Equality as partitions."""
        return set(map(frozenset, self.blocks)) == set(map(frozenset, other.blocks))

    def to_json(self):
        return {
            "blocks": [list(blk) for blk in self.blocks],
            "identity_block": self.identity_block,
            "explored": list(self.explored),
        }


@dataclass
class GroupTable:
    """A finite group as an index matrix over coset blocks."""

    mult: tuple[tuple[int, ...], ...]
    identity: int
    labels: tuple[str, ...]  # one representative label per element

    @property
    def size(self) -> int:
        return len(self.mult)

    def verify(self):
        """Raise NotAGroup unless the table is a group law; elements are
        named by their labels."""
        n, name = self.size, self.labels
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
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.mult[self.mult[a][b]][c] != self.mult[a][self.mult[b][c]]:
                        raise NotAGroup("associativity fails at "
                                        f"({name[a]!r},{name[b]!r},{name[c]!r})")

    def element_order(self, a: int) -> int:
        cur, k = a, 1
        while cur != self.identity:
            cur = self.mult[cur][a]
            k += 1
        return k

    def is_abelian(self) -> bool:
        n = self.size
        return all(self.mult[a][b] == self.mult[b][a]
                   for a in range(n) for b in range(a + 1, n))

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


@dataclass
class GroupDescriptor:
    """Structural identification of a chain/coset group."""

    order: int | None  # None for infinite / not-closed-at-depth
    is_abelian: bool | None
    abelian_invariants: list[int] | None
    flag: str  # "exact" | "stable_at_depth(k)" | "unstable_at_depth(k)"
    presentation: dict | None = None
    name: str | None = None

    def __post_init__(self):
        if self.abelian_invariants and self.order is not None:
            if math.prod(self.abelian_invariants) != self.order:
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

    The constituents of every x * g are merged; then, until nothing
    changes, the images under each generator of labels that share a class
    are merged.  Constituents beyond the window take part in the merging
    but not in the partition.
    """
    explored = ring.elements(depth)
    uf = UnionFind()
    # images[k][i]: one constituent of explored[i] * generators[k]; the
    # first pass puts all of that product's constituents in its class
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
    return CosetPartition.from_unionfind(ring, uf, explored)


def chain_oracle(ring: FusionRing, max_len: int = 6) -> CosetPartition:
    """Brute-force chain relation on a finite ring: X ~ Y iff some word of
    length <= max_len contains both in its support; transitive closure
    applied.

    Enumerates word supports exhaustively; since the support of w.z depends
    only on the support of w, states are deduplicated by support set.
    """
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
    uf = UnionFind()  # from_unionfind adds the labels no support merges
    for supp in supports:
        members = list(supp)
        for other in members[1:]:
            uf.union(members[0], other)
    return CosetPartition.from_unionfind(ring, uf, labels)


def trivial_class(ring: FusionRing, depth: int = 6) -> Subobject:
    """The chain class of the unit (the trivially-chained elements),
    returned as a subobject.

    On a generated ring the class is taken on the window
    `elements(2 * depth)`: every label that a product of two
    `elements(depth)` labels can reach.
    """
    part = merge_closure(ring, 2 * depth)
    members = part.blocks[part.identity_block]
    return check_subobject(ring, members, depth=depth)  # guaranteed; hard error otherwise


# -------------------------------------------------------------- sigma-cosets


def sigma_cosets(ring: FusionRing, sigma: Subobject, depth: int = 6) -> CosetPartition:
    """Partition of the explored basis under a ~ b iff supp(a x dual(b))
    meets sigma, with transitive closure applied after the pairwise tests."""
    sigma = check_subobject(ring, sigma.members, depth=depth)
    explored = ring.elements(depth)
    uf = UnionFind()
    related = 0
    for i, a in enumerate(explored):
        for b in explored[i + 1:]:
            if any(c in sigma.members for c in ring.fusion[a, ring.dual(b)]):
                uf.union(a, b)
                related += 1
    part = CosetPartition.from_unionfind(ring, uf, explored)
    # on a complete table the pairwise relation is already transitive (every
    # block a clique); closure is a defense against bad fusion data, so log
    # if it changed anything.  A window's relation may miss links beyond it.
    if (ring.checked_depth(depth) is None
            and related != sum(len(blk) * (len(blk) - 1) // 2 for blk in part.blocks)):
        log.warning("sigma relation was not transitive; the closure merged more")
    unit_block = set(part.blocks[part.identity_block])
    if unit_block != sigma.members & set(explored):
        raise InternalInconsistency(
            f"unit block {sorted(unit_block)} != sigma {sorted(sigma.members)} "
            "on the explored basis")
    return part


@dataclass
class CentralityResult:
    central: bool
    partition: CosetPartition
    table: GroupTable | None = None
    witness: tuple | None = None

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
    partition the verified group table is returned.
    """
    part = sigma_cosets(ring, sigma, depth)
    blocks, block_of, fusion = part.blocks, part.block_of, ring.fusion
    products: dict[tuple[int, int], int] = {}
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            seen: set[int] = set()
            for a in bi:
                for b in bj:
                    for c in fusion[a, b]:
                        k = block_of.get(c)
                        if k is not None:
                            seen.add(k)
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
    of the classes in a normal subgroup of U.  The normal subgroups are
    found as a worklist of joins: starting from the trivial subgroup, each
    one found is joined with the normal closure of every element not
    already inside it.  SearchBudgetExceeded is raised when U has more
    normal subgroups than the search budget.
    """
    ring.labels()  # a finite table is needed
    part, t, _ = _schreier(ring, 0)  # the depth does not limit a complete table
    inverse = [row.index(t.identity) for row in t.mult]
    closures = {t.subgroup({t.mult[t.mult[g][a]][inverse[g]] for g in range(t.size)})
                for a in range(t.size)}
    budget = search_budget()
    bottom = frozenset([t.identity])
    normals = {bottom}
    work = [bottom]
    while work:
        if len(normals) > budget:
            raise SearchBudgetExceeded("central-subobject lattice too large")
        s = work.pop()
        for c in closures:
            if not c <= s:
                j = t.subgroup(s | c)
                if j not in normals:
                    normals.add(j)
                    work.append(j)
    out = [Subobject(frozenset(l for i in n for l in part.blocks[i])) for n in normals]
    out.sort(key=lambda s: (len(s.members), tuple(sorted(s.members))))
    return out


def center_subobject(ring: FusionRing, depth: int = 6) -> Subobject:
    """The intersection of all central subobjects, computed as the unit's
    chain class.  On a complete table it is cross-checked against the
    adjoint subobject, generated by the supports of every x * dual(x)."""
    ez = trivial_class(ring, depth)
    if ring.checked_depth(depth) is None:
        adjoint = generated_subobject(
            ring, [c for x in ring.labels() for c in ring.fusion[x, ring.dual(x)]])
        if adjoint != ez:
            raise InternalInconsistency(
                f"adjoint subobject {sorted(adjoint.members)} != "
                f"unit chain class {sorted(ez.members)}")
    return ez


# --------------------------------------------------------------- chain group


def _schreier(ring: FusionRing, depth: int):
    """The chain classes on the window, and the chain group U read off
    their block action.

    Block b times generator k is the block of any in-window constituent of
    a member of b times that generator: the closure put them all in one
    block, and it has already computed the products.  A breadth-first tree
    from the unit block gives every block a word in the generators.  When
    the action is total on the window, U is finite and its verified table
    is the action walked along the tree words.  Otherwise U is presented on
    the generator classes, taken up to duals, by one relator for every edge
    off the tree (Reidemeister-Schreier).  Returns (partition, table, None)
    or (partition, None, (names, relators)), a relator being a tuple of
    letters: i or -i for the i-th name or its inverse.
    """
    part = merge_closure(ring, depth)
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
        mult = tuple(tuple(reduce(lambda x, k: act[x][k], tree[j], i) for j in range(n))
                     for i in range(n))
        table = GroupTable(mult, part.identity_block, tuple(blk[0] for blk in blocks))
        table.verify()
        return part, table, None
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
                for b, k, t in off_tree} - {()}
    return part, None, (names, sorted(relators, key=lambda r: (len(r), _letter_key(r))))


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
    groups when every relator is a power of one letter, unnamed otherwise.
    The flag is left for the caller to set."""
    pres = {"generators": names, "relations": [_spelled(r, names) for r in relators]}
    if any(len(set(r)) > 1 for r in relators):
        return GroupDescriptor(None, None, None, "exact", presentation=pres)
    orders = [0] * len(names)  # 0: infinite cyclic
    for r in relators:
        orders[r[0] - 1] = math.gcd(orders[r[0] - 1], len(r))
    factors = [d for d in orders if d != 1]
    name = " * ".join(f"Z/{d}Z" if d else "Z" for d in factors) or "trivial"
    cyclic = len(factors) <= 1  # a free product of two nontrivial groups is not abelian
    order = math.prod(factors) if cyclic and 0 not in factors else None
    return GroupDescriptor(order, cyclic, None if order is None else factors, "exact",
                           presentation=pres, name=name)


def _depth_flag(ring: FusionRing, depth: int, same_at_next) -> str:
    """`exact` on a complete table; otherwise `stable_at_depth(depth)` when
    `same_at_next()` finds the answer at `depth`+1 the same, and
    `unstable_at_depth(depth)` when it differs or leaves the window."""
    if ring.checked_depth(depth) is None:
        return "exact"
    try:
        stable = same_at_next()
    except DepthExceeded:
        stable = False
    return f"{'stable' if stable else 'unstable'}_at_depth({depth})"


def chain_group(ring: FusionRing, depth: int = 6,
                candidates: Mapping[str, GroupTable] | None = None):
    """The chain group read off the generators' block action (`_schreier`).

    Returns (GroupTable or presentation dict, GroupDescriptor).  Generated
    rings are computed at `depth` and `depth`+1; the same descriptor at
    both is reported as stable_at_depth(depth), never as exact.
    """
    def at(d):
        _, table, pres = _schreier(ring, d)
        if table is not None:
            return table, identify_group(table, candidates=candidates)
        desc = _presented(*pres)
        return desc.presentation, desc

    found, desc = at(depth)
    signature = desc.to_json()
    desc.flag = _depth_flag(ring, depth, lambda: at(depth + 1)[1].to_json() == signature)
    return found, desc


# --------------------------------------------------------- identify_group


def abelian_invariants(table: GroupTable) -> list[int]:
    """Invariant factors of a finite abelian table, smallest first.

    A cyclic subgroup of largest order is a direct summand, so its order
    is the largest factor and the others are those of the quotient."""
    out = []
    while table.size > 1:
        a = max(range(table.size), key=table.element_order)
        out.append(table.element_order(a))
        table = table.quotient(table.subgroup([a]))
    return out[::-1]


def tables_isomorphic(t1: GroupTable, t2: GroupTable) -> bool:
    """Backtracking isomorphism test; fine for order <= 24 or so."""
    n = t1.size
    if n != t2.size:
        return False
    orders1 = [t1.element_order(a) for a in range(n)]
    orders2 = [t2.element_order(a) for a in range(n)]
    if sorted(orders1) != sorted(orders2):
        return False
    phi: dict[int, int] = {t1.identity: t2.identity}
    inv: dict[int, int] = {t2.identity: t1.identity}
    elems = sorted((a for a in range(n) if a != t1.identity),
                   key=lambda a: (-orders1[a], a))

    def consistent(a, v):
        for b, w in list(phi.items()) + [(a, v)]:
            for (x, y, fx, fy) in ((a, b, v, w), (b, a, w, v)):
                prod = t1.mult[x][y]
                image = t2.mult[fx][fy]
                if prod in phi:
                    if phi[prod] != image:
                        return False
                elif image in inv:
                    return False  # image taken by a different preimage
        return True

    def extend(k):
        if k == len(elems):
            return True
        a = elems[k]
        for v in range(n):
            if v in inv or orders2[v] != orders1[a]:
                continue
            if not consistent(a, v):
                continue
            phi[a] = v
            inv[v] = a
            if extend(k + 1):
                return True
            del phi[a]
            del inv[v]
        return False

    return extend(0)


def identify_group(table: GroupTable,
                   candidates: Mapping[str, GroupTable] | None = None) -> GroupDescriptor:
    """Order and abelian invariants of a finite table; names it by
    matching any caller-supplied candidate tables."""
    table.verify()
    n = table.size
    abelian = table.is_abelian()
    invariants = abelian_invariants(table) if abelian else None
    name = None
    if n == 1:
        name = "trivial"
    elif abelian:
        name = " x ".join(f"Z/{d}Z" for d in invariants)
    if candidates:
        for cand_name, cand in candidates.items():
            if tables_isomorphic(table, cand):
                name = cand_name
                break
    return GroupDescriptor(order=n, is_abelian=abelian,
                           abelian_invariants=invariants, flag="exact", name=name)
