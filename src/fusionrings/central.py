"""Chain group, sigma-cosets, central subobjects and center computation.

The chain classes are the fibres of the universal grading, so the chain
relation is computed as a congruence closure under right multiplication by
the generators; a brute-force word-support oracle exists alongside it to
validate the closure on finite rings.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import (
    InternalInconsistency,
    NotAGroup,
    SearchBudgetExceeded,
)
from .ring import FusionRing, Subobject, _closure, check_subobject, generated_subobject

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

    def same_partition(self, other: "CosetPartition", restrict: set[str] | None = None) -> bool:
        """Equality as partitions, optionally restricted to a label set."""

        def normal(part):
            out = []
            for blk in part.blocks:
                members = frozenset(l for l in blk if restrict is None or l in restrict)
                if members:
                    out.append(members)
            return frozenset(out)

        return normal(self) == normal(other)

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

    def power(self, a: int, k: int) -> int:
        out = self.identity
        for _ in range(k):
            out = self.mult[out][a]
        return out

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
            first, *rest = ring.product(x, g)
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
    supports: set[frozenset[str]] = set()
    frontier = {frozenset([z]) for z in labels}
    supports |= frontier
    for _ in range(max_len - 1):
        nxt = set()
        for supp in frontier:
            for z in labels:
                ext = set()
                for x in supp:
                    ext.update(ring.product(x, z))
                fs = frozenset(ext)
                if fs not in supports:
                    nxt.add(fs)
        supports |= nxt
        frontier = nxt
    uf = UnionFind()
    for l in labels:
        uf.add(l)
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


def sigma_cosets(ring: FusionRing, sigma: Subobject, depth: int = 6,
                 _validated: bool = False) -> CosetPartition:
    """Partition of the explored basis under a ~ b iff supp(a x dual(b))
    meets sigma, with transitive closure applied after the pairwise tests."""
    if not _validated:
        sigma = check_subobject(ring, sigma.members, depth=depth)
    explored = ring.elements(depth)
    uf = UnionFind()
    for x in explored:
        uf.add(x)
    related = 0
    for i, a in enumerate(explored):
        for b in explored[i + 1:]:
            if any(c in sigma.members for c in ring._support(a, ring.dual(b))):
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
    # block products by index; pairs whose products leave the explored
    # partition (infinite groups at finite depth) are absent
    products: dict[tuple[int, int], int] = field(default_factory=dict)
    witness: tuple | None = None

    def __bool__(self):
        return self.central


def is_central_subobject(ring: FusionRing, sigma: Subobject,
                         depth: int = 6) -> CentralityResult:
    """Decide whether sigma's cosets form a group.

    Every member pair of every pair of blocks is checked (the product must
    land in one single coset for all of them); constituents beyond the
    explored partition are outside the depth-qualified claim.  When every
    block product lands in the partition the full group table is returned;
    otherwise centrality is reported with the partial product map.
    """
    sigma = check_subobject(ring, sigma.members, depth=depth)
    part = sigma_cosets(ring, sigma, depth, _validated=True)
    return _quotient(ring, part, part.blocks)


def _quotient(ring: FusionRing, part: CosetPartition,
              reps: Sequence[Sequence[str]]) -> CentralityResult:
    """The quotient of the explored basis by the partition `part`.

    Block i times block j is the one block met by the products of every
    label of reps[i] with every label of reps[j]; a pair whose products
    meet two blocks is returned as the witness of a non-central result.
    Products with no constituent in the partition stay undefined; when
    none is undefined the verified group table is returned.
    """
    block_of = part.block_of
    # a memo hit is read in place, saving a call per pair; _support fills a miss
    get, support = ring._product_memo.get, ring._support
    products: dict[tuple[int, int], int] = {}
    for i, ri in enumerate(reps):
        for j, rj in enumerate(reps):
            seen: set[int] = set()
            for a in ri:
                for b in rj:
                    for c in get((a, b)) or support(a, b):
                        k = block_of.get(c)
                        if k is not None:
                            seen.add(k)
                    if len(seen) > 1:
                        return CentralityResult(
                            False, part,
                            witness=(i, j, (a, b), sorted(seen)))
            if seen:
                products[(i, j)] = seen.pop()
    n = len(reps)
    if len(products) < n * n:
        return CentralityResult(True, part, products=products)
    mult = tuple(tuple(products[(i, j)] for j in range(n)) for i in range(n))
    table = GroupTable(mult, part.identity_block, tuple(blk[0] for blk in part.blocks))
    table.verify()
    return CentralityResult(True, part, table=table, products=products)


def enumerate_central_subobjects(ring: FusionRing) -> list[Subobject]:
    """All central subobjects of a finite explicit ring.

    Every subobject is a join of principal subobjects <a>, so the lattice
    is built as a worklist of joins: starting from the closure of the unit,
    each subobject s found is joined with each distinct principal P not
    already inside it, closing only P's new labels against the closed s.
    SearchBudgetExceeded is raised when the lattice has more subobjects
    than the search budget.  Each member is then tested for centrality.
    """
    budget = search_budget()
    labels = ring.labels()
    allowed = set(labels)
    principals = {generated_subobject(ring, [a]).members for a in labels}
    bottom = generated_subobject(ring, ()).members
    lattice = {bottom}
    work = [bottom]
    while work:
        if len(lattice) > budget:
            raise SearchBudgetExceeded("central-subobject lattice too large")
        s = work.pop()
        for p in principals:
            if p <= s:
                continue
            j = _closure(ring, s | p, p - s, allowed)
            if j not in lattice:
                lattice.add(j)
                work.append(j)
    out = []
    for members in lattice:
        sub = Subobject(members)
        if is_central_subobject(ring, sub).central:
            out.append(sub)
    out.sort(key=lambda s: (len(s.members), tuple(sorted(s.members))))
    return out


def center_subobject(ring: FusionRing, depth: int = 6) -> Subobject:
    """The intersection of all central subobjects; computed as the unit's
    chain class and cross-checked against the enumeration on finite rings."""
    ez = trivial_class(ring, depth)
    if ring.is_explicit:
        centrals = enumerate_central_subobjects(ring)
        inter = frozenset(ring.labels())
        for sub in centrals:
            inter &= sub.members
        if inter != ez.members:
            raise InternalInconsistency(
                f"intersection of central subobjects {sorted(inter)} != "
                f"unit chain class {sorted(ez.members)}")
    return ez


# --------------------------------------------------------------- chain group


def _generator_classes(ring: FusionRing, part: CosetPartition) -> list[int]:
    """Blocks of the ring generators, deduplicated, identity dropped, and
    reduced modulo inverses (the dual generator's class)."""
    out: list[int] = []
    covered: set[int] = set()
    for g in ring.generators:
        cls = part.block_of[g]
        if cls == part.identity_block or cls in covered:
            continue
        out.append(cls)
        covered.add(cls)
        covered.add(part.block_of.get(ring.dual(g), cls))
    return out


def _presentation(ring: FusionRing, res: CentralityResult, depth: int):
    """Generator-class presentation discovered within the depth horizon."""
    part = res.partition
    gens = _generator_classes(ring, part)
    relations = []
    if len(gens) == 1:
        g = gens[0]
        cur = g
        for k in range(2, depth + 2):
            cur = res.products.get((cur, g))
            if cur is None:
                break
            if cur == part.identity_block:
                relations.append(f"g^{k}")
                break
    gen_labels = [part.blocks[g][0] for g in gens]
    return {"generators": [f"[{l}]" for l in gen_labels],
            "relations": relations}


def _chain_result_at(ring: FusionRing, depth: int) -> CentralityResult:
    """The chain classes on the window and their block products.

    Each block product comes from one representative pair, the
    lowest-depth member of each block; the classes are the fibres of the
    universal grading, so any pair gives the same block.
    """
    part = merge_closure(ring, depth)
    res = _quotient(ring, part, [blk[:1] for blk in part.blocks])
    if res.witness is not None:
        _, _, (a, b), landed = res.witness
        raise InternalInconsistency(f"{a} x {b} meets several chain classes {landed}")
    return res


def _chain_signature(ring, res, depth):
    if res.table is not None:
        t = res.table
        inv = abelian_invariants(t) if t.is_abelian() else None
        return ("finite", t.size, t.is_abelian(), tuple(inv or ()))
    pres = _presentation(ring, res, depth)
    return ("presentation", len(pres["generators"]), tuple(pres["relations"]))


def chain_group(ring: FusionRing, depth: int = 6,
                candidates: Mapping[str, GroupTable] | None = None):
    """Compute the chain group: the group of chain classes, with block
    products read from representatives, identified structurally.

    Returns (GroupTable or presentation dict, GroupDescriptor).  Generated
    rings are computed at `depth` and `depth`+1; agreement is reported as
    stable_at_depth(depth), never as exact.
    """
    res = _chain_result_at(ring, depth)
    if ring.checked_depth(depth) is None:
        flag = "exact"
    else:
        res_next = _chain_result_at(ring, depth + 1)
        stable = (_chain_signature(ring, res, depth)
                  == _chain_signature(ring, res_next, depth + 1))
        flag = f"{'stable' if stable else 'unstable'}_at_depth({depth})"
    if res.table is not None:
        desc = identify_group(res.table, candidates=candidates)
        desc.flag = flag
        return res.table, desc

    pres = _presentation(ring, res, depth)
    name = None
    order = None
    invariants = None
    abelian = None
    if len(pres["generators"]) == 1:
        abelian = True
        if not pres["relations"]:
            name = "Z"
        else:
            k = int(pres["relations"][0].split("^")[1])
            name, order, invariants = f"Z/{k}Z", k, [k]
    desc = GroupDescriptor(order=order, is_abelian=abelian,
                           abelian_invariants=invariants, flag=flag,
                           presentation=pres, name=name)
    return pres, desc


# --------------------------------------------------------- identify_group


def abelian_invariants(table: GroupTable) -> list[int]:
    """Invariant factors of a finite abelian table, from the counts of
    solutions of x^(p^j) = e for each prime p dividing the order."""
    n = table.size
    if n == 1:
        return []
    primes = _prime_factors(n)
    primary: dict[int, list[int]] = {}
    for p in primes:
        counts = [1]  # counts[j] = #{x : x^(p^j) = e}
        j = 0
        while counts[-1] < _p_part(n, p):
            j += 1
            counts.append(sum(1 for a in range(n)
                              if table.power(a, p ** j) == table.identity))
        exps = []
        for level in range(1, len(counts)):
            m = _ilog(counts[level] // counts[level - 1], p)
            exps.append(m)  # number of cyclic p-factors with exponent >= level
        factors = []
        for level, m in enumerate(exps, start=1):
            nxt = exps[level] if level < len(exps) else 0
            factors.extend([p ** level] * (m - nxt))
        primary[p] = sorted(factors, reverse=True)
    width = max(len(v) for v in primary.values())
    invariants = []
    for i in range(width):
        d = 1
        for p in primes:
            if i < len(primary[p]):
                d *= primary[p][i]
        invariants.append(d)
    invariants.sort()
    return invariants


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def _ilog(x: int, p: int) -> int:
    k = 0
    while x > 1:
        x //= p
        k += 1
    return k


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
