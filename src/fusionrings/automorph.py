"""Search for fusion-ring automorphisms and their action on the chain group.

These are fusion-level symmetries only: an upper bound for the action of
the outer, character-moving part of the automorphism group; the intertwiner
data needed to certify a lift is out of scope.
"""

from __future__ import annotations

from itertools import accumulate, chain, permutations, product
from math import prod
from operator import mul

from .errors import InternalInconsistency
from .central import _schreier, _spent, search_budget
from .ring import FusionRing, _Frozen, _kept, _light_middle

_EXHAUSTED = "automorphism search budget exhausted"


class RingAutomorphism(_Frozen):
    """A basis bijection fixing the unit, commuting with dual, preserving
    dims and every fusion coefficient (on the explored part for generated
    rings, flagged by depth)."""

    def __init__(self, mapping: tuple[tuple[str, str], ...],  # sorted (label, image) pairs
                 depth: int | None = None):  # None: exact (explicit ring)
        self.__dict__.update(mapping=mapping, depth=depth)

    @property
    def is_identity(self) -> bool:
        return all(a == b for a, b in self.mapping)

    def to_json(self):
        return {a: b for a, b in self.mapping}


def verify_automorphism(ring: FusionRing, phi: dict[str, str],
                        labels=None) -> bool:
    """Whether `phi` passes `_preserves` on `labels` (all labels by default)
    and maps a x b to phi(a) x phi(b) for every a and b in `labels`."""
    labels = list(labels if labels is not None else ring.labels())
    return _preserves(ring, phi, labels) and all(
        {phi.get(c): n for c, n in ring.fusion[a, b].items()} == ring.fusion[phi[a], phi[b]]
        for a in labels for b in labels)


def _preserves(ring: FusionRing, phi: dict[str, str], labels: list[str]) -> bool:
    """Whether `phi` permutes `labels`, fixes the unit, preserves dims and
    commutes with dual."""
    if (any(l not in phi for l in labels) or phi.get(ring.unit) != ring.unit
            or sorted(phi[l] for l in labels) != sorted(labels)):
        return False
    return all(ring.dim(phi[a]) == ring.dim(a) and phi.get(ring.dual(a)) == ring.dual(phi[a])
               for a in labels)


class AutomorphismGroup(_Frozen):
    """The group of the maps `automorphisms` lists: its order, the orders of
    its stabilizer chain's transversals (deepest branch first), and the maps
    the coset searches found, which generate it, on the window (no identity,
    sorted like `automorphisms`)."""

    def __init__(self, order: int, transversal_sizes: tuple[int, ...],
                 generators: tuple[RingAutomorphism, ...], depth: int | None = None):
        self.__dict__.update(order=order, transversal_sizes=transversal_sizes,
                             generators=generators, depth=depth)  # depth None: exact (explicit)


def automorphisms(ring: FusionRing, depth: int = 6) -> list[RingAutomorphism]:
    """The automorphisms of the window `ring.elements(depth)` that permute
    the generators: every automorphism of an explicit ring (whose labels
    are all generators, so the answer is exact), the generator-level
    symmetries of a generated ring, verified to `depth`.

    The products of the transversals of `_search`'s stabilizer chain,
    restricted to the window, deduplicated at each step and sorted.  Raises
    SearchBudgetExceeded once the search nodes plus the products' sizes
    pass `search_budget()`; the sizes, the prefix products of the
    transversals' orders, are counted before any map is composed.  On a
    complete table they are the maps composed; on a window where distinct
    maps agree they bound them from above.  The chain is searched once per
    window (`_searched`); the budget is spent on every call as by a fresh
    search, and every call composes a new list.
    """
    window, budget, (nodes, _, transversals) = _searched(ring, depth)
    for size in accumulate(map(len, transversals), mul):
        nodes = _spent(nodes + size, budget, _EXHAUSTED)
    autos = {tuple(window)}  # the answers' images of the window, in order
    for reps in transversals:
        autos = {tuple(t[x] for x in a) for t in reps for a in autos}
    maps = sorted(tuple(sorted(zip(window, a))) for a in autos)
    return [RingAutomorphism(m, ring.checked_depth(depth)) for m in maps]


def automorphism_group(ring: FusionRing, depth: int = 6) -> AutomorphismGroup:
    """The group of `automorphisms(ring, depth)`, read off the same kept
    search, which raises SearchBudgetExceeded where `automorphisms` does.
    On a complete table its order is the product of the transversals'
    orders, and no map is composed.  On a window distinct maps of the
    search's domain can agree (Rep(D4) on rho), so the order is the length
    of the list, whose composing spends the budget as in `automorphisms`."""
    window, _, (_, found, transversals) = _searched(ring, depth)
    stamp = ring.checked_depth(depth)
    sizes = tuple(map(len, transversals))
    order = prod(sizes) if stamp is None else len(automorphisms(ring, depth))
    maps = {tuple(sorted((x, s[x]) for x in window)) for s in found}
    gens = [RingAutomorphism(m, stamp) for m in sorted(maps) if any(a != b for a, b in m)]
    return AutomorphismGroup(order, sizes, tuple(gens), stamp)


def _searched(ring: FusionRing, depth: int):
    """The window `ring.elements(depth)`, `search_budget()`, and its `_search`
    answer, kept under "automorphisms".  An answer kept with more nodes than
    the budget raises as a fresh search would, when its node count first
    passed the budget."""
    window, budget = ring.elements(depth), search_budget()
    entry = _kept(ring, "automorphisms", ring.checked_depth(depth),
                  lambda: _search(ring, window, budget))
    _spent(min(entry[0], budget + 1), budget, _EXHAUSTED)
    return window, budget, entry


def _search(ring: FusionRing, window: tuple[str, ...], budget: int):
    """A stabilizer chain of the window's automorphisms: the search nodes
    used, the maps the coset searches found, and the transversals with more
    than one map, deepest branch first, each map a dict on the search's
    domain.  Raises SearchBudgetExceeded once the nodes pass `budget`.

    The search branches only on generator images.  Generators are taken in
    order of `_invariants`, then discovery; a generator's candidates
    are the unused generators with the same invariant whose dual agrees
    with the image already given to its dual.  Every other image is read
    off the products: once a and b both have images, the constituents of
    a x b are matched to those of phi(a) x phi(b) by (multiplicity, dim),
    trying every matching within an ambiguous group.

    Only the pairs (a, b) with b in a middle set are matched.  Where Light's
    test applies (`_light_middle`, given the labels in branching order) the
    middle set is its B: the labels b with phi(a x b) = phi(a) x phi(b)
    for all a hold the unit and are closed under products, so B, from
    which every label is reached, proves phi an automorphism; elsewhere it
    is the whole window, the pairs `verify_automorphism` checks.  Images
    never change along a branch and a map is complete only when all such
    pairs are matched, so `_preserves` multiplies no pair of it.

    The accepted maps, on their domain E (the window and the constituents
    matched), form a group: ring automorphisms, magma automorphisms of a
    non-associative table, or, on a generated window W = phi(W), maps whose
    composites still match the constituents of a x b for a, b in W.  So the
    search walks the identity path only; below a branch on it, the maps of
    any other alternative form a left coset of the maps below its identity
    child.  One map per coset is searched, deepest branch first, unless
    composing the maps found reaches its images of the branch's points.
    """
    inside = set(window)
    gens = [g for g in dict.fromkeys(ring.generators) if g in inside]
    inv = _invariants(ring, gens, window)
    order = sorted(gens, key=lambda g: (inv[g], ring.order_key(g)))
    middle = _light_middle(ring, order)
    if middle is None:
        middle = window
    # a label's image is matched in products by the labels of `right`
    right = set(middle)
    nodes = 0

    def assign(phi, used, pending, ext):
        """Give the images in `ext`, queueing each pair (a, b) with a in the
        window and b in `right` whose second image just came."""
        for c, t in ext.items():
            phi[c] = t
            used.add(t)
            if c in inside:
                for y in phi:
                    if y in right:
                        pending.append((c, y))
                    if c in right and y != c and y in inside:
                        pending.append((y, c))

    # a node: images so far, their set, the window pairs with both images
    # not yet matched, and the position in `order` of the next branch
    def child(node, ext, k):
        phi, used, pending = dict(node[0]), set(node[1]), list(node[2])
        assign(phi, used, pending, ext)
        return phi, used, pending, k

    def expand(node):
        """Count `node` and give it its forced images; then the alternatives
        (new images, next position) of its branch, [] at a dead end, or
        None when its map is complete and accepted."""
        nonlocal nodes
        nodes = _spent(nodes + 1, budget, _EXHAUSTED)
        phi, used, pending, k = node
        while pending:
            alts = _match_pair(ring, phi, used, *pending.pop())
            if alts is None or len(alts) > 1:
                return [(ext, k) for ext in alts or ()]
            assign(phi, used, pending, alts[0])
        while k < len(order) and order[k] in phi:
            k += 1
        if k < len(order):
            g = order[k]
            dual_image = phi.get(ring.dual(g))
            return [({g: v}, k + 1) for v in order if v not in used and inv[v] == inv[g]
                    and dual_image in (None, ring.dual(v))]
        # a product may have sent a generator outside the generators
        return None if all(phi[g] in inv for g in gens) and _preserves(ring, phi, window) else []

    def first(node):
        """The first accepted map below `node`, or None."""
        stack = [node]
        while stack:
            node = stack.pop()
            alts = expand(node)
            if alts is None:
                return node[0]
            stack.extend(child(node, *alt) for alt in reversed(alts))

    node = child(({}, set(), [], 0), {ring.unit: ring.unit}, 0)
    levels = []
    while (alts := expand(node)) is not None:
        levels.append((node, alts))
        node = child(node, *next(a for a in alts if all(c == t for c, t in a[0].items())))
    identity, found, transversals = node[0], [], []
    for node, alts in reversed(levels):
        points = list(alts[0][0])
        reps = {tuple(points): identity}
        for ext, k in alts:
            if tuple(ext[p] for p in points) not in reps and (sigma := first(child(node, ext, k))):
                found.append(sigma)
                _close_orbit(reps, found, points)
        if len(reps) > 1:
            transversals.append(tuple(reps.values()))
    return nodes, tuple(found), tuple(transversals)


def _close_orbit(reps: dict[tuple, dict], gens: list[dict], points: list[str]):
    """Extend `reps`, one map per image of `points`, from closed under
    composing with `gens[:-1]` to closed under composing with `gens`."""
    todo = [(r, gens[-1:]) for r in reps.values()]
    while todo:
        r, by = todo.pop()
        for s in by:
            m = {x: s[y] for x, y in r.items()}
            if (key := tuple(m[p] for p in points)) not in reps:
                reps[key] = m
                todo.append((m, gens))


def _label_invariant(ring: FusionRing, a: str):
    """What every automorphism keeps of a label: dim, self-duality and the
    shape of a x a.  A map `automorphisms` accepts is injective, permutes the
    window W and maps supp(x x y) onto supp(phi x x phi y) for x, y in W (via
    Light's B), so also powers of a to phi(a)'s and W's complement to itself."""
    selfsq = ring.fusion[a, a]
    return (ring.dim(a), ring.dual(a) == a, selfsq.get(a, 0),
            tuple(sorted((n, ring.dim(c)) for c, n in selfsq.items())))


def _invariants(ring: FusionRing, gens: list[str], window: list[str]):
    """Every generator's `_label_invariant` (all first: a truncated table
    names the same missing product), its walk p -> p x g while that is one
    label (minus the steps, so longer walks sort first, and where it ended),
    and how many labels x of `window` lie in g x x."""
    inside = set(window)
    inv = {g: _label_invariant(ring, g) for g in gens}
    for g in gens:
        p, k = g, 0
        while (p != ring.unit and p in inside and k <= len(inside)
               and list(ring.fusion[p, g].values()) == [1]):
            p, k = next(iter(ring.fusion[p, g])), k + 1
        inv[g] += ((-k, p == ring.unit, p in inside), sum(x in ring.fusion[g, x] for x in window))
    return inv


def _match_pair(ring: FusionRing, phi: dict[str, str], used: set[str],
                a: str, b: str) -> list[dict[str, str]] | None:
    """The ways to extend `phi` so that it maps supp(a x b) onto
    supp(phi a x phi b) with the same multiplicities and dims, injectively:
    a list of extensions (dicts of new images), or None on a clash."""
    supp = ring.fusion[a, b]
    image = ring.fusion[phi[a], phi[b]]
    if len(supp) != len(image):
        return None
    free: dict[tuple, list[str]] = {}
    for c, n in supp.items():
        t = phi.get(c)
        if t is None:
            free.setdefault((n, ring.dim(c)), []).append(c)
        elif image.get(t) != n:
            return None
    if not free:
        return [{}]
    # the constituents without an image must meet exactly the image
    # constituents no label maps to, group for group
    tfree: dict[tuple, list[str]] = {}
    for t, n in image.items():
        if t not in used:
            tfree.setdefault((n, ring.dim(t)), []).append(t)
    if {key: len(cs) for key, cs in free.items()} != \
       {key: len(ts) for key, ts in tfree.items()}:
        return None
    keys = sorted(free)
    sources = [c for key in keys for c in free[key]]
    return [dict(zip(sources, chain.from_iterable(perms)))
            for perms in product(*(permutations(tfree[key]) for key in keys))]


def action_on_chain_group(ring: FusionRing, auto: RingAutomorphism,
                          depth: int = 6) -> dict[int, int]:
    """The induced permutation of chain-group blocks; raises if the
    automorphism fails to preserve the chain relation (it cannot, for a
    genuine automorphism)."""
    block_of = _schreier(ring, depth)[0].block_of
    action: dict[int, int] = {}
    for label, image in auto.mapping:  # a pair outside the partition is skipped
        if label in block_of and image in block_of:
            dst = block_of[image]
            if action.setdefault(block_of[label], dst) != dst:
                raise InternalInconsistency(f"chain relation not preserved at {label!r}")
    return action
