"""Search for fusion-ring automorphisms and their action on the chain group.

These are fusion-level symmetries only: an upper bound for the action of
the outer, character-moving part of the automorphism group; the intertwiner
data needed to certify a lift is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import InternalInconsistency, SearchBudgetExceeded
from .central import merge_closure, search_budget
from .ring import FusionRing


@dataclass(frozen=True)
class RingAutomorphism:
    """A basis bijection fixing the unit, commuting with dual, preserving
    dims and every fusion coefficient (on the explored part for generated
    rings, flagged by depth)."""

    mapping: tuple[tuple[str, str], ...]  # sorted (label, image) pairs
    depth: int | None = None  # None: exact (explicit ring)

    @classmethod
    def from_dict(cls, phi: dict[str, str], depth=None):
        return cls(tuple(sorted(phi.items())), depth=depth)

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)

    def apply(self, label: str) -> str:
        return dict(self.mapping)[label]

    @property
    def is_identity(self) -> bool:
        return all(a == b for a, b in self.mapping)

    def to_json(self):
        return {a: b for a, b in self.mapping}


def verify_automorphism(ring: FusionRing, phi: dict[str, str],
                        labels=None) -> bool:
    labels = list(labels if labels is not None else ring.labels())
    if sorted(phi[l] for l in labels) != sorted(labels):
        return False
    if phi[ring.unit] != ring.unit:
        return False
    for a in labels:
        if ring.dim(phi[a]) != ring.dim(a):
            return False
        if phi.get(ring.dual(a)) != ring.dual(phi[a]):
            return False
    for a in labels:
        for b in labels:
            supp = ring.product(a, b)
            image = ring.product(phi[a], phi[b])
            mapped = {}
            for c, n in supp.items():
                if c not in phi:
                    return False
                mapped[phi[c]] = n
            if mapped != image:
                return False
    return True


def automorphisms(ring: FusionRing, depth: int = 6) -> list[RingAutomorphism]:
    """All fusion-ring automorphisms of an explicit ring (complete
    backtracking), or the generator-level symmetries of a generated ring
    verified to `depth`."""
    if ring.is_explicit:
        return _explicit_automorphisms(ring)
    return _generated_automorphisms(ring, depth)


def _label_invariant(ring: FusionRing, a: str):
    selfsq = ring.product(a, a)
    return (ring.dim(a), ring.dual(a) == a, selfsq.get(a, 0),
            tuple(sorted((n, ring.dim(c)) for c, n in selfsq.items())))


def _explicit_automorphisms(ring: FusionRing) -> list[RingAutomorphism]:
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
    out = sorted({RingAutomorphism.from_dict(phi) for phi in results},
                 key=lambda auto: auto.mapping)
    return out


def _generated_automorphisms(ring: FusionRing, depth: int) -> list[RingAutomorphism]:
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
    dedup = {tuple(sorted((l, phi[l]) for l in explored)): phi for phi in survivors}
    return [RingAutomorphism.from_dict({l: phi[l] for l in explored}, depth=depth)
            for _, phi in sorted(dedup.items())]


def action_on_chain_group(ring: FusionRing, auto: RingAutomorphism,
                          depth: int = 6) -> dict[int, int]:
    """The induced permutation of chain-group blocks; raises if the
    automorphism fails to preserve the chain relation (it cannot, for a
    genuine automorphism)."""
    part = merge_closure(ring, depth)
    phi = auto.as_dict()
    action: dict[int, int] = {}
    for label in part.explored:
        if label not in phi:
            continue
        src = part.block_of[label]
        img_label = phi[label]
        dst = part.block_of.get(img_label)
        if dst is None:
            continue
        if src in action and action[src] != dst:
            raise InternalInconsistency(
                f"chain relation not preserved at {label!r}")
        action[src] = dst
    return action
