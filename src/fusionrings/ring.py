"""Core fusion-ring data model: basis elements, explicit tables, generated
(oracle-backed) rings, axiom validation and elementary arithmetic.

A ring is either *explicit* (a complete finite sparse table) or *generated*
(a generator set plus an exact support oracle and a breadth-first depth
grading).  All multiplicities are plain Python ints, so they are
arbitrary precision by construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    DepthExceeded,
    MalformedRing,
    NotASubobject,
    UnknownLabel,
)

Support = dict[str, int]  # label -> multiplicity, never zero


@dataclass(frozen=True)
class BasisElement:
    """An irreducible class: canonical label plus vector-space dimension."""

    label: str
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise MalformedRing(f"dim of {self.label!r} must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class ValidationViolation:
    axiom: str
    witness: tuple
    detail: str

    def __str__(self):
        return f"{self.axiom} at {self.witness}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list[ValidationViolation] = field(default_factory=list)
    checked_depth: int | None = None  # None means the full finite table

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, axiom: str, witness: tuple, detail: str):
        self.violations.append(ValidationViolation(axiom, witness, detail))

    def __str__(self):
        stamp = "" if self.checked_depth is None else f" (checked to depth {self.checked_depth})"
        if self.ok:
            return "valid" + stamp
        return "\n".join(str(v) for v in self.violations) + stamp


class FusionRing:
    """Immutable fusion ring.

    Explicit rings store the full sparse table; generated rings carry an
    exact support oracle over canonical labels plus a breadth-first basis
    enumeration from their generators.  All operations are pure.
    """

    def __init__(self, *, kind, basis, unit, dual_map, fusion_table,
                 oracle=None, dual_fn=None, dim_fn=None, generators=(),
                 name="ring", truncated_at=None):
        if kind not in ("explicit", "generated"):
            raise MalformedRing(f"unknown ring kind {kind!r}")
        self.kind = kind
        self.name = name
        self.unit = unit
        self.truncated_at = truncated_at
        self.generators = tuple(generators)
        self._oracle = oracle
        self._dual_fn = dual_fn
        self._dim_fn = dim_fn
        if kind == "explicit":
            self.basis = tuple(basis)
            labels = [b.label for b in self.basis]
            if len(set(labels)) != len(labels):
                raise MalformedRing("duplicate basis labels")
            self._index = {b.label: i for i, b in enumerate(self.basis)}
            self._dims = {b.label: b.dim for b in self.basis}
            if unit not in self._index:
                raise MalformedRing(f"unit {unit!r} not in basis")
            self._dual = dict(dual_map)
            for a, b in self._dual.items():
                if a not in self._index or b not in self._index:
                    raise MalformedRing(f"dual map has dangling label ({a!r}, {b!r})")
            if set(self._dual) != set(self._index):
                raise MalformedRing("dual map does not cover the basis")
            self._fusion = {}
            for (a, b), supp in fusion_table.items():
                if a not in self._index or b not in self._index:
                    raise MalformedRing(f"fusion entry with dangling pair ({a!r}, {b!r})")
                clean = {}
                for c, n in supp.items():
                    if c not in self._index:
                        raise MalformedRing(f"fusion entry ({a!r},{b!r}) -> dangling {c!r}")
                    if n <= 0:
                        raise MalformedRing(f"zero/negative multiplicity at ({a!r},{b!r},{c!r})")
                    clean[c] = int(n)
                if not clean:
                    raise MalformedRing(f"empty support declared for ({a!r},{b!r})")
                self._fusion[(a, b)] = clean
            if truncated_at is None:
                for a in labels:
                    for b in labels:
                        if (a, b) not in self._fusion:
                            raise MalformedRing(f"missing fusion entry for ({a!r},{b!r})")
        else:
            if oracle is None or dual_fn is None or dim_fn is None:
                raise MalformedRing("generated ring needs oracle, dual_fn and dim_fn")
            self._levels: list[list[str]] = [[unit]]
            # label -> (level, position within the level)
            self._discovery = {unit: (0, 0)}
            self._product_memo: dict[tuple[str, str], Support] = {}

    # ---------------------------------------------------------------- basics

    @classmethod
    def explicit(cls, basis: Sequence[BasisElement], unit: str,
                 dual: Mapping[str, str], fusion: Mapping[tuple[str, str], Support],
                 name="ring", truncated_at=None) -> "FusionRing":
        return cls(kind="explicit", basis=basis, unit=unit, dual_map=dual,
                   fusion_table=fusion, name=name, truncated_at=truncated_at)

    @classmethod
    def generated(cls, unit: str, generators: Sequence[str],
                  oracle: Callable[[str, str], Support],
                  dual_fn: Callable[[str], str],
                  dim_fn: Callable[[str], int],
                  name="ring") -> "FusionRing":
        return cls(kind="generated", basis=(), unit=unit, dual_map={},
                   fusion_table={}, oracle=oracle, dual_fn=dual_fn,
                   dim_fn=dim_fn, generators=generators, name=name)

    @property
    def is_explicit(self) -> bool:
        return self.kind == "explicit"

    def dim(self, label: str) -> int:
        if self.is_explicit:
            try:
                return self._dims[label]
            except KeyError:
                raise UnknownLabel(label) from None
        return self._dim_fn(label)

    def dual(self, label: str) -> str:
        if self.is_explicit:
            try:
                return self._dual[label]
            except KeyError:
                raise UnknownLabel(label) from None
        return self._dual_fn(label)

    def labels(self) -> tuple[str, ...]:
        """All basis labels of an explicit ring, in input order."""
        if not self.is_explicit:
            raise MalformedRing("labels() needs an explicit ring; use elements(depth)")
        return tuple(b.label for b in self.basis)

    def elements(self, depth: int | None = None) -> tuple[str, ...]:
        """Basis labels in canonical order.

        Explicit rings return the whole basis; generated rings return the
        breadth-first discovery of everything reachable within `depth`
        generator multiplications.
        """
        if self.is_explicit:
            return self.labels()
        if depth is None:
            raise DepthExceeded("generated ring enumeration needs a depth bound")
        self._explore(depth)
        out = []
        for lvl in self._levels[: depth + 1]:
            out.extend(lvl)
        return tuple(out)

    def _explore(self, depth: int):
        while len(self._levels) <= depth:
            frontier = self._levels[-1]
            level = len(self._levels)
            discovered = []
            for x in frontier:
                for g in self.generators:
                    for c in sorted(self.product(x, g), key=_label_sort_key):
                        if c not in self._discovery:
                            self._discovery[c] = (level, len(discovered))
                            discovered.append(c)
            self._levels.append(discovered)

    def order_key(self, label: str):
        """Deterministic sort key: input order (explicit) or discovery order
        (generated); labels beyond any exploration sort after, by shape."""
        if self.is_explicit:
            idx = self._index.get(label)
            if idx is None:
                raise UnknownLabel(label)
            return (0, idx)
        found = self._discovery.get(label)
        if found is not None:
            return (0,) + found
        return (1,) + _label_sort_key(label)

    def sort_labels(self, labels: Iterable[str]) -> list[str]:
        return sorted(labels, key=self.order_key)

    # ------------------------------------------------------------- products

    def product(self, a: str, b: str) -> Support:
        """Exact decomposition of a x b with multiplicities."""
        if self.is_explicit:
            if a not in self._index:
                raise UnknownLabel(a)
            if b not in self._index:
                raise UnknownLabel(b)
            try:
                return dict(self._fusion[(a, b)])
            except KeyError:
                raise DepthExceeded(f"truncated table has no entry for ({a!r},{b!r})") from None
        key = (a, b)
        hit = self._product_memo.get(key)
        if hit is None:
            hit = dict(self._oracle(a, b))
            self._product_memo[key] = hit
        return dict(hit)

    def product_word(self, word: Sequence[str]) -> Support:
        """Left-associated iterated fusion of a nonempty word."""
        if not word:
            raise UnknownLabel("empty word")
        acc = Counter({word[0]: 1})
        # touch to raise UnknownLabel early
        self.dim(word[0])
        for z in word[1:]:
            nxt = Counter()
            for x, m in acc.items():
                for c, n in self.product(x, z).items():
                    nxt[c] += m * n
            acc = nxt
        return dict(acc)


def _label_sort_key(label: str):
    return (len(label), label)


@dataclass(frozen=True)
class Subobject:
    """A basis subset containing the unit, closed under dual and fusion."""

    members: frozenset[str]

    def __contains__(self, label):
        return label in self.members

    def __len__(self):
        return len(self.members)

    def sorted_in(self, ring: FusionRing) -> list[str]:
        return ring.sort_labels(self.members)


def check_subobject(ring: FusionRing, members: Iterable[str], depth: int | None = None) -> Subobject:
    """Verify the Subobject invariants and wrap the set.

    For generated rings only the explored part (within `depth`) is checked
    for fusion closure; constituents are still tested for membership via
    their canonical labels.
    """
    members = frozenset(members)
    if ring.unit not in members:
        raise NotASubobject("missing unit")
    for a in members:
        if ring.dual(a) not in members:
            raise NotASubobject(f"not dual-closed at {a!r}")
    probe = members
    explored = None
    if not ring.is_explicit and depth is not None:
        explored = set(ring.elements(depth))
        probe = members & explored
    for a in probe:
        for b in probe:
            for c in ring.product(a, b):
                if c not in members:
                    # Constituents that escape the exploration window are
                    # outside the depth-qualified claim.
                    if explored is not None and c not in explored:
                        continue
                    raise NotASubobject(f"not fusion-closed: {c!r} in {a!r} x {b!r}")
    return Subobject(members)


def generated_subobject(ring: FusionRing, seed: Iterable[str], depth: int | None = None) -> Subobject:
    """Smallest subobject containing `seed` (and the unit).

    Explicit rings always terminate; generated rings need a depth bound and
    fail with DepthExceeded when the closure escapes it.
    """
    allowed = None
    if not ring.is_explicit:
        if depth is None:
            raise DepthExceeded("generated ring closure needs a depth bound")
        allowed = set(ring.elements(depth))
    current = {ring.unit}
    for s in seed:
        ring.dim(s)  # raises UnknownLabel on bad input
        current.add(s)
        current.add(ring.dual(s))
    if allowed is not None and not current <= allowed:
        raise DepthExceeded("seed lies outside the depth bound")
    while True:
        new = set()
        for a in current:
            for b in current:
                for c in ring.product(a, b):
                    if c not in current:
                        new.add(c)
                        new.add(ring.dual(c))
        if not new:
            break
        if allowed is not None and not new <= allowed:
            raise DepthExceeded("closure escaped the depth bound")
        current |= new
    return Subobject(frozenset(current))


# ------------------------------------------------------------------ validate


def validate_ring(ring: FusionRing, depth: int = 6) -> ValidationReport:
    """Check every fusion-ring axiom, reporting all failures with witnesses.

    Generated rings are validated on the depth-truncated sub-table; the
    report carries a "checked to depth" stamp in that case.
    """
    full = ring.is_explicit and ring.truncated_at is None
    report = ValidationReport(checked_depth=None if full else depth)
    labels = ring.elements(None if ring.is_explicit else depth)
    unit = ring.unit

    def prod(a, b):
        # identities with any uncomputable term are skipped (truncated tables)
        try:
            return ring.product(a, b)
        except DepthExceeded:
            return None

    for a in labels:
        if ring.dual(ring.dual(a)) != a:
            report.add("dual-involution", (a,), f"dual(dual({a})) = {ring.dual(ring.dual(a))}")
        if ring.dim(ring.dual(a)) != ring.dim(a):
            report.add("dual-dim", (a,), "dim(dual(a)) != dim(a)")
    if ring.dual(unit) != unit:
        report.add("dual-unit", (unit,), "dual(unit) != unit")
    if ring.dim(unit) != 1:
        report.add("unit-dim", (unit,), f"dim(unit) = {ring.dim(unit)}")

    for a in labels:
        left, right = prod(unit, a), prod(a, unit)
        if left is not None and left != {a: 1}:
            report.add("unit-law", (unit, a), f"1 x {a} = {left}")
        if right is not None and right != {a: 1}:
            report.add("unit-law", (a, unit), f"{a} x 1 = {right}")

    for a in labels:
        for b in labels:
            supp = prod(a, b)
            if supp is None:
                continue
            n_unit = supp.get(unit, 0)
            want = 1 if b == ring.dual(a) else 0
            if n_unit != want:
                report.add("duality", (a, b), f"N({a},{b})^1 = {n_unit}, expected {want}")
            # dimension homomorphism
            lhs = ring.dim(a) * ring.dim(b)
            rhs = sum(n * ring.dim(c) for c, n in supp.items())
            if lhs != rhs:
                report.add("dim-homomorphism", (a, b), f"{lhs} != {rhs}")
            # Frobenius symmetry and conjugation anti-multiplicativity,
            # checked against every constituent
            for c, n in supp.items():
                s1 = prod(ring.dual(a), c)
                if s1 is not None and s1.get(b, 0) != n:
                    report.add("frobenius", (a, b, c), "N(a,b)^c != N(dual a, c)^b")
                s2 = prod(c, ring.dual(b))
                if s2 is not None and s2.get(a, 0) != n:
                    report.add("frobenius", (a, b, c), "N(a,b)^c != N(c, dual b)^a")
                s3 = prod(ring.dual(b), ring.dual(a))
                if s3 is not None and s3.get(ring.dual(c), 0) != n:
                    report.add("conjugation", (a, b, c), "N(a,b)^c != N(dual b, dual a)^dual c")

    for a in labels:
        for b in labels:
            for c in labels:
                lhs = Counter()
                rhs = Counter()
                try:
                    for e, n in ring.product(a, b).items():
                        for d, m in ring.product(e, c).items():
                            lhs[d] += n * m
                    for f, n in ring.product(b, c).items():
                        for d, m in ring.product(a, f).items():
                            rhs[d] += n * m
                except DepthExceeded:
                    continue
                if lhs != rhs:
                    report.add("associativity", (a, b, c), f"{dict(lhs)} != {dict(rhs)}")
    return report
