"""Core fusion-ring data model: basis elements, rings, axiom validation and
elementary arithmetic.

A ring is a unit, a generator set, exact product, dual and dimension
functions, and the breadth-first discovery of its basis from the unit.  An
*explicit* ring (a finite sparse table) is the complete case: every label is
a generator and the whole basis is discovered up front, so depth bounds do
not limit it.  All multiplicities are plain Python ints, so they are
arbitrary precision by construction.
"""

from __future__ import annotations

from itertools import combinations
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    DepthExceeded,
    MalformedRing,
    NotASubobject,
    UnknownLabel,
)

Support = dict[str, int]  # label -> multiplicity, never zero


class _Record:
    """A record without `dataclasses`, whose import costs a CLI process
    some 6 ms: its fields are the parameters of its __init__, == compares
    them all, repr shows Name(field=value, ...), and it is unhashable."""

    def __init_subclass__(cls):
        if init := vars(cls).get("__init__"):
            cls._fields = init.__code__.co_varnames[1:init.__code__.co_argcount]
            cls._values = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A record hashed by its fields, which its __init__ sets in `__dict__`
    and which refuse assignment and deletion after."""

    def __hash__(self):
        return hash(self._values)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class BasisElement(_Frozen):
    """An irreducible class: canonical label plus vector-space dimension."""

    def __init__(self, label: str, dim: int):
        self.__dict__.update(label=label, dim=dim)
        if type(dim) is not int or dim < 1:
            raise MalformedRing(f"dim of {label!r} must be an int >= 1, got {dim!r}")


class ValidationViolation(_Frozen):
    def __init__(self, axiom: str, witness: tuple, detail: str):
        self.__dict__.update(axiom=axiom, witness=witness, detail=detail)

    def __str__(self):
        return f"{self.axiom} at {self.witness}: {self.detail}"


class ValidationReport(_Record):
    def __init__(self, violations: list[ValidationViolation] | None = None,
                 checked_depth: int | None = None):
        self.violations = [] if violations is None else violations
        self.checked_depth = checked_depth  # None means the full finite table

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


class Memo(dict):
    """A table that fills each missing entry once, with fill(key).
    Entries are read in place and must not be mutated."""

    def __init__(self, fill: Callable):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _kept(owner, question: str, key, compute: Callable):
    """The answer to `question` at `key` kept in `owner.answers`, else
    compute()'s, kept there; an exception keeps nothing, so it recurs."""
    store, entry = owner.answers, (question, key)
    if entry not in store:
        store[entry] = compute()
    return store[entry]


class FusionRing:
    """Immutable fusion ring.

    A unit, generators, three tables over canonical labels, each filled
    once from its given function on a miss -- `fusion[a, b]` from the
    product, `duals[a]` from the dual and `dims[a]` from the dim, read
    also as `dual(a)` and `dim(a)` -- and the breadth-first discovery order
    of the basis.  A fill that raises (UnknownLabel) keeps no entry.
    `explicit` seeds the tables with finite ones and discovers the whole
    basis up front; `generated` discovers it level by level, one generator
    multiplication per level.  A generated family may declare a grading by
    a cyclic group, `grading` = (n, deg, kernel): deg maps a label to an
    int read modulo n, or in Z when n = 0 (`central._graded` checks it on
    a window), and `kernel(k)` lists the labels of level k of degree e, in
    level order.  All operations are pure.
    Every derived answer is kept in one store, `answers`, under (question,
    stamp) by `_kept`, the stamp `checked_depth(depth)` of the window it was
    computed on: a returned value is kept, an exception keeps nothing.
    """

    def __init__(self, unit: str, generators: Sequence[str],
                 product_fn: Callable[[str, str], Support],
                 dual_fn: Callable[[str], str],
                 dim_fn: Callable[[str], int], name="ring",
                 grading: tuple[int, Callable[[str], int],
                                Callable[[int], Sequence[str]]] | None = None):
        self.name = name
        self.grading = grading
        self.unit = unit
        self.generators = tuple(generators)
        self.basis: tuple[BasisElement, ...] = ()  # the table's basis, if any
        self.truncated_at: int | None = None
        self.fusion = Memo(lambda ab: dict(product_fn(*ab)))
        self.duals, self.dims = Memo(dual_fn), Memo(dim_fn)
        self.dual, self.dim = self.duals.__getitem__, self.dims.__getitem__
        self.answers: dict = {}  # (question, key) -> kept answer, see `_kept`
        # discovery levels; an empty last level means the basis is complete
        self._levels: list[list[str]] = [[unit]]
        # label -> (level, position within the level)
        self._discovery = {unit: (0, 0)}

    # ---------------------------------------------------------------- basics

    @classmethod
    def explicit(cls, basis: Sequence[BasisElement], unit: str,
                 dual: Mapping[str, str], fusion: Mapping[tuple[str, str], Support],
                 name="ring", truncated_at=None) -> "FusionRing":
        """A finite table.  A pair missing from a table stamped
        `truncated_at` raises DepthExceeded when multiplied."""
        basis = tuple(basis)
        labels = [b.label for b in basis]
        dims = {b.label: b.dim for b in basis}
        if len(dims) != len(labels):
            raise MalformedRing("duplicate basis labels")
        if unit not in dims:
            raise MalformedRing(f"unit {unit!r} not in basis")
        dual = dict(dual)
        for a, b in dual.items():
            if a not in dims or b not in dims:
                raise MalformedRing(f"dual map has dangling label ({a!r}, {b!r})")
        if set(dual) != set(dims):
            raise MalformedRing("dual map does not cover the basis")
        table = {}
        for (a, b), supp in fusion.items():
            if a not in dims or b not in dims:
                raise MalformedRing(f"fusion entry with dangling pair ({a!r}, {b!r})")
            clean = {}
            for c, n in supp.items():
                if c not in dims:
                    raise MalformedRing(f"fusion entry ({a!r},{b!r}) -> dangling {c!r}")
                if type(n) is not int or n <= 0:
                    raise MalformedRing(f"bad multiplicity {n!r} at ({a!r},{b!r},{c!r})")
                clean[c] = n
            if not clean:
                raise MalformedRing(f"empty support declared for ({a!r},{b!r})")
            table[(a, b)] = clean
        if truncated_at is None:
            for a in labels:
                for b in labels:
                    if (a, b) not in table:
                        raise MalformedRing(f"missing fusion entry for ({a!r},{b!r})")

        def missing(*key):  # reached only on a miss of one of the three tables
            for x in key:
                if x not in dims:
                    raise UnknownLabel(x)
            raise DepthExceeded(f"truncated table has no entry for ({key[0]!r},{key[1]!r})")

        ring = cls(unit, labels, missing, missing, missing, name=name)
        ring.basis = basis
        ring.truncated_at = truncated_at
        ring.fusion.update(table)
        ring.duals.update(dual)
        ring.dims.update(dims)
        ring._levels = [labels, []]
        ring._discovery = {l: (0, i) for i, l in enumerate(labels)}
        return ring

    @classmethod
    def generated(cls, unit: str, generators: Sequence[str],
                  oracle: Callable[[str, str], Support],
                  dual_fn: Callable[[str], str],
                  dim_fn: Callable[[str], int],
                  name="ring", grading=None) -> "FusionRing":
        return cls(unit, generators, oracle, dual_fn, dim_fn, name=name, grading=grading)

    @property
    def is_explicit(self) -> bool:
        return bool(self.basis)

    @property
    def kind(self) -> str:
        return "explicit" if self.is_explicit else "generated"

    def checked_depth(self, depth: int) -> int | None:
        """The stamp on an answer computed at `depth`, and its key in
        `answers`: None when it is exact (a complete table), else the depth
        it holds to -- a truncated table's own depth, whose window is the
        whole table at every depth, or `depth` on a generated ring.
        ValueError on a negative depth."""
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        return self.truncated_at if self.is_explicit else depth

    def labels(self) -> tuple[str, ...]:
        """All basis labels of an explicit ring, in input order."""
        if not self.is_explicit:
            raise MalformedRing(f"ring {self.name!r} has no finite table: this needs "
                                "a finite explicit ring (use elements(depth) for a window)")
        return tuple(b.label for b in self.basis)

    def elements(self, depth: int | None = None) -> tuple[str, ...]:
        """Basis labels in discovery order: everything reachable within
        `depth` generator multiplications.  A complete basis (an explicit
        ring's) is returned whole, whatever the depth."""
        if depth is None:
            if self._levels[-1]:
                raise DepthExceeded("generated ring enumeration needs a depth bound")
            depth = len(self._levels)
        elif depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self._explore(depth)
        out = []
        for lvl in self._levels[: depth + 1]:
            out.extend(lvl)
        return tuple(out)

    def _explore(self, depth: int):
        while len(self._levels) <= depth and self._levels[-1]:
            level, discovered = len(self._levels), []
            for x in self._levels[-1]:
                for g in self.generators:
                    cs = self.fusion[x, g]
                    for c in sorted(cs, key=_label_sort_key) if len(cs) > 1 else cs:
                        if c not in self._discovery:
                            self._discovery[c] = (level, len(discovered))
                            discovered.append(c)
            self._levels.append(discovered)

    def order_key(self, label: str):
        """Deterministic sort key: discovery order (input order on an
        explicit ring); labels beyond any exploration sort after, by shape."""
        found = self._discovery.get(label)
        if found is not None:
            return (0,) + found
        return (1,) + _label_sort_key(label)

    # ------------------------------------------------------------- products

    def product(self, a: str, b: str) -> Support:
        """Exact decomposition of a x b with multiplicities, as a copy of
        the table entry `fusion[a, b]`."""
        return dict(self.fusion[a, b])

    def product_word(self, word: Sequence[str]) -> Support:
        """Left-associated iterated fusion of a nonempty word."""
        if not word:
            raise UnknownLabel("")  # the empty word
        self.dim(word[0])  # raises UnknownLabel early
        acc = {word[0]: 1}
        for z in word[1:]:
            acc = _sum((m, self.fusion[x, z]) for x, m in acc.items())
        return acc


def _sum(terms) -> Support:
    """The sum of n * supp over the (n, supp) terms."""
    out = {}
    get = out.get
    for n, supp in terms:
        for c, m in supp.items():
            out[c] = get(c, 0) + n * m
    return out


def _label_sort_key(label: str):
    return (len(label), label)


class Subobject(_Frozen):
    """A basis subset containing the unit, closed under dual and fusion."""

    def __init__(self, members: frozenset[str]):
        self.__dict__["members"] = members

    def __contains__(self, label):
        return label in self.members

    def __len__(self):
        return len(self.members)

    def sorted_in(self, ring: FusionRing) -> list[str]:
        return sorted(self.members, key=ring.order_key)


def check_subobject(ring: FusionRing, members: Iterable[str], depth: int | None = None) -> Subobject:
    """Verify the Subobject invariants and wrap the set.

    For generated rings only the explored part (within `depth`) is checked
    for fusion closure; constituents are still tested for membership via
    their canonical labels.  Errors name the first failure in `order_key` order.
    """
    members = frozenset(members)
    if ring.unit not in members:
        raise NotASubobject("missing unit")
    ordered = sorted(members, key=ring.order_key)
    for a in ordered:
        if ring.dual(a) not in members:
            raise NotASubobject(f"not dual-closed at {a!r}")
    explored = None if depth is None else set(ring.elements(depth))
    probe = ordered if explored is None else [a for a in ordered if a in explored]
    for a in probe:
        for b in probe:
            for c in ring.fusion[a, b]:
                if c not in members:
                    # Constituents that escape the exploration window are
                    # outside the depth-qualified claim.
                    if explored is not None and c not in explored:
                        continue
                    raise NotASubobject(f"not fusion-closed: {c!r} in {a!r} x {b!r}")
    return Subobject(members)


def generated_subobject(ring: FusionRing, seed: Iterable[str], depth: int | None = None) -> Subobject:
    """Smallest subobject containing `seed` (and the unit), closed in rounds
    that multiply every pair of the current set.

    Explicit rings always terminate; generated rings need a depth bound and
    fail with DepthExceeded when the closure escapes it.
    """
    allowed = set(ring.elements(depth))
    current = {ring.unit}
    for s in seed:
        ring.dim(s)  # raises UnknownLabel on bad input
        current.add(s)
        current.add(ring.dual(s))
    if not current <= allowed:
        raise DepthExceeded("seed lies outside the depth bound",
                            min(current - allowed, key=ring.order_key))
    while True:
        new = {d for a in current for b in current for c in ring.fusion[a, b]
               if c not in current for d in (c, ring.dual(c))}
        if not new:
            return Subobject(frozenset(current))
        if not new <= allowed:
            raise DepthExceeded("closure escaped the depth bound",
                                min(new - allowed, key=ring.order_key))
        current |= new


def _reach(ring: FusionRing, window: Sequence[str],
           multipliers: list[str]) -> list[tuple[str, str, str]]:
    """Parent edges reaching every label of `window` from the unit.

    A label b is reached through the edge (b', g) when b' is already
    reached, g is in `multipliers` and b is the only constituent of b' x g
    not yet reached, so every other constituent is reached before b.
    Returns the triples (b, b', g) in reach order.  Where the reach stalls,
    the first unreached label of `window` joins `multipliers`, counts as
    reached and the reach goes on, so the list ends as a set from which
    every label is reached."""
    inside = set(window)
    reached = {ring.unit}
    order = [ring.unit]
    edges = []
    while len(reached) < len(inside):
        before = len(reached)
        for parent in order:  # grows during the pass
            for g in multipliers:
                fresh = [c for c in ring.fusion[parent, g] if c not in reached]
                if len(fresh) == 1 and fresh[0] in inside:
                    reached.add(fresh[0])
                    order.append(fresh[0])
                    edges.append((fresh[0], parent, g))
        if len(reached) == before:
            fresh = next(b for b in window if b not in reached)
            multipliers.append(fresh)
            reached.add(fresh)
            order.append(fresh)
    return edges


def _associativity_failures(ring: FusionRing, xs: Iterable[str],
                            pairs: Iterable[tuple[str, str]], upto=None):
    """Yield (x, y, h, lhs, rhs) where lhs = (x y) h differs from
    rhs = x (y h), for each (y, h) in `pairs` and then each x in `xs`, or
    in its first upto[h] when a dict `upto` is given.  A triple with a term
    the table cannot compute (a truncated table) is yielded with lhs and
    rhs None.  Where x y = n u and y h = n v, the
    triple holds when u h = x v, compared in place; the sums run only when
    that fails, reading the same entries in the same order."""
    fusion = ring.fusion
    xs = list(xs)
    for y, h in pairs:
        try:
            yh = fusion[y, h]
        except DepthExceeded:
            yield from ((x, y, h, None, None) for x in xs)
            continue
        v1, n1 = next(iter(yh.items())) if len(yh) == 1 else (None, 0)
        for x in xs if upto is None else xs[:upto[h]]:
            try:
                xy = fusion[x, y]
                if n1 and len(xy) == 1:
                    (u1, n), = xy.items()
                    if n == n1 and fusion[u1, h] == fusion[x, v1]:
                        continue
                lhs, rhs = {}, {}
                for u, n in xy.items():
                    for c, m in fusion[u, h].items():
                        lhs[c] = lhs.get(c, 0) + n * m
                for v, n in yh.items():
                    for c, m in fusion[x, v].items():
                        rhs[c] = rhs.get(c, 0) + n * m
            except DepthExceeded:
                yield x, y, h, None, None
                continue
            if lhs != rhs:
                yield x, y, h, lhs, rhs


def _associative(ring: FusionRing, xs: Iterable[str],
                 pairs: Iterable[tuple[str, str]], upto=None) -> bool:
    """Whether (x y) h = x (y h), every term computed, for every x in `xs`
    (the first upto[h] when given) and (y, h) in `pairs`."""
    return next(_associativity_failures(ring, xs, pairs, upto), None) is None


def _light_middle(ring: FusionRing, window: Sequence[str]) -> list[str] | None:
    """Light's associativity test on a complete table (`window` holds every
    label) with the unit law on `window`: a middle set B from which `_reach`
    gets every label of `window`, grown in the window's order, when
    (x b) y = x (b y) for every b in B and x, y in the window; None on any
    other table or when that check fails.

    The middle labels b with (x b) y = x (b y) for all x, y are closed
    under products, and a label is one of them when the other constituents
    of a product of two of them are (multiplicities are positive).  So with
    the unit law a returned B proves the table associative (Clifford and
    Preston, The Algebraic Theory of Semigroups I, 1961, section 1.2), and
    on an associative table every B passes.  So the verdict, kept under
    "light" and the complete table's stamp None by the first call,
    holds for every order in which a later call grows its own B; x runs only
    to y on a commutative table, where (x b) y - x (b y) = -((y b) x - y (b x))."""
    if not ring.is_explicit or ring.truncated_at is not None:
        return None
    unit, middle, fusion = ring.unit, [], ring.fusion
    _reach(ring, window, middle)

    def verdict():  # the unit law, then the check on B (half of it if commutative)
        commutative = all(fusion[a, b] == fusion[b, a] for a, b in combinations(window, 2))
        return not any(fusion[unit, a] != {a: 1} or fusion[a, unit] != {a: 1} for a in window) \
            and _associative(ring, window, [(b, c) for b in middle for c in window],
                             {c: i + 1 for i, c in enumerate(window)} if commutative else None)

    return middle if _kept(ring, "light", None, verdict) else None


# ------------------------------------------------------------------ validate


def validate_ring(ring: FusionRing, depth: int = 6) -> ValidationReport:
    """Check every fusion-ring axiom, reporting all failures with witnesses.

    Generated rings are validated on the depth-truncated sub-table; the
    report carries the stamp `ring.checked_depth(depth)`.  One loop,
    `_laws`, checks every axiom but associativity.  On a complete table
    Light's test proves associative (`_light_middle`, once per ring) it
    skips the Frobenius laws: with tau the coefficient of the unit, duality
    and the involution give N(a,b)^c = tau(a b c*) and tau(xy) = tau(yx), so
    by associativity N(a*,c)^b = N(c,b*)^a = N(b*,a*)^c* = tau(a* c b*), and
    the conjugation law gives both Frobenius laws (Etingof-Gelaki-Nikshych-
    Ostrik, Tensor Categories, 2015, 3.1).  It checks the dimension and
    conjugation laws only for b in Light's middle set B: along `_reach`'s
    edges b' g = N b + sum o, by associativity N dim(a b) = dim(a b') dim g
    - sum dim(a o) and N (a b)* = g* (b'* a*) - sum o* a*, for every b.
    The proofs need the other laws, so a violation reruns the whole loop.
    Only other tables take the associativity scan.  The first call keeps
    its report, whatever it says, under "report" and its stamp; every call
    returns a copy of it.
    """
    def compute():
        labels = ring.elements(depth)
        middle = _light_middle(ring, labels)
        report = _laws(ring, labels, middle)
        if middle is not None and not report.ok:
            report = _laws(ring, labels)
        report.checked_depth = ring.checked_depth(depth)
        if middle is None:
            index = {a: i for i, a in enumerate(labels)}
            pairs = ((b, c) for b in labels for c in labels)
            failures = [f for f in _associativity_failures(ring, labels, pairs) if f[3] is not None]
            failures.sort(key=lambda f: (index[f[0]], index[f[1]], index[f[2]]))
            for a, b, c, lhs, rhs in failures:
                report.add("associativity", (a, b, c), f"{lhs} != {rhs}")
        return report

    kept = _kept(ring, "report", ring.checked_depth(depth), compute)
    return ValidationReport(list(kept.violations), kept.checked_depth)


def _laws(ring: FusionRing, labels: Sequence[str],
          middle: Sequence[str] | None = None) -> ValidationReport:
    """Every check of `validate_ring` but associativity, in its report's
    order; given Light's middle set, no Frobenius laws and the constituent
    laws only on the pairs (a, b) with b in it.  A law with a term the
    table cannot compute (a truncated table) is skipped."""
    report = ValidationReport()
    unit, fusion = ring.unit, ring.fusion
    if ring.is_explicit:  # plain dicts read faster than the tables
        dual, dim = dict(ring.duals), dict(ring.dims)
        prod = fusion.get  # a truncated table's missing pair reads None
    else:
        dual, dim = ring.duals, ring.dims  # constituents beyond the window too

        def prod(ab):
            try:
                return fusion[ab]
            except DepthExceeded:
                return None

    for a in labels:
        if dual[dual[a]] != a:
            report.add("dual-involution", (a,), f"dual(dual({a})) = {dual[dual[a]]}")
        if dim[dual[a]] != dim[a]:
            report.add("dual-dim", (a,), "dim(dual(a)) != dim(a)")
    if dual[unit] != unit:
        report.add("dual-unit", (unit,), "dual(unit) != unit")
    if dim[unit] != 1:
        report.add("unit-dim", (unit,), f"dim(unit) = {dim[unit]}")
    for a in labels:
        left, right = prod((unit, a)), prod((a, unit))
        if left is not None and left != {a: 1}:
            report.add("unit-law", (unit, a), f"1 x {a} = {left}")
        if right is not None and right != {a: 1}:
            report.add("unit-law", (a, unit), f"{a} x 1 = {right}")

    found, walked = report.violations, set(labels if middle is None else middle)
    for a in labels:
        da = dual[a]
        for b in labels:
            supp = prod((a, b))
            if supp is None:
                continue
            n_unit = supp.get(unit, 0)
            want = 1 if b == da else 0
            if n_unit != want:
                report.add("duality", (a, b), f"N({a},{b})^1 = {n_unit}, expected {want}")
            if b not in walked:
                continue
            # the dimension homomorphism, reported before the constituent
            # laws: Frobenius symmetry and conjugation anti-multiplicativity
            db, start, total = dual[b], len(found), 0
            conj = prod((db, da))
            for c, n in supp.items():
                total += n * dim[c]
                if middle is None:
                    s1, s2 = prod((da, c)), prod((c, db))
                    if s1 is not None and s1.get(b, 0) != n:
                        report.add("frobenius", (a, b, c), "N(a,b)^c != N(dual a, c)^b")
                    if s2 is not None and s2.get(a, 0) != n:
                        report.add("frobenius", (a, b, c), "N(a,b)^c != N(c, dual b)^a")
                if conj is not None and conj.get(dual[c], 0) != n:
                    report.add("conjugation", (a, b, c), "N(a,b)^c != N(dual b, dual a)^dual c")
            if total != dim[a] * dim[b]:
                found.insert(start, ValidationViolation(
                    "dim-homomorphism", (a, b), f"{dim[a] * dim[b]} != {total}"))
    return report
