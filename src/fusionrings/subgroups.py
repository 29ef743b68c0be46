"""Quantum subgroups as restriction data: normality and centrality tests,
the trivially-restricting subobject, and grouplike extraction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .errors import InternalInconsistency, InvalidRestriction
from .ring import (FusionRing, Subobject, Support, ValidationReport, _associative, _reach,
                   generated_subobject)
from .central import GroupTable, is_central_subobject


@dataclass(frozen=True)
class RestrictionData:
    """A fusion-compatible decomposition map from irreducibles of the big
    ring to multisets of irreducibles of the subgroup's ring."""

    source: FusionRing
    target: FusionRing
    rule: Callable[[str], Support]
    name: str = "restriction"
    # label -> rule(label); the rule must be a pure function of the label
    _memo: dict[str, Support] = field(default_factory=dict, init=False,
                                      compare=False, repr=False)

    @classmethod
    def from_dict(cls, source: FusionRing, target: FusionRing,
                  mapping: Mapping[str, Support], name="restriction") -> "RestrictionData":
        table = {k: dict(v) for k, v in mapping.items()}
        bad = [(k, lam) for k, v in table.items() for lam, n in v.items() if n <= 0]
        if bad:
            raise InvalidRestriction(f"zero/negative multiplicity at {bad[0]}")

        def rule(label):
            try:
                return dict(table[label])
            except KeyError:
                raise InvalidRestriction(f"no restriction entry for {label!r}") from None

        return cls(source, target, rule, name=name)

    def restrict(self, label: str) -> Support:
        return dict(self.rule(label))

    def _restricted(self, label: str) -> Support:
        """The memoized restriction of `label`, read in place by the checks."""
        m = self._memo.get(label)
        if m is None:
            m = self._memo[label] = dict(self.rule(label))
        return m


def identity_restriction(ring: FusionRing) -> RestrictionData:
    return RestrictionData(ring, ring, lambda l: {l: 1}, name="identity")


def trivial_restriction(ring: FusionRing, unit_ring: FusionRing) -> RestrictionData:
    return RestrictionData(ring, unit_ring,
                           lambda l: {unit_ring.unit: ring.dim(l)},
                           name="trivial")


def su2_parity_restriction(su2: FusionRing, z2ring: FusionRing) -> RestrictionData:
    """SU(2) -> Z2 center branching: V_n restricts to (n+1) copies of the
    parity character."""
    labels = z2ring.labels()
    nontrivial = next(l for l in labels if l != z2ring.unit)

    def rule(label):
        n = int(label[1:])
        return {z2ring.unit if n % 2 == 0 else nontrivial: n + 1}

    return RestrictionData(su2, z2ring, rule, name="su2-parity")


def su2_weight_restriction(su2: FusionRing, zring: FusionRing) -> RestrictionData:
    """Classical weight branching SU(2) -> S^1: V_n restricts to the
    characters z^-n, z^-n+2, ..., z^n."""

    def rule(label):
        n = int(label[1:])
        return {f"z{k}": 1 for k in range(-n, n + 1, 2)}

    return RestrictionData(su2, zring, rule, name="su2-weights")


def validate_restriction(r: RestrictionData, depth: int = 6) -> ValidationReport:
    """Check the restriction invariants to depth, reporting all failures.

    Multiplicativity is first proved from identities on the generators
    (`_multiplicative_on_generators`); when that proof does not go through,
    the scan over all window pairs runs, and its violations, in its order,
    or its exception make the report."""
    report = ValidationReport(checked_depth=r.source.checked_depth(depth))
    explored = r.source.elements(depth)
    restrict = r._restricted
    unit_map = restrict(r.source.unit)
    if unit_map != {r.target.unit: 1}:
        report.add("unit", (r.source.unit,), f"unit restricts to {unit_map}")
    for tau in explored:
        m = restrict(tau)
        for lam in m:
            r.target.dim(lam)  # raises UnknownLabel on dangling targets
        want = r.source.dim(tau)
        got = sum(n * r.target.dim(lam) for lam, n in m.items())
        if got != want:
            report.add("dimension", (tau,), f"{got} != dim {want}")
        dual_m = {r.target.dual(lam): n for lam, n in m.items()}
        if restrict(r.source.dual(tau)) != dual_m:
            report.add("conjugation", (tau,), "map(dual tau) != dual of map(tau)")
    if report.ok:
        try:
            if _multiplicative_on_generators(r, explored):
                return report
        except Exception:
            # the rule or a ring failed: the full scan raises it, or not,
            # at its own point
            pass
    source, target = r.source._support, r.target._support
    for a in explored:
        ma = restrict(a)
        for b in explored:
            mb = restrict(b)
            lhs = _sum((n * m, target(x, y)) for x, n in ma.items() for y, m in mb.items())
            rhs = _sum((n, restrict(c)) for c, n in source(a, b).items())
            # a zero multiplicity counts as absent
            if lhs != rhs and any(lhs.get(c, 0) != rhs.get(c, 0) for c in lhs.keys() | rhs.keys()):
                report.add("multiplicativity", (a, b), f"{lhs} != {rhs}")
    return report


def _multiplicative_on_generators(r: RestrictionData, window: Sequence[str]) -> bool:
    """True only if res(a x b) = res(a) res(b) for all a, b in `window`.

    Along the reach (`ring._reach`: each label b is the one new constituent
    of b' x g, g a generator), the identity for (a, b) follows by induction
    from these checks, all run here on the rings as given:
      - res(a x 1) = res(a) res(1) for a in the window;
      - res(x x g) = res(x) res(g) for every generator g and every x in E,
        the window and the constituents of a x b' for a in it and b' a
        parent;
      - (a x b') x g = a x (b' x g) in the source, for a in the window and
        every parent edge;
      - (x y) h = x (y h) in the target, for x restricted from the window,
        y from a parent and h from a generator.
    Then N res(a x b) = (res(a) res(b')) res(g) - sum of res(a) res(o) over
    the other constituents o of b' x g, which is N res(a) res(b).  False
    when the reach stalls, a check fails, or every window label is a
    generator (as on an explicit table), where the full scan costs no
    more."""
    source, target = r.source, r.target
    generators = source.generators
    if set(window) <= set(generators):
        return False
    edges = _reach(source, window)
    if edges is None:
        return False
    s_sup, t_sup, restrict = source._support, target._support, r._restricted

    def restricted(supp):
        return _sum((n, restrict(c)) for c, n in supp.items())

    def restricted_product(m1, m2):
        return _sum((n * k, t_sup(x, y)) for x, n in m1.items() for y, k in m2.items())

    m_unit = restrict(source.unit)
    for a in window:
        if restricted(s_sup(a, source.unit)) != restricted_product(restrict(a), m_unit):
            return False
    parents = dict.fromkeys(p for _, p, _ in edges)
    checked = dict.fromkeys(window)
    for a in window:
        for p in parents:
            checked.update(dict.fromkeys(s_sup(a, p)))
    for x in checked:
        for g in generators:
            if restricted(s_sup(x, g)) != restricted_product(restrict(x), restrict(g)):
                return False
    ys = dict.fromkeys(lam for p in parents for lam in restrict(p))
    hs = dict.fromkeys(lam for g in generators for lam in restrict(g))
    return (_associative(source, window, [(p, g) for _, p, g in edges])
            and _associative(target, dict.fromkeys(lam for a in window for lam in restrict(a)),
                             [(y, h) for y in ys for h in hs]))


def _sum(terms) -> Support:
    """The sum of n * supp over the (n, supp) terms."""
    out = {}
    get = out.get
    for n, supp in terms:
        for c, m in supp.items():
            out[c] = get(c, 0) + n * m
    return out


@dataclass
class NormalityResult:
    normal: bool
    witness: tuple | None = None  # (tau, multiplicity, dim)
    checked_depth: int | None = None

    def __bool__(self):
        return self.normal


def is_normal(r: RestrictionData, depth: int = 6) -> NormalityResult:
    """Normality test: the target unit's multiplicity in each restricted
    irreducible must be 0 or the full dimension."""
    _require_valid(r, depth)
    checked = r.source.checked_depth(depth)
    for tau in r.source.elements(depth):
        m = r._restricted(tau).get(r.target.unit, 0)
        if m not in (0, r.source.dim(tau)):
            return NormalityResult(False, witness=(tau, m, r.source.dim(tau)),
                                   checked_depth=checked)
    return NormalityResult(True, checked_depth=checked)


@dataclass
class CentralSubgroupResult:
    central: bool
    assignment: dict[str, str] | None = None  # tau -> grouplike of the target
    witness: tuple | None = None
    checked_depth: int | None = None

    def __bool__(self):
        return self.central


def is_central_subgroup(r: RestrictionData, depth: int = 6) -> CentralSubgroupResult:
    """Centrality test: each irreducible must restrict to dim-many copies of
    a single dimension-1 target element; returns the grouplike assignment."""
    _require_valid(r, depth)
    checked = r.source.checked_depth(depth)
    assignment = {}
    for tau in r.source.elements(depth):
        m = dict(r._restricted(tau))  # a copy: it may become the witness
        if len(m) != 1:
            return CentralSubgroupResult(False, witness=(tau, m), checked_depth=checked)
        (lam, n), = m.items()
        if r.target.dim(lam) != 1 or n != r.source.dim(tau):
            return CentralSubgroupResult(False, witness=(tau, m), checked_depth=checked)
        assignment[tau] = lam
    return CentralSubgroupResult(True, assignment=assignment, checked_depth=checked)


def trivial_restriction_subobject(r: RestrictionData, depth: int = 6) -> Subobject:
    """The subobject of irreducibles restricting to a sum of trivials.

    Cross-checked on request by the caller against the coset-group
    criterion; closure of constituents is verified through the restriction
    rule itself so it also covers constituents beyond the depth."""
    _require_valid(r, depth)
    return _trivial_restriction_subobject(r, depth)


def _trivial_restriction_subobject(r: RestrictionData, depth: int) -> Subobject:
    """`trivial_restriction_subobject` on restriction data already validated."""
    explored = r.source.elements(depth)
    inside = set(explored)

    def trivially_restricts(tau):
        return r._restricted(tau) == {r.target.unit: r.source.dim(tau)}

    members = {tau for tau in explored if trivially_restricts(tau)}
    for a in members:
        if r.source.dual(a) not in members and r.source.dual(a) in inside:
            raise InvalidRestriction(f"trivially-restricting set not dual-closed at {a!r}")
        for b in members:
            for c in r.source._support(a, b):
                # constituents beyond the depth are still checked via the rule
                if not trivially_restricts(c):
                    raise InvalidRestriction(
                        f"trivially-restricting set not fusion-closed: {c!r} in {a!r} x {b!r}")
    return Subobject(frozenset(members))


def central_subgroup_cross_check(r: RestrictionData, depth: int = 6) -> bool:
    """Consistency check: the restriction centrality test must agree
    with the coset-group criterion on the trivially-restricting subobject."""
    by_restriction = is_central_subgroup(r, depth).central
    sigma = _trivial_restriction_subobject(r, depth)  # validated just above
    by_cosets = is_central_subobject(r.source, sigma, depth).central
    if by_restriction != by_cosets:
        raise InternalInconsistency(
            f"centrality tests disagree for {r.name}: "
            f"restriction={by_restriction}, cosets={by_cosets}")
    return by_restriction


def _require_valid(r: RestrictionData, depth: int):
    report = validate_restriction(r, depth)
    if not report.ok:
        raise InvalidRestriction(str(report))


def grouplikes(ring: FusionRing, depth: int = 6) -> GroupTable:
    """The group of dimension-1 basis elements (dual of the abelianization).

    The window's dim-1 elements are closed under fusion with
    `generated_subobject`, which raises DepthExceeded when the closure
    escapes the window; their products must be dim-1 singletons by the
    dimension homomorphism (verified).
    """
    seeds = [l for l in ring.elements(depth) if ring.dim(l) == 1]
    elems = generated_subobject(ring, seeds, depth).sorted_in(ring)
    index = {l: i for i, l in enumerate(elems)}

    def times(a, b):
        supp = ring.product(a, b)
        if len(supp) != 1:
            raise InternalInconsistency(
                f"dim-1 product {a!r} x {b!r} not a singleton: {supp}")
        (c, n), = supp.items()
        if n != 1 or ring.dim(c) != 1:
            raise InternalInconsistency(
                f"dim-1 product {a!r} x {b!r} gave {supp}")
        return index[c]

    mult = tuple(tuple(times(a, b) for b in elems) for a in elems)
    table = GroupTable(mult, index[ring.unit], tuple(elems))
    table.verify()
    return table
