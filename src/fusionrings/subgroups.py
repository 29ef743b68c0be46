"""Quantum subgroups as restriction data: normality and centrality tests,
the trivially-restricting subobject, and grouplike extraction."""

from __future__ import annotations

from typing import Callable, Collection, Mapping

from .errors import InternalInconsistency, InvalidRestriction
from .ring import (FusionRing, Memo, Subobject, Support, ValidationReport, _associative,
                   _kept, _reach, _Record, _sum, generated_subobject)
from .central import GroupTable, _depth_flag, identify_group, is_central_subobject


class RestrictionData:
    """A fusion-compatible decomposition map from irreducibles of the big
    ring to multisets of irreducibles of the subgroup's ring.

    Its answers are kept in one store, `answers`, by `ring._kept` under
    (question, the source's stamp `checked_depth(depth)`): "valid" once
    validation has passed, which the questions need, and "trivial".  A
    failure keeps nothing, so it recurs on every call.  The public
    `validate_restriction` always checks afresh."""

    def __init__(self, source: FusionRing, target: FusionRing,
                 rule: Callable[[str], Support], name: str = "restriction"):
        self.source, self.target, self.rule, self.name = source, target, rule, name
        # label -> rule(label), read in place by the checks; the rule must be a
        # pure function of the label
        self.restricted = Memo(lambda label: dict(rule(label)))
        self.answers: dict = {}  # (question, source stamp) -> kept answer

    @classmethod
    def from_dict(cls, source: FusionRing, target: FusionRing,
                  mapping: Mapping[str, Support], name="restriction") -> "RestrictionData":
        table = {k: dict(v) for k, v in mapping.items()}
        bad = [(k, lam, n) for k, v in table.items() for lam, n in v.items()
               if type(n) is not int or n <= 0]
        if bad:
            raise InvalidRestriction(f"multiplicity not a positive integer at {bad[0]}")

        def rule(label):
            try:
                return dict(table[label])
            except KeyError:
                raise InvalidRestriction(f"no restriction entry for {label!r}") from None

        return cls(source, target, rule, name=name)

    def restrict(self, label: str) -> Support:
        return dict(self.rule(label))


def identity_restriction(ring: FusionRing) -> RestrictionData:
    return RestrictionData(ring, ring, lambda l: {l: 1}, name="identity")


def trivial_restriction(ring: FusionRing, unit_ring: FusionRing) -> RestrictionData:
    return RestrictionData(ring, unit_ring,
                           lambda l: {unit_ring.unit: ring.dim(l)},
                           name="trivial")


def su2_parity_restriction(su2: FusionRing, z2ring: FusionRing) -> RestrictionData:
    """SU(2) -> Z2 center branching: V_n restricts to (n+1) copies of the
    parity character."""
    nontrivial = next((l for l in z2ring.labels() if l != z2ring.unit), None)
    if nontrivial is None:
        raise InvalidRestriction("su2 parity needs a target with a label other than the unit")

    def rule(label):
        n = _su2_index(label)
        return {z2ring.unit if n % 2 == 0 else nontrivial: n + 1}

    return RestrictionData(su2, z2ring, rule, name="su2-parity")


def su2_weight_restriction(su2: FusionRing, zring: FusionRing) -> RestrictionData:
    """Classical weight branching SU(2) -> S^1: V_n restricts to the
    characters z^-n, z^-n+2, ..., z^n."""

    def rule(label):
        n = _su2_index(label)
        return {f"z{k}": 1 for k in range(-n, n + 1, 2)}

    return RestrictionData(su2, zring, rule, name="su2-weights")


def _su2_index(label: str) -> int:
    """n for the su2 label Vn; InvalidRestriction for any other label."""
    if label[:1] != "V" or not label[1:].isdecimal() or f"V{int(label[1:])}" != label:
        raise InvalidRestriction(f"an su2 rule cannot restrict {label!r}")
    return int(label[1:])


def validate_restriction(r: RestrictionData, depth: int = 6) -> ValidationReport:
    """Check the restriction invariants to depth, reporting all failures.

    Multiplicativity is first proved from identities on the generators
    (`_multiplicative_on_generators`); when that proof does not go through,
    the scan over all window pairs runs, and its violations, in its order,
    or its exception make the report."""
    report = ValidationReport(checked_depth=r.source.checked_depth(depth))
    explored = r.source.elements(depth)
    restricted = r.restricted
    unit_map = restricted[r.source.unit]
    if unit_map != {r.target.unit: 1}:
        report.add("unit", (r.source.unit,), f"unit restricts to {unit_map}")
    for tau in explored:
        m = restricted[tau]
        for lam in m:
            r.target.dim(lam)  # raises UnknownLabel on dangling targets
        want = r.source.dim(tau)
        got = sum(n * r.target.dim(lam) for lam, n in m.items())
        if got != want:
            report.add("dimension", (tau,), f"{got} != dim {want}")
        dual_m = {r.target.dual(lam): n for lam, n in m.items()}
        if restricted[r.source.dual(tau)] != dual_m:
            report.add("conjugation", (tau,), "map(dual tau) != dual of map(tau)")
    if report.ok:
        try:
            if _multiplicative_on_generators(r, depth):
                return report
        except Exception:
            # the rule or a ring failed: the full scan raises it, or not,
            # at its own point
            pass
    for a, b, lhs, rhs in _multiplicativity_failures(r, explored, explored):
        report.add("multiplicativity", (a, b), f"{lhs} != {rhs}")
    return report


def _multiplicativity_failures(r: RestrictionData, xs: Collection[str], ys: Collection[str]):
    """Yield (a, b, res(a) res(b), res(a x b)) for each a in `xs` and then
    each b in `ys` where the two differ; a zero multiplicity counts as
    absent."""
    source, target, res = r.source.fusion, r.target.fusion, r.restricted
    for a in xs:
        ma = res[a]
        for b in ys:
            mb = res[b]
            lhs = _sum((n * m, target[x, y]) for x, n in ma.items() for y, m in mb.items())
            rhs = _sum((n, res[c]) for c, n in source[a, b].items())
            if lhs != rhs and any(lhs.get(c, 0) != rhs.get(c, 0) for c in lhs.keys() | rhs.keys()):
                yield a, b, lhs, rhs


def _multiplicative_on_generators(r: RestrictionData, depth: int) -> bool:
    """True only if res(a x b) = res(a) res(b) for all a, b in the
    window `r.source.elements(depth)`.

    Along the reach (`ring._reach`: each label b is the one new constituent
    of b' x g, g a multiplier: a generator, or a window label added where
    the generators stall), the identity for (a, b) follows by induction
    from these checks, all run here on the rings as given:
      - res(a x 1) = res(a) res(1) for a in the window;
      - res(x x g) = res(x) res(g) for every multiplier g and every x in
        E, the window and the constituents of a x b' for a in it and b' a
        parent;
      - (a x b') x g = a x (b' x g) in the source, for a in the window and
        every parent edge: a fact about the source window alone, whose
        verdict the source keeps under "associative" and its stamp;
      - (x y) h = x (y h) in the target, for x restricted from the window,
        y from a parent and h from a multiplier.
    Then N res(a x b) = (res(a) res(b')) res(g) - sum of res(a) res(o) over
    the other constituents o of b' x g, which is N res(a) res(b).  False
    when a check fails, or when every window label is a generator (as on
    an explicit table), where the full scan costs no more."""
    source, target, res = r.source, r.target, r.restricted
    window = source.elements(depth)
    if set(window) <= set(source.generators):
        return False
    multipliers = list(source.generators)
    edges = _reach(source, window, multipliers)
    if any(_multiplicativity_failures(r, window, [source.unit])):
        return False
    parents = dict.fromkeys(p for _, p, _ in edges)
    checked = dict.fromkeys(window)
    for a in window:
        for p in parents:
            checked.update(dict.fromkeys(source.fusion[a, p]))
    if any(_multiplicativity_failures(r, checked, multipliers)):
        return False
    ys = dict.fromkeys(lam for p in parents for lam in res[p])
    hs = dict.fromkeys(lam for g in multipliers for lam in res[g])
    return (_kept(source, "associative", source.checked_depth(depth),
                  lambda: _associative(source, window, [(p, g) for _, p, g in edges]))
            and _associative(target, dict.fromkeys(lam for a in window for lam in res[a]),
                             [(y, h) for y in ys for h in hs]))


class NormalityResult(_Record):
    def __init__(self, normal: bool, witness: tuple | None = None,  # (tau, multiplicity, dim)
                 checked_depth: int | None = None):
        self.normal, self.witness, self.checked_depth = normal, witness, checked_depth

    def __bool__(self):
        return self.normal


def is_normal(r: RestrictionData, depth: int = 6) -> NormalityResult:
    """Normality test: the target unit's multiplicity in each restricted
    irreducible must be 0 or the full dimension."""
    checked = _require_valid(r, depth)
    for tau in r.source.elements(depth):
        m = r.restricted[tau].get(r.target.unit, 0)
        if m not in (0, r.source.dim(tau)):
            return NormalityResult(False, witness=(tau, m, r.source.dim(tau)),
                                   checked_depth=checked)
    return NormalityResult(True, checked_depth=checked)


class CentralSubgroupResult(_Record):
    def __init__(self, central: bool, assignment: dict[str, str] | None = None,
                 witness: tuple | None = None, checked_depth: int | None = None):
        self.central, self.assignment = central, assignment  # tau -> grouplike of the target
        self.witness, self.checked_depth = witness, checked_depth

    def __bool__(self):
        return self.central


def is_central_subgroup(r: RestrictionData, depth: int = 6) -> CentralSubgroupResult:
    """Centrality test: each irreducible must restrict to dim-many copies of
    a single dimension-1 target element; returns the grouplike assignment."""
    checked = _require_valid(r, depth)
    assignment = {}
    for tau in r.source.elements(depth):
        m = dict(r.restricted[tau])  # a copy: it may become the witness
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
    rule itself so it also covers constituents beyond the depth.  Members
    are walked in window order, so an error names the first failure.
    The answer is kept under "trivial" by source stamp; an error is not."""
    def subobject():
        _require_valid(r, depth)
        explored = r.source.elements(depth)
        inside = set(explored)
        trivially_restricts = Memo(  # each label is decided once per call
            lambda tau: r.restricted[tau] == {r.target.unit: r.source.dim(tau)})
        members = [tau for tau in explored if trivially_restricts[tau]]
        for a in members:
            if r.source.dual(a) in inside and not trivially_restricts[r.source.dual(a)]:
                raise InvalidRestriction(f"trivially-restricting set not dual-closed at {a!r}")
            for b in members:
                for c in r.source.fusion[a, b]:
                    # constituents beyond the depth are still checked via the rule
                    if not trivially_restricts[c]:
                        raise InvalidRestriction(
                            f"trivially-restricting set not fusion-closed: {c!r} in {a!r} x {b!r}")
        return Subobject(frozenset(members))

    return _kept(r, "trivial", r.source.checked_depth(depth), subobject)


def central_subgroup_cross_check(r: RestrictionData, depth: int = 6) -> bool:
    """Consistency check: the restriction centrality test must agree
    with the coset-group criterion on the trivially-restricting subobject."""
    by_restriction = is_central_subgroup(r, depth).central
    sigma = trivial_restriction_subobject(r, depth)
    by_cosets = is_central_subobject(r.source, sigma, depth).central
    if by_restriction != by_cosets:
        raise InternalInconsistency(
            f"centrality tests disagree for {r.name}: "
            f"restriction={by_restriction}, cosets={by_cosets}")
    return by_restriction


def _require_valid(r: RestrictionData, depth: int) -> int | None:
    """`r.source.checked_depth(depth)` once `r` is valid at `depth`, kept
    under "valid" and that stamp, so each source window is proved once;
    else InvalidRestriction."""
    def valid():
        report = validate_restriction(r, depth)
        if not report.ok:
            raise InvalidRestriction(str(report))
        return report.checked_depth

    return _kept(r, "valid", r.source.checked_depth(depth), valid)


def grouplikes(ring: FusionRing, depth: int = 6) -> GroupTable:
    """The group of dimension-1 basis elements (dual of the abelianization).

    The window's dim-1 elements are closed under fusion with
    `generated_subobject`, which raises DepthExceeded when the closure
    escapes the window; their products must be dim-1 singletons by the
    dimension homomorphism (verified).
    """
    table = _grouplikes_table(ring, depth)
    table.verify()
    return table


def _grouplikes_table(ring: FusionRing, depth: int) -> GroupTable:
    """`grouplikes` without the group-law check."""
    seeds = [l for l in ring.elements(depth) if ring.dim(l) == 1]
    elems = generated_subobject(ring, seeds, depth).sorted_in(ring)
    index = {l: i for i, l in enumerate(elems)}

    def times(a, b):
        supp = ring.fusion[a, b]
        if len(supp) != 1:
            raise InternalInconsistency(
                f"dim-1 product {a!r} x {b!r} not a singleton: {supp}")
        (c, n), = supp.items()
        if n != 1 or ring.dim(c) != 1:
            raise InternalInconsistency(
                f"dim-1 product {a!r} x {b!r} gave {supp}")
        return index[c]

    mult = tuple(tuple(times(a, b) for b in elems) for a in elems)
    return GroupTable(mult, index[ring.unit], tuple(elems))


def grouplikes_group(ring: FusionRing, depth: int = 6):
    """(GroupTable, GroupDescriptor) of the grouplikes, stamped as
    `chain_group` stamps its answer: on a window, by comparing the
    grouplike labels at `depth` and `depth`+1.  `identify_group` verifies
    the table; the labels at `depth`+1 need no group law."""
    table = _grouplikes_table(ring, depth)
    desc = identify_group(table)
    desc.flag = _depth_flag(
        ring, depth, lambda: _grouplikes_table(ring, depth + 1).labels == table.labels)
    return table, desc
