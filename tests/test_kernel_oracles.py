"""The explicit-ring kernels against their straightforward forms.

`all_pairs_subobject` closes a seed by multiplying every pair of the
current set in each round; `pairwise_seed_lattice` closes every subset of
at most two labels and then joins every pair of lattice members until
nothing new appears; `reference_validate_ring` copies every support it
reads and sums the associativity terms in Counters;
`reference_validate_restriction` checks multiplicativity on every pair of
the window, calling the rule for every label it reads.
`generated_subobject`, `enumerate_central_subobjects`, `validate_ring` and
`validate_restriction` must give the same answers, and the same violations
in the same order (or the same exception).  `reference_group_verify` scans
every triple of a group table; `GroupTable.verify` must pass or raise the
same `NotAGroup` message.  `reference_free_product`
multiplies words as tuples of letters, memoized on the tuples;
`free_product` must give the same supports, items and order.
`reference_sigma_cosets` and `reference_is_central_subobject` test every
pair of the window and every pair of coset blocks; `sigma_cosets` and
`is_central_subobject` must give every field of the same answers, or the
same error, on every call, whatever their coset memo holds.  On unions of chain classes the grading theorem is checked
against them: sigma is central exactly when `enumerate_central_subobjects`
lists it, and its table is the chain group's quotient by sigma's classes.
"""

import ast
import gc
import weakref
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fusionrings as fr
from fusionrings import automorph as automorph_module, catalog, central as central_module, \
    ring as ring_module, subgroups as subgroups_module
from fusionrings.central import _schreier, search_budget
from fusionrings.cli import resolve_catalog
from fusionrings.errors import (DepthExceeded, FusionRingError, InternalInconsistency,
                                InvalidRestriction, NotAGroup, NotASubobject,
                                SearchBudgetExceeded, UnknownLabel)
from fusionrings.ring import _associative, _reach
from fusionrings.subgroups import _multiplicative_on_generators
from conftest import kept
from test_chain_closure import random_tables
from union_find import UnionFind

DATA = Path(__file__).parent / "data"


def all_pairs_subobject(ring, seed, depth=None):
    allowed = set(ring.elements(depth))
    current = {ring.unit}
    for s in seed:
        ring.dim(s)
        current.add(s)
        current.add(ring.dual(s))
    if not current <= allowed:
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
        if not new <= allowed:
            raise DepthExceeded("closure escaped the depth bound")
        current |= new
    return fr.Subobject(frozenset(current))


def pairwise_seed_lattice(ring):
    budget = search_budget()
    labels = ring.labels()
    lattice = set()
    seeds = [frozenset()] + [frozenset([a]) for a in labels]
    seeds += [frozenset(p) for p in combinations(labels, 2)]
    for s in seeds:
        lattice.add(all_pairs_subobject(ring, s).members)
    while True:
        new = set()
        for s1 in lattice:
            for s2 in lattice:
                if len(lattice) + len(new) > budget:
                    raise SearchBudgetExceeded("central-subobject lattice too large")
                j = all_pairs_subobject(ring, s1 | s2).members
                if j not in lattice:
                    new.add(j)
        if not new:
            break
        lattice |= new
    out = [fr.Subobject(m) for m in lattice
           if fr.is_central_subobject(ring, fr.Subobject(m)).central]
    out.sort(key=lambda s: (len(s.members), tuple(sorted(s.members))))
    return out


def reference_validate_ring(ring, depth=6):
    report = fr.ValidationReport(checked_depth=ring.checked_depth(depth))
    labels = ring.elements(depth)
    unit = ring.unit

    def prod(a, b):
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
            lhs = ring.dim(a) * ring.dim(b)
            rhs = sum(n * ring.dim(c) for c, n in supp.items())
            if lhs != rhs:
                report.add("dim-homomorphism", (a, b), f"{lhs} != {rhs}")
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


def _violations(report):
    return [(v.axiom, v.witness, v.detail) for v in report.violations]


def assert_same_report(ring, depth=6):
    want = reference_validate_ring(ring, depth)
    got = fr.validate_ring(ring, depth)
    assert _violations(got) == _violations(want)
    assert str(got) == str(want)
    return want


def reference_group_verify(table):
    n, name, mult = table.size, table.labels, table.mult
    if not all(len(row) == n for row in mult):
        raise NotAGroup("table not square")
    if any(not (0 <= v < n) for row in mult for v in row):
        raise NotAGroup("table entry out of range")
    e = table.identity
    for a in range(n):
        if mult[e][a] != a or mult[a][e] != a:
            raise NotAGroup(f"identity law fails at {name[a]!r}")
    for a in range(n):
        if not any(mult[a][b] == e for b in range(n)):
            raise NotAGroup(f"no inverse for {name[a]!r}")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mult[mult[a][b]][c] != mult[a][mult[b][c]]:
                    raise NotAGroup("associativity fails at "
                                    f"({name[a]!r},{name[b]!r},{name[c]!r})")


def _verify_outcome(verify, table):
    try:
        verify(table)
    except NotAGroup as exc:
        return str(exc)
    return None


# ------------------------------------------------------------------ rings


def _zn(n):
    return fr.group_ring(fr.cyclic_group(n))


def _reps3_cubed():
    reps3 = fr.rep_s3_ring()
    return fr.direct_product(fr.direct_product(reps3, reps3), reps3)


def _steiner_loop():
    """The Steiner loop of order 10: the unit e and the points of AG(2, 3),
    p(3x + y) for (x, y) in (Z/3)^2, with x x = e and x y the third point
    of the line through x and y.  It has inverses and a unit but is not
    associative."""
    points = [(x, y) for x in range(3) for y in range(3)]

    def times(a, b):  # element 0 is e, element 1 + k is p(k)
        if 0 in (a, b):
            return a + b
        if a == b:
            return 0
        x, y = (-(u + v) % 3 for u, v in zip(points[a - 1], points[b - 1]))
        return 1 + 3 * x + y

    return fr.GroupTable(tuple(tuple(times(a, b) for b in range(10)) for a in range(10)), 0,
                         ("e",) + tuple(f"p{k}" for k in range(9)))


def _steiner_ring():
    g = _steiner_loop()
    name = g.labels
    return fr.FusionRing.explicit([fr.BasisElement(a, 1) for a in name], "e",
                                  {a: a for a in name},
                                  {(name[a], name[b]): {name[c]: 1}
                                   for a, row in enumerate(g.mult) for b, c in enumerate(row)},
                                  name="steiner")


LATTICE_RINGS = {
    **{f"Z/{n}": (lambda n=n: _zn(n)) for n in (16, 24, 32, 40, 48)},
    "reps3^3": _reps3_cubed,
    "klein x Z/2": lambda: fr.direct_product(fr.group_ring(fr.klein_group()), _zn(2)),
    "S3 x reps3": lambda: fr.direct_product(fr.group_ring(fr.s3_group()), fr.rep_s3_ring()),
    # its chain group S3 x S3 has a normal subgroup that is not a product:
    # the pairs (a, b) with sign a = sign b
    "S3 x S3": lambda: fr.direct_product(fr.group_ring(fr.s3_group()),
                                         fr.group_ring(fr.s3_group())),
}


def _retabled(ring, fusion=(), dual=(), dims=(), drop=(), truncated_at=None):
    """`ring`'s table with some entries replaced or dropped."""
    labels = ring.labels()
    table = {(a, b): ring.product(a, b) for a in labels for b in labels}
    table.update(dict(fusion))
    for pair in drop:
        del table[pair]
    duals = {a: ring.dual(a) for a in labels}
    duals.update(dict(dual))
    dims = dict(dims)
    basis = [fr.BasisElement(a, dims.get(a, ring.dim(a))) for a in labels]
    return fr.FusionRing.explicit(basis, ring.unit, duals, table, name="corrupt",
                                  truncated_at=truncated_at)


# axiom -> a table that breaks it (among others, possibly)
CORRUPTED = {
    "dual-involution": lambda: _retabled(_zn(3), dual={"g1": "g1"}),
    "dual-dim": lambda: _retabled(fr.rep_s3_ring(), dual={"sgn": "rho", "rho": "sgn"}),
    "dual-unit": lambda: _retabled(_zn(3), dual={"e": "g1"}),
    "unit-dim": lambda: _retabled(_zn(2), dims={"e": 2}),
    "unit-law": lambda: _retabled(_zn(3), fusion={("e", "g1"): {"g2": 1}}),
    "duality": lambda: _retabled(_zn(3), fusion={("g1", "g2"): {"e": 2}}),
    "dim-homomorphism": lambda: _retabled(fr.rep_s3_ring(),
                                          fusion={("rho", "rho"): {"1": 1, "sgn": 1, "rho": 2}}),
    "frobenius": lambda: _retabled(_zn(3), fusion={("g1", "g1"): {"g1": 1}}),
    "conjugation": lambda: _retabled(fr.group_ring(fr.s3_group()),
                                     fusion={("r", "s"): {"sr": 1}}),
    "associativity": lambda: _retabled(_zn(4), fusion={("g1", "g1"): {"g3": 1},
                                                       ("g3", "g3"): {"g1": 1}}),
}


# --------------------------------------------------------------- lattice


def test_lattice_matches_pairwise_seeds_on_explicit_fixtures(explicit_fixtures):
    for name, ring in explicit_fixtures.items():
        assert fr.enumerate_central_subobjects(ring) == pairwise_seed_lattice(ring), name


@pytest.mark.parametrize("name", sorted(LATTICE_RINGS))
def test_lattice_matches_pairwise_seeds(name):
    ring = LATTICE_RINGS[name]()
    assert fr.enumerate_central_subobjects(ring) == pairwise_seed_lattice(ring)


def test_center_is_the_lattice_intersection(explicit_fixtures):
    rings = {**explicit_fixtures, "S3 x reps3": LATTICE_RINGS["S3 x reps3"](),
             "reps3^3": _reps3_cubed()}
    for name, ring in rings.items():
        inter = frozenset(ring.labels())
        for sub in pairwise_seed_lattice(ring):
            inter &= sub.members
        center = fr.center_subobject(ring)
        assert center.members == inter, name
        adjoint = fr.generated_subobject(
            ring, [c for x in ring.labels() for c in ring.fusion[x, ring.dual(x)]])
        assert adjoint == center, name  # Gelaki-Nikshych: the adjoint subobject


def test_lattice_budget_is_its_size(monkeypatch):
    def make():
        return fr.direct_product(fr.group_ring(fr.klein_group()), _zn(2))

    ring = make()
    size = len(fr.enumerate_central_subobjects(ring))  # abelian: every subobject
    assert size == 16
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", str(size))
    assert len(fr.enumerate_central_subobjects(ring)) == size
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", str(size - 1))
    raised = []
    # the lattice kept on `ring` raises as the search on a fresh ring does
    for enumerate_lattice, r in ((fr.enumerate_central_subobjects, ring),
                                 (fr.enumerate_central_subobjects, make()),
                                 (pairwise_seed_lattice, ring)):
        with pytest.raises(SearchBudgetExceeded) as info:
            enumerate_lattice(r)
        raised.append((str(info.value), info.value.nodes, info.value.budget))
    assert raised[0] == raised[1]
    assert raised[0][2] == size - 1 < raised[0][1]
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", str(size))
    assert len(fr.enumerate_central_subobjects(ring)) == size


def _z2_4():
    """(Z/2)^4, whose chain group has 1 + 15 + 35 + 15 + 1 = 67 subgroups."""
    klein_z2 = fr.direct_product(fr.group_ring(fr.klein_group()), _zn(2))
    return fr.direct_product(klein_z2, _zn(2))


_LATTICE_TOO_LARGE = "central-subobject lattice too large"


@pytest.mark.parametrize("make, budget", [
    (lambda: _zn(1), 0), (lambda: _zn(2), 0),
    (_z2_4, 0), (_z2_4, 1), (_z2_4, 3), (_z2_4, 10),
], ids=["Z/1-0", "Z/2-0", "(Z/2)^4-0", "(Z/2)^4-1", "(Z/2)^4-3", "(Z/2)^4-10"])
def test_the_lattice_raises_at_its_first_subgroup_over_the_budget(monkeypatch, make, budget):
    # as the automorphism search counts its nodes: every subgroup held is
    # counted, the trivial one first, so the count that raises is budget + 1
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", str(budget))
    ring = make()
    with pytest.raises(SearchBudgetExceeded) as info:
        fr.enumerate_central_subobjects(ring)
    assert (str(info.value), info.value.nodes, info.value.budget) == (
        _LATTICE_TOO_LARGE, budget + 1, budget)
    assert kept(_schreier(ring, 0)[1], "normals") == {}  # a raising search keeps nothing


@pytest.mark.parametrize("budget", [0, 3, 66])
def test_a_kept_lattice_over_the_budget_raises_without_searching(monkeypatch, budget):
    ring, fresh = _z2_4(), _z2_4()
    assert len(fr.enumerate_central_subobjects(ring)) == 67
    calls = []
    subgroup = central_module.GroupTable.subgroup

    def counted(self, gens):
        calls.append(gens)
        return subgroup(self, gens)

    monkeypatch.setattr(central_module.GroupTable, "subgroup", counted)
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", str(budget))
    raised = []
    for r in (ring, fresh):  # the kept lattice, then a fresh search
        with pytest.raises(SearchBudgetExceeded) as info:
            fr.enumerate_central_subobjects(r)
        raised.append((str(info.value), info.value.nodes, info.value.budget, len(calls)))
    assert raised[0] == (_LATTICE_TOO_LARGE, budget + 1, budget, 0)
    assert raised[1][:3] == raised[0][:3] and raised[1][3] > 0


def _closure_outcome(close, ring, seed, depth=None, message=True):
    try:
        return close(ring, seed, depth)
    except DepthExceeded as exc:
        return ("DepthExceeded", str(exc) if message else None)


def _lopsided():
    """A table where a x b = {a} except 1 x b = {b}, x x y = {z} and
    x x z = {w}: closing {x, y} reaches w only through x x z, a product of
    an older label by the newest one."""
    labels = ["1", "x", "y", "z", "w"]
    table = {(a, b): {b if a == "1" else a: 1} for a in labels for b in labels}
    table[("x", "y")] = {"z": 1}
    table[("x", "z")] = {"w": 1}
    return fr.FusionRing.explicit([fr.BasisElement(a, 1) for a in labels], "1",
                                  {a: a for a in labels}, table, name="lopsided")


WINDOWS = {"su2": (fr.su2_ring(), 12), "au2": (fr.au_word_ring(2), 4),
           "Z/24": (_zn(24), 1), "lopsided": (_lopsided(), 1)}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_generated_subobject_matches_all_pairs(data):
    ring, max_depth = WINDOWS[data.draw(st.sampled_from(sorted(WINDOWS)))]
    depth = data.draw(st.integers(0, max_depth))
    # seeds may reach one level past the window
    pool = ring.elements(depth + 1)
    seed = data.draw(st.lists(st.sampled_from(pool), max_size=3))
    assert (_closure_outcome(fr.generated_subobject, ring, seed, depth)
            == _closure_outcome(all_pairs_subobject, ring, seed, depth))


def test_generated_subobject_multiplies_in_both_orders():
    ring = _lopsided()
    got = fr.generated_subobject(ring, ["x", "y"])
    assert got == all_pairs_subobject(ring, ["x", "y"])
    assert "w" in got


def test_generated_subobject_on_truncated_table():
    # which missing pair a closure meets first depends on set order, so
    # only the outcome's kind is compared
    ring = fr.load_ring(DATA / "su2_depth4.json", validate=False)
    for seed in ([], ["V1"], ["V2"], ["V4"], ["V1", "V2"]):
        assert (_closure_outcome(fr.generated_subobject, ring, seed, message=False)
                == _closure_outcome(all_pairs_subobject, ring, seed, message=False)), seed


# ------------------------------------------------------------- validation


@pytest.mark.parametrize("axiom", sorted(CORRUPTED))
def test_validate_ring_matches_reference_on_corrupted_table(axiom):
    report = assert_same_report(CORRUPTED[axiom]())
    assert axiom in {v.axiom for v in report.violations}


# axiom -> an associative table that breaks it: Light's test passes, the
# law loop of `validate_ring` without the Frobenius laws reports a
# violation, and the loop with them writes the report
ASSOCIATIVE_CORRUPTED = {
    "duality": lambda: _retabled(fr.group_ring(fr.klein_group()), dual={"a": "b", "b": "a"}),
    "dual-dim": lambda: _retabled(fr.rep_s3_ring(), dual={"sgn": "rho", "rho": "sgn"}),
    "dim-homomorphism": lambda: _retabled(fr.group_ring(fr.s3_group()), dims={"s": 2}),
    "unit-dim": lambda: _retabled(_zn(2), dims={"e": 2}),
    # (rho, rho) breaks duality, the dimension homomorphism and Frobenius
    "frobenius": lambda: _retabled(fr.rep_s3_ring(), dual={"sgn": "rho", "rho": "sgn"},
                                   dims={"rho": 3}),
}


@pytest.mark.parametrize("axiom", sorted(ASSOCIATIVE_CORRUPTED))
def test_validate_ring_matches_reference_on_associative_corrupted_table(axiom):
    ring = ASSOCIATIVE_CORRUPTED[axiom]()
    report = assert_same_report(ring)
    assert axiom in {v.axiom for v in report.violations}
    assert kept(ring, "light") == {None: True}


def test_a_pairs_dimension_violation_precedes_its_constituent_violations():
    report = assert_same_report(ASSOCIATIVE_CORRUPTED["frobenius"]())
    assert len(report.violations) == 23
    assert [v.axiom for v in report.violations if v.witness[:2] == ("rho", "rho")] == [
        "duality", "dim-homomorphism", "frobenius", "frobenius", "frobenius", "frobenius",
        "conjugation", "conjugation"]


def test_proved_associative_table_skips_the_associativity_scan(monkeypatch):
    # a broken dim fails the one pass, but Light's test has proved the table
    # associative, so the loops write the report without the n^3 scan
    ring = _retabled(_zn(16), dims={"g5": 2})
    report = assert_same_report(ring)
    assert kept(ring, "light") == {None: True}
    scans = []
    kernel = ring_module._associativity_failures
    monkeypatch.setattr(ring_module, "_associativity_failures",
                        lambda *args: scans.append(args) or kernel(*args))
    del ring.answers["report", None]  # so the laws run again, with the verdict kept
    assert str(fr.validate_ring(ring)) == str(report)
    assert scans == []


@pytest.mark.parametrize("axiom", ["associativity", "dim-homomorphism"])
def test_validation_keeps_one_report_and_hands_out_copies(axiom):
    ring = CORRUPTED[axiom]()
    want = assert_same_report(ring)
    got = fr.validate_ring(ring)
    got.violations.clear()
    got.add("unit-law", ("e",), "edited")
    assert _violations(fr.validate_ring(ring, 3)) == _violations(want)
    assert list(kept(ring, "report")) == [None]  # one window: the complete table
    su2 = fr.su2_ring()
    assert fr.validate_ring(su2, 4).ok and fr.validate_ring(su2, 5).ok
    assert list(kept(su2, "report")) == [4, 5]


def test_validate_ring_matches_reference_on_truncated_file():
    ring = fr.load_ring(DATA / "su2_depth4.json", validate=False)
    assert_same_report(ring)
    # a truncated table missing pairs inside its depth skips those terms
    cut = _retabled(fr.rep_s3_ring(), drop=[("rho", "rho"), ("sgn", "rho")],
                    fusion={("rho", "sgn"): {"sgn": 1}}, truncated_at=1)
    assert not assert_same_report(cut).ok


@pytest.mark.parametrize("name,depths", [
    ("su2", (1, 4, 8, 12)), ("au2", (1, 2, 3, 4)), ("su2'", (4, 5)), ("su2|4 x su2", (1,))])
def test_validate_ring_matches_reference_on_generated_windows(name, depths):
    # su2' (V4 x V4 loses its top constituent) has violations on its windows;
    # su2|4 x su2 has window pairs its truncated factor cannot multiply
    ring = {"su2": fr.su2_ring, "au2": lambda: fr.au_word_ring(2),
            "su2'": lambda: _su2_with_square(4),
            "su2|4 x su2": lambda: fr.direct_product(fr.load_ring(DATA / "su2_depth4.json"),
                                                     fr.su2_ring())}[name]()
    for depth in depths:
        assert assert_same_report(ring, depth).checked_depth == depth


BASES = {"Z/3": lambda: _zn(3), "Z/4": lambda: _zn(4), "Z/8": lambda: _zn(8),
         "reps3": fr.rep_s3_ring, "klein": lambda: fr.group_ring(fr.klein_group()),
         "steiner": _steiner_ring, "s3": lambda: fr.group_ring(fr.s3_group())}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_validate_ring_matches_reference_on_random_corruption(data):
    ring = BASES[data.draw(st.sampled_from(sorted(BASES)))]()
    labels = list(ring.labels())
    label = st.sampled_from(labels)
    pairs = data.draw(st.lists(st.tuples(label, label), max_size=3, unique=True))
    supports = st.dictionaries(label, st.integers(1, 2), min_size=1, max_size=3)
    fusion = {p: data.draw(supports) for p in pairs}
    dual = data.draw(st.dictionaries(label, label, max_size=2))
    drop = data.draw(st.lists(st.tuples(label, label), max_size=2, unique=True))
    drop = [p for p in drop if p not in fusion]
    # a label and its dual get the same drawn dim, so that on an associative
    # table it is the dimension homomorphism that breaks
    drawn = data.draw(st.dictionaries(label, st.integers(1, 3), max_size=2))
    dims = {x: n for a, n in drawn.items() for x in (a, ring.dual(a))}
    corrupt = _retabled(ring, fusion=fusion, dual=dual, dims=dims, drop=drop,
                        truncated_at=1 if drop else None)
    assert_same_report(corrupt)


def test_validate_ring_matches_reference_on_the_steiner_loop():
    report = assert_same_report(_steiner_ring())
    assert len(report.violations) == 432
    assert {v.axiom for v in report.violations} == {"associativity"}
    assert report.violations[0].witness == ("p0", "p1", "p3")


def test_light_check_fails_on_a_commutative_table_that_is_not_associative():
    """The Steiner loop's table is commutative, so Light's check runs on
    half the triples, and still fails."""
    ring = _steiner_ring()
    labels = ring.labels()
    assert all(ring.fusion[a, b] == ring.fusion[b, a] for a in labels for b in labels)
    assert ring_module._light_middle(ring, labels) is None
    assert kept(ring, "light") == {None: False}
    assert len(assert_same_report(ring).violations) == 432
    # the CLI's copy of the table
    loaded = fr.load_ring(DATA / "steiner10.json", validate=False)
    assert loaded.labels() == labels
    assert all(loaded.product(a, b) == ring.product(a, b) for a in labels for b in labels)


def test_light_check_takes_every_triple_of_a_table_that_does_not_commute():
    """x1 x2 = x2 but x2 x1 = x3.  On this table the triples (x, b, y) with
    x no later than y hold for both labels b of B, but not all triples."""
    labels = ["x0", "x1", "x2", "x3"]
    rows = {"x1": "x1 x2 x3", "x2": "x3 x2 x3", "x3": "x2 x2 x3"}
    table = {(a, b): {c: 1} for a, row in rows.items() for b, c in zip(labels[1:], row.split())}
    table.update({p: {a: 1} for a in labels for p in (("x0", a), (a, "x0"))})
    ring = fr.FusionRing.explicit([fr.BasisElement(l, 1) for l in labels], "x0",
                                  {l: l for l in labels}, table)
    pairs = [(b, c) for b in ("x1", "x2") for c in labels]
    upto = {c: i + 1 for i, c in enumerate(labels)}
    assert _associative(ring, labels, pairs, upto) and not _associative(ring, labels, pairs)
    assert ring_module._light_middle(ring, labels) is None
    assert kept(ring, "light") == {None: False}
    assert not assert_same_report(ring).ok


# commutative rings, each table associative
COMMUTATIVE = {"Z/3": lambda: _zn(3), "Z/8": lambda: _zn(8), "reps3": fr.rep_s3_ring,
               "repz4": fr.rep_z4_ring, "klein": lambda: fr.group_ring(fr.klein_group())}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_light_check_on_half_the_triples_of_a_commutative_table(data):
    """On a commutative table (x b) y = x (b y) exactly when (y b) x =
    y (b x), so the triples with x no later than y decide as all do.  The
    tables are random ones, or commutative rings with a few entries
    changed, each made symmetric and given the unit law."""
    if data.draw(st.booleans()):
        labels, table = data.draw(random_tables())
    else:
        ring = COMMUTATIVE[data.draw(st.sampled_from(sorted(COMMUTATIVE)))]()
        labels = list(ring.labels())
        table = {(a, b): ring.product(a, b) for a in labels for b in labels}
        label = st.sampled_from(labels)
        supports = st.dictionaries(label, st.integers(1, 2), min_size=1, max_size=3)
        for pair in data.draw(st.lists(st.tuples(label, label), max_size=2)):
            table[pair] = data.draw(supports)
    unit = labels[0]
    table.update({(b, a): table[a, b] for i, a in enumerate(labels) for b in labels[i + 1:]})
    table.update({p: {a: 1} for a in labels for p in ((unit, a), (a, unit))})
    ring = fr.FusionRing.explicit([fr.BasisElement(l, 1) for l in labels], unit,
                                  {l: l for l in labels}, table)
    upto = {c: i + 1 for i, c in enumerate(labels)}
    middle = data.draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    pairs = [(b, c) for b in middle for c in labels]
    assert _associative(ring, labels, pairs, upto) == _associative(ring, labels, pairs)
    every = _associative(ring, labels, [(b, c) for b in labels for c in labels])
    assert (ring_module._light_middle(ring, labels) is not None) == every


@pytest.mark.parametrize("name", sorted(LATTICE_RINGS))
def test_laws_on_the_middle_set_decide_as_the_whole_loop(name):
    """With associativity, the unit law and the involution, the dimension
    and conjugation laws on the pairs (a, b) with b in Light's middle set B
    give them on every pair.  So on a proved table with one dim, one
    label's and its dual's dim, or one dual changed, the loop restricted to
    B passes exactly when the whole loop does."""
    base = LATTICE_RINGS[name]()
    labels = base.labels()
    middle = ring_module._light_middle(base, labels)
    assert middle is not None and ring_module._laws(base, labels, middle).ok
    for i, a in enumerate(labels):
        dim = base.dim(a) + 1
        for ring in (_retabled(base, dims={a: dim}),
                     _retabled(base, dims={a: dim, base.dual(a): dim}),
                     _retabled(base, dual={a: labels[(i + 1) % len(labels)]})):
            assert ring_module._light_middle(ring, labels) == middle
            assert (ring_module._laws(ring, labels, middle).ok
                    == ring_module._laws(ring, labels).ok), (name, a)


def _light_triples(monkeypatch):
    """The triples each `_associativity_failures` call from now on is asked
    to check, one count per call."""
    counts = []
    kernel = ring_module._associativity_failures

    def counted(ring, xs, pairs, upto=None):
        xs, pairs = list(xs), list(pairs)
        counts.append(sum(len(xs) if upto is None else upto[h] for _, h in pairs))
        return kernel(ring, xs, pairs, upto)

    monkeypatch.setattr(ring_module, "_associativity_failures", counted)
    return counts


class _CountedReads(ring_module.Memo):
    """A fusion table that records the keys `get` is asked for."""

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)


@pytest.mark.parametrize("name,triples,walked", [("Z/48", 1176, 48), ("reps3^3", 2268, 162)])
def test_light_check_and_laws_counts(monkeypatch, name, triples, walked):
    """Light's check multiplies half the triples (x, b, y) of these
    commutative tables, and `_laws` walks the constituents of the pairs
    (a, b) with b in B only.  `_laws` reads each pair once for duality, the
    two unit products of each label, and one more entry, the conjugate
    pair, for each pair whose constituents it walks."""
    ring = LATTICE_RINGS[name]()
    n = len(ring.labels())
    fusion = _CountedReads(ring.fusion.fill)
    fusion.update(ring.fusion)
    ring.fusion, fusion.asked = fusion, []
    counts = _light_triples(monkeypatch)
    assert fr.validate_ring(ring).ok
    assert counts == [triples]
    assert len(fusion.asked) - n * n - 2 * n == walked


# ------------------------------------------------------------ group tables


def test_group_verify_on_the_steiner_loop_names_the_first_triple():
    table = _steiner_loop()
    message = "associativity fails at ('p0','p1','p3')"
    assert _verify_outcome(reference_group_verify, table) == message
    assert _verify_outcome(fr.GroupTable.verify, table) == message
    with pytest.raises(NotAGroup):
        fr.group_ring(table)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_group_verify_matches_reference(data):
    n = data.draw(st.integers(1, 7))
    e = data.draw(st.integers(0, n - 1))
    # from Z/n with the identity moved to e, or from nothing
    cyclic = data.draw(st.booleans())
    mult = [[(a + b - e) % n if cyclic else None for b in range(n)] for a in range(n)]
    mult[e] = list(range(n))
    for a in range(n):
        mult[a][e] = a
    cells = [(a, b) for a in range(n) for b in range(n) if e not in (a, b)]
    changed = (data.draw(st.lists(st.sampled_from(cells), max_size=3, unique=True))
               if cyclic and cells else cells)
    for a, b in changed:
        mult[a][b] = data.draw(st.integers(0, n - 1))
    table = fr.GroupTable(tuple(map(tuple, mult)), e, tuple(f"x{a}" for a in range(n)))
    assert (_verify_outcome(fr.GroupTable.verify, table)
            == _verify_outcome(reference_group_verify, table))


# ------------------------------------------------------- restriction data


def reference_validate_restriction(r, depth=6):
    report = fr.ValidationReport(checked_depth=r.source.checked_depth(depth))
    explored = r.source.elements(depth)
    unit_map = r.restrict(r.source.unit)
    if unit_map != {r.target.unit: 1}:
        report.add("unit", (r.source.unit,), f"unit restricts to {unit_map}")
    for tau in explored:
        m = r.restrict(tau)
        for lam in m:
            r.target.dim(lam)
        want = r.source.dim(tau)
        got = sum(n * r.target.dim(lam) for lam, n in m.items())
        if got != want:
            report.add("dimension", (tau,), f"{got} != dim {want}")
        dual_m = {r.target.dual(lam): n for lam, n in m.items()}
        if r.restrict(r.source.dual(tau)) != dual_m:
            report.add("conjugation", (tau,), "map(dual tau) != dual of map(tau)")
    for a in explored:
        ma = r.restrict(a)
        for b in explored:
            mb = r.restrict(b)
            lhs = Counter()
            for x, n in ma.items():
                for y, m in mb.items():
                    for c, k in r.target.product(x, y).items():
                        lhs[c] += n * m * k
            rhs = Counter()
            for c, n in r.source.product(a, b).items():
                for lam, m in r.restrict(c).items():
                    rhs[lam] += n * m
            if lhs != rhs:
                report.add("multiplicativity", (a, b), f"{dict(lhs)} != {dict(rhs)}")
    return report


def _restriction_outcome(validate, r, depth):
    try:
        report = validate(r, depth)
    except Exception as exc:
        return (type(exc), str(exc))
    return (_violations(report), str(report))


def assert_same_restriction_report(r, depth=6):
    want = _restriction_outcome(reference_validate_restriction, r, depth)
    assert _restriction_outcome(fr.validate_restriction, r, depth) == want
    return want


# name -> the restriction on a fresh su2
SU2_RESTRICTIONS = {
    "parity": lambda: fr.su2_parity_restriction(fr.su2_ring(), _zn(2)),
    "weights": lambda: fr.su2_weight_restriction(fr.su2_ring(), fr.z_group_ring()),
    "identity": lambda: fr.identity_restriction(fr.su2_ring()),
    "trivial": lambda: fr.trivial_restriction(fr.su2_ring(), _zn(1)),
}


def _corrupted(r, label, multiset):
    """`r` with `label` restricting to `multiset`."""
    return fr.RestrictionData(r.source, r.target,
                              lambda l: dict(multiset) if l == label else r.rule(l),
                              name="corrupt")


def _kept_shape(name, k, data):
    """A corruption of V_k's restriction that keeps its dimension and its
    conjugation symmetry, so only multiplicativity can catch it (None when
    there is none)."""
    if name == "parity":
        n = data.draw(st.integers(0, k + 1))
        return {l: m for l, m in (("e", n), ("g1", k + 1 - n)) if m}
    if name == "weights" and k >= 1:
        j = data.draw(st.sampled_from(range(k, 0, -2)))
        shift = data.draw(st.sampled_from((2, 4)))
        m = Counter({f"z{w}": 1 for w in range(-k, k + 1, 2)})
        m.subtract({f"z{j}": 1, f"z{-j}": 1})
        m.update({f"z{j + shift}": 1, f"z{-j - shift}": 1})
        return {l: n for l, n in m.items() if n}
    if name == "identity" and k >= 1:
        j = data.draw(st.integers(0, k - 1))
        return dict(Counter([f"V{j}", f"V{k - 1 - j}"]))
    return None


def _target_pool(name, depth):
    top = 2 * depth + 2
    return {"parity": ["e", "g1"],
            "weights": [f"z{w}" for w in range(-top, top + 1)],
            "identity": [f"V{n}" for n in range(top + 1)],
            "trivial": ["e"]}[name]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_validate_restriction_matches_reference_on_corruption(data):
    name = data.draw(st.sampled_from(sorted(SU2_RESTRICTIONS)))
    r = SU2_RESTRICTIONS[name]()
    depth = data.draw(st.integers(0, 6))
    # inside the window, or beyond it among the constituents of its products
    k = data.draw(st.integers(0, 2 * depth))
    multiset = None
    if data.draw(st.booleans()):
        multiset = _kept_shape(name, k, data)
    if multiset is None:
        pool = st.sampled_from(_target_pool(name, depth))
        multiset = data.draw(st.dictionaries(pool, st.integers(1, 3), min_size=1, max_size=3))
    assert_same_restriction_report(_corrupted(r, f"V{k}", multiset), depth)


@pytest.mark.parametrize("name", sorted(SU2_RESTRICTIONS))
def test_validate_restriction_matches_reference_on_su2(name):
    r = SU2_RESTRICTIONS[name]()
    for depth in (0, 1, 2, 5, 8):
        assert assert_same_restriction_report(r, depth)[1] == f"valid (checked to depth {depth})"


def test_validate_restriction_matches_reference_on_weights_at_depth_30():
    r = SU2_RESTRICTIONS["weights"]()
    assert assert_same_restriction_report(r, 30)[1] == "valid (checked to depth 30)"


def test_validate_restriction_matches_reference_on_fixtures(explicit_fixtures, z2ring):
    trivial = _zn(1)
    for name, ring in explicit_fixtures.items():
        for r in (fr.identity_restriction(ring), fr.trivial_restriction(ring, trivial)):
            assert assert_same_restriction_report(r)[1] == "valid", name
    bad = {"chi0": {"e": 1}, "chi1": {"g1": 1}, "chi2": {"g1": 1}, "chi3": {"e": 1}}
    r = fr.RestrictionData.from_dict(fr.rep_z4_ring(), z2ring, bad)
    assert not assert_same_restriction_report(r)[1].startswith("valid")


@pytest.mark.parametrize("name,depth", [
    ("so3", 6), ("au2", 3), ("z", 8), ("su2*Z/2", 3), ("su2xsu2", 3), ("su2xso3", 3)])
def test_validate_restriction_matches_reference_on_generated_sources(name, depth):
    su2, so3 = fr.su2_ring(), fr.so3_ring()
    ring = {"so3": lambda: so3, "au2": lambda: fr.au_word_ring(2),
            "z": fr.z_group_ring, "su2*Z/2": lambda: fr.free_product(su2, _zn(2)),
            "su2xsu2": lambda: fr.direct_product(su2, fr.su2_ring()),
            "su2xso3": lambda: fr.direct_product(su2, so3)}[name]()
    multipliers = list(ring.generators)
    _reach(ring, ring.elements(depth), multipliers)
    assert multipliers == list(ring.generators)
    for r in (fr.identity_restriction(ring), fr.trivial_restriction(ring, _zn(1))):
        assert assert_same_restriction_report(r, depth)[1].startswith("valid"), r.name


@pytest.mark.parametrize("depth", [1, 2, 4, 6])
def test_map_without_entries_beyond_the_window(depth, zring):
    su2 = fr.su2_ring()
    window = {f"V{n}": {f"z{w}": 1 for w in range(-n, n + 1, 2)} for n in range(depth + 1)}
    r = fr.RestrictionData.from_dict(su2, zring, window)
    want = assert_same_restriction_report(r, depth)
    assert want == (InvalidRestriction, f"no restriction entry for 'V{depth + 1}'")
    # with entries to twice the depth the map is valid
    full = {f"V{n}": {f"z{w}": 1 for w in range(-n, n + 1, 2)} for n in range(2 * depth + 1)}
    r = fr.RestrictionData.from_dict(su2, zring, full)
    assert assert_same_restriction_report(r, depth)[1].startswith("valid")


def _su2_with_square(depth):
    """su2 in which V_depth x V_depth loses its top constituent: x V1 and
    every product that discovery, the reach and the generator identities
    read are unchanged."""
    su2 = fr.su2_ring()
    top = f"V{depth}"

    def fuse(a, b):
        supp = su2.product(a, b)
        if a == b == top:
            del supp[f"V{2 * depth}"]
            supp[f"V{2 * depth - 2}"] += 1
        return supp

    return fr.FusionRing.generated("V0", ["V1"], fuse, su2.dual, su2.dim, name="su2'")


def test_non_associative_source_falls_back_to_the_full_scan(zring):
    depth = 4
    ring = _su2_with_square(depth)
    window = ring.elements(depth)
    edges = _reach(ring, window, list(ring.generators))
    failing = [(a, p, g) for a in window for _, p, g in edges
               if not _associative(ring, [a], [(p, g)])]
    assert failing == [("V4", "V3", "V1")]
    want = assert_same_restriction_report(fr.su2_weight_restriction(ring, zring), depth)
    assert [v[:2] for v in want[0]] == [("multiplicativity", ("V4", "V4"))]


def _premise_runs(monkeypatch):
    """The rings of the `_associativity_failures` calls from now on, one
    entry per call."""
    runs = []
    kernel = ring_module._associativity_failures

    def counted(ring, xs, pairs, upto=None):
        runs.append(ring)
        return kernel(ring, xs, pairs, upto)

    monkeypatch.setattr(ring_module, "_associativity_failures", counted)
    return runs


def test_restrictions_from_one_source_window_prove_its_premise_once(monkeypatch):
    runs = _premise_runs(monkeypatch)
    su2 = fr.su2_ring()
    for r in (fr.su2_parity_restriction(su2, _zn(2)),
              fr.su2_weight_restriction(su2, fr.z_group_ring())):
        assert assert_same_restriction_report(r, 30)[1] == "valid (checked to depth 30)"
    assert [ring for ring in runs if ring is su2] == [su2]
    assert kept(su2, "associative") == {30: True}
    # the verdict belongs to the ring: a fresh su2 proves its premise again
    fresh = fr.su2_ring()
    assert fr.validate_restriction(fr.su2_parity_restriction(fresh, _zn(2)), 30).ok
    assert [ring for ring in runs if ring is fresh] == [fresh]


def test_a_failed_source_premise_is_kept_and_each_restriction_scans(monkeypatch):
    depth = 4
    ring = _su2_with_square(depth)
    runs = _premise_runs(monkeypatch)
    for r in (fr.su2_weight_restriction(ring, fr.z_group_ring()),
              fr.su2_parity_restriction(ring, _zn(2))):
        want = assert_same_restriction_report(r, depth)
        assert [v[:2] for v in want[0]] == [("multiplicativity", ("V4", "V4"))]
    assert [r for r in runs if r is ring] == [ring] and kept(ring, "associative") == {depth: False}


def test_a_source_premise_that_raises_is_not_kept(monkeypatch):
    su2 = fr.su2_ring()
    kernel = ring_module._associativity_failures
    runs = []

    def flaky(ring, xs, pairs, upto=None):  # the first premise on su2 raises
        if ring is su2:
            runs.append(ring)
            if len(runs) == 1:
                raise RuntimeError("premise")
        return kernel(ring, xs, pairs, upto)

    monkeypatch.setattr(ring_module, "_associativity_failures", flaky)
    r = fr.su2_weight_restriction(su2, fr.z_group_ring())
    assert assert_same_restriction_report(r, 6)[1] == "valid (checked to depth 6)"
    assert len(runs) == 1 and kept(su2, "associative") == {}
    assert assert_same_restriction_report(r, 6)[1] == "valid (checked to depth 6)"
    assert len(runs) == 2 and kept(su2, "associative") == {6: True}


def test_non_associative_target_falls_back_to_the_full_scan(su2):
    z = fr.z_group_ring()

    def fuse(a, b):  # z2 x z2 = z5; products with z1 and z-1 are untouched
        return {"z5": 1} if a == b == "z2" else z.product(a, b)

    target = fr.FusionRing.generated("z0", ["z1", "z-1"], fuse, z.dual, z.dim, name="z'")
    want = assert_same_restriction_report(fr.su2_weight_restriction(su2, target), 4)
    assert ("multiplicativity", ("V2", "V2")) in [v[:2] for v in want[0]]


def test_target_raising_beyond_the_full_scan_falls_back(su2):
    """The generator identities multiply restricted labels from beyond the
    window; an error there must not reach the caller when the full scan,
    which never multiplies them, passes."""
    depth = 3
    z = fr.z_group_ring()

    def fuse(a, b):
        if abs(int(a[1:])) > depth:
            raise DepthExceeded(f"{a} x {b}")
        return z.product(a, b)

    target = fr.FusionRing.generated("z0", ["z1", "z-1"], fuse, z.dual, z.dim, name="z'")
    want = assert_same_restriction_report(fr.su2_weight_restriction(su2, target), depth)
    assert want[1] == f"valid (checked to depth {depth})"


def _rep_s3_on_rho(broken=False):
    """Rep(S3) generated by its 2-dimensional label rho.  `broken` sets
    sgn x 1 = 1 and sgn x sgn = sgn: every generator identity and every
    associativity instance of the reduced check still holds, and only the
    identity on the unit sees the fault."""
    def fuse(x, y):
        if broken and (x, y) in (("sgn", "1"), ("sgn", "sgn")):
            return {y: 1}
        if x == "1" or y == "1":
            return {y if x == "1" else x: 1}
        if x == y == "rho":
            return {"1": 1, "sgn": 1, "rho": 1}
        if x == y == "sgn":
            return {"1": 1}
        return {"rho": 1}

    return fr.FusionRing.generated("1", ["rho"], fuse, lambda x: x,
                                   lambda x: 2 if x == "rho" else 1, name="Rep(S3)")


def test_source_without_unit_law_falls_back_to_the_full_scan():
    source = _rep_s3_on_rho(broken=True)
    window = source.elements(2)
    edges = _reach(source, window, list(source.generators))
    assert [b for b, _, _ in edges] == ["rho", "sgn"]
    assert _associative(source, window, [(p, g) for _, p, g in edges])
    r = fr.RestrictionData(source, _rep_s3_on_rho(), lambda l: {l: 1}, name="identity")
    want = assert_same_restriction_report(r, 2)
    assert [v[:2] for v in want[0]] == [("multiplicativity", ("sgn", "1")),
                                        ("multiplicativity", ("sgn", "sgn"))]
    assert assert_same_restriction_report(fr.identity_restriction(_rep_s3_on_rho()), 2)[0] == []


def _rep_d4_on_rho(broken=False):
    """Rep(D4) generated by its 2-dimensional label rho: a, b, c multiply as
    the Klein group and rho x rho = 1 + a + b + c, so the reach stalls at
    a, b and c.  `broken` sets a x b = 1."""
    klein = {"1": (0, 0), "a": (1, 0), "b": (0, 1), "c": (1, 1)}
    name = {v: k for k, v in klein.items()}

    def fuse(x, y):
        if x == y == "rho":
            return {l: 1 for l in klein}
        if "rho" in (x, y):
            return {"rho": 1}
        if broken and (x, y) == ("a", "b"):
            return {"1": 1}
        (p, q), (r, s) = klein[x], klein[y]
        return {name[(p ^ r, q ^ s)]: 1}

    return fr.FusionRing.generated("1", ["rho"], fuse, lambda x: x,
                                   lambda x: 2 if x == "rho" else 1, name="Rep(D4)")


def test_stalled_reach_falls_back_to_the_full_scan():
    source = _rep_d4_on_rho()
    multipliers = list(source.generators)
    _reach(source, source.elements(2), multipliers)
    assert multipliers == ["rho", "a", "b"]
    assert _multiplicative_on_generators(fr.identity_restriction(source), 2) is True
    source = _rep_d4_on_rho(broken=True)
    r = fr.RestrictionData(source, _rep_d4_on_rho(), lambda l: {l: 1}, name="identity")
    want = assert_same_restriction_report(r, 2)
    assert [v[:2] for v in want[0]] == [("multiplicativity", ("a", "b"))]
    assert assert_same_restriction_report(fr.identity_restriction(_rep_d4_on_rho()), 2)[0] == []


# ---------------------------------------------------------- free products


def reference_free_product(r1, r2):
    """The free product of two rings, fusing words as tuples of (factor,
    label) letters.  A letter whose label is itself a word, from a nested
    free product, is written `i:[word]`, and words split only outside
    brackets."""
    factors = (r1, r2)

    def letters_of(lab):
        if lab == "e":
            return ()
        out = []
        for piece in catalog.split_outside_brackets(lab, "*"):
            tag, _, flab = piece.partition(":")
            if flab[:1] == "[":
                flab = flab[1:-1]
            i = int(tag) - 1
            factors[i].dim(flab)
            out.append((i, flab))
        return tuple(out)

    def label_of(word):
        return "*".join(f"{i + 1}:[{l}]" if "*" in l else f"{i + 1}:{l}" for i, l in word) or "e"

    memo = {}

    def fuse(s, t):
        if not s:
            return Counter({t: 1})
        if not t:
            return Counter({s: 1})
        if (s, t) not in memo:
            (fi, sl), (fj, tl) = s[-1], t[0]
            out = Counter()
            if fi != fj:
                out[s + t] = 1
            else:
                fac = factors[fi]
                for c, m in fac.product(sl, tl).items():
                    if c == fac.unit:
                        for w, k in fuse(s[:-1], t[1:]).items():
                            out[w] += m * k
                    else:
                        out[s[:-1] + ((fi, c),) + t[1:]] += m
            memo[(s, t)] = out
        return memo[(s, t)]

    def oracle(x, y):
        return {label_of(w): m for w, m in fuse(letters_of(x), letters_of(y)).items()}

    def dual_fn(lab):
        return label_of(tuple((i, factors[i].dual(l)) for i, l in reversed(letters_of(lab))))

    def dim_fn(lab):
        d = 1
        for i, l in letters_of(lab):
            d *= factors[i].dim(l)
        return d

    gens = [label_of(((i, g),)) for i, fac in enumerate(factors)
            for g in fac.generators if g != fac.unit]
    return fr.FusionRing.generated("e", gens, oracle, dual_fn=dual_fn, dim_fn=dim_fn)


FREE_FACTORS = {
    "su2*Z/2": (fr.su2_ring, lambda: _zn(2), 6),
    "Z/2*Z/3": (lambda: _zn(2), lambda: _zn(3), 6),
    "reps3*Z/2": (fr.rep_s3_ring, lambda: _zn(2), 3),
    "S3*reps3": (lambda: fr.group_ring(fr.s3_group()), fr.rep_s3_ring, 3),
}


@pytest.mark.parametrize("name", sorted(FREE_FACTORS))
def test_free_product_matches_reference(name):
    make1, make2, depth = FREE_FACTORS[name]
    ring = fr.free_product(make1(), make2())
    want = reference_free_product(make1(), make2())
    window = ring.elements(depth)
    assert window == want.elements(depth)
    for x in window:
        assert ring.dual(x) == want.dual(x) and ring.dim(x) == want.dim(x)
        for y in window:
            # the constituents of window pairs reach past the window
            assert list(ring.product(x, y).items()) == list(want.product(x, y).items())


NESTED_FREE = {
    "free:zn:2+free:zn:2+zn:3": lambda free: free(_zn(2), free(_zn(2), _zn(3))),
    "free:(free:zn:2+zn:3)+z": lambda free: free(free(_zn(2), _zn(3)), fr.z_group_ring()),
}


@pytest.mark.parametrize("name", sorted(NESTED_FREE))
def test_a_nested_free_product_matches_reference(name):
    """The catalog's nested free product against the reference built of
    references, at depths 0-4: windows, duals, dims and the products of
    window pairs, whose constituents carry bracketed letters."""
    ring, want = resolve_catalog(name), NESTED_FREE[name](reference_free_product)
    for depth in range(5):
        window = ring.elements(depth)
        assert window == want.elements(depth), depth
    for x in window:
        assert ring.dual(x) == want.dual(x) and ring.dim(x) == want.dim(x)
        for y in window:
            assert list(ring.product(x, y).items()) == list(want.product(x, y).items())


def _splits(monkeypatch):
    """How often `catalog.split_outside_brackets` splits each text from now on."""
    seen = Counter()
    split = catalog.split_outside_brackets

    def counted(text, sep):
        seen[text, sep] += 1
        return split(text, sep)

    monkeypatch.setattr(catalog, "split_outside_brackets", counted)
    return seen


@pytest.mark.parametrize("ask", [
    lambda: fr.chain_group(fr.direct_product(fr.su2_ring(), fr.su2_ring()), 8),
    lambda: fr.chain_group(fr.free_product(fr.su2_ring(), fr.direct_product(_zn(2), _zn(2))), 3),
], ids=["su2xsu2 d8", "su2*(Z/2xZ/2) d3"])
def test_a_generated_label_is_parsed_once_per_ring(monkeypatch, ask):
    seen = _splits(monkeypatch)
    ask()
    assert seen and max(seen.values()) == 1


@pytest.mark.parametrize("make, pair", [(fr.su2_ring, ("V03", "V1")),
                                        (fr.z_group_ring, ("z01", "z1"))], ids=["su2", "z"])
def test_a_failed_parse_raises_on_every_read(make, pair):
    ring = make()
    ring.elements(4)
    for _ in range(3):
        with pytest.raises(UnknownLabel):
            ring.fusion[pair]
    assert pair not in ring.fusion


# ------------------------------------------------- cosets and centrality


def reference_sigma_cosets(ring, sigma, depth=6):
    """Every pair of the window tested against sigma, reading the
    product and the dual afresh for each pair."""
    sigma = fr.check_subobject(ring, sigma.members, depth=depth)
    explored = ring.elements(depth)
    uf = UnionFind()
    for i, a in enumerate(explored):
        for b in explored[i + 1:]:
            if any(c in sigma.members for c in ring.product(a, ring.dual(b))):
                uf.union(a, b)
    part = fr.CosetPartition.from_classes(ring, uf.find, explored)
    unit_block = set(part.blocks[part.identity_block])
    if unit_block != sigma.members & set(explored):
        raise InternalInconsistency(
            f"unit block {sorted(unit_block)} != sigma {sorted(sigma.members)} "
            "on the explored basis")
    return part


def reference_is_central_subobject(ring, sigma, depth=6):
    """Every pair of coset blocks multiplied, member by member."""
    part = reference_sigma_cosets(ring, sigma, depth)
    blocks, block_of = part.blocks, part.block_of
    products = {}
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            seen = set()
            for a in bi:
                for b in bj:
                    for c in ring.product(a, b):
                        if c in block_of:
                            seen.add(block_of[c])
                    if len(seen) > 1:
                        return fr.CentralityResult(False, part,
                                                   witness=(i, j, (a, b), sorted(seen)))
            if seen:
                products[(i, j)] = seen.pop()
    n = len(blocks)
    if len(products) < n * n:
        return fr.CentralityResult(True, part)
    mult = tuple(tuple(products[(i, j)] for j in range(n)) for i in range(n))
    table = fr.GroupTable(mult, part.identity_block, tuple(blk[0] for blk in blocks))
    table.verify()
    return fr.CentralityResult(True, part, table=table)


def _centrality_outcome(cosets, central, ring, sigma, depth):
    """Every field of both answers, or the error either raises."""
    try:
        part, res = cosets(ring, sigma, depth), central(ring, sigma, depth)
    except FusionRingError as exc:
        return type(exc).__name__, str(exc)
    t = res.table
    return (part.blocks, part.identity_block, part.explored, part.block_of,
            res.central, res.partition.blocks, res.partition.identity_block,
            res.partition.explored, res.witness,
            None if t is None else (t.mult, t.identity, t.labels))


def assert_same_centrality(make, sigma, depth=6):
    """The library against the references, on a fresh ring and on one
    whose chain memo holds the window at 2 * depth, each asked twice: the
    second time the coset memo holds what the first kept."""
    want = _centrality_outcome(reference_sigma_cosets, reference_is_central_subobject,
                               make(), sigma, depth)
    warm = make()
    _schreier(warm, 2 * depth)
    for ring in (make(), make(), warm):
        for _ in range(2):
            got = _centrality_outcome(fr.sigma_cosets, fr.is_central_subobject,
                                      ring, sigma, depth)
            assert got == want, (sorted(sigma.members), depth)
    return got


def _sub(labels):
    return fr.Subobject(frozenset(labels))


def _balanced(ring, length):
    return _sub(x for x in ring.elements(length) if x.count("u") == x.count("v"))


def _unit_class(ring, depth):
    part = fr.merge_closure(ring, depth)
    return _sub(part.blocks[part.identity_block])


def _evens(n):
    return [f"V{k}" for k in range(0, n + 1, 2)]


# the subobjects asked about in session-queries, and the windows that
# border them: (name, ring, sigma from the ring, depth)
WINDOW_CASES = [
    ("su2 unit", fr.su2_ring, lambda r: _sub(["V0"]), 30),
    ("su2 even", fr.su2_ring, lambda r: _sub(_evens(30)), 30),
    ("su2 even to 2d", fr.su2_ring, lambda r: _sub(_evens(60)), 30),
    ("so3 unit", fr.so3_ring, lambda r: _sub(["W0"]), 20),
    ("so3 whole", fr.so3_ring, lambda r: _sub(r.elements(20)), 20),
    ("au2 unit", lambda: fr.au_word_ring(2), lambda r: _sub(["e"]), 4),
    *((f"au2 balanced to 2d, d{d}", lambda: fr.au_word_ring(2),
       lambda r, d=d: _balanced(r, 2 * d), d) for d in (1, 2, 3, 4)),
    ("au3 balanced to 2d", lambda: fr.au_word_ring(3), lambda r: _balanced(r, 6), 3),
    *((f"z unit d{d}", fr.z_group_ring, lambda r: _sub(["z0"]), d) for d in (1, 3, 10, 30)),
    *((f"{name} unit class at 2d, d{d}", make, lambda r, d=d: _unit_class(r, 2 * d), d)
      for name, make in (("su2*Z/2", lambda: fr.free_product(fr.su2_ring(), _zn(2))),
                         ("Z/2*Z/3", lambda: fr.free_product(_zn(2), _zn(3))),
                         ("z x Z/2", lambda: fr.direct_product(fr.z_group_ring(), _zn(2))),
                         ("au2 x z", lambda: fr.direct_product(fr.au_word_ring(2),
                                                               fr.z_group_ring())))
      for d in (1, 2, 3)),
    # polynomial growth: deep enough that the closure on elements(2d) is cheap
    *((f"{name} unit class at 2d, d{d}", make, lambda r, d=d: _unit_class(r, 2 * d), d)
      for name, make, d in (
          ("z x Z/2", lambda: fr.direct_product(fr.z_group_ring(), _zn(2)), 15),
          ("z x z", lambda: fr.direct_product(fr.z_group_ring(), fr.z_group_ring()), 8),
          ("so3 x z", lambda: fr.direct_product(fr.so3_ring(), fr.z_group_ring()), 8),
          ("su2 x z", lambda: fr.direct_product(fr.su2_ring(), fr.z_group_ring()), 8))),
    ("z x Z/2 unit class at d", lambda: fr.direct_product(fr.z_group_ring(), _zn(2)),
     lambda r: _unit_class(r, 3), 3),
    ("parity kernel", fr.su2_ring, lambda r: fr.trivial_restriction_subobject(
        fr.su2_parity_restriction(r, _zn(2)), 30), 30),
    ("weights kernel", fr.su2_ring, lambda r: fr.trivial_restriction_subobject(
        fr.su2_weight_restriction(r, fr.z_group_ring()), 30), 30),
]


@pytest.mark.parametrize("case", WINDOW_CASES, ids=[c[0] for c in WINDOW_CASES])
def test_cosets_and_centrality_match_reference_on_windows(case):
    _, make, sigma, depth = case
    assert_same_centrality(make, sigma(make()), depth)


# window answers that any route read off the chain classes must keep: a
# guard on the classes at depth d alone, or on sigma's window part alone,
# got these wrong
def test_su2_even_labels_and_v31_stay_inconsistent():
    got = assert_same_centrality(fr.su2_ring, _sub(_evens(30) + ["V31"]), 30)
    assert got[0] == "InternalInconsistency"


@pytest.mark.parametrize("depth, blocks", [(3, 9), (4, 11)])
def test_au2_balanced_words_within_the_window(depth, blocks):
    ring = fr.au_word_ring(2)
    got = assert_same_centrality(lambda: fr.au_word_ring(2), _balanced(ring, depth), depth)
    assert len(got[0]) == blocks


def test_z_subobject_beyond_the_unit():
    got = assert_same_centrality(fr.z_group_ring, _sub(["z0", "z5", "z-5"]), 3)
    assert [list(b) for b in got[0]] == [["z0"], ["z1"], ["z-1"], ["z2", "z-3"],
                                         ["z-2", "z3"]]


EXPLICIT_STRUCTURE = {
    **{f"Z/{n}": (lambda n=n: _zn(n)) for n in (16, 24, 32, 40, 48)},
    "s3": lambda: fr.group_ring(fr.s3_group()),
    "klein": lambda: fr.group_ring(fr.klein_group()),
    "reps3": fr.rep_s3_ring,
    "repz4": fr.rep_z4_ring,
    "reps3^3": _reps3_cubed,
    "klein x Z/2": LATTICE_RINGS["klein x Z/2"],
    "S3 x reps3": LATTICE_RINGS["S3 x reps3"],
}


def _small_subobjects(ring):
    """The central subobjects and every subobject generated by at most two
    labels: the joins of at most two principal subobjects."""
    principal = {fr.generated_subobject(ring, [a]).members for a in ring.labels()}
    out = {fr.generated_subobject(ring, p | q).members
           for p in principal for q in principal}
    return sorted(out | {s.members for s in fr.enumerate_central_subobjects(ring)},
                  key=lambda m: (len(m), sorted(m)))


@pytest.mark.parametrize("name", sorted(EXPLICIT_STRUCTURE))
def test_cosets_and_centrality_match_reference_on_explicit_rings(name):
    make = EXPLICIT_STRUCTURE[name]
    for members in _small_subobjects(make()):
        assert_same_centrality(make, fr.Subobject(members))


CLASS_UNION_RINGS = {
    **{f"Z/{n}": (lambda n=n: _zn(n)) for n in range(1, 25)},
    "klein x Z/2": LATTICE_RINGS["klein x Z/2"],
    "S3 x reps3": LATTICE_RINGS["S3 x reps3"],
    "S3 x S3": LATTICE_RINGS["S3 x S3"],
    "repz4 x Z/3": lambda: fr.direct_product(fr.rep_z4_ring(), _zn(3)),
    "reps3 x Z/2": lambda: fr.direct_product(fr.rep_s3_ring(), _zn(2)),
}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cosets_and_centrality_match_reference_on_unions_of_classes(data):
    name = data.draw(st.sampled_from(sorted(CLASS_UNION_RINGS)))
    make = CLASS_UNION_RINGS[name]
    part = fr.merge_closure(make())
    chosen = data.draw(st.sets(st.sampled_from(range(len(part.blocks)))))
    sigma = fr.Subobject(frozenset(x for i in chosen | {part.identity_block}
                                   for x in part.blocks[i]))
    if isinstance(assert_same_centrality(make, sigma)[0], str):
        return  # not a subobject: both raised the same error
    # the grading theorem against the pairwise answer: sigma is central
    # exactly when it is the classes of a normal H, and its table is U/H
    ring = make()
    res = fr.is_central_subobject(ring, sigma)
    assert res.central == (sigma in fr.enumerate_central_subobjects(ring))
    if res.central:
        h = frozenset(i for i, blk in enumerate(part.blocks) if sigma.members.issuperset(blk))
        assert res.table == fr.chain_group(ring)[0].quotient(h)


def _chain_group_answer(ring, depth, sigma, candidates=None):
    table, desc = fr.chain_group(ring, depth, candidates)
    return table.to_json() if isinstance(table, fr.GroupTable) else table, desc.to_json()


def _is_central_answer(ring, depth, sigma):
    res = fr.is_central_subobject(ring, sigma, depth)
    return (res.central, res.partition.to_json(), res.witness,
            None if res.table is None else res.table.to_json())


def _report_answer(ring, depth, sigma):
    report = fr.validate_ring(ring, depth)
    return [(v.axiom, v.witness, v.detail) for v in report.violations], report.checked_depth


def _action_answer(ring, depth, sigma):
    auto = fr.automorphisms(ring, min(depth, 3))[-1]
    return fr.action_on_chain_group(ring, auto, depth)


# every reader of the kept chain group, cosets (`sigma_cosets` and
# `is_central_subobject`) and `chain_oracle` partitions, answering as plain
# data; each must answer the same cold and beside the others that fill them
MEMO_READERS = {
    "chain_group": _chain_group_answer,
    "chain_group+candidates": lambda ring, depth, sigma: _chain_group_answer(
        ring, depth, sigma,
        {"C2": fr.cyclic_group(2), "C12": fr.cyclic_group(12), "S3": fr.s3_group()}),
    "validate_ring": _report_answer,
    "center_subobject": lambda ring, depth, sigma: fr.center_subobject(ring, depth),
    "enumerate_central_subobjects":
        lambda ring, depth, sigma: ring.is_explicit and fr.enumerate_central_subobjects(ring),
    "sigma_cosets": lambda ring, depth, sigma: fr.sigma_cosets(ring, sigma, depth).to_json(),
    "is_central_subobject": _is_central_answer,
    "action_on_chain_group": _action_answer,
    "chain_oracle": lambda ring, depth, sigma: ring.is_explicit and fr.chain_oracle(ring).to_json(),
}

MEMO_RINGS = {
    "su2": (fr.su2_ring, 6, lambda r: _sub(["V0"])),
    "z": (fr.z_group_ring, 6, lambda r: _sub(["z0"])),
    "au2": (lambda: fr.au_word_ring(2), 3, lambda r: _balanced(r, 6)),
    "su2*Z/2": (lambda: fr.free_product(fr.su2_ring(), _zn(2)), 3,
                lambda r: _unit_class(r, 6)),
    "Z/12": (lambda: _zn(12), 6, lambda r: _sub(["e", "g4", "g8"])),
    "S3 x reps3": (LATTICE_RINGS["S3 x reps3"], 6, lambda r: _unit_class(r, 6)),
}


@pytest.mark.parametrize("name", sorted(MEMO_RINGS))
@pytest.mark.parametrize("reader", sorted(MEMO_READERS))
def test_memo_readers_answer_the_same_cold_and_warm(name, reader):
    make, depth, sigma = MEMO_RINGS[name]
    ask = MEMO_READERS[reader]
    ring = make()
    cold = ask(ring, depth, sigma(make()))
    ring = make()
    for other, ask_other in MEMO_READERS.items():
        if other != reader:
            ask_other(ring, depth, sigma(make()))
    assert kept(ring, "chain") and kept(ring, "cosets")
    assert ask(ring, depth, sigma(make())) == cold


def test_chain_oracle_keeps_its_partition_apart_from_the_chain_memo():
    ring = fr.group_ring(fr.s3_group())
    part = fr.chain_oracle(ring)
    assert fr.chain_oracle(ring) is part and not kept(ring, "chain")
    fr.chain_oracle(ring, 2)
    assert list(kept(ring, "oracle")) == [6, 2]
    assert _schreier(ring, 0)[0] is not part and list(kept(ring, "oracle")) == [6, 2]


def _containers(owner):
    """The public attributes of `owner` that hold a dict or a set."""
    return [name for name, value in vars(owner).items()
            if isinstance(value, (dict, set)) and not name.startswith("_")]


@pytest.mark.parametrize("name", sorted(MEMO_RINGS))
def test_every_kept_answer_lives_in_one_store_per_owner(name):
    # beside the three tables a ring holds one store, and a restriction
    # one beside its restricted table, whatever has been asked
    make, depth, sigma = MEMO_RINGS[name]
    ring = make()
    for ask in MEMO_READERS.values():
        ask(ring, depth, sigma(make()))
    r = fr.identity_restriction(ring)
    for ask in (fr.is_normal, fr.trivial_restriction_subobject, fr.central_subgroup_cross_check):
        ask(r, depth)
    assert _containers(ring) == ["fusion", "duals", "dims", "answers"]
    assert _containers(r) == ["restricted", "answers"]
    assert kept(ring, "chain") and kept(ring, "cosets") and kept(r, "valid") and kept(r, "trivial")


def _su2_weights():
    return fr.su2_weight_restriction(fr.su2_ring(), fr.z_group_ring())


def _su2_parity():
    return fr.su2_parity_restriction(fr.su2_ring(), _zn(2))


# each kept question: a fresh owner, a reader that asks it, and the object
# that keeps its answer
KEPT_QUESTIONS = {
    "chain": (fr.su2_ring, lambda ring: fr.chain_group(ring, 4), lambda ring: ring),
    "graded": (fr.su2_ring, lambda ring: fr.center_subobject(ring, 4), lambda ring: ring),
    "center": (fr.su2_ring, lambda ring: fr.center_subobject(ring, 4), lambda ring: ring),
    "cosets": (fr.su2_ring, lambda ring: fr.sigma_cosets(ring, _sub(_evens(4)), 4),
               lambda ring: ring),
    "centrality": (lambda: _zn(6), lambda ring: fr.is_central_subobject(ring, _sub(["e", "g3"])),
                   lambda ring: ring),
    "report": (lambda: _zn(6), fr.validate_ring, lambda ring: ring),
    "light": (lambda: _zn(6), fr.validate_ring, lambda ring: ring),
    "automorphisms": (lambda: _zn(6), fr.automorphisms, lambda ring: ring),
    "oracle": (lambda: _zn(6), fr.chain_oracle, lambda ring: ring),
    "associative": (_su2_weights, lambda r: fr.validate_restriction(r, 6), lambda r: r.source),
    "valid": (_su2_parity, lambda r: fr.is_normal(r, 6), lambda r: r),
    "trivial": (_su2_parity, lambda r: fr.trivial_restriction_subobject(r, 6), lambda r: r),
}


@pytest.mark.parametrize("question", sorted(KEPT_QUESTIONS))
def test_a_compute_that_raises_keeps_nothing(monkeypatch, question):
    make, ask, keeper = KEPT_QUESTIONS[question]
    fresh, owner = ask(make()), make()
    real, raised = ring_module._kept, []

    def flaky(owner, asked, key, compute):
        def fail():
            raised.append(asked)
            raise RuntimeError("the compute failed")

        return real(owner, asked, key, fail if asked == question and not raised else compute)

    for module in (ring_module, central_module, subgroups_module, automorph_module):
        monkeypatch.setattr(module, "_kept", flaky)
    try:
        ask(owner)
    except RuntimeError:
        pass  # `validate_restriction` falls back to its full scan instead
    assert raised == [question] and kept(keeper(owner), question) == {}
    assert ask(owner) == fresh and kept(keeper(owner), question)


@pytest.mark.parametrize("make", [
    fr.su2_ring, lambda: fr.au_word_ring(2), fr.z_group_ring,
    lambda: fr.direct_product(fr.su2_ring(), fr.su2_ring()),
    # the free product's oracle reads its own table, through a weak proxy
    lambda: fr.free_product(fr.su2_ring(), _zn(2)),
], ids=["su2", "au(2)", "z", "su2xsu2", "su2*Z/2"])
def test_a_ring_is_freed_without_the_cycle_collector(make):
    ring = make()
    fr.chain_group(ring, 6)
    fr.center_subobject(ring, 6)
    fr.is_central_subobject(ring, _sub([ring.unit]), 6)
    assert kept(ring, "chain") and [key in kept(ring, "centrality")
                                    for key in kept(ring, "cosets")] == [True]
    assert all(ring.dim(x) and ring.dual(x) for x in ring.elements(6))  # fill every table
    refs = [weakref.ref(t) for t in (ring, ring.fusion, ring.duals, ring.dims)]
    gc.disable()
    try:
        del ring
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _answer_store_readers(node, scope=()):
    """The scopes, as dotted names, whose code names `answers`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and child.attr == "answers" or \
                isinstance(child, ast.Constant) and child.value == "answers":
            yield ".".join(scope)
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _answer_store_readers(child, scope + (child.name,) if named else scope)


def test_only_kept_and_the_constructors_touch_the_answer_store():
    readers = {(path.name, scope) for path in Path(fr.__file__).parent.glob("*.py")
               for scope in _answer_store_readers(ast.parse(path.read_text()))}
    assert readers == {("ring.py", "_kept"), ("ring.py", "FusionRing.__init__"),
                       ("subgroups.py", "RestrictionData.__init__")}


# ------------------------------------------------------- the coset memo


@pytest.mark.parametrize("ask", [fr.sigma_cosets, fr.is_central_subobject],
                         ids=["sigma_cosets", "is_central_subobject"])
@pytest.mark.parametrize("sigma, depth, error", [
    (["V0", "V1"], 6, NotASubobject),
    (_evens(30) + ["V31"], 30, InternalInconsistency),
], ids=["not a subobject", "su2 even and V31"])
def test_coset_errors_recur_and_are_not_kept(ask, sigma, depth, error):
    ring = fr.su2_ring()
    messages = set()
    for _ in range(3):
        with pytest.raises(error) as info:
            ask(ring, _sub(sigma), depth)
        messages.add(str(info.value))
    assert len(messages) == 1 and not kept(ring, "cosets") and not kept(ring, "centrality")


def test_a_non_transitive_partition_warns_on_every_call(monkeypatch, non_transitive_ring):
    # the partition is kept once, with its flag, and so is the verdict on it
    ring, verdicts = non_transitive_ring, []
    centrality = central_module._centrality
    monkeypatch.setattr(central_module, "_centrality",
                        lambda *args: verdicts.append(centrality(*args)) or verdicts[-1])
    answers = []
    for ask in (fr.sigma_cosets, fr.is_central_subobject) * 2:
        with pytest.warns(UserWarning, match="not transitive") as caught:
            answers.append(ask(ring, _sub(["1"])))
        assert len(caught) == 1
    (part, warned), = kept(ring, "cosets").values()
    assert warned and part.block_of["x"] == part.block_of["z"]
    assert answers[0] is part is answers[2] and answers[1] is answers[3] is verdicts[0]
    assert len(verdicts) == 1 and list(kept(ring, "centrality").values()) == verdicts


def test_a_warned_partition_whose_unit_block_is_not_sigma_warns_then_raises(non_transitive_ring):
    # a dual map that is no involution, dual(x) = 1, puts x in the unit's block
    labels = non_transitive_ring.labels()
    ring = fr.FusionRing.explicit(non_transitive_ring.basis, "1",
                                  {**{l: l for l in labels}, "x": "1"},
                                  {(a, b): non_transitive_ring.fusion[a, b]
                                   for a in labels for b in labels})
    for ask in (fr.sigma_cosets, fr.is_central_subobject) * 2:
        with pytest.warns(UserWarning, match="not transitive"), \
                pytest.raises(InternalInconsistency, match="unit block"):
            ask(ring, _sub(["1"]))
    assert not kept(ring, "cosets") and not kept(ring, "centrality")


def test_a_block_table_that_is_no_group_raises_on_every_call():
    # the Steiner loop's cosets of {e} are its elements, whose table is not associative
    ring = _steiner_ring()
    messages = set()
    for _ in range(3):
        with pytest.raises(NotAGroup) as info:
            fr.is_central_subobject(ring, _sub(["e"]))
        messages.add(str(info.value))
    assert messages == {"associativity fails at ('p0','p1','p3')"}
    # the partition is kept, the failed verdict is not
    assert [key in kept(ring, "centrality") for key in kept(ring, "cosets")] == [False]


@pytest.mark.parametrize("first", [3, 4])
def test_au2_windows_keep_their_own_cosets(first):
    # one entry per subobject and window: the balanced words up to length d
    # give 9 and 11 blocks, and those up to length 4 give 7 at depth 3
    ring = fr.au_word_ring(2)
    asks = [(d, length) for d in (first, 7 - first) for length in (d, 4)]
    for _ in range(2):
        got = {(d, length): len(fr.sigma_cosets(ring, _balanced(ring, length), d).blocks)
               for d, length in asks}
        assert got == {(3, 3): 9, (3, 4): 7, (4, 4): 11}
    assert len(kept(ring, "cosets")) == 3
