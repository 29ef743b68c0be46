"""The explicit-ring kernels against their straightforward forms.

`all_pairs_subobject` closes a seed by multiplying every pair of the
current set in each round; `pairwise_seed_lattice` closes every subset of
at most two labels and then joins every pair of lattice members until
nothing new appears; `reference_validate_ring` copies every support it
reads and sums the associativity terms in Counters.  `generated_subobject`,
`enumerate_central_subobjects` and `validate_ring` must give the same
answers, and the same violations in the same order.
"""

from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fusionrings as fr
from fusionrings.central import search_budget
from fusionrings.errors import DepthExceeded, SearchBudgetExceeded

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


# ------------------------------------------------------------------ rings


def _zn(n):
    return fr.group_ring(fr.cyclic_group(n))


def _reps3_cubed():
    reps3 = fr.rep_s3_ring()
    return fr.direct_product(fr.direct_product(reps3, reps3), reps3)


LATTICE_RINGS = {
    **{f"Z/{n}": (lambda n=n: _zn(n)) for n in (16, 24, 32, 40, 48)},
    "reps3^3": _reps3_cubed,
    "klein x Z/2": lambda: fr.direct_product(fr.group_ring(fr.klein_group()), _zn(2)),
    "S3 x reps3": lambda: fr.direct_product(fr.group_ring(fr.s3_group()), fr.rep_s3_ring()),
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


def test_lattice_budget_is_its_size(monkeypatch):
    ring = fr.direct_product(fr.group_ring(fr.klein_group()), _zn(2))
    size = len(fr.enumerate_central_subobjects(ring))  # abelian: every subobject
    assert size == 16
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", str(size))
    assert len(fr.enumerate_central_subobjects(ring)) == size
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", str(size - 1))
    for enumerate_lattice in (fr.enumerate_central_subobjects, pairwise_seed_lattice):
        with pytest.raises(SearchBudgetExceeded):
            enumerate_lattice(ring)


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


def test_validate_ring_matches_reference_on_truncated_file():
    ring = fr.load_ring(DATA / "su2_depth4.json", validate=False)
    assert_same_report(ring)
    # a truncated table missing pairs inside its depth skips those terms
    cut = _retabled(fr.rep_s3_ring(), drop=[("rho", "rho"), ("sgn", "rho")],
                    fusion={("rho", "sgn"): {"sgn": 1}}, truncated_at=1)
    assert not assert_same_report(cut).ok


@pytest.mark.parametrize("name,depths", [("su2", (1, 4, 8, 12)), ("au2", (1, 2, 3, 4))])
def test_validate_ring_matches_reference_on_generated_windows(name, depths):
    ring = fr.su2_ring() if name == "su2" else fr.au_word_ring(2)
    for depth in depths:
        assert_same_report(ring, depth)


BASES = {"Z/3": lambda: _zn(3), "Z/4": lambda: _zn(4), "reps3": fr.rep_s3_ring,
         "klein": lambda: fr.group_ring(fr.klein_group())}


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
    corrupt = _retabled(ring, fusion=fusion, dual=dual, drop=drop,
                        truncated_at=1 if drop else None)
    assert_same_report(corrupt)
