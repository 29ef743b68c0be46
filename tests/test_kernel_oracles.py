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
in the same order (or the same exception).  `reference_free_product`
multiplies words as tuples of letters, memoized on the tuples;
`free_product` must give the same supports, items and order.
"""

from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fusionrings as fr
from fusionrings.central import search_budget
from fusionrings.errors import DepthExceeded, InvalidRestriction, SearchBudgetExceeded
from fusionrings.ring import _associative, _reach

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
        assert fr.center_subobject(ring).members == inter, name


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
    assert _reach(ring, ring.elements(depth)) is not None
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
    edges = _reach(ring, window)
    failing = [(a, p, g) for a in window for _, p, g in edges
               if not _associative(ring, [a], [(p, g)])]
    assert failing == [("V4", "V3", "V1")]
    want = assert_same_restriction_report(fr.su2_weight_restriction(ring, zring), depth)
    assert [v[:2] for v in want[0]] == [("multiplicativity", ("V4", "V4"))]


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
    edges = _reach(source, window)
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
    source = _rep_d4_on_rho(broken=True)
    assert _reach(source, source.elements(2)) is None
    r = fr.RestrictionData(source, _rep_d4_on_rho(), lambda l: {l: 1}, name="identity")
    want = assert_same_restriction_report(r, 2)
    assert [v[:2] for v in want[0]] == [("multiplicativity", ("a", "b"))]
    assert assert_same_restriction_report(fr.identity_restriction(_rep_d4_on_rho()), 2)[0] == []


# ---------------------------------------------------------- free products


def reference_free_product(r1, r2):
    """The free product of two rings whose labels contain no `*`, fusing
    words as tuples of (factor, label) letters."""
    factors = (r1, r2)

    def letters_of(lab):
        if lab == "e":
            return ()
        out = []
        for piece in lab.split("*"):
            tag, _, flab = piece.partition(":")
            i = int(tag) - 1
            factors[i].dim(flab)
            out.append((i, flab))
        return tuple(out)

    def label_of(word):
        return "*".join(f"{i + 1}:{l}" for i, l in word) or "e"

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
