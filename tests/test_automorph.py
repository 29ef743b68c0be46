"""Fusion-ring symmetries: search, verification, chain-group action."""

import tracemalloc
from collections import Counter
from itertools import permutations

import pytest

import fusionrings as fr
from fusionrings import central as central_module, ring as ring_module
from fusionrings.automorph import _invariants, _label_invariant
from test_automorph_oracles import (EXPLICIT, _loop_ring, _rep_d4_on_rho, _reps3_cubed_reversed,
                                    _zn, label_backtracking, reference)
from test_kernel_oracles import CORRUPTED, _steiner_ring


def _compose(f, g):
    """f after g, as label dicts over a common domain."""
    return {x: f[y] for x, y in g.items()}


class TestExplicitSearch:
    def test_rep_s3_rigid(self, reps3):
        autos = fr.automorphisms(reps3)
        assert len(autos) == 1
        assert autos[0].is_identity

    def test_z3_ring_has_inversion(self, z3ring):
        autos = fr.automorphisms(z3ring)
        assert len(autos) == 2
        flips = [a for a in autos if not a.is_identity]
        assert flips[0].to_json()["g1"] == "g2"

    def test_klein_ring_full_linear_group(self, kleinring):
        autos = fr.automorphisms(kleinring)
        assert len(autos) == 6

    def test_s3_group_ring_inner_and_outer(self, s3ring):
        # Aut(S3) has order 6
        assert len(fr.automorphisms(s3ring)) == 6

    def test_verify_rejects_non_automorphism(self, repz4):
        phi = {"chi0": "chi0", "chi1": "chi2", "chi2": "chi1", "chi3": "chi3"}
        ok = fr.automorph.verify_automorphism(repz4, phi)
        assert not ok

    def test_verify_rejects_map_missing_a_label(self, repz4):
        phi = {"chi0": "chi0", "chi1": "chi3", "chi2": "chi2"}
        assert not fr.automorph.verify_automorphism(repz4, phi)

    def test_verify_accepts_inversion(self, repz4):
        phi = {"chi0": "chi0", "chi1": "chi3", "chi2": "chi2", "chi3": "chi1"}
        ok = fr.automorph.verify_automorphism(repz4, phi)
        assert ok


class TestGeneratedSearch:
    def test_su2_rigid(self, su2):
        autos = fr.automorphisms(su2, depth=4)
        assert len(autos) == 1

    def test_au_letter_swap(self, au2):
        autos = fr.automorphisms(au2, depth=3)
        assert len(autos) == 2
        swap = [a for a in autos if not a.is_identity][0]
        assert swap.to_json()["u"] == "v"
        assert swap.to_json()["uv"] == "vu"

    def test_z_ring_inversion(self, zring):
        autos = fr.automorphisms(zring, depth=3)
        assert len(autos) == 2


def test_search_budget_bounds_the_search(monkeypatch, reps3, su2):
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", "1")
    for ring in (reps3, su2):
        with pytest.raises(fr.SearchBudgetExceeded):
            fr.automorphisms(ring, 4)


def test_budget_error_carries_the_nodes_used(monkeypatch, reps3):
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", "1")
    with pytest.raises(fr.SearchBudgetExceeded) as info:
        fr.automorphisms(reps3)
    assert (info.value.nodes, info.value.budget) == (2, 1)
    assert str(info.value) == "automorphism search budget exhausted"
    # the lattice of this abelian chain group has 16 subobjects
    ring = fr.direct_product(fr.group_ring(fr.klein_group()),
                             fr.group_ring(fr.cyclic_group(2)))
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", "15")
    with pytest.raises(fr.SearchBudgetExceeded) as info:
        fr.enumerate_central_subobjects(ring)
    assert (info.value.nodes, info.value.budget) == (16, 15)
    assert str(info.value) == "central-subobject lattice too large"


def _generator_invariants(ring, depth):
    window = ring.elements(depth)
    return _invariants(ring, [g for g in dict.fromkeys(ring.generators) if g in window], window)


# generated windows -> depth
WINDOWS = {"su2 d4": (fr.su2_ring, 4),
           "au2 d3": (lambda: fr.au_word_ring(2), 3),
           "au2 d4": (lambda: fr.au_word_ring(2), 4),
           "z d3": (fr.z_group_ring, 3),
           "free:zn:2+zn:3 d3": (lambda: fr.free_product(_zn(2), _zn(3)), 3)}


@pytest.mark.parametrize("name", sorted(EXPLICIT) + sorted(WINDOWS))
def test_automorphisms_keep_the_refined_invariant(name):
    # the search only tries images with an equal invariant, so every map
    # the reference search finds must keep it, or the search would miss it
    build, depth = WINDOWS.get(name, (EXPLICIT.get(name), 6))
    ring = build()
    inv = _generator_invariants(ring, depth)
    autos = reference(ring, depth)
    assert fr.automorphisms(ring, depth) == autos
    assert autos
    for auto in autos:
        phi = auto.to_json()
        assert all(inv[phi[g]] == inv[g] for g in inv), (name, auto)


def test_power_walks():
    # the step count comes negated, then whether the walk ended at the
    # unit and whether inside the window
    assert _generator_invariants(fr.z_group_ring(), 3) == {
        g: (1, False, 0, ((1, 1),), (-3, False, False), 0) for g in ("z1", "z-1")}
    free = _generator_invariants(fr.free_product(_zn(2), _zn(3)), 3)
    assert {g: inv[-2] for g, inv in free.items()} == {
        "1:g1": (-1, True, True), "2:g1": (-2, True, True), "2:g2": (-2, True, True)}
    # on Z/n an element of order m walks m - 1 steps back to the unit, so
    # a generator of the group is branched on first and is Light's B alone
    ring = _zn(32)
    inv = _generator_invariants(ring, 6)
    assert {g: -inv[g][-2][0] for g in ("g1", "g2", "g8", "g16")} == {
        "g1": 31, "g2": 15, "g8": 3, "g16": 1}
    order = sorted(inv, key=lambda g: (inv[g], ring.order_key(g)))
    assert order[0] == "g1"
    assert ring_module._light_middle(ring, order) == ["g1"]
    # a label of dim 2 whose square is not one label does not walk
    assert _generator_invariants(fr.rep_s3_ring(), 6)["rho"][-2] == (0, False, True)


def _reps3_power(n):
    ring = fr.rep_s3_ring()
    for _ in range(n - 1):
        ring = fr.direct_product(ring, fr.rep_s3_ring())
    return ring


def test_refined_classes_keep_products_of_reps3_within_budget(monkeypatch):
    # Rep(S3) has only the identity, so a power of it has the permutations
    # of its factors; without the power walks and fixed counts these
    # searches take 2,282 and 722,746 nodes, with them 47 and 282, and
    # searching one map per coset 21 and 36
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", "100")
    assert len(fr.automorphisms(EXPLICIT["reps3^3"]())) == 6
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", "1000")
    ring = _reps3_power(4)
    autos = fr.automorphisms(ring)

    def factors(label):
        return label.replace("(", "").replace(")", "").split(",")

    def permuted(sigma, label):
        x = [factors(label)[i] for i in sigma]
        return f"((({x[0]},{x[1]}),{x[2]}),{x[3]})"

    assert {auto.mapping for auto in autos} == {
        tuple(sorted((l, permuted(sigma, l)) for l in ring.labels()))
        for sigma in permutations(range(4))}


# ring -> (search nodes allowed, automorphisms by theory, maps composed);
# the maps composed are the orders of the stabilizer chain's groups: the
# maps fixing the first k branch points, for k = 0, 1, ... while that is
# more than the identity.  Without the stabilizer chain these searches take
# 22,906, 218, 33 and 282 nodes, over these budgets but for Z/64 (its 4
# search nodes replace 33 that reach its 32 maps one by one)
THEORY = {"(Z/2)^4": (lambda: fr.direct_product(EXPLICIT["klein x Z/2"](), _zn(2)), 50, 20160,
                      20160 + 1344 + 96 + 8),
          "klein x Z/2": (EXPLICIT["klein x Z/2"], 20, 168, 168 + 24 + 4),
          "Z/64": (lambda: _zn(64), 10, 32, 32),
          "reps3^4": (lambda: _reps3_power(4), 50, 24, 24 + 6 + 2)}


@pytest.mark.parametrize("name", sorted(THEORY))
def test_one_search_per_coset_stays_within_budget(monkeypatch, name):
    # |GL(4,2)| = 20,160 and |GL(3,2)| = 168 for the elementary abelian
    # groups, phi(64) = 32 units of Z/64, and the 4! permutations of the
    # factors of Rep(S3)^4; the budget counts search nodes and maps composed
    build, nodes, count, composed = THEORY[name]
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", str(nodes + composed))
    autos = fr.automorphisms(build())
    assert len(autos) == len({auto.mapping for auto in autos}) == count
    if name == "Z/64":
        def label(k):
            return f"g{k}" if k else "e"

        assert {auto.mapping for auto in autos} == {
            tuple(sorted((label(k), label(u * k % 64)) for k in range(64)))
            for u in range(1, 64, 2)}


def test_budget_bounds_the_maps_composed(monkeypatch):
    # (Z/2)^5 has |GL(5,2)| = 9,999,360 automorphisms; a few dozen search
    # nodes find their transversals, and the products are refused before
    # they are built: 16 + 384 maps fit in the budget, the next 10,752 not
    ring = fr.direct_product(THEORY["(Z/2)^4"][0](), _zn(2))
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", "10000")
    with pytest.raises(fr.SearchBudgetExceeded) as info:
        fr.automorphisms(ring)
    assert 16 + 384 + 10752 < info.value.nodes < 16 + 384 + 10752 + 50


def test_default_budget_refuses_before_composing(monkeypatch):
    # under the default budget of 10^6 the products' sizes 16, 384, 10,752,
    # 322,560 and 9,999,360 = |GL(5,2)| are counted before any is built, so
    # (Z/2)^5 is refused after 40 search nodes with no map composed
    monkeypatch.delenv("FUSIONRING_SEARCH_BUDGET", raising=False)
    ring = fr.direct_product(THEORY["(Z/2)^4"][0](), _zn(2))
    tracemalloc.start()
    try:
        with pytest.raises(fr.SearchBudgetExceeded) as info:
            fr.automorphisms(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.nodes, info.value.budget) == (40 + 10_333_072, 10 ** 6)
    assert peak < 10 * 2 ** 20


# rings the group properties are checked on -> depths
GROUPS = {**{name: (build, (6,)) for name, build in EXPLICIT.items()},
          "klein": (lambda: fr.group_ring(fr.klein_group()), (6,)),
          "au2": (lambda: fr.au_word_ring(2), (4,)),
          "Rep(D4) on rho": (_rep_d4_on_rho, (1, 2, 3)),
          "free:zn:2+zn:3": (lambda: fr.free_product(_zn(2), _zn(3)), (3,))}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_closure_and_inverses(name):
    # the search composes the maps it finds, so they must form a group:
    # window restrictions compose, because every map permutes the window,
    # and no two answers are the same map (on Rep(D4) at depth 1 the six
    # maps found on the window and rho x rho restrict to one)
    build, depths = GROUPS[name]
    ring = build()
    for depth in depths:
        autos = fr.automorphisms(ring, depth)
        dicts = [a.to_json() for a in autos]
        assert len({a.mapping for a in autos}) == len(autos)
        assert {x: x for x in ring.elements(depth)} in dicts
        for f in dicts:
            assert {v: k for k, v in f.items()} in dicts
            for g in dicts:
                assert _compose(f, g) in dicts, (name, depth)


@pytest.mark.parametrize("name", ["repz4", "klein", "s3", "Z/16", "klein x Z/2", "s3 x reps3"])
def test_action_on_chain_group_is_an_automorphism_of_u(name, explicit_fixtures):
    ring = explicit_fixtures.get(name) or EXPLICIT[name]()
    mult = central_module._schreier(ring, 6)[1].mult
    elements = range(len(mult))
    for auto in fr.automorphisms(ring):
        act = fr.action_on_chain_group(ring, auto)
        assert sorted(act) == sorted(act.values()) == list(elements), (name, auto)
        assert all(act[mult[a][b]] == mult[act[a]][act[b]]
                   for a in elements for b in elements), (name, auto)


# complete tables -> whether each is associative with the unit law
VERDICTS = {**{name: (build, True) for name, build in EXPLICIT.items()},
            "reps3^3 reversed": (_reps3_cubed_reversed, True),
            "loop of order 6": (_loop_ring, False),
            "steiner": (_steiner_ring, False),
            "broken unit law": (CORRUPTED["unit-law"], False)}


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_light_verdict_does_not_depend_on_the_order_of_b(name):
    # the verdict kept in `ring.associative` rests on Light's theorem: a
    # passing B proves the table associative, so every B passes or none
    build, associative = VERDICTS[name]
    sample = build()
    labels = list(sample.labels())
    inv = {a: _label_invariant(sample, a) for a in labels}
    branching = sorted(labels, key=lambda a: (inv[a], sample.order_key(a)))
    for order in (labels, labels[::-1], branching):
        ring = build()
        middle = ring_module._light_middle(ring, order)
        assert (middle is not None, ring.associative) == (associative, associative), \
            (name, order)


def _count_light_checks(monkeypatch):
    """The calls to `_associativity_failures`, which runs Light's check,
    from now on."""
    calls = []
    kernel = ring_module._associativity_failures

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(ring_module, "_associativity_failures", counted)
    return calls


def test_light_check_runs_once_per_ring(monkeypatch):
    ring = EXPLICIT["reps3^3"]()
    calls = _count_light_checks(monkeypatch)
    assert fr.validate_ring(ring).ok
    autos = fr.automorphisms(ring)
    assert fr.validate_ring(ring).ok
    assert len(calls) == 1
    assert autos == label_backtracking(ring)


def test_rings_validated_at_build_are_not_proved_again(monkeypatch):
    reps3 = fr.rep_s3_ring()
    calls = _count_light_checks(monkeypatch)
    assert len(fr.automorphisms(reps3)) == 1
    assert calls == []


def test_non_associative_verdict_keeps_the_full_scan_and_search():
    loop = _loop_ring()
    autos = fr.automorphisms(loop)
    assert autos == label_backtracking(loop)
    for _ in range(2):
        report = fr.validate_ring(loop)
        assert Counter(v.axiom for v in report.violations) == {
            "associativity": 44, "frobenius": 16, "conjugation": 8}
    assert fr.automorphisms(loop) == autos


class TestChainGroupAction:
    def test_identity_acts_trivially(self, repz4):
        auto = fr.automorphisms(repz4)[0]
        assert auto.is_identity
        action = fr.action_on_chain_group(repz4, auto)
        assert all(k == v for k, v in action.items())

    def test_inversion_acts_by_inversion(self, z4ring):
        autos = fr.automorphisms(z4ring)
        inv = next(a for a in autos if a.to_json()["g1"] == "g3")
        action = fr.action_on_chain_group(z4ring, inv)
        part = fr.merge_closure(z4ring)
        assert action[part.block_of["g1"]] == part.block_of["g3"]

    def test_au_swap_inverts_chain_classes(self, au2):
        # u and v sit in mutually inverse chain classes, so the letter swap
        # acts as inversion
        swap = next(a for a in fr.automorphisms(au2, depth=3)
                    if not a.is_identity)
        action = fr.action_on_chain_group(au2, swap, depth=3)
        part = fr.merge_closure(au2, depth=3)
        assert action[part.block_of["u"]] == part.block_of["v"]
        assert action[part.block_of["v"]] == part.block_of["u"]
        assert action[part.identity_block] == part.identity_block
