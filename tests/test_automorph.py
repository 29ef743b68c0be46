"""Fusion-ring symmetries: search, verification, chain-group action."""

import math
import tracemalloc
from collections import Counter
from itertools import accumulate, permutations
from operator import mul
from pathlib import Path

import pytest

import fusionrings as fr
from fusionrings import automorph as automorph_module, central as central_module, \
    ring as ring_module
from fusionrings.automorph import _invariants, _label_invariant
from fusionrings.errors import InternalInconsistency
from test_automorph_oracles import (EXPLICIT, _loop_ring, _rep_d4_on_rho, _reps3_cubed_reversed,
                                    _zn, label_backtracking, reference)
from conftest import kept
from test_kernel_oracles import CORRUPTED, _steiner_ring

DATA = Path(__file__).parent / "data"


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
           "free:zn:2+zn:3 d3": (lambda: fr.free_product(_zn(2), _zn(3)), 3),
           # 22 labels; the square of 2:g1*1:rho*2:g1*1:sgn clashes in size
           "free:reps3+zn:2 d4": (lambda: fr.free_product(fr.rep_s3_ring(), _zn(2)), 4),
           # 29 labels; some pair's free constituents differ from its image's in count
           "free:reps3+reps3 d3": (lambda: fr.free_product(fr.rep_s3_ring(), fr.rep_s3_ring()), 3)}


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


def _count_matches(monkeypatch):
    """The calls to `_match_pair`, the search's product matching, from now
    on."""
    calls = []
    match = automorph_module._match_pair

    def counted(*args):
        calls.append(args[3:])
        return match(*args)

    monkeypatch.setattr(automorph_module, "_match_pair", counted)
    return calls


@pytest.mark.parametrize("build, depth", [(EXPLICIT["klein x Z/2"], 6),
                                          (lambda: fr.au_word_ring(2), 4)])
def test_second_call_reads_the_kept_chain(monkeypatch, build, depth):
    ring = build()
    first = fr.automorphisms(ring, depth)
    calls = _count_matches(monkeypatch)
    second = fr.automorphisms(ring, depth)
    assert calls == []
    assert second == first and second is not first


def _outcome(ring):
    """The automorphisms of `ring`, or the (nodes, budget) of their refusal."""
    try:
        return fr.automorphisms(ring)
    except fr.SearchBudgetExceeded as exc:
        return exc.nodes, exc.budget


@pytest.mark.parametrize("name", sorted(THEORY) + ["reps3"])
def test_kept_chain_spends_the_budget_as_a_fresh_search(monkeypatch, name):
    # every budget around the search nodes and each prefix sum of the
    # products' sizes gives a kept chain the answer or refusal of a fresh one
    build = fr.rep_s3_ring if name == "reps3" else THEORY[name][0]
    warm, fresh = build(), build()
    fr.automorphisms(warm)
    entry = kept(warm, "automorphisms")[None]
    nodes, _, transversals = entry
    sums = [nodes + s for s in accumulate(accumulate(map(len, transversals), mul))]
    budgets = set(range(nodes + 2)) | {s + d for s in sums for d in (-1, 0, 1)}
    refusals = []
    for budget in sorted(budgets):
        monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", str(budget))
        fresh.answers.clear()
        outcome = _outcome(fresh)
        assert _outcome(warm) == outcome, (name, budget)
        if isinstance(outcome, tuple):
            refusals.append(outcome)
    assert kept(warm, "automorphisms") == {None: entry}
    assert len(refusals) == len(budgets) - 2  # all but the last two budgets
    if name == "reps3":
        assert (2, 1) in refusals


def test_a_refused_search_keeps_nothing(monkeypatch):
    ring = fr.rep_s3_ring()
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", "1")
    with pytest.raises(fr.SearchBudgetExceeded):
        fr.automorphisms(ring)
    assert kept(ring, "automorphisms") == {}
    truncated = fr.load_ring(DATA / "su2_depth4.json")
    monkeypatch.delenv("FUSIONRING_SEARCH_BUDGET")
    with pytest.raises(fr.DepthExceeded):
        fr.automorphisms(truncated)
    assert kept(truncated, "automorphisms") == {}
    assert len(fr.automorphisms(ring)) == 1
    assert list(kept(ring, "automorphisms")) == [None]


def test_kept_chains_are_keyed_like_the_chain_group(monkeypatch):
    # a generated window has one entry per depth; a complete table one
    au2 = fr.au_word_ring(2)
    assert len(fr.automorphisms(au2, 3)) == len(fr.automorphisms(au2, 4)) == 2
    assert sorted(kept(au2, "automorphisms")) == [3, 4]
    ring = EXPLICIT["reps3^3"]()
    first = fr.automorphisms(ring, 3)
    calls = _count_matches(monkeypatch)
    assert fr.automorphisms(ring, 6) == first
    assert calls == [] and list(kept(ring, "automorphisms")) == [None]


def test_budget_is_read_on_a_kept_chain(monkeypatch):
    ring = fr.rep_s3_ring()
    fr.automorphisms(ring)
    for text in ("abc", "", "1e3", " 5", "-1", "+5"):
        monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", text)
        with pytest.raises(fr.FusionRingError) as info:
            fr.automorphisms(ring)
        assert str(info.value) == ("FUSIONRING_SEARCH_BUDGET must be a non-negative "
                                   f"decimal integer, got {text!r}")
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", "007")
    assert central_module.search_budget() == 7


def _gl2_order(r):
    return math.prod(2 ** r - 2 ** i for i in range(r))


def _elementary_abelian(r):
    ring = _zn(2)
    for _ in range(r - 1):
        ring = fr.direct_product(ring, _zn(2))
    return ring


@pytest.mark.parametrize("n", range(16, 65))
def test_group_order_of_z_n_is_euler_phi(n):
    group = fr.automorphism_group(_zn(n))
    assert group.order == sum(math.gcd(n, u) == 1 for u in range(n))
    assert group.order == math.prod(group.transversal_sizes)
    assert group.depth is None


@pytest.mark.parametrize("r", range(1, 6))
def test_group_order_of_elementary_abelian_is_gl(monkeypatch, r):
    monkeypatch.delenv("FUSIONRING_SEARCH_BUDGET", raising=False)
    ring = _elementary_abelian(r)
    tracemalloc.start()
    try:
        group = fr.automorphism_group(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.order == _gl2_order(r)
    assert peak < 10 * 2 ** 20
    if r == 5:
        # the order, 9,999,360, is read off the chain; the list stays refused
        assert group.transversal_sizes == (16, 24, 28, 30, 31)
        with pytest.raises(fr.SearchBudgetExceeded) as info:
            fr.automorphisms(ring)
        assert (info.value.nodes, info.value.budget) == (40 + 10_333_072, 10 ** 6)


def _closure(gens, window):
    """The window maps that are products of `gens`, as mappings."""
    identity = tuple(sorted((x, x) for x in window))
    out, todo = {identity}, [dict(identity)]
    while todo:
        f = todo.pop()
        for g in gens:
            h = _compose(g, f)
            if (m := tuple(sorted(h.items()))) not in out:
                out.add(m)
                todo.append(h)
    return out


@pytest.mark.parametrize("name", sorted(EXPLICIT) + sorted(WINDOWS))
def test_generators_generate_the_list(name):
    build, depth = WINDOWS.get(name, (EXPLICIT.get(name), 6))
    ring = build()
    group = fr.automorphism_group(ring, depth)
    autos = fr.automorphisms(ring, depth)
    assert not any(g.is_identity for g in group.generators)
    assert list(group.generators) == sorted(group.generators, key=lambda g: g.mapping)
    assert {g.depth for g in group.generators} <= {ring.checked_depth(depth)}
    assert _closure([g.to_json() for g in group.generators], ring.elements(depth)) == \
        {a.mapping for a in autos}
    assert group.order == len(autos)


def test_window_order_counts_the_window_maps():
    # at depth 1 the six matchings of a, b, c in rho x rho all fix {1, rho}
    group = fr.automorphism_group(_rep_d4_on_rho(), 1)
    assert (group.order, group.transversal_sizes, group.generators, group.depth) == \
        (1, (6,), (), 1)
    assert fr.automorphism_group(_rep_d4_on_rho(), 2).order == 6


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
    # the verdict kept under "light" rests on Light's theorem: a
    # passing B proves the table associative, so every B passes or none
    build, associative = VERDICTS[name]
    sample = build()
    labels = list(sample.labels())
    inv = {a: _label_invariant(sample, a) for a in labels}
    branching = sorted(labels, key=lambda a: (inv[a], sample.order_key(a)))
    for order in (labels, labels[::-1], branching):
        ring = build()
        middle = ring_module._light_middle(ring, order)
        assert (middle is not None, kept(ring, "light")) == (associative, {None: associative}), \
            (name, order)


def _count_light_checks(monkeypatch):
    """The calls to `_associativity_failures`, which runs Light's check,
    from now on."""
    calls = []
    kernel = ring_module._associativity_failures

    def counted(ring, xs, pairs, upto=None):
        calls.append((ring, xs, pairs, upto))
        return kernel(ring, xs, pairs, upto)

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

    def test_a_map_breaking_the_chain_relation_raises(self):
        # S3 x Rep(S3): the chain classes are S3's elements, and a map
        # swapping (e,sgn) with (r,sgn) sends part of the class e to r
        ring = fr.direct_product(fr.group_ring(fr.s3_group()), fr.rep_s3_ring())
        swap = {"(e,sgn)": "(r,sgn)", "(r,sgn)": "(e,sgn)"}
        auto = fr.RingAutomorphism(tuple(sorted((x, swap.get(x, x)) for x in ring.labels())))
        with pytest.raises(InternalInconsistency,
                           match=r"^chain relation not preserved at '\(e,sgn\)'$"):
            fr.action_on_chain_group(ring, auto)
