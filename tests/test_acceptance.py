"""End-to-end acceptance checks, one test per headline claim.

Each test states its expected result and a wall-clock budget; the suite is
meant to be read as a checklist of everything the package is supposed to
reproduce.
"""

import doctest
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import fusionrings as fr
from test_cli_golden import run_fresh


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"exceeded {seconds}s budget ({elapsed:.2f}s)"


def test_01_su2_chain_group_is_order_two(su2):
    with budget(1):
        _, desc = fr.chain_group(su2, depth=6)
    assert desc.order == 2
    assert desc.abelian_invariants == [2]
    assert desc.flag == "stable_at_depth(6)"


def test_02_so3_center_is_trivial(so3):
    with budget(1):
        _, desc = fr.chain_group(so3, depth=6)
        center = fr.center_subobject(so3, depth=6)
    assert desc.order == 1
    assert set(so3.elements(6)) <= set(center.members)


def test_03_s3_group_ring_chain_group_is_s3(s3ring):
    with budget(1):
        table, desc = fr.chain_group(s3ring)
    assert desc.order == 6
    assert not desc.is_abelian
    assert desc.flag == "exact"
    # independent reference table straight from the permutation group
    assert fr.tables_isomorphic(table, fr.s3_group())


def test_04_au_chain_group_is_infinite_cyclic(au2):
    with budget(30):
        pres4, desc4 = fr.chain_group(au2, depth=4)
        pres5, desc5 = fr.chain_group(au2, depth=5)
    for desc in (desc4, desc5):
        assert desc.name == "Z"
        assert desc.presentation["generators"] == ["[u]"]
        assert desc.presentation["relations"] == []
        assert desc.flag.startswith("stable_at_depth")
    assert pres4 == pres5


def test_05_merge_closure_matches_brute_force_oracle(explicit_fixtures):
    with budget(10):
        for name, ring in explicit_fixtures.items():
            fast = fr.merge_closure(ring)
            slow6 = fr.chain_oracle(ring, max_len=6)
            slow5 = fr.chain_oracle(ring, max_len=5)
            assert fast.same_partition(slow6), name
            assert slow5.same_partition(slow6), name


def test_06_unit_chain_class_is_always_central(explicit_fixtures,
                                               generated_fixtures):
    with budget(10):
        for name, ring in explicit_fixtures.items():
            ez = fr.center_subobject(ring)
            assert fr.is_central_subobject(ring, ez).central, name
        for name, ring in generated_fixtures.items():
            ez = fr.center_subobject(ring, depth=6)
            assert fr.is_central_subobject(ring, ez, depth=6).central, name


def test_07_center_equals_unit_chain_class(explicit_fixtures):
    with budget(10):
        for name, ring in explicit_fixtures.items():
            subs = fr.enumerate_central_subobjects(ring)
            inter = frozenset(ring.labels())
            for sub in subs:
                inter &= sub.members
            assert inter == fr.center_subobject(ring).members, name


def test_08_su2_restrictions_normal_and_central_witnesses(su2, z2ring, zring):
    with budget(1):
        parity = fr.su2_parity_restriction(su2, z2ring)
        weights = fr.su2_weight_restriction(su2, zring)
        parity_normal = fr.is_normal(parity, depth=6)
        parity_central = fr.is_central_subgroup(parity, depth=6)
        weights_normal = fr.is_normal(weights, depth=6)
        weights_central = fr.is_central_subgroup(weights, depth=6)
    assert parity_normal.normal and parity_central.central
    assert not weights_normal.normal and weights_normal.witness[0] == "V2"
    assert not weights_central.central and weights_central.witness[0] == "V1"


def test_09_centrality_implies_normality_and_cross_check(su2, z2ring, zring,
                                                         reps3, repz4):
    unit_ring = fr.group_ring(fr.cyclic_group(1))
    cases = [
        fr.su2_parity_restriction(su2, z2ring),
        fr.su2_weight_restriction(su2, zring),
        fr.identity_restriction(reps3),
        fr.identity_restriction(repz4),
        fr.trivial_restriction(reps3, unit_ring),
        fr.trivial_restriction(repz4, unit_ring),
    ]
    with budget(5):
        for r in cases:
            central = fr.is_central_subgroup(r, depth=6).central
            if central:
                assert fr.is_normal(r, depth=6).normal, r.name
            # raises InternalInconsistency if the two criteria disagree
            verdict = fr.central_subgroup_cross_check(r, depth=6)
            assert verdict == central, r.name


def test_10_chain_group_ignores_dimension_reassignment(explicit_fixtures):
    with budget(5):
        for name, ring in explicit_fixtures.items():
            table0, desc0 = fr.chain_group(ring)
            fusion = {(a, b): ring.product(a, b)
                      for a in ring.labels() for b in ring.labels()}
            dual = {a: ring.dual(a) for a in ring.labels()}
            for seed in range(20):
                rng = random.Random(seed)
                basis = [fr.BasisElement(l, rng.randint(1, 9))
                         for l in ring.labels()]
                twisted = fr.FusionRing.explicit(basis, ring.unit, dual, fusion)
                table1, desc1 = fr.chain_group(twisted)
                assert desc1.to_json() == desc0.to_json(), (name, seed)
                assert fr.tables_isomorphic(table1, table0), (name, seed)


def test_11_singly_generated_rings_have_cyclic_chain_group(su2, au2):
    rings = [su2, au2] + [fr.group_ring(fr.cyclic_group(n))
                          for n in (2, 3, 4, 5, 6)]
    with budget(5):
        for ring in rings:
            _, desc = fr.chain_group(ring, depth=4)
            if desc.order is None:
                assert desc.name == "Z"
                assert len(desc.presentation["generators"]) == 1
            else:
                assert desc.is_abelian
                assert len(desc.abelian_invariants or []) <= 1


def test_12_automorphism_counts(reps3, z3ring, au2):
    with budget(30):
        assert len(fr.automorphisms(reps3)) == 1
        assert len(fr.automorphisms(z3ring)) == 2
        assert len(fr.automorphisms(au2, depth=3)) == 2


def test_13_free_product_grouplikes_recover_discrete_factor(su2, z2ring):
    with budget(30):
        ring = fr.free_product(su2, z2ring)
        assert fr.validate_ring(ring, depth=4).ok
        table = fr.grouplikes(ring, depth=4)
        desc = fr.identify_group(table)
    assert desc.order == 2
    assert desc.abelian_invariants == [2]


def test_14_cli_outputs_are_byte_deterministic():
    commands = [
        ("chain-group", "--catalog", "su2"),
        ("chain-group", "--catalog", "au", "--depth", "4"),
        ("center", "--catalog", "repz4"),
        ("cosets", "--catalog", "repz4", "--sigma", "chi0,chi2"),
        ("central-subobjects", "--catalog", "reps3"),
        ("grouplikes", "--catalog", "free:su2+zn:2", "--depth", "4"),
        ("automorphisms", "--catalog", "klein"),
    ]
    with budget(60):
        for args in commands:
            outs = set()
            for hashseed in ("0", "1", "2"):
                code, stdout, stderr = run_fresh(["-m", "fusionrings.cli", *args],
                                                 env={"PYTHONHASHSEED": hashseed})
                assert code == 0, (args, stderr)
                outs.add(stdout)
            assert len(outs) == 1, args
            json.loads(stdout)  # and it is well-formed JSON


def test_15_au_chain_group_at_depth_8():
    ring = fr.au_word_ring(2)
    with budget(2):
        _, desc = fr.chain_group(ring, depth=8)
    assert desc.name == "Z"
    assert desc.flag == "stable_at_depth(8)"


def test_16_su2_weight_restriction_validates_at_depth_30():
    weights = fr.su2_weight_restriction(fr.su2_ring(), fr.z_group_ring())
    with budget(1):
        report = fr.validate_restriction(weights, 30)
    assert str(report) == "valid (checked to depth 30)"


def test_17_free_product_chain_group_at_depth_6():
    ring = fr.free_product(fr.z_group_ring(), fr.group_ring(fr.cyclic_group(2)))
    with budget(1):
        _, desc = fr.chain_group(ring, 6)
    assert desc.name == "Z * Z/2Z"
    assert desc.flag == "stable_at_depth(6)"


def test_18_validate_ring_on_z64():
    ring = fr.group_ring(fr.cyclic_group(64))
    with budget(0.5):
        report = fr.validate_ring(ring)
    assert str(report) == "valid"


def test_19_chain_group_on_z64():
    ring = fr.group_ring(fr.cyclic_group(64))
    with budget(0.5):
        _, desc = fr.chain_group(ring)
    assert desc.name == "Z/64Z"
    assert desc.flag == "exact"


def test_20_automorphisms_of_z64():
    ring = fr.group_ring(fr.cyclic_group(64))
    with budget(0.15):
        autos = fr.automorphisms(ring)
    assert len(autos) == 32


def test_21_readme_quick_start_runs_as_written():
    readme = Path(__file__).parents[1] / "README.md"
    with budget(10):
        failed, attempted = doctest.testfile(str(readme), module_relative=False,
                                             encoding="utf-8")
    assert failed == 0 and attempted > 0
