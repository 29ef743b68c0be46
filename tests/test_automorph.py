"""Fusion-ring symmetries: search, verification, chain-group action."""

import pytest

import fusionrings as fr


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
        assert flips[0].apply("g1") == "g2"

    def test_klein_ring_full_linear_group(self, kleinring):
        autos = fr.automorphisms(kleinring)
        assert len(autos) == 6

    def test_s3_group_ring_inner_and_outer(self, s3ring):
        # Aut(S3) has order 6
        assert len(fr.automorphisms(s3ring)) == 6

    def test_group_closure_and_inverses(self, kleinring):
        autos = fr.automorphisms(kleinring)
        dicts = [a.as_dict() for a in autos]
        for f in dicts:
            inv = {v: k for k, v in f.items()}
            assert inv in dicts
            for g in dicts:
                assert _compose(f, g) in dicts

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
        assert swap.apply("u") == "v"
        assert swap.apply("uv") == "vu"

    def test_z_ring_inversion(self, zring):
        autos = fr.automorphisms(zring, depth=3)
        assert len(autos) == 2


def test_search_budget_bounds_the_search(monkeypatch, reps3, su2):
    monkeypatch.setenv("FUSIONRING_SEARCH_BUDGET", "1")
    for ring in (reps3, su2):
        with pytest.raises(fr.SearchBudgetExceeded):
            fr.automorphisms(ring, 4)


class TestChainGroupAction:
    def test_identity_acts_trivially(self, repz4):
        auto = fr.automorphisms(repz4)[0]
        assert auto.is_identity
        action = fr.action_on_chain_group(repz4, auto)
        assert all(k == v for k, v in action.items())

    def test_inversion_acts_by_inversion(self, z4ring):
        autos = fr.automorphisms(z4ring)
        inv = next(a for a in autos if a.apply("g1") == "g3")
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
