"""Core data model: construction, products, subobjects, axiom checks."""

import functools
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fusionrings as fr
from fusionrings.errors import (
    DepthExceeded,
    MalformedRing,
    NotASubobject,
    UnknownLabel,
)
from conftest import kept

DATA = Path(__file__).parent / "data"

# one restriction per ring, so that its kept answer sits beside the call
_identity_restriction = functools.cache(fr.identity_restriction)


def _z2_table():
    return {("e", "e"): {"e": 1}, ("e", "g1"): {"g1": 1},
            ("g1", "e"): {"g1": 1}, ("g1", "g1"): {"e": 1}}


def _z2_basis():
    return [fr.BasisElement("e", 1), fr.BasisElement("g1", 1)]


class TestExplicitConstruction:
    def test_roundtrip(self):
        ring = fr.FusionRing.explicit(_z2_basis(), "e", {"e": "e", "g1": "g1"},
                                      _z2_table())
        assert ring.product("g1", "g1") == {"e": 1}
        assert ring.dual("g1") == "g1"
        assert ring.dim("g1") == 1

    def test_duplicate_label_rejected(self):
        basis = _z2_basis() + [fr.BasisElement("g1", 1)]
        with pytest.raises(MalformedRing):
            fr.FusionRing.explicit(basis, "e", {"e": "e", "g1": "g1"}, _z2_table())

    def test_dangling_label_rejected(self):
        table = _z2_table()
        table[("g1", "g1")] = {"ghost": 1}
        with pytest.raises(MalformedRing):
            fr.FusionRing.explicit(_z2_basis(), "e", {"e": "e", "g1": "g1"}, table)

    def test_zero_multiplicity_rejected(self):
        table = _z2_table()
        table[("g1", "g1")] = {"e": 0}
        with pytest.raises(MalformedRing):
            fr.FusionRing.explicit(_z2_basis(), "e", {"e": "e", "g1": "g1"}, table)

    def test_missing_pair_rejected(self):
        table = _z2_table()
        del table[("g1", "g1")]
        with pytest.raises(MalformedRing):
            fr.FusionRing.explicit(_z2_basis(), "e", {"e": "e", "g1": "g1"}, table)

    def test_empty_support_rejected(self):
        table = _z2_table()
        table[("g1", "g1")] = {}
        with pytest.raises(MalformedRing, match=r"empty support declared for \('g1','g1'\)"):
            fr.FusionRing.explicit(_z2_basis(), "e", {"e": "e", "g1": "g1"}, table)

    def test_truncated_table_raises_depth_exceeded(self):
        table = _z2_table()
        del table[("g1", "g1")]
        ring = fr.FusionRing.explicit(_z2_basis(), "e", {"e": "e", "g1": "g1"},
                                      table, truncated_at=1)
        assert ring.product("e", "g1") == {"g1": 1}
        with pytest.raises(DepthExceeded):
            ring.product("g1", "g1")

    def test_unknown_label(self, reps3):
        with pytest.raises(UnknownLabel):
            reps3.product("rho", "nope")


class TestProducts:
    def test_unit_law(self, reps3):
        for a in reps3.labels():
            assert reps3.product(reps3.unit, a) == {a: 1}
            assert reps3.product(a, reps3.unit) == {a: 1}

    def test_empty_word_is_unknown(self, reps3):
        with pytest.raises(UnknownLabel):
            reps3.product_word([])

    def test_word_product_matches_fold(self, s3ring):
        word = ["r", "s", "r2", "sr"]
        acc = Counter({word[0]: 1})
        for nxt in word[1:]:
            step = Counter()
            for lab, n in acc.items():
                for c, m in s3ring.product(lab, nxt).items():
                    step[c] += n * m
            acc = step
        assert fr.FusionRing.product_word(s3ring, word) == dict(acc)

    @given(st.lists(st.sampled_from(["1", "sgn", "rho"]), min_size=1, max_size=5),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_word_product_bracketing_invariance(self, word, data):
        """Associativity: splitting the word anywhere gives the same result."""
        ring = fr.rep_s3_ring()
        whole = ring.product_word(word)
        if len(word) < 2:
            assert whole == {word[0]: 1}
            return
        cut = data.draw(st.integers(min_value=1, max_value=len(word) - 1))
        left = ring.product_word(word[:cut])
        right = ring.product_word(word[cut:])
        recombined = Counter()
        for a, n in left.items():
            for b, m in right.items():
                for c, k in ring.product(a, b).items():
                    recombined[c] += n * m * k
        assert dict(recombined) == whole

    @given(st.sampled_from(["1", "sgn", "rho"]), st.sampled_from(["1", "sgn", "rho"]))
    def test_dual_reverses_products(self, a, b):
        """supp(b* x a*) is the dual multiset of supp(a x b)."""
        ring = fr.rep_s3_ring()
        forward = ring.product(a, b)
        backward = ring.product(ring.dual(b), ring.dual(a))
        assert {ring.dual(c): n for c, n in forward.items()} == backward


class TestGeneratedRings:
    def test_bfs_grading_su2(self, su2):
        assert list(su2.elements(0)) == ["V0"]
        assert list(su2.elements(3)) == ["V0", "V1", "V2", "V3"]

    def test_discovery_order_deterministic(self, au2):
        first = au2.elements(3)
        again = fr.au_word_ring(2).elements(3)
        assert first == again

    def test_dimension_homomorphism_sample(self, au2):
        for a in au2.elements(2):
            for b in au2.elements(2):
                supp = au2.product(a, b)
                assert au2.dim(a) * au2.dim(b) == sum(
                    n * au2.dim(c) for c, n in supp.items())

    @pytest.mark.parametrize("call", [
        lambda: fr.validate_ring(fr.rep_s3_ring(), -1),
        lambda: fr.is_normal(fr.su2_weight_restriction(fr.su2_ring(), fr.z_group_ring()), -1),
        lambda: fr.chain_group(fr.su2_ring(), -1),
        lambda: fr.center_subobject(fr.su2_ring(), -1),
        lambda: fr.sigma_cosets(fr.su2_ring(), fr.Subobject(frozenset({"V0"})), -1),
    ], ids=["validate_ring", "is_normal", "chain_group", "center_subobject", "sigma_cosets"])
    def test_negative_depth_is_rejected(self, call):
        with pytest.raises(ValueError, match=r"depth must be >= 0, got -1$"):
            call()

    @pytest.mark.parametrize("ask", [
        fr.chain_group, fr.automorphisms, fr.automorphism_group,
        lambda ring, depth: fr.is_normal(fr.identity_restriction(ring), depth),
        lambda ring, depth: fr.sigma_cosets(ring, fr.Subobject(frozenset(ring.labels())), depth),
        lambda ring, depth: fr.is_central_subobject(ring, fr.Subobject(frozenset(["1"])), depth),
        fr.validate_ring, fr.center_subobject,
        lambda ring, depth: fr.trivial_restriction_subobject(_identity_restriction(ring), depth),
    ], ids=["chain_group", "automorphisms", "automorphism_group", "is_normal", "sigma_cosets",
            "is_central_subobject", "validate_ring", "center_subobject",
            "trivial_restriction_subobject"])
    def test_negative_depth_is_rejected_beside_a_kept_answer(self, ask):
        # a complete table keeps its answers under the stamp None, which
        # every depth maps to; a negative depth must still raise every time
        ring = fr.rep_s3_ring()
        assert [ring.checked_depth(d) for d in (0, 6, 9)] == [None] * 3
        assert fr.su2_ring().checked_depth(6) == 6
        ask(ring, 6)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"depth must be >= 0, got -1$"):
                ask(ring, -1)

    def test_a_truncated_table_keeps_one_report_whatever_the_depth(self):
        # its window is the whole table at every depth, stamped with its own
        ring = fr.load_ring(DATA / "su2_depth4.json")
        reports = [fr.validate_ring(ring, d) for d in (2, 4, 6)]
        assert [r.checked_depth for r in reports] == [4] * 3
        assert list(kept(ring, "report")) == [4]


class TestSubobjects:
    def test_check_requires_unit(self, reps3):
        with pytest.raises(NotASubobject):
            fr.check_subobject(reps3, ["sgn"])

    def test_check_requires_dual_closure(self, z3ring):
        with pytest.raises(NotASubobject):
            fr.check_subobject(z3ring, ["e", "g1"])

    def test_check_requires_fusion_closure(self, reps3):
        with pytest.raises(NotASubobject):
            fr.check_subobject(reps3, ["1", "rho"])

    def test_whole_basis_is_subobject(self, reps3):
        sub = fr.check_subobject(reps3, reps3.labels())
        assert len(sub) == 3

    @given(st.sets(st.sampled_from(["e", "r", "r2", "s", "sr", "sr2"]), max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_generated_subobject_idempotent_and_monotone(self, seed):
        ring = fr.group_ring(fr.s3_group())
        sub = fr.generated_subobject(ring, seed)
        assert seed <= sub.members
        assert fr.generated_subobject(ring, sub.members).members == sub.members
        bigger = fr.generated_subobject(ring, sub.members | {"r"})
        assert sub.members <= bigger.members

    def test_generated_subobject_depth_escape(self, au2):
        with pytest.raises(DepthExceeded):
            fr.generated_subobject(au2, ["u"], depth=2)


class TestValidation:
    def test_good_rings_pass(self, explicit_fixtures):
        for name, ring in explicit_fixtures.items():
            report = fr.validate_ring(ring)
            assert report.ok, (name, report.violations)

    def test_generated_rings_pass_to_depth(self, generated_fixtures):
        for name, ring in generated_fixtures.items():
            report = fr.validate_ring(ring, depth=4)
            assert report.ok, (name, report.violations)
            assert report.checked_depth == 4

    def test_corrupted_table_reports_violation_with_witness(self):
        table = _z2_table()
        table[("g1", "g1")] = {"e": 1, "g1": 1}  # forces g1 x g1 != e alone
        ring = fr.FusionRing.explicit(_z2_basis(), "e", {"e": "e", "g1": "g1"},
                                      table)
        report = fr.validate_ring(ring)
        assert not report.ok
        assert any(("g1", "g1") == tuple(v.witness[:2]) for v in report.violations)


class TestTables:
    """Dims and duals, like products, are tables that fill each label once."""

    @staticmethod
    def _counted_su2():
        su2, calls = fr.su2_ring(), Counter()

        def counted(kind, fn):
            def call(label):
                calls[kind, label] += 1
                return fn(label)
            return call

        ring = fr.FusionRing.generated("V0", ["V1"], su2.product,
                                       counted("dual", su2.dual), counted("dim", su2.dim))
        return ring, calls

    def test_dims_and_duals_fill_once(self):
        ring, calls = self._counted_su2()
        for _ in range(2):
            fr.grouplikes(ring, 6)
            fr.validate_ring(ring, 3)
        assert {l for kind, l in calls if kind == "dim"} >= set(ring.elements(6))
        assert {l for kind, l in calls if kind == "dual"} >= set(ring.elements(3))
        assert set(calls.values()) == {1}

    def test_unknown_label_is_never_kept(self, reps3):
        ring, calls = self._counted_su2()
        for _ in range(2):
            with pytest.raises(UnknownLabel):
                ring.dim("X3")
        assert calls["dim", "X3"] == 2
        assert "X3" not in ring.dims
        with pytest.raises(UnknownLabel):
            reps3.dual("nope")
        assert "nope" not in reps3.duals
