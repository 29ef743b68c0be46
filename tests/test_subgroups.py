"""Restriction data: validation, normality, centrality, grouplike elements."""

import pytest

import fusionrings as fr
from fusionrings.errors import DepthExceeded, InvalidRestriction
from fusionrings.subgroups import _multiplicative_on_generators, _trivial_restriction_subobject


@pytest.fixture(scope="module")
def parity(su2, z2ring):
    return fr.su2_parity_restriction(su2, z2ring)


@pytest.fixture(scope="module")
def weights(su2, zring):
    return fr.su2_weight_restriction(su2, zring)


class TestValidation:
    def test_identity_restriction_valid(self, reps3):
        r = fr.identity_restriction(reps3)
        assert fr.validate_restriction(r).ok

    def test_trivial_restriction_valid(self, reps3, z2ring):
        unit_ring = fr.group_ring(fr.cyclic_group(1))
        r = fr.trivial_restriction(reps3, unit_ring)
        assert fr.validate_restriction(r).ok

    def test_parity_valid(self, parity):
        assert fr.validate_restriction(parity, depth=6).ok

    def test_weights_valid(self, weights):
        assert fr.validate_restriction(weights, depth=6).ok

    def test_dimension_mismatch_caught(self, reps3, z2ring):
        r = fr.RestrictionData.from_dict(
            reps3, z2ring,
            {"1": {"e": 1}, "sgn": {"g1": 1}, "rho": {"e": 1}},
            name="bad")
        report = fr.validate_restriction(r)
        assert not report.ok
        assert any(v.witness[0] == "rho" for v in report.violations)

    def test_non_multiplicative_caught(self, repz4, z2ring):
        r = fr.RestrictionData.from_dict(
            repz4, z2ring,
            {"chi0": {"e": 1}, "chi1": {"g1": 1},
             "chi2": {"g1": 1}, "chi3": {"e": 1}},
            name="bad")
        report = fr.validate_restriction(r)
        assert not report.ok

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_multiplicity_rejected(self, z2ring, n):
        with pytest.raises(InvalidRestriction, match="multiplicity"):
            fr.RestrictionData.from_dict(
                z2ring, z2ring, {"e": {"e": 1}, "g1": {"g1": 1, "e": n}}, name="bad")

    @pytest.mark.parametrize("depth", [1, 6, 30])
    @pytest.mark.parametrize("name", ["parity", "weights", "identity", "trivial"])
    def test_generator_proof_goes_through_on_su2(self, name, depth, su2, parity, weights):
        # validate_restriction falls back to the full scan whenever the proof
        # fails or raises, so only this test sees a proof that stopped working
        r = {"parity": parity, "weights": weights, "identity": fr.identity_restriction(su2),
             "trivial": fr.trivial_restriction(su2, fr.group_ring(fr.cyclic_group(1)))}[name]
        assert _multiplicative_on_generators(r, su2.elements(depth)) is True

    @pytest.mark.parametrize("name,depth", [("so3", 6), ("au2", 3), ("z", 8)])
    def test_generator_proof_goes_through_on_identity(self, generated_fixtures, name, depth):
        ring = generated_fixtures[name]
        r = fr.identity_restriction(ring)
        assert _multiplicative_on_generators(r, ring.elements(depth)) is True

    @pytest.mark.parametrize("name, label, depth, want", [
        ("repz4", "chi1", 6, ["conjugation", "conjugation"]), ("su2", "V3", 4, [])])
    def test_zero_multiplicity_counts_as_absent(self, request, name, label, depth, want):
        ring = request.getfixturevalue(name)
        r = fr.RestrictionData(ring, ring,
                               lambda l: {l: 1, ring.unit: 0} if l == label else {l: 1})
        report = fr.validate_restriction(r, depth)
        assert [v.axiom for v in report.violations] == want


class TestNormality:
    def test_parity_normal(self, parity):
        res = fr.is_normal(parity, depth=6)
        assert res.normal
        assert res.witness is None

    def test_weights_not_normal_witness(self, weights):
        res = fr.is_normal(weights, depth=6)
        assert not res.normal
        assert res.witness[0] == "V2"
        # trivial character appears once inside a 3-dimensional restriction
        assert res.witness[1:] == (1, 3)

    def test_identity_restriction_normal(self, reps3):
        res = fr.is_normal(fr.identity_restriction(reps3))
        assert res.normal


class TestCentrality:
    def test_parity_central_with_assignment(self, parity):
        res = fr.is_central_subgroup(parity, depth=6)
        assert res.central
        assert res.assignment["V0"] == "e"
        assert res.assignment["V1"] == "g1"
        assert res.assignment["V2"] == "e"

    def test_weights_not_central_witness(self, weights):
        res = fr.is_central_subgroup(weights, depth=6)
        assert not res.central
        assert res.witness[0] == "V1"

    def test_central_implies_normal(self, parity, reps3):
        cases = [parity, fr.identity_restriction(reps3)]
        for r in cases:
            if fr.is_central_subgroup(r, depth=6).central:
                assert fr.is_normal(r, depth=6).normal

    def test_cross_check_agreement(self, parity, weights, reps3, repz4):
        unit_ring = fr.group_ring(fr.cyclic_group(1))
        cases = [parity, weights, fr.identity_restriction(reps3),
                 fr.trivial_restriction(repz4, unit_ring)]
        for r in cases:
            assert fr.central_subgroup_cross_check(r, depth=6) in (True, False)


class TestTrivialRestrictionSubobject:
    def test_parity_kernel_is_even_part(self, parity, su2):
        sub = fr.trivial_restriction_subobject(parity, depth=6)
        explored = set(su2.elements(6))
        assert set(sub.members) & explored == {"V0", "V2", "V4", "V6"}

    def test_weights_kernel_is_trivial(self, weights):
        sub = fr.trivial_restriction_subobject(weights, depth=6)
        assert set(sub.members) == {"V0"}

    def test_non_closed_kernel_rejected(self, su2, z2ring):
        # a "restriction" whose trivially-restricting part is not closed
        def rule(label):
            n = int(label[1:])
            if n == 2:
                return {"g1": su2.dim(label)}
            return {"e": su2.dim(label)}

        r = fr.RestrictionData(su2, z2ring, rule, name="broken")
        with pytest.raises(InvalidRestriction):
            fr.trivial_restriction_subobject(r, depth=6)
        # past validation, the closure check itself rejects V1 x V1 -> V2
        with pytest.raises(InvalidRestriction, match="not fusion-closed"):
            _trivial_restriction_subobject(r, depth=6)

    def test_non_dual_closed_kernel_rejected(self, au2, z2ring):
        # words starting in v restrict to g1, so u restricts trivially and v does not
        def rule(label):
            return {"g1" if label.startswith("v") else "e": au2.dim(label)}

        r = fr.RestrictionData(au2, z2ring, rule, name="broken")
        with pytest.raises(InvalidRestriction, match="conjugation"):
            fr.trivial_restriction_subobject(r, depth=1)
        # past validation, the closure check itself rejects u, whose dual is v
        with pytest.raises(InvalidRestriction, match="not dual-closed at 'u'"):
            _trivial_restriction_subobject(r, depth=1)


class TestGrouplikes:
    def test_group_ring_recovers_group(self, s3ring):
        table = fr.grouplikes(s3ring)
        assert table.size == 6
        assert not table.is_abelian()

    def test_rep_s3_grouplikes_are_characters(self, reps3):
        table = fr.grouplikes(reps3)
        assert set(table.labels) == {"1", "sgn"}

    def test_su2_has_only_unit(self, su2):
        table = fr.grouplikes(su2, depth=6)
        assert table.size == 1

    def test_free_product_grouplikes(self, su2, z2ring):
        ring = fr.free_product(su2, z2ring)
        table = fr.grouplikes(ring, depth=4)
        desc = fr.identify_group(table)
        assert desc.order == 2 and desc.abelian_invariants == [2]

    def test_closure_escaping_the_window_raises(self, zring):
        with pytest.raises(DepthExceeded):
            fr.grouplikes(zring, depth=3)

    def test_mixed_direct_product_grouplikes(self, z2ring, su2):
        ring = fr.direct_product(z2ring, su2)
        table = fr.grouplikes(ring, depth=3)
        assert set(table.labels) == {"(e,V0)", "(g1,V0)"}
