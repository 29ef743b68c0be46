"""Restriction data: validation, normality, centrality, grouplike elements."""

from pathlib import Path

import pytest

import fusionrings as fr
from fusionrings import subgroups
from fusionrings.errors import (DepthExceeded, InternalInconsistency, InvalidRestriction,
                               UnknownLabel)
from fusionrings.subgroups import _multiplicative_on_generators

from conftest import kept

DATA = Path(__file__).parent / "data"


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

    @pytest.mark.parametrize("label", ["V03", "V\u0663", "V+3", "V", "W3", "V-1"])
    def test_su2_rules_restrict_only_su2_labels(self, su2, parity, weights, label):
        # the spellings su2 itself rejects, such as a leading zero or an
        # Arabic-Indic digit
        with pytest.raises(UnknownLabel):
            su2.dim(label)
        for r in (parity, weights):
            with pytest.raises(InvalidRestriction, match="an su2 rule cannot restrict"):
                r.restrict(label)

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
        assert _multiplicative_on_generators(r, depth) is True

    @pytest.mark.parametrize("name,depth", [("so3", 6), ("au2", 3), ("z", 8)])
    def test_generator_proof_goes_through_on_identity(self, generated_fixtures, name, depth):
        ring = generated_fixtures[name]
        r = fr.identity_restriction(ring)
        assert _multiplicative_on_generators(r, depth) is True

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

    def test_cross_check_raises_when_the_criteria_disagree(self, monkeypatch, su2, z2ring):
        monkeypatch.setattr(subgroups, "is_central_subobject",
                            lambda ring, sigma, depth: fr.CentralityResult(False, None))
        r = fr.su2_parity_restriction(su2, z2ring)
        with pytest.raises(InternalInconsistency, match=r"^centrality tests disagree for "
                           r"su2-parity: restriction=True, cosets=False$"):
            fr.central_subgroup_cross_check(r, 6)


class TestValidationMemo:
    """The questions validate a restriction once per object and source
    window."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        validate = subgroups.validate_restriction

        def counted(r, depth=6):
            calls.append((r, depth))
            return validate(r, depth)

        monkeypatch.setattr(subgroups, "validate_restriction", counted)
        return calls

    def test_once_per_object_and_depth(self, su2, zring, validations):
        r = fr.su2_weight_restriction(su2, zring)
        for depth in (30, 30, 10, 10):
            assert not fr.is_normal(r, depth).normal
            assert not fr.is_central_subgroup(r, depth).central
            assert fr.central_subgroup_cross_check(r, depth) is False
        assert validations == [(r, 30), (r, 10)]
        fresh = fr.su2_weight_restriction(su2, zring)
        assert not fr.is_normal(fresh, 30).normal
        assert validations == [(r, 30), (r, 10), (fresh, 30)]

    def test_once_per_window_of_a_complete_source(self, validations):
        # Rep(S3)'s window is its whole table at every depth
        r = fr.identity_restriction(fr.rep_s3_ring())
        for depth in (6, 7, 8):
            assert fr.is_normal(r, depth).normal
        assert validations == [(r, 6)]

    def test_failure_is_not_recorded(self, reps3, validations):
        r = fr.RestrictionData.from_dict(
            reps3, reps3, {"1": {"1": 1}, "sgn": {"sgn": 1}, "rho": {"rho": 2}}, name="bad")
        messages = []
        for _ in range(2):
            with pytest.raises(InvalidRestriction) as err:
                fr.is_normal(r)
            messages.append(str(err.value))
        assert messages[0] == messages[1] and "dimension" in messages[0]
        assert len(validations) == 2 and not kept(r, "valid")

    def test_public_validation_is_fresh(self, su2, z2ring):
        r = fr.su2_parity_restriction(su2, z2ring)
        assert fr.is_normal(r, 6).normal
        first, second = fr.validate_restriction(r, 6), fr.validate_restriction(r, 6)
        assert first is not second and first.ok and second.ok


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
        # past validation (marked as done), the closure check itself
        # rejects V1 x V1 -> V2
        r.answers["valid", 6] = 6
        with pytest.raises(InvalidRestriction,
                           match=r"not fusion-closed: 'V2' in 'V1' x 'V1'$"):
            fr.trivial_restriction_subobject(r, depth=6)

    def test_answer_is_kept_per_source_window(self, su2, z2ring):
        r = fr.su2_parity_restriction(su2, z2ring)
        at6, at30 = (fr.trivial_restriction_subobject(r, depth) for depth in (6, 30))
        assert kept(r, "trivial") == {6: at6, 30: at30} and at6 != at30
        assert fr.trivial_restriction_subobject(r, 30) is at30

    def test_closure_error_recurs_and_is_not_kept(self, su2, z2ring):
        r = fr.RestrictionData(su2, z2ring, lambda label: {
            "g1" if label == "V2" else "e": su2.dim(label)}, name="broken")
        r.answers["valid", 6] = 6
        for _ in range(2):
            with pytest.raises(InvalidRestriction,
                               match=r"not fusion-closed: 'V2' in 'V1' x 'V1'$"):
                fr.trivial_restriction_subobject(r, depth=6)
        assert kept(r, "trivial") == {}

    def test_non_dual_closed_kernel_rejected(self, au2, z2ring):
        # words starting in v restrict to g1, so u restricts trivially and v does not
        def rule(label):
            return {"g1" if label.startswith("v") else "e": au2.dim(label)}

        r = fr.RestrictionData(au2, z2ring, rule, name="broken")
        with pytest.raises(InvalidRestriction, match="conjugation"):
            fr.trivial_restriction_subobject(r, depth=1)
        # past validation (marked as done), the closure check itself
        # rejects u, whose dual is v
        r.answers["valid", 1] = 1
        with pytest.raises(InvalidRestriction, match="not dual-closed at 'u'"):
            fr.trivial_restriction_subobject(r, depth=1)


class TestGrouplikes:
    def test_closure_escaping_the_window_raises(self, zring):
        with pytest.raises(DepthExceeded):
            fr.grouplikes(zring, depth=3)

    def test_depth_exceeded_names_the_first_escaping_label(self):
        # labels beyond the explored depth sort by length, then text: z4, z5, z-4
        with pytest.raises(DepthExceeded, match="^closure escaped the depth bound$") as exc:
            fr.grouplikes(fr.z_group_ring(), 3)
        assert exc.value.label == "z4"
        with pytest.raises(DepthExceeded, match="^seed lies outside") as exc:
            fr.generated_subobject(fr.z_group_ring(), ["z-5", "z6"], 3)
        assert exc.value.label == "z5"
        with pytest.raises(DepthExceeded) as exc:
            fr.z_group_ring().elements()
        assert exc.value.label is None

    @pytest.mark.parametrize("square, message", [
        ({"e": 1, "g": 1}, r"not a singleton: \{'e': 1, 'g': 1\}"),
        ({"e": 2}, r"gave \{'e': 2\}")], ids=["e+g", "2e"])
    def test_a_dim_one_product_with_two_constituents_raises(self, square, message):
        # an unvalidated table where g x g is `square`, counted with multiplicity
        basis = [fr.BasisElement("e", 1), fr.BasisElement("g", 1)]
        table = {("e", "e"): {"e": 1}, ("e", "g"): {"g": 1}, ("g", "e"): {"g": 1},
                 ("g", "g"): square}
        ring = fr.FusionRing.explicit(basis, "e", {"e": "e", "g": "g"}, table)
        with pytest.raises(InternalInconsistency, match=rf"^dim-1 product 'g' x 'g' {message}$"):
            fr.grouplikes(ring)

    def test_mixed_direct_product_grouplikes(self, z2ring, su2):
        ring = fr.direct_product(z2ring, su2)
        table = fr.grouplikes(ring, depth=3)
        assert set(table.labels) == {"(e,V0)", "(g1,V0)"}

    def test_grouplikes_group_is_exact_only_on_a_complete_table(self, su2, reps3):
        _, desc = fr.grouplikes_group(su2, depth=6)
        assert desc.flag == "stable_at_depth(6)"
        table, desc = fr.grouplikes_group(reps3)
        assert (set(table.labels), desc.flag) == ({"1", "sgn"}, "exact")

    @pytest.mark.parametrize("depth", [2, 6])
    def test_grouplikes_of_a_truncated_table_carry_its_depth(self, depth):
        ring = fr.load_ring(DATA / "su2_depth4.json")
        table, desc = fr.grouplikes_group(ring, depth)
        assert (table.labels, desc.flag) == (("V0",), "stable_at_depth(4)")

    def test_grouplikes_leaving_the_window_at_next_depth_are_unstable(self, monkeypatch):
        # a fresh ring: a shared one may keep a stable flag from an earlier test
        su2, real = fr.su2_ring(), subgroups._grouplikes_table

        def grouplikes_table(ring, depth):
            if depth > 6:
                raise DepthExceeded("closure left the window")
            return real(ring, depth)

        monkeypatch.setattr(subgroups, "_grouplikes_table", grouplikes_table)
        _, desc = fr.grouplikes_group(su2, depth=6)
        assert desc.flag == "unstable_at_depth(6)"

    def test_grouplikes_group_verifies_its_table_once(self, su2, z2ring, monkeypatch):
        ring = fr.free_product(su2, z2ring)
        verify, calls = fr.GroupTable.verify, []
        monkeypatch.setattr(fr.GroupTable, "verify",
                            lambda table: calls.append(table) or verify(table))
        table, desc = fr.grouplikes_group(ring, 4)
        assert calls == [table]
        assert (desc.name, desc.flag) == ("Z/2Z", "stable_at_depth(4)")
