"""Builders: group rings, character rings, generated families, products, IO."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import fusionrings as fr
from fusionrings.catalog import read_object
from fusionrings.cli import resolve_catalog
from test_cli_golden import DATA, run_cli
from fusionrings.errors import (
    AxiomViolation,
    MalformedFile,
    MalformedRing,
    NotAGroup,
    UnknownLabel,
)


class TestGroupPresentations:
    def test_cyclic_check(self):
        fr.cyclic_group(5).verify()

    def test_s3_is_a_group_of_order_6(self):
        g = fr.s3_group()
        g.verify()
        assert len(g.labels) == 6

    def test_broken_table_rejected(self):
        g = fr.cyclic_group(3)
        mult = [list(row) for row in g.mult]
        mult[1][1] = 1  # g1 g1 = g1 breaks inverses
        broken = fr.GroupTable(tuple(map(tuple, mult)), g.identity, g.labels)
        with pytest.raises(NotAGroup):
            broken.verify()

    def test_group_ring_dims_are_one(self, s3ring):
        assert all(s3ring.dim(l) == 1 for l in s3ring.labels())

    def test_group_ring_products_are_singletons(self, kleinring):
        for a in kleinring.labels():
            for b in kleinring.labels():
                supp = kleinring.product(a, b)
                assert list(supp.values()) == [1]


class TestGroupRingRoundTrip:
    S3 = ("e", "r", "r2", "s", "sr", "sr2")

    # the pointed part of a fusion ring is the group ring of its grouplikes
    @pytest.mark.parametrize("name, grouplikes", [
        ("prod:s3+reps3", {f"({g},{c})" for g in S3 for c in ("1", "sgn")}),
        ("klein", {"e", "a", "b", "ab"}),
        ("repz4", {"chi0", "chi1", "chi2", "chi3"}),
        ("free:su2+zn:2", {"e", "2:g1"}),
    ])
    def test_group_ring_of_the_grouplikes_is_the_pointed_part(self, name, grouplikes):
        ring = resolve_catalog(name)
        pointed = fr.group_ring(fr.grouplikes(ring, 4))
        assert set(pointed.labels()) == grouplikes
        for a in grouplikes:
            assert (pointed.dim(a), pointed.dual(a)) == (1, ring.dual(a))
            for b in grouplikes:
                assert pointed.product(a, b) == ring.product(a, b)

    # the chain group of the group ring C*(G) is G itself
    @pytest.mark.parametrize("group", [
        fr.s3_group, fr.klein_group, lambda: fr.cyclic_group(12),
        lambda: fr.load_group(DATA / "z3_group.json"),
    ], ids=["s3", "klein", "Z/12", "z3-file"])
    def test_chain_group_of_a_group_ring_is_the_group(self, group):
        table = group()
        assert fr.tables_isomorphic(fr.chain_group(fr.group_ring(table))[0], table)


class TestCharacterRings:
    def test_rep_s3_fusion(self, reps3):
        assert reps3.product("rho", "rho") == {"1": 1, "sgn": 1, "rho": 1}
        assert reps3.product("sgn", "rho") == {"rho": 1}
        assert reps3.dim("rho") == 2

    def test_rep_z4_is_cyclic(self, repz4):
        assert repz4.product("chi1", "chi3") == {"chi0": 1}
        assert repz4.dual("chi1") == "chi3"

    def test_invalid_char_table_rejected(self):
        with pytest.raises(AxiomViolation):
            fr.rep_ring_char_table(
                irreps=[("1", 1), ("x", 2)], unit="1",
                fusion={("1", "1"): {"1": 1}, ("1", "x"): {"x": 1},
                        ("x", "1"): {"x": 1}, ("x", "x"): {"1": 1}})

    def test_char_table_without_a_dual_rejected(self):
        # no label multiplies x to the unit
        with pytest.raises(MalformedRing, match=r"^cannot infer dual of 'x'$"):
            fr.rep_ring_char_table(
                irreps=[("1", 1), ("x", 2)], unit="1",
                fusion={("1", "1"): {"1": 1}, ("1", "x"): {"x": 1},
                        ("x", "1"): {"x": 1}, ("x", "x"): {"x": 2}})


class TestGeneratedFamilies:
    def test_su2_clebsch_gordan(self, su2):
        assert su2.product("V1", "V1") == {"V0": 1, "V2": 1}
        assert su2.product("V2", "V3") == {"V1": 1, "V3": 1, "V5": 1}
        assert su2.dim("V4") == 5

    def test_so3_fusion(self, so3):
        assert so3.product("W1", "W1") == {"W0": 1, "W1": 1, "W2": 1}
        assert so3.dim("W2") == 5

    def test_z_ring_translation(self, zring):
        assert zring.product("z2", "z-3") == {"z-1": 1}
        assert zring.dual("z2") == "z-2"

    def test_au_basic_products(self, au2):
        assert au2.product("u", "v") == {"uv": 1, "e": 1}
        assert au2.product("u", "u") == {"uu": 1}
        assert au2.dim("u") == 2
        assert au2.dim("uv") == 3
        assert au2.dim("uu") == 4

    def test_au_dims_of_long_words(self):
        """The dims fill their prefixes in a loop, not one frame per letter,
        and keep the dimension homomorphism on a long mixed word."""
        au2 = fr.au_word_ring(2)
        assert au2.dim("u" * 2000) == 2 ** 2000
        w = "".join(random.Random(5).choice("uv") for _ in range(1500))
        assert au2.dim("u") * au2.dim(w) == sum(
            n * au2.dim(c) for c, n in au2.product(w, "u").items())

    def test_au_dual_is_reversed_swap(self, au2):
        assert au2.dual("uv") == "uv"
        assert au2.dual("uu") == "vv"

    @given(st.lists(st.sampled_from(["u", "v"]), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_au_signed_length_grading(self, word):
        """Every constituent of a product of letters keeps the letter balance."""
        ring = fr.au_word_ring(2)

        def balance(w):
            return 0 if w == "e" else w.count("u") - w.count("v")

        total = sum(balance(l) for l in word)
        for c in ring.product_word(word):
            assert balance(c) == total

    def test_au_products_match_overlap_enumeration(self, au2):
        """Against the definition: one term per overlap x = a.g, y = dual(g).b."""

        def word(lab):
            return "" if lab == "e" else lab

        def bar(w):
            return "".join({"u": "v", "v": "u"}[c] for c in reversed(w))

        window = au2.elements(4)
        for x in window:
            for y in window:
                a, b = word(x), word(y)
                want = {}
                for k in range(min(len(a), len(b)) + 1):
                    if bar(a[len(a) - k:]) == b[:k]:
                        want[(a[: len(a) - k] + b[k:]) or "e"] = 1
                assert au2.product(x, y) == want, (x, y)

    @pytest.mark.parametrize("make, bad", [
        (fr.su2_ring, ["X3", "V-1", "V01", "V", "W1"]),
        (fr.so3_ring, ["W-2", "V1", "W+1"]),
        (fr.z_group_ring, ["z", "z01", "z+1", "y1"]),
        (lambda: fr.au_word_ring(2), ["", "uxv", "E"]),
        (lambda: fr.free_product(fr.su2_ring(), fr.group_ring(fr.cyclic_group(2))),
         ["1:V0", "1:V1*1:V1", "3:V1", "1:X3", "2:g2", "V1"]),
        (lambda: fr.direct_product(fr.su2_ring(), fr.so3_ring()),
         ["(V1,V1)", "V1", "(V1)", "(X3,W1)"]),
        (lambda: fr.free_product(fr.free_product(fr.su2_ring(), fr.so3_ring()), fr.su2_ring()),
         ["1:[1:V1]", "1:[1:V1*2:W1", "1:1:V1*2:W1]", "1:[[1:V1*2:W1]]", "1:[1:V1*2:W1]x",
          "1:[1:V1*2:W1]*1:1:V1", "1:[1:V1*1:V1]", "2:[V1]", "1:(1:V1*2:W1)"]),
    ])
    def test_labels_outside_the_family_are_unknown(self, make, bad):
        ring = make()
        for label in bad:
            with pytest.raises(UnknownLabel):
                ring.product(ring.generators[0], label)
            with pytest.raises(UnknownLabel):
                ring.dim(label)
            with pytest.raises(UnknownLabel):
                ring.dual(label)

    @pytest.mark.parametrize("name, label", [
        ("free:zn:2+zn:3", "1:[g1]"), ("free:zn:2+zn:3", "1:g9"), ("free:zn:2+zn:3", "2:[g1]"),
        ("free:(free:zn:2+zn:3)+zn:2", "1:[1:g1]"),
        ("free:(free:zn:2+zn:3)+zn:2", "1:[1:g9*2:g1]"),
        ("free:(free:zn:2+zn:3)+zn:2", "2:g1*1:[1:g1*2:g3]"),
        ("prod:su2+so3", "(X3,W1)"), ("prod:su2+so3", "(V1,V1)"),
    ])
    def test_a_product_names_the_label_given(self, name, label):
        # free or direct: not the part of it that a factor rejects
        ring = resolve_catalog(name)
        for ask in (lambda: ring.product(ring.generators[0], label),
                    lambda: ring.dim(label), lambda: ring.dual(label)):
            with pytest.raises(UnknownLabel) as info:
                ask()
            assert str(info.value) == f"unknown label {label!r}"


class TestProductsOfRings:
    def test_direct_product_dims_multiply(self, prodring, z2ring, reps3):
        lab = "(g1,rho)"
        assert prodring.dim(lab) == z2ring.dim("g1") * reps3.dim("rho")

    def test_direct_product_componentwise(self, prodring):
        supp = prodring.product("(g1,rho)", "(g1,rho)")
        assert supp == {"(e,1)": 1, "(e,sgn)": 1, "(e,rho)": 1}

    def test_mixed_kinds_multiply_componentwise(self, zring, z2ring):
        ring = fr.direct_product(zring, z2ring)
        assert fr.validate_ring(ring, 3).ok
        assert ring.product("(z1,g1)", "(z2,g1)") == {"(z3,e)": 1}
        assert ring.product("(z-1,g1)", "(z1,e)") == {"(z0,g1)": 1}

    def test_generated_direct_product(self, su2, zring):
        ring = fr.direct_product(su2, zring)
        supp = ring.product("(V1,z1)", "(V1,z-1)")
        assert supp == {"(V0,z0)": 1, "(V2,z0)": 1}

    def test_free_product_cross_factor_words(self, z2ring):
        ring = fr.free_product(z2ring, z2ring)
        ab = "1:g1*2:g1"
        ba = "2:g1*1:g1"
        assert ring.product(ab, ba) == {ring.unit: 1}
        assert ring.product(ab, ab) == {"1:g1*2:g1*1:g1*2:g1": 1}

    def test_free_product_with_generated_factor(self, su2, z2ring):
        ring = fr.free_product(su2, z2ring)
        assert fr.validate_ring(ring, depth=3).ok

    @pytest.mark.parametrize("make, depth", [
        (lambda z2, z3: fr.free_product(fr.free_product(z2, z3), z2), 3),
        (lambda z2, z3: fr.free_product(fr.direct_product(z2, z2), z3), 3),
        (lambda z2, z3: fr.direct_product(fr.free_product(z2, z3), z2), 3),
        (lambda z2, z3: fr.free_product(z2, fr.free_product(z2, fr.free_product(z2, z3))), 2),
    ], ids=["free(free)", "free(prod)", "prod(free)", "free(free(free))"])
    def test_nested_products(self, make, depth, z2ring, z3ring):
        ring = make(z2ring, z3ring)
        assert fr.validate_ring(ring, depth).ok
        window = ring.elements(depth)
        for x in window:
            for y in window:
                for c in ring.product(x, y):  # every label a product writes parses back
                    assert ring.dual(ring.dual(c)) == c
                    assert ring.product(ring.unit, c) == {c: 1}


class TestSerialization:
    def test_explicit_roundtrip(self, tmp_path, reps3):
        path = tmp_path / "reps3.json"
        fr.save_ring(reps3, path)
        loaded = fr.load_ring(path)
        assert sorted(loaded.labels()) == sorted(reps3.labels())
        for a in reps3.labels():
            for b in reps3.labels():
                assert loaded.product(a, b) == reps3.product(a, b)

    def test_generated_saves_truncated(self, tmp_path, su2):
        path = tmp_path / "su2.json"
        fr.save_ring(su2, path, depth=4)
        loaded = fr.load_ring(path)
        assert loaded.truncated_at == 4
        assert loaded.product("V1", "V2") == su2.product("V1", "V2")

    def test_truncated_table_saves_back_byte_for_byte(self, tmp_path):
        """`save_ring` skips the pairs a truncated table cannot multiply."""
        path = tmp_path / "su2.json"
        fr.save_ring(fr.load_ring(DATA / "su2_depth4.json"), path)
        assert path.read_bytes() == (DATA / "su2_depth4.json").read_bytes()

    def test_truncated_ring_is_checked_to_its_depth(self, tmp_path, su2):
        path = tmp_path / "su2.json"
        fr.save_ring(su2, path, depth=4)
        assert fr.validate_ring(fr.load_ring(path, validate=False)).checked_depth == 4

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"basis": []}))
        with pytest.raises(MalformedFile):
            fr.load_ring(path)

    @pytest.mark.parametrize("text, key", [
        ('{"unit": "1", "unit": "1"}', "unit"),
        ('{"dual": {"sgn": "rho", "sgn": "sgn"}}', "sgn"),
        ('{"fusion": [{"a": "1", "n": 1, "n": 2}]}', "n"),
    ], ids=["top-level", "nested", "in-a-list"])
    def test_repeated_key_rejected_at_any_depth(self, tmp_path, text, key):
        """`json.loads` alone would keep the last of two equal keys."""
        path = tmp_path / "dup.json"
        path.write_text(text)
        with pytest.raises(MalformedFile, match=f"^duplicate key '{key}'$"):
            read_object(path)

    def test_invalid_loaded_ring_rejected(self, tmp_path, reps3):
        path = tmp_path / "corrupt.json"
        fr.save_ring(reps3, path)
        doc = json.loads(path.read_text())
        for entry in doc["fusion"]:
            if entry["a"] == "sgn" and entry["b"] == "sgn":
                entry["c"] = "rho"
        path.write_text(json.dumps(doc))
        with pytest.raises(AxiomViolation):
            fr.load_ring(path)

    def test_load_group_file(self, tmp_path):
        g = fr.cyclic_group(3)
        doc = {"elements": list(g.labels), "identity": g.labels[g.identity],
               "table": {g.labels[a]: {g.labels[b]: g.labels[c] for b, c in enumerate(row)}
                         for a, row in enumerate(g.mult)}}
        path = tmp_path / "z3.json"
        path.write_text(json.dumps(doc))
        ring = fr.group_ring(fr.load_group(path))
        assert fr.validate_ring(ring).ok

    def test_group_file_is_checked_once(self, monkeypatch):
        calls = []
        verify = fr.GroupTable.verify
        monkeypatch.setattr(fr.GroupTable, "verify",
                            lambda g: calls.append(g) or verify(g))
        resolve_catalog(f"group:{DATA / 'z3_group.json'}")
        assert len(calls) == 1

    def test_group_file_that_is_no_group_is_input_error(self, tmp_path):
        doc = json.loads((DATA / "z3_group.json").read_text())
        doc["table"]["g1"]["g1"] = "g1"  # every entry an element, no group law
        path = tmp_path / "not_a_group.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["chain-group", "--catalog", f"group:{path}"]) == (
            2, "", "error: associativity fails at ('g1','g1','g2')\n")
