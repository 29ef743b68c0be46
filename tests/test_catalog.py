"""Builders: group rings, character rings, generated families, products, IO."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import fusionrings as fr
from fusionrings.errors import (
    AxiomViolation,
    MalformedFile,
    NotAGroup,
    UnknownLabel,
)


class TestGroupPresentations:
    def test_cyclic_check(self):
        fr.cyclic_group(5).check()

    def test_s3_is_a_group_of_order_6(self):
        g = fr.s3_group()
        g.check()
        assert len(g.elements) == 6

    def test_broken_table_rejected(self):
        g = fr.cyclic_group(3)
        table = dict(g.table)
        table[("g1", "g1")] = "g1"  # breaks inverses
        broken = fr.GroupPresentationInput(g.elements, table, g.identity)
        with pytest.raises(NotAGroup):
            broken.check()

    def test_group_ring_dims_are_one(self, s3ring):
        assert all(s3ring.dim(l) == 1 for l in s3ring.labels())

    def test_group_ring_products_are_singletons(self, kleinring):
        for a in kleinring.labels():
            for b in kleinring.labels():
                supp = kleinring.product(a, b)
                assert list(supp.values()) == [1]


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

    def test_truncated_ring_is_checked_to_its_depth(self, tmp_path, su2):
        path = tmp_path / "su2.json"
        fr.save_ring(su2, path, depth=4)
        assert fr.validate_ring(fr.load_ring(path, validate=False)).checked_depth == 4

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"basis": []}))
        with pytest.raises(MalformedFile):
            fr.load_ring(path)

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
        doc = {"elements": list(g.elements), "identity": g.identity,
               "table": {a: {b: g.table[(a, b)] for b in g.elements}
                         for a in g.elements}}
        path = tmp_path / "z3.json"
        path.write_text(json.dumps(doc))
        ring = fr.group_ring(fr.load_group(path))
        assert fr.validate_ring(ring).ok
