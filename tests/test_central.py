"""Chain classes, coset partitions, central subobjects, group identification."""

import math
import random
import signal
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

import fusionrings as fr
from fusionrings.errors import NotAGroup

from conftest import kept
from test_acceptance import budget


class TestMergeClosure:
    def test_su2_parity_blocks(self, su2):
        part = fr.merge_closure(su2, depth=6)
        assert len(part.blocks) == 2
        explored = set(su2.elements(6))
        unit_block = set(part.blocks[part.block_of["V0"]])
        assert unit_block & explored == {"V0", "V2", "V4", "V6"}


class TestSigmaCosets:
    def test_repz4_even_subobject(self, repz4):
        sub = fr.check_subobject(repz4, ["chi0", "chi2"])
        part = fr.sigma_cosets(repz4, sub)
        assert len(part.blocks) == 2
        assert part.block_of["chi1"] == part.block_of["chi3"]

    def test_whole_basis_single_block(self, reps3):
        sub = fr.check_subobject(reps3, reps3.labels())
        part = fr.sigma_cosets(reps3, sub)
        assert len(part.blocks) == 1

    def test_group_ring_subgroup_cosets(self, s3ring):
        sub = fr.check_subobject(s3ring, ["e", "r", "r2"])
        part = fr.sigma_cosets(s3ring, sub)
        assert len(part.blocks) == 2

    def test_non_transitive_relation_is_logged(self, non_transitive_ring):
        ring = non_transitive_ring
        with pytest.warns(UserWarning, match="not transitive"):
            part = fr.sigma_cosets(ring, fr.check_subobject(ring, ["1"]))
        assert part.block_of["x"] == part.block_of["z"]


class TestCentralSubobjects:
    def test_normal_subgroup_is_central_here(self, s3ring):
        sub = fr.check_subobject(s3ring, ["e", "r", "r2"])
        res = fr.is_central_subobject(s3ring, sub)
        assert res.central
        assert res.table.size == 2

    def test_non_normal_subgroup_is_not_central(self, s3ring):
        sub = fr.check_subobject(s3ring, ["e", "s"])
        res = fr.is_central_subobject(s3ring, sub)
        assert not res.central
        assert res.witness is not None

    def test_rep_s3_trivial_subobject_not_central(self, reps3):
        sub = fr.check_subobject(reps3, ["1"])
        res = fr.is_central_subobject(reps3, sub)
        assert not res.central

    def test_enumeration_rep_z4(self, repz4):
        subs = fr.enumerate_central_subobjects(repz4)
        members = [s.sorted_in(repz4) for s in subs]
        assert members == [["chi0"], ["chi0", "chi2"],
                           ["chi0", "chi1", "chi2", "chi3"]]

    def test_enumeration_rep_s3(self, reps3):
        subs = fr.enumerate_central_subobjects(reps3)
        assert [len(s) for s in subs] == [3]

    def test_generated_center(self, su2, so3):
        su2_center = fr.center_subobject(su2, 6)
        assert {"V0", "V2"} <= set(su2_center.members)
        assert "V1" not in su2_center
        # trivial center: everything is chain-equivalent to the unit
        so3_center = fr.center_subobject(so3, 6)
        assert set(so3.elements(6)) <= set(so3_center.members)


class TestChainGroup:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=3)
           .filter(lambda orders: math.prod(orders) <= 288))
    @example([6])  # Z/6, the Klein group and Z/2 x Z/4
    @example([2, 2])
    @example([2, 4])
    def test_abelian_invariants_of_cyclic_products(self, orders):
        elems = list(product(*(range(n) for n in orders)))
        index = {x: i for i, x in enumerate(elems)}
        mult = tuple(tuple(index[tuple((a + b) % n for a, b, n in zip(x, y, orders))]
                           for y in elems) for x in elems)
        table = fr.GroupTable(mult, 0, tuple(map(str, elems)))
        assert fr.abelian_invariants(table) == _invariant_factors(orders)

    def test_direct_product_mixes_factors(self, prodring):
        _, desc = fr.chain_group(prodring)
        assert desc.order == 2  # the character-ring factor collapses

    def test_stability_flag_generated(self, su2):
        _, desc = fr.chain_group(su2, 6)
        assert desc.flag == "stable_at_depth(6)"
        assert desc.abelian_invariants == [2]

    def test_named_group_is_stable_while_its_relators_grow(self):
        # Z x Z gains the commutator [a][b]^j[a]^-1[b]^-j with each depth j
        ring = fr.direct_product(fr.z_group_ring(), fr.z_group_ring())
        _, desc = fr.chain_group(ring, 5)
        _, deeper = fr.chain_group(ring, 6)
        assert desc.name == deeper.name == "Z x Z"
        assert len(deeper.presentation["relations"]) > len(desc.presentation["relations"])
        assert desc.flag == "stable_at_depth(5)"

    def test_infinite_chain_group_presentation(self, zring):
        pres, desc = fr.chain_group(zring, 5)
        assert desc.name == "Z"
        assert desc.presentation["relations"] == []

    def test_finite_table_is_verified_once(self, monkeypatch):
        ring = fr.group_ring(fr.cyclic_group(48))
        verify, calls = fr.GroupTable.verify, []
        monkeypatch.setattr(fr.GroupTable, "verify",
                            lambda table: calls.append(table) or verify(table))
        table, desc = fr.chain_group(ring)
        assert calls == [table] and desc.name == "Z/48Z"
        fr.enumerate_central_subobjects(ring)
        assert calls == [table, table]

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_cyclic_group_ring_chain_group(self, n):
        ring = fr.group_ring(fr.cyclic_group(n))
        table, desc = fr.chain_group(ring)
        assert desc.order == n
        assert desc.is_abelian


class TestGroupIdentification:
    def test_isomorphic_relabel(self, z4ring):
        t1, _ = fr.chain_group(z4ring)
        ring2 = fr.group_ring(fr.cyclic_group(4))
        t2, _ = fr.chain_group(ring2)
        assert fr.tables_isomorphic(t1, t2)

    def test_z4_not_klein(self, z4ring, kleinring):
        t1, _ = fr.chain_group(z4ring)
        t2, _ = fr.chain_group(kleinring)
        assert not fr.tables_isomorphic(t1, t2)

    def test_candidate_naming(self, s3ring):
        reference, _ = fr.chain_group(s3ring)
        _, desc = fr.chain_group(s3ring, candidates={"S3": reference})
        assert desc.name == "S3"

    @pytest.mark.parametrize("mult, message", [
        (((0, 1), (1,)), "table not square"),
        (((0, 1), (1, 2)), "table entry out of range"),
    ])
    def test_group_table_verify_rejects_malformed_table(self, mult, message):
        with pytest.raises(NotAGroup, match=f"^{message}$"):
            fr.GroupTable(mult, 0, ("e", "a")).verify()

    @pytest.mark.parametrize("table, message", [
        (fr.GroupTable((), 0, ()), "identity 0 not among 0 elements"),
        (fr.GroupTable(((0,),), 5, ("e",)), "identity 5 not among 1 elements"),
        (fr.GroupTable(((0, 1), (1, 1)), 0, ("e",)),
         "labels ('e',) are not one distinct label per element"),
        (fr.GroupTable(((0, 1), (1, 0)), 0, ("e", "e")),
         "labels ('e', 'e') are not one distinct label per element"),
    ], ids=["empty", "identity-outside", "too-few-labels", "repeated-label"])
    def test_group_table_verify_rejects_malformed_input(self, table, message):
        for check in (fr.GroupTable.verify, fr.group_ring):
            with pytest.raises(NotAGroup) as exc:
                check(table)
            assert str(exc.value) == message

    @pytest.mark.parametrize("mult, message", [
        (((0, 1), (1, 1)), "no inverse for 'a'"),
        (((0, 1, 2), (1, 0, 1), (2, 2, 0)), "associativity fails at ('a','a','b')"),
    ], ids=["no-inverse", "not-associative"])
    def test_a_table_that_is_no_group_keeps_no_verdict(self, mult, message):
        table = fr.GroupTable(mult, 0, ("e", "a", "b")[:len(mult)])
        raised = []
        for _ in range(2):
            with pytest.raises(NotAGroup) as exc:
                table.verify()
            raised.append(str(exc.value))
        assert raised == [message, message]
        assert kept(table, "verified") == {}

    def test_a_passing_verify_is_kept(self, monkeypatch):
        table = fr.cyclic_group(5)
        assert kept(table, "verified") == {}
        table.verify()
        assert kept(table, "verified") == {None: None}
        monkeypatch.setattr(fr.GroupTable, "_check", lambda self: pytest.fail("checked again"))
        table.verify()

    def test_every_fact_of_a_table_is_kept(self):
        ring, c12 = fr.group_ring(fr.cyclic_group(12)), fr.cyclic_group(12)
        table, desc = fr.chain_group(ring, candidates={"C12": c12})
        assert desc.name == "C12" and len(fr.enumerate_central_subobjects(ring)) == 6
        assert fr.abelian_invariants(table) == [12]
        assert {question for question, _ in table.answers} == {
            "verified", "generators", "orders", "normals", "invariants", "isomorphic"}
        assert kept(table, "invariants") == {None: [12]} and kept(table, "isomorphic") == {c12: True}
        assert kept(c12, "hash") == {None: hash(c12)}
        assert kept(table, "generators") == {None: tuple(table.generators())}
        assert kept(table, "orders") == {None: table.orders()}
        assert kept(table, "normals") == {None: table.normal_subgroups()}
        assert len(table.normal_subgroups()) == 6  # one per divisor of 12
        assert set(vars(table)) == {"mult", "identity", "labels", "answers"}

    @pytest.mark.parametrize("n", [16, 24, 32, 48, 64])
    def test_relabeled_cyclic_tables_are_isomorphic(self, n):
        cyclic = _abelian([n])
        with budget(1):
            assert fr.tables_isomorphic(_shuffled(cyclic, n), _shuffled(cyclic, n + 1))

    @pytest.mark.parametrize("orders1, orders2", [
        ([2] * 5, [2] * 5), ([4, 8], [2, 16]), ([4, 8], [8, 4]), ([2, 16], [32]),
        ([2, 3, 8], [48]), ([2, 2, 12], [4, 12]), ([2, 4, 6], [4, 12]), ([2], [3]),
    ])
    def test_abelian_tables_are_isomorphic_exactly_when_invariant_factors_agree(
            self, orders1, orders2):
        t1, t2 = _shuffled(_abelian(orders1), 1), _shuffled(_abelian(orders2), 2)
        with budget(1):
            assert (fr.tables_isomorphic(t1, t2)
                    == (_invariant_factors(orders1) == _invariant_factors(orders2)))

    def test_s3_x_z8(self):
        s3_z8 = _table([(p, k) for p in permutations(range(3)) for k in range(8)],
                       lambda a, b: (tuple(a[0][i] for i in b[0]), (a[1] + b[1]) % 8),
                       ((0, 1, 2), 0))
        with budget(1):
            assert fr.tables_isomorphic(s3_z8, _shuffled(s3_z8, 3))
            assert not fr.tables_isomorphic(s3_z8, _shuffled(_abelian([48]), 4))
            assert not fr.tables_isomorphic(_abelian([48]), s3_z8)

    def test_same_element_orders_but_not_isomorphic(self):
        # Z/4 x| Z/4, with b a b^-1 = a^-1, is not abelian, but has the 1, 3
        # and 12 elements of order 1, 2 and 4 that Z/4 x Z/4 has, so only
        # the search can tell them apart
        semidirect = _table(list(product(range(4), range(4))),
                            lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 4),
                            (0, 0))
        abelian = _abelian([4, 4])
        assert (sorted(map(semidirect.element_order, range(16)))
                == sorted(map(abelian.element_order, range(16))))
        semidirect.verify()
        assert not semidirect.is_abelian() and abelian.is_abelian()
        for t1, t2 in ((abelian, semidirect), (semidirect, _shuffled(abelian, 5)),
                       (_shuffled(semidirect, 6), abelian)):
            assert not fr.tables_isomorphic(t1, t2)
        assert fr.tables_isomorphic(semidirect, _shuffled(semidirect, 7))

    @pytest.mark.parametrize("orders", [[1], [32], [2] * 5, [2, 3, 8], [4, 4]])
    def test_generators_generate_greedily(self, orders):
        table = _shuffled(_abelian(orders), 8)
        gens = table.generators()
        assert table.subgroup(gens) == frozenset(range(table.size))
        assert all(g not in table.subgroup(gens[:k]) for k, g in enumerate(gens))
        assert gens == sorted(gens)

    def test_chain_group_names_a_shuffled_cyclic_group(self):
        order = list(range(32))
        random.Random(0).shuffle(order)  # the k-th element listed is g(order[k])
        at = {a: k for k, a in enumerate(order)}
        mult = tuple(tuple(at[(a + b) % 32] for b in order) for a in order)
        labels = tuple(f"g{a}" if a else "e" for a in order)
        ring = fr.group_ring(fr.GroupTable(mult, at[0], labels))
        with budget(1):
            _, desc = fr.chain_group(ring, candidates={"C32": _abelian([32])})
        assert desc.name == "C32" and desc.abelian_invariants == [32]

    def test_group_table_verify_rejects_bad_table(self):
        mult = ((0, 1), (1, 1))  # not a latin square
        table = fr.GroupTable(mult, 0, ("e", "a"))
        for _ in range(3):  # a failed verdict is not kept
            with pytest.raises(NotAGroup, match="^no inverse for 'a'$"):
                table.verify()

    def test_chain_group_rejects_a_candidate_that_is_no_group(self):
        # no power of b is the identity, so a search by element orders would not end
        bad = fr.GroupTable(((0, 1), (1, 1)), 0, ("a", "b"))

        def hung(signum, frame):
            raise TimeoutError("chain_group did not return")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            with pytest.raises(NotAGroup, match="^no inverse for 'b'$"):
                fr.chain_group(fr.group_ring(fr.cyclic_group(2)), candidates={"bad": bad})
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def _table(elements, law, identity):
    """The GroupTable of `law` on `elements`, built from the law itself."""
    index = {x: i for i, x in enumerate(elements)}
    mult = tuple(tuple(index[law(a, b)] for b in elements) for a in elements)
    return fr.GroupTable(mult, index[identity], tuple(map(str, elements)))


def _abelian(orders):
    """Z/n1 x ... x Z/nk, listed in lexicographic order."""
    return _table(list(product(*(range(n) for n in orders))),
                  lambda x, y: tuple((a + b) % n for a, b, n in zip(x, y, orders)),
                  tuple(0 for _ in orders))


def _shuffled(table, seed):
    """The same group with its elements listed in a random order."""
    new = list(range(table.size))
    random.Random(seed).shuffle(new)  # element i becomes element new[i]
    old = sorted(range(table.size), key=new.__getitem__)
    mult = tuple(tuple(new[table.mult[a][b]] for b in old) for a in old)
    return fr.GroupTable(mult, new[table.identity], tuple(table.labels[a] for a in old))


def _invariant_factors(orders):
    """The invariant factors of the product of the Z/n, smallest first:
    the k-th largest factor multiplies the k-th largest p-part of the
    orders for every prime p."""
    parts = {}
    for n in orders:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                parts.setdefault(p, []).append(q)
            p += 1
    factors = [1] * max((len(v) for v in parts.values()), default=0)
    for qs in parts.values():
        for k, q in enumerate(sorted(qs, reverse=True)):
            factors[k] *= q
    return factors[::-1]
