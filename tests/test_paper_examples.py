"""The paper's examples: one case for each cell of the README's table that
the library answers today.

Every expected value is taken from theory and cited beside it, never from
library output.  The rings are named by their catalog spelling (see
README "Rings").  A generated ring is answered on a window, so its flag is
`stable_at_depth(d)`; a finite table's is `exact`.

- For the group ring C*(Gamma) of a discrete group every irreducible has
  dimension 1 and the chain group U is Gamma itself; its central
  subobjects are the normal subgroups of Gamma (Mueger, "On the center of
  a compact group", IMRN 2004: U is the dual of the center).
- For a direct product, U(R1 x R2) = U(R1) x U(R2), its unit class is
  the pairs of unit-class labels, and its grouplikes are the pairs of
  grouplikes: dimensions multiply, so (a, b) has dimension 1 exactly when
  a and b do.  A finite abelian U is named by its invariant factors,
  smallest first, as Z/2 x Z/4 for Z/4 x Z/2.
- For Rep(G) of a compact group G, U is the dual of the center Z(G), the
  unit's chain class is Rep(G/Z(G)), and the grouplikes are the
  one-dimensional representations (the dual of the abelianization).
"""

from itertools import product
from math import comb, gcd, prod

import pytest

import fusionrings as fr
from fusionrings.cli import resolve_catalog


S3 = ("e", "r", "r2", "s", "sr", "sr2")


def _pairs(left, right):
    """The labels (a,b) of a direct product."""
    return {f"({a},{b})" for a, b in product(left, right)}


def _units(n):
    """|Aut(Z/n)| = phi(n), the units mod n."""
    return sum(gcd(k, n) == 1 for k in range(1, n + 1))


def _divisors(n):
    """The number of subgroups of Z/n: one per divisor of n."""
    return sum(n % d == 0 for d in range(1, n + 1))


def _gl(n, q=2):
    """|GL(n, q)| = prod over k < n of (q^n - q^k)."""
    return prod(q ** n - q ** k for k in range(n))


def _gaussian(n, k, q=2):
    """The number of k-dimensional subspaces of F_q^n."""
    return prod(q ** (n - i) - 1 for i in range(k)) // prod(q ** (i + 1) - 1 for i in range(k))


# (ring, depth, U's name or None, flag, order, abelian)
CHAIN_GROUPS = [
    ("zn:8", 6, "Z/8Z", "exact", 8, True),  # C*(Z/8): U = Z/8
    ("klein", 6, "Z/2Z x Z/2Z", "exact", 4, True),  # C*(Z/2 x Z/2)
    ("s3", 6, None, "exact", 6, False),  # C*(S3): U = S3, order 6, not abelian
    ("reps3", 6, "trivial", "exact", 1, True),  # Rep(S3): Z(S3) = 1
    ("repz4", 6, "Z/4Z", "exact", 4, True),  # Rep(Z/4): Z = Z/4, self-dual
    ("zn:12", 6, "Z/12Z", "exact", 12, True),  # C*(Z/12)
    ("prod:zn:4+zn:2", 6, "Z/2Z x Z/4Z", "exact", 8, True),  # Z/4 x Z/2
    ("prod:klein+zn:2", 6, "Z/2Z x Z/2Z x Z/2Z", "exact", 8, True),  # (Z/2)^3
    ("prod:s3+reps3", 6, None, "exact", 6, False),  # S3 x 1 = S3
    ("su2", 6, "Z/2Z", "stable_at_depth(6)", 2, True),  # Z(SU(2)) = {+1, -1}
    ("so3", 6, "trivial", "stable_at_depth(6)", 1, True),  # Z(SO(3)) = 1
    # U_n+: the free-word rule (Banica 1997) grades by #u - #v onto Z
    ("au", 4, "Z", "stable_at_depth(4)", None, True),
    ("z", 6, "Z", "stable_at_depth(6)", None, True),  # C*(Z): U = Z
    # Z(SU(2) x SO(3)) = Z/2 x 1
    ("prod:su2+so3", 3, "Z/2Z", "stable_at_depth(3)", 2, True),
    # the dual of Z/2 * Z/3 (Wang, "Free products of compact quantum groups", 1995)
    ("free:zn:2+zn:3", 4, "Z/2Z * Z/3Z", "stable_at_depth(4)", None, False),
    # U of a free product is the free product of the factors' (Wang 1995): Z/2 * Z/2
    ("free:su2+zn:2", 4, "Z/2Z * Z/2Z", "stable_at_depth(4)", None, False),
]


@pytest.mark.parametrize("name, depth, group, flag, order, abelian", CHAIN_GROUPS,
                         ids=[row[0] for row in CHAIN_GROUPS])
def test_chain_group(name, depth, group, flag, order, abelian):
    _, desc = fr.chain_group(resolve_catalog(name), depth)
    assert (desc.name, desc.flag, desc.order, desc.is_abelian) == (group, flag, order, abelian)


def _su2_evens(depth):
    """The integer spins of elements(2 * depth): V0, V2, ..., V(2 depth)."""
    return {f"V{k}" for k in range(0, 2 * depth + 1, 2)}


# (ring, depth, the center subobject, the unit's chain class on elements(2 depth))
CENTERS = [
    ("zn:8", 6, {"e"}),  # a group ring: the unit's class is {e}
    ("klein", 6, {"e"}),
    ("s3", 6, {"e"}),
    ("reps3", 6, {"1", "sgn", "rho"}),  # Z(S3) = 1 acts trivially on every irreducible
    ("zn:12", 6, {"e"}),
    ("prod:zn:4+zn:2", 6, {"(e,e)"}),
    ("prod:klein+zn:2", 6, {"(e,e)"}),
    ("prod:s3+reps3", 6, _pairs(["e"], ["1", "sgn", "rho"])),  # {e} x every label of Rep(S3)
    ("repz4", 6, {"chi0"}),  # Z/4 is its own center: only the trivial character
    ("su2", 6, _su2_evens(6)),  # -1 acts trivially exactly on the integer spins
    ("so3", 6, {f"W{k}" for k in range(13)}),  # every label of elements(12)
    ("z", 6, {"z0"}),
    # Z(SU(2) x SO(3)) = Z/2 x 1: the pairs (V_even, W_any) of elements(6),
    # where (V_a, W_b) takes a + b generators
    ("prod:su2+so3", 3, {f"(V{a},W{b})" for a in range(0, 7, 2) for b in range(7 - a)}),
    ("free:zn:2+zn:3", 3, {"e"}),  # a group ring: the unit's class is {e}
]


@pytest.mark.parametrize("name, depth, center", CENTERS, ids=[row[0] for row in CENTERS])
def test_center_subobject(name, depth, center):
    assert fr.center_subobject(resolve_catalog(name), depth).members == center


def test_au_center_is_the_balanced_words():
    # U = Z by #u - #v, so the unit's class is the balanced words; there are
    # C(2k, k) of length 2k, 99 of length at most 8 = 2 * depth
    members = fr.center_subobject(resolve_catalog("au"), 4).members
    assert len(members) == sum(comb(2 * k, k) for k in range(5)) == 99
    assert all(w == "e" or w.count("u") == w.count("v") for w in members)


def _free_su2_z2_window(weight):
    """The words of free:su2+zn:2 within `weight` generators, as letter
    tuples: letters alternate between 1:V_k, k >= 1, which takes k of the
    generator 1:V1, and 2:g1, which takes one."""
    out, work = [], [((), 0)]
    while work:
        word, used = work.pop()
        out.append(word)
        last = word[-1][0] if word else None
        if last != 1:
            work.extend((word + ((1, k),), used + k) for k in range(1, weight - used + 1))
        if last != 2 and used < weight:
            work.append((word + ((2, 1),), used + 1))
    return out


def _in_the_kernel(word):
    """Whether a word's letter classes, 1:V_odd -> a, 1:V_even -> e and
    2:g1 -> b, multiply to e in <a, b | a^2, b^2> = Z/2 * Z/2."""
    reduced = []
    for factor, k in word:
        letter = "b" if factor == 2 else "a" if k % 2 else None
        if letter is None:
            continue
        if reduced and reduced[-1] == letter:
            reduced.pop()
        else:
            reduced.append(letter)
    return not reduced


def test_the_center_of_a_free_product_is_the_kernel_of_its_grading():
    # U = Z/2 * Z/2 (Wang 1995), graded by the letter classes: the unit's
    # class on elements(8) is the words whose classes multiply to e
    want = {"*".join(f"1:V{k}" if factor == 1 else "2:g1" for factor, k in word) or "e"
            for word in _free_su2_z2_window(8) if _in_the_kernel(word)}
    assert fr.center_subobject(resolve_catalog("free:su2+zn:2"), 4).members == want


# (ring, depth, the grouplike labels or None for every label, the group they form)
GROUPLIKES = [
    ("zn:8", 6, None, "Z/8Z"),  # a group ring: every label has dimension 1
    ("klein", 6, None, "Z/2Z x Z/2Z"),
    ("s3", 6, None, None),  # S3 is not abelian, so unnamed
    ("reps3", 6, {"1", "sgn"}, "Z/2Z"),  # S3's 1-dimensional representations
    ("repz4", 6, {"chi0", "chi1", "chi2", "chi3"}, "Z/4Z"),  # the four characters of Z/4
    ("zn:12", 6, None, "Z/12Z"),
    ("prod:zn:4+zn:2", 6, None, "Z/2Z x Z/4Z"),  # every pair of group-ring labels
    ("prod:klein+zn:2", 6, None, "Z/2Z x Z/2Z x Z/2Z"),
    # S3 x {1, sgn} = S3 x Z/2: 12 grouplikes, not abelian
    ("prod:s3+reps3", 6, _pairs(S3, ["1", "sgn"]), None),
    ("su2", 6, {"V0"}, "trivial"),  # SU(2) is perfect
    ("so3", 4, {"W0"}, "trivial"),  # so is SO(3)
    ("au", 4, {"e"}, "trivial"),  # A_u(n)'s nonempty words have dimension >= 2
    ("prod:su2+so3", 3, {"(V0,W0)"}, "trivial"),  # both factors are perfect
    # the free product's grouplikes are the free product of its factors'
    # (Wang 1995): 1 * Z/2
    ("free:su2+zn:2", 4, {"e", "2:g1"}, "Z/2Z"),
]


@pytest.mark.parametrize("name, depth, labels, group", GROUPLIKES,
                         ids=[row[0] for row in GROUPLIKES])
def test_grouplikes(name, depth, labels, group):
    ring = resolve_catalog(name)
    table, desc = fr.grouplikes_group(ring, depth)
    assert (set(table.labels), desc.name) == (labels or set(ring.labels()), group)
    assert desc.is_abelian is (group is not None)  # a finite abelian group is named


# (ring, |Aut|, the number of central subobjects).  On a group ring these
# are |Aut(Gamma)| and the number of normal subgroups of Gamma.
AUTOMORPHISMS_AND_LATTICES = [
    ("zn:8", _units(8), _divisors(8)),
    ("klein", _gl(2), sum(_gaussian(2, k) for k in range(3))),
    ("s3", 6, 3),  # S3 is complete, Aut = Inn = S3; its normal subgroups are 1, A3, S3
    # Rep(S3): the dims 1, 1, 2 fix every label; U = 1 has one normal subgroup
    ("reps3", 1, 1),
    ("repz4", _units(4), _divisors(4)),  # Rep(Z/4) is the group ring of the dual Z/4
    ("zn:12", _units(12), _divisors(12)),
    # Aut(Z/4 x Z/2) is the dihedral group of order 8; the subgroups are 1,
    # three of order 2, <(1,0)>, <(1,1)>, the Klein group {0, 2} x Z/2, and the whole
    ("prod:zn:4+zn:2", 8, 8),
    ("prod:klein+zn:2", _gl(3), sum(_gaussian(3, k) for k in range(4))),  # 168 and 16
    # Aut(S3) times Hom(S3, <sgn>), the twists (g, x) -> (g, sgn^sign(g) x);
    # U = S3, so the normal subgroups of S3
    ("prod:s3+reps3", 6 * 2, 3),
]


@pytest.mark.parametrize("name, order, lattice", AUTOMORPHISMS_AND_LATTICES,
                         ids=[row[0] for row in AUTOMORPHISMS_AND_LATTICES])
def test_automorphisms_and_central_subobjects(name, order, lattice):
    ring = resolve_catalog(name)
    assert (fr.automorphism_group(ring).order, len(fr.enumerate_central_subobjects(ring))) == \
        (order, lattice)


def test_the_theory_counts():
    # the formulas above against their textbook values
    assert [_units(n) for n in (4, 8, 12)] == [2, 4, 4]
    assert [_divisors(n) for n in (4, 8, 12)] == [3, 4, 6]
    assert [_gl(n) for n in (2, 3)] == [6, 168]
    assert [_gaussian(3, k) for k in range(4)] == [1, 7, 7, 1]
