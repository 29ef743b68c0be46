"""Shared fixtures: the small explicit rings and the generated catalog.

The hypothesis profile `ci` draws the same examples on every run; CI
selects it with `--hypothesis-profile=ci`, so a CI failure replays
locally with the same flag, while plain runs stay random."""

import pytest
from hypothesis import settings

import fusionrings as fr

settings.register_profile("ci", derandomize=True)


def kept(owner, question):
    """The answers a ring, a restriction or a group table keeps to
    `question`, by key (the stamp `checked_depth(depth)`, or the key its
    reader gives: None for every fact of a table)."""
    return {key: value for (asked, key), value in owner.answers.items() if asked == question}


@pytest.fixture(scope="session")
def z2ring():
    return fr.group_ring(fr.cyclic_group(2))


@pytest.fixture(scope="session")
def z3ring():
    return fr.group_ring(fr.cyclic_group(3))


@pytest.fixture(scope="session")
def z4ring():
    return fr.group_ring(fr.cyclic_group(4))


@pytest.fixture(scope="session")
def kleinring():
    return fr.group_ring(fr.klein_group())


@pytest.fixture(scope="session")
def s3ring():
    return fr.group_ring(fr.s3_group())


@pytest.fixture(scope="session")
def reps3():
    return fr.rep_s3_ring()


@pytest.fixture(scope="session")
def repz4():
    return fr.rep_z4_ring()


@pytest.fixture(scope="session")
def prodring(z2ring, reps3):
    return fr.direct_product(z2ring, reps3)


@pytest.fixture(scope="session")
def explicit_fixtures(z2ring, z3ring, z4ring, kleinring, s3ring, reps3,
                      repz4, prodring):
    return {"z2": z2ring, "z3": z3ring, "z4": z4ring, "klein": kleinring,
            "s3": s3ring, "reps3": reps3, "repz4": repz4, "prod": prodring}


@pytest.fixture(scope="session")
def su2():
    return fr.su2_ring()


@pytest.fixture(scope="session")
def so3():
    return fr.so3_ring()


@pytest.fixture(scope="session")
def au2():
    return fr.au_word_ring(2)


@pytest.fixture(scope="session")
def zring():
    return fr.z_group_ring()


@pytest.fixture(scope="session")
def generated_fixtures(su2, so3, au2, zring):
    return {"su2": su2, "so3": so3, "au2": au2, "z": zring}


@pytest.fixture
def non_transitive_ring():
    """An unvalidated table where, for sigma = {1}, x ~ y and y ~ z through
    the unit, but not x ~ z.  A fresh ring per test."""
    labels = ["1", "x", "y", "z"]
    fusion = {(a, b): {"x": 1} for a in labels for b in labels}
    for a in labels:
        fusion[("1", a)] = fusion[(a, "1")] = {a: 1}
    for pair in (("x", "y"), ("y", "x"), ("y", "z"), ("z", "y")):
        fusion[pair] = {"1": 1}
    return fr.FusionRing.explicit([fr.BasisElement(l, 1) for l in labels], "1",
                                  {l: l for l in labels}, fusion)
